#!/usr/bin/env python3
"""Check that the host-speed correction keeps a change in specsim's speed.

    python3 perfbench/sensitivity.py --out perfbench/results/SENSITIVITY_<label>.json

Runs each engine-bound workload in ``PAIRS`` pairs of benchmark runs, the
two runs of a pair on the same seed, alternating which runs first: one of
specsim as it is, one with a known extra cost inside the engine. In the
slowed run every ``REPEAT_EVERY``-th ``run()`` call of a pass is made
twice; the repeat's result is dropped, so the outputs and the simulated
cycles stay the same. For each pair it prints slowed over plain
``wall_s``, corrected and raw, and their medians over the pairs.

The expected ratio comes from one traced plain run on seed 1: one plus the
time of the ``run()`` calls that would be repeated over the time of the
traced calls at the top of the pass. The correction keeps the slowdown
when the corrected ratio meets the expected one; it would hide part of it
if the reference kernel slowed down along with specsim (same process, same
heap, same garbage collector).

``--slowed-run`` followed by ``run.py``'s arguments is the slowed side of
one pair: the benchmark's run with the extra cost patched in.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from recorder import Patches  # noqa: E402
from steady import SPEC, one_run  # noqa: E402

WORKLOADS = ("matrix", "defenses")  # the ones whose time is mostly run()
REPEAT_EVERY = 4
PAIRS = 10


def slowed_run(run_args: list[str]) -> int:
    plain_init = run.Specsim.__init__

    def init(self):
        plain_init(self)
        calls = itertools.count()  # over both modules, as the spans order them

        def repeat_some(fn):
            def slowed(*args, **kwargs):
                if next(calls) % REPEAT_EVERY == 0:
                    fn(*args, **kwargs)
                return fn(*args, **kwargs)

            return slowed

        # Never restored: these module objects live only for this process.
        for module in (self.attacks, self.seccheck):
            Patches().replace(module, "run", repeat_some)

    run.Specsim.__init__ = init
    return run.main(run_args)


def expected_ratio(workload: str) -> float:
    one_run(workload, 1, 1)
    with open(run.OUT / f"spans-{workload}-1.jsonl") as f:
        spans = [s for s in map(json.loads, f) if "id" in s]  # not the aggregates
    runs = sorted((s for s in spans if s["name"] == layers.RUN), key=lambda s: s["start"])
    repeated = sum(s["end"] - s["start"] for s in runs[::REPEAT_EVERY])
    return 1 + repeated / sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def main() -> int:
    if sys.argv[1:2] == ["--slowed-run"]:
        return slowed_run(sys.argv[2:])
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out")
    args = ap.parse_args()
    commands = {"plain": SPEC["command"], "slowed": ["python3", "perfbench/sensitivity.py", "--slowed-run"]}
    record: dict = {"repeat_every": REPEAT_EVERY, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        expected = expected_ratio(workload)
        pairs = []
        for i, seed in enumerate(range(1, PAIRS + 1)):
            order = ("plain", "slowed") if i % 2 == 0 else ("slowed", "plain")
            sides = {side: one_run(workload, seed, 0, commands[side]) for side in order}
            ok &= all(r["correct"] for r in sides.values())
            corrected = sides["slowed"]["metrics"]["wall_s"]["value"] / sides["plain"]["metrics"]["wall_s"]["value"]
            raw = sides["slowed"]["raw"]["wall_s"] / sides["plain"]["raw"]["wall_s"]
            pairs.append({"seed": seed, "first": order[0],
                          "corrected_ratio": corrected, "raw_ratio": raw,
                          **{f"{side}_wall_s": r["metrics"]["wall_s"]["value"] for side, r in sides.items()},
                          **{f"{side}_raw_wall_s": r["raw"]["wall_s"] for side, r in sides.items()}})
            print(f"{workload} seed={seed} slowed/plain wall_s: corrected {corrected:.4f} raw {raw:.4f}", flush=True)
        summary = {k: statistics.median(p[k] for p in pairs) for k in ("corrected_ratio", "raw_ratio")}
        record["workloads"][workload] = {"expected_ratio": expected, "pairs": pairs, "median": summary}
        print(f"{workload} median slowed/plain wall_s: corrected {summary['corrected_ratio']:.4f} "
              f"raw {summary['raw_ratio']:.4f} expected {expected:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
