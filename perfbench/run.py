#!/usr/bin/env python3
"""specsim benchmark: one run of one workload.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; specsim is imported from ``src/``
(nothing is installed). The run

1. before every pass sets up ``SETUPS_PER_PASS`` times: a fresh import of
   specsim plus the workload's input generation. ``setup_s`` is the median
   over all set-ups of the run, so its samples spread over the whole run;
2. with ``--trace 0``, repeats the workload pass until ``--seconds`` have
   gone by (at least ``MIN_PASSES`` passes) and reports the end-to-end
   metrics: mean pass time, simulated cycles over the total pass time,
   latency percentiles over every request of every pass, and the process's
   peak memory;
3. with ``--trace 1``, makes an untraced, a traced and another untraced
   pass and reports the per-layer metrics of the traced one, plus
   ``trace_overhead_frac``. Spans go to ``perfbench/out/``.

Every end-to-end time is corrected for the host's speed (see ``hostclock``):
a reference kernel is timed every quarter second, driven by an interval
timer, and each measured interval is converted to nominal-host seconds with
the kernel's slowdown around it. The same metrics computed from raw host
seconds are printed, as a JSON object on the line starting with
``RAW_PREFIX``, just before the result line; they have no bound. Per-layer
times are raw host seconds.

Every pass's outputs are checked item by item against the digests pinned in
``pinned.json``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Exits 2 without a
result when the specsim sources or the pins are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pinned.json"
OUT = HERE / "out"

SETUPS_PER_PASS = 8
MIN_PASSES = 2
RAW_PREFIX = "# raw "  # the line with the uncorrected end-to-end figures

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from hostclock import BRACKET_SAMPLES, Stopwatch  # noqa: E402
from recorder import CycleCounter, Recorder  # noqa: E402
from workloads import WORKLOADS, Tally, input_seed  # noqa: E402

SPECSIM_MODULES = ("machine", "memhier", "microprog", "schemes", "pipeline", "attacks", "seccheck")


class Specsim:
    """The freshly imported specsim modules, by short name."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "specsim" or n.startswith("specsim.")]:
            del sys.modules[name]
        importlib.import_module("specsim")
        for name in SPECSIM_MODULES:
            setattr(self, name, sys.modules[f"specsim.{name}"])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def score(tally: Tally, pinned: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one pass against its pinned items."""
    problems = [f"{item}: raised {why}" for item, why in sorted(tally.raised.items())]
    for item, want in sorted(pinned.items()):
        text = tally.outputs.get(item)
        if text is None:
            if item not in tally.raised:
                problems.append(f"{item}: no output")
        elif digest(text) != want:
            problems.append(f"{item}: output {text[:80]!r} differs from the pinned digest")
    extra = sorted(set(tally.outputs) - set(pinned))
    problems += [f"{item}: not among the pinned items" for item in extra]
    attempted = len(pinned) + len(extra) + len([i for i in tally.raised if i not in pinned])
    return attempted, len(problems), problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "specsim" / "__init__.py").is_file():
        print(f"error: no specsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not PINS.is_file():
        print(f"error: pinned output digests {PINS} missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(PINS) as f:
        pins = json.load(f)[args.workload]
    pinned = dict(zip(pins["items"], pins["sets"][str(input_seed(args.seed))].split()))
    setup, one_pass = WORKLOADS[args.workload]

    sw = Stopwatch()
    setups: list[tuple[float, float]] = []  # stopwatch intervals
    attempted = failed = 0
    problems: list[str] = []

    def fresh():
        """Set up SETUPS_PER_PASS times; the next pass runs on the last one."""
        gc.collect()
        for _ in range(SETUPS_PER_PASS):
            t0 = sw.now()
            m = Specsim()
            inputs = setup(m, args.seed)
            setups.append((t0, sw.now()))
        return m, inputs

    def timed_pass(m, inputs, recorder=None) -> tuple[tuple[float, float], list[tuple[float, float]], int]:
        """One pass: (its stopwatch interval, its requests' intervals,
        simulated cycles)."""
        nonlocal attempted, failed
        tally = Tally(clock=sw.now)
        counter = CycleCounter()
        if recorder is None:
            counter.install((m.attacks, m.seccheck))
        t0 = sw.now()
        try:
            one_pass(m, inputs, tally, recorder)
        finally:
            counter.restore()
        t1 = sw.now()
        a, f, p = score(tally, pinned)
        attempted += a
        failed += f
        problems.extend(p)
        return (t0, t1), tally.requests, counter.cycles

    with sw.sampling():
        sw.sample(BRACKET_SAMPLES)
        m, inputs = fresh()
        if Path(m.pipeline.__file__).resolve().parent != SRC / "specsim":
            print(f"error: imported specsim from {m.pipeline.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.trace:
            # Untraced passes on both sides of the traced one, so that drift
            # the host-speed correction misses cancels out of the overhead.
            before, *_ = timed_pass(m, inputs)
            m, inputs = fresh()
            rec = Recorder()
            try:
                layers.install(m, rec)
                traced, *_ = timed_pass(m, inputs, rec)
            finally:
                rec.restore()
            m, inputs = fresh()
            after, *_ = timed_pass(m, inputs)
        else:
            passes: list[tuple[tuple[float, float], int]] = []
            requests: list[tuple[float, float]] = []
            start = perf_counter()
            while True:
                interval, request_intervals, cycles = timed_pass(m, inputs)
                passes.append((interval, cycles))
                requests += request_intervals
                if len(passes) >= MIN_PASSES and perf_counter() - start >= args.seconds:
                    break
                m, inputs = fresh()
        sw.sample(BRACKET_SAMPLES)

    if args.trace:
        metrics = layers.metrics(m, rec)
        untraced = (sw.nominal(*before) + sw.nominal(*after)) / 2
        metrics["trace_overhead_frac"] = (sw.nominal(*traced) / untraced - 1, "frac")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        rec.write(spans_path)
        print(f"# spans: {spans_path.relative_to(ROOT)} ({len(rec.spans)} spans)")
    else:
        def end_to_end(duration) -> dict[str, tuple[float, str]]:
            """The end-to-end metrics, with each interval measured by ``duration``."""
            pass_s = [duration(*interval) for interval, _ in passes]
            request_ms = [duration(*r) * 1e3 for r in requests] or [0.0]
            return {
                "wall_s": (sum(pass_s) / len(passes), "s"),
                "setup_s": (statistics.median(duration(*i) for i in setups), "s"),
                "sim_cycles_per_s": (sum(c for _, c in passes) / sum(pass_s), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "request_ms_p50": (layers.percentile(request_ms, 50), "ms"),
                "request_ms_p95": (layers.percentile(request_ms, 95), "ms"),
            }

        metrics = end_to_end(sw.nominal)
        raw = end_to_end(lambda t0, t1: t1 - t0)
        print(f"# input_set={input_seed(args.seed)} sim_cycles_per_pass={passes[0][1]} "
              f"passes={len(passes)} setups={len(setups)} requests={len(requests)} "
              f"kernel_samples={len(sw.times)}")
        print(RAW_PREFIX + json.dumps({name: value for name, (value, _) in raw.items()}))

    for p in problems[:20]:
        print(f"# FAILED {p}")
    print(f"# failed_frac={failed / attempted:.6f} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
