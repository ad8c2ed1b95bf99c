#!/usr/bin/env python3
"""Steadiness and comparison mode of the specsim benchmark.

    python3 perfbench/steady.py --runs 10 --out perfbench/results/BENCH_<label>.json
    python3 perfbench/steady.py --compare perfbench/results/A.json perfbench/results/B.json

The first form runs ``perfbench/run.py`` on every workload ``--runs`` times,
one process at a time, with seeds 1 to ``--runs`` and the workload order
reversed every other round. It prints every end-to-end metric by name and
unit with its median, quartiles and spread (interquartile range over
median) against the bound in ``BENCHMARK.json``, the same for the
uncorrected (raw) figures, which have no bound, and each workload's failed
fraction. With ``--traced`` it adds one traced run per workload for
the per-layer metrics. ``--out`` writes the whole record as JSON.

The second form compares two such records metric by metric: the change of
the median in the metric's worse direction, against its bound. A metric
whose spread in either record exceeds its bound is reported unresolved.
Exits 1 when some metric got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
RUN_TIMEOUT_S = 300

sys.path.insert(0, str(HERE))
from run import RAW_PREFIX  # noqa: E402


def one_run(workload: str, seed: int, trace: int, command: list[str] = SPEC["command"]) -> dict:
    cmd = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    raw = [line[len(RAW_PREFIX):] for line in lines if line.startswith(RAW_PREFIX)]
    if raw:
        result["raw"] = json.loads(raw[-1])
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread_of(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        out[name] = {"unit": runs[0]["metrics"][name]["unit"],
                     **spread_of([r["metrics"][name]["value"] for r in runs])}
    out["raw"] = {name: spread_of([r["raw"][name] for r in runs]) for name in runs[0]["raw"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    out["failed_frac"] = {"unit": "frac", "median": failed / attempted, "attempted": attempted, "failed": failed}
    return out


def print_summary(workload: str, summary: dict, n: int) -> None:
    print(f"\n{workload} ({n} runs)")
    print(f"  {'metric':24s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name, s in summary.items():
        if name == "failed_frac":
            print(f"  {'failed_frac':24s} {'frac':6s} {s['median']:12.6f}   ({s['failed']}/{s['attempted']} items)")
            continue
        if name == "raw":
            for raw_name, r in s.items():
                print(f"  {'raw ' + raw_name:24s} {'':6s} {r['median']:12.5g} {r['q1']:12.5g} {r['q3']:12.5g} "
                      f"{r['spread']:7.3f}        uncorrected, no bound")
            continue
        bound = BOUNDS.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if s["spread"] <= bound / 3 else ("within bound" if s["spread"] <= bound else "OVER BOUND")
        print(f"  {name:24s} {s['unit']:6s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['spread']:7.3f} {bound if bound is not None else '':>6} {flag}")


def measure(args) -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    seeds = list(range(1, args.runs + 1))
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            r = one_run(w, seed, 0)
            runs[w].append(r)
            print(f"run {i + 1}/{args.runs} {w} seed={r['seed']} correct={r['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
    traced = {w: one_run(w, seeds[0], 1) for w in workloads} if args.traced else {}
    record = {
        "label": args.label,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()},
        "run_seconds": SPEC["run_seconds"],
        "seeds": seeds,
        "summary": {w: summarize(runs[w]) for w in workloads},
        "runs": runs,
        "traced": traced,
    }
    for w in workloads:
        print_summary(w, record["summary"][w], args.runs)
    for w, r in traced.items():
        print(f"\n{w} traced run (seed {seeds[0]})")
        for name, v in r["metrics"].items():
            print(f"  {name:44s} {v['unit']:6s} {v['value']:.6g}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(s["failed_frac"]["failed"] == 0 for s in record["summary"].values()) else 1


def compare(base_path: str, new_path: str) -> int:
    base = json.loads(Path(base_path).read_text())["summary"]
    new = json.loads(Path(new_path).read_text())["summary"]
    worse_beyond = 0
    print(f"{'workload':9s} {'metric':20s} {'base':>11s} {'new':>11s} {'worse by':>9s} {'bound':>6s} verdict")
    for w in base:
        if w not in new:
            continue
        for name, spec in BOUNDS.items():
            if name not in base[w] or name not in new[w]:
                continue
            a, b = base[w][name]["median"], new[w][name]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            if worse > spec["bound"]:
                verdict = "WORSE"
                worse_beyond += 1
            elif max(base[w][name]["spread"], new[w][name]["spread"]) > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within bound" if worse >= 0 else "better"
            print(f"{w:9s} {name:20s} {a:11.5g} {b:11.5g} {worse:9.3f} {spec['bound']:6} {verdict}")
    return 1 if worse_beyond else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--label", default="local")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
