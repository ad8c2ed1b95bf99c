#!/usr/bin/env python3
"""Record the output digests the benchmark checks against.

    python3 perfbench/pin.py

Runs one pass of each workload on every input set and writes the digest of
each item's output to ``perfbench/pinned.json``: per workload the item
names, and per input set their digests in that order. A pin is refused when the
pass does not show the properties the outputs stand for: the matrix must
match the reference table, every defense must Hold, and nothing may raise.
Re-pin only for an intended change of results; a speed-only change must
leave every digest as it is.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import PINS, SRC, Specsim, digest
from workloads import INPUT_SETS, WORKLOADS, Tally


def invariant_problems(workload: str, tally: Tally) -> list[str]:
    out = [f"{item} raised {why}" for item, why in tally.raised.items()]
    if workload == "matrix" and tally.outputs.get("reference_match") != "yes":
        out.append("matrix does not match the reference table")
    if workload == "defenses":
        out += [f"{item}: {v}" for item, v in tally.outputs.items()
                if not item.startswith("bench/") and v != "holds"]
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    sys.path.insert(0, str(SRC))
    pins = {}
    m = Specsim()
    bad = 0
    for workload, (setup, one_pass) in WORKLOADS.items():
        items, sets = None, {}
        for s in range(INPUT_SETS):
            tally = Tally()
            one_pass(m, setup(m, s), tally)
            problems = invariant_problems(workload, tally)
            for p in problems:
                print(f"{workload} input set {s}: {p}", file=sys.stderr)
            bad += bool(problems)
            if items is None:
                items = sorted(tally.outputs)
            elif sorted(tally.outputs) != items:
                print(f"{workload} input set {s}: items differ from input set 0", file=sys.stderr)
                bad += 1
            sets[str(s)] = " ".join(digest(tally.outputs.get(item, "")) for item in items)
            print(f"{workload} input set {s}: {len(tally.outputs)} items", flush=True)
        pins[workload] = {"items": items, "sets": sets}
    if bad:
        print(f"refusing to pin: {bad} input sets break an invariant", file=sys.stderr)
        return 1
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
