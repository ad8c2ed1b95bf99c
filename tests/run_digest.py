"""Print one digest over many generated runs, to show that an engine change
keeps every run the same.

Seed k gives one program, by turns: a gen_random_program program, the same
with marked fetches (gen_fetching_program), then each of those with a share
of its ops turned into markers (with_markers). Each program runs on the
default machine and the eight CORNERS configs, under all ten schemes, with
forced predictions off and on. Some seeds add an attacker script whose
late accesses fall after the ROB drains, some a max_cycles, and some both,
so that a max_cycles past the drain cuts the drained jump. Each run is
reduced to the digest of its observables (trace_digest, plus
secret_read_cycle and fetch_shadowed) or to the text of the
SimulationDeadlock that ended it. The script prints

    runs=N after_drain=A cut=C digest=SHA256

where A counts the runs that logged an attacker access after their last
retirement and C the runs that ended in a SimulationDeadlock. Two commits
keep every run the same when they print the same line. pytest does not
collect this file; run it from the repository root:

    PYTHONPATH=src python3 tests/run_digest.py [--seeds 600]

The tier-1 suite checks the line of the first 20 seeds against
tests/golden/run_digest_seeds20.txt, which make_golden.py regenerates and
checks with the other golden files; the full run stays a script.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

from specsim.machine import MachineConfig
from specsim.pipeline import SimulationDeadlock, run
from specsim.schemes import SchemeId
from specsim.seccheck import gen_random_program

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_corpus_digests import trace_digest  # noqa: E402
from test_schemes import CORNERS, gen_fetching_program, with_markers  # noqa: E402

CONFIGS = [MachineConfig(), *CORNERS]
# The marked fetch lines of gen_fetching_program, and lines that share an
# LLC set with them, so attacker accesses evict and back-invalidate.
LLC_SETS = CONFIGS[0].geometry.llc_sets
ATTACKER_LINES = [810_000 + k + way * LLC_SETS for k in range(4) for way in range(3)]


def program_of(seed: int):
    """By turns: plain, with marked fetches, and each of those with markers."""
    kind = seed % 4
    program, image = gen_fetching_program(seed) if kind in (1, 2) else gen_random_program(seed)
    if kind >= 2:
        program = with_markers(program, seed)
    return program, image


def run_kwargs(seed: int, image) -> dict:
    rng = random.Random(f"run-digest:{seed}")
    kw: dict = {"image": image}
    if rng.random() < 0.5:
        early = [(rng.randrange(400), rng.choice(ATTACKER_LINES)) for _ in range(rng.randint(0, 2))]
        late = [(rng.randrange(400, 8000), rng.choice(ATTACKER_LINES)) for _ in range(rng.randint(1, 3))]
        kw["attacker"] = early + late
    if rng.random() < 0.3:
        kw["max_cycles"] = rng.randrange(1, 6000)
    return kw


def digest_line(seeds: int) -> str:
    """The line this script prints for the first ``seeds`` programs."""
    total = hashlib.sha256()
    runs = after_drain = cut = 0
    for seed in range(seeds):
        program, image = program_of(seed)
        kw = run_kwargs(seed, image)
        for cfg in CONFIGS:
            for scheme in SchemeId:
                for forced in (False, True):
                    runs += 1
                    try:
                        t = run(program, cfg, scheme, force_correct_predictions=forced, **kw)
                    except SimulationDeadlock as exc:
                        cut += 1
                        total.update(f"raise:{exc}\n".encode())
                        continue
                    shadowed = sorted(rule.value for rule in t.fetch_shadowed)
                    total.update(f"{trace_digest(t)} {t.secret_read_cycle} {shadowed}\n".encode())
                    if any(name == "l2access" and op is None and c > t.total_cycles for c, name, op, _ in t.records):
                        after_drain += 1
    return f"runs={runs} after_drain={after_drain} cut={cut} digest={total.hexdigest()}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=600, help="programs to draw (180 runs each)")
    args = ap.parse_args()
    print(digest_line(args.seeds))


if __name__ == "__main__":
    main()
