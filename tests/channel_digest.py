"""Print one digest over many channel transmits, to show that a receiver
change keeps every result the same.

Each of the three senders of the benchmark's channel workload
(npeu/vdvd/dom-nontso, mshr/vdad/muontrap and rs/viad/dom-nontso, default
parameters on the default machine) is planned once. Its plan then
transmits every combination of 0, 1, 7 and 300 seed-derived bits, 0 to 5
trials per bit, flip noise 0, 0.02 and 0.3, 0 to 3 interlopers and two
seeds, so that later transmits read the victim runs that earlier ones
filled (a transmit keeps its trial readings for itself). Each case adds
the repr of its AttackResult (decoded and true bits, error and discard
rates, cycles per bit, trials) to one SHA-256. The script prints

    cases=N digest=SHA256

Two commits keep every transmit the same when they print the same line.
pytest does not collect this file; run it from the repository root:

    PYTHONPATH=src python3 tests/channel_digest.py

The tier-1 suite checks the line against tests/golden/channel_digest.txt,
which make_golden.py regenerates and checks with the other golden files.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import random

from specsim.attacks import plan_attack, transmit
from specsim.machine import MachineConfig
from specsim.microprog import Gadget, Ordering
from specsim.schemes import SchemeId

SENDERS = (
    (Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO),
    (Gadget.MSHR, Ordering.VDAD, SchemeId.MUONTRAP),
    (Gadget.RS, Ordering.VIAD, SchemeId.DOM_NONTSO),
)
BIT_COUNTS = (0, 1, 7, 300)
TRIALS = range(6)
NOISES = (0.0, 0.02, 0.3)
INTERLOPERS = range(4)
SEEDS = (1, 2)


def digest_line() -> str:
    """The line this script prints."""
    cfg = MachineConfig()
    total = hashlib.sha256()
    cases = 0
    for sender in SENDERS:
        plan = plan_attack(*sender, cfg)
        # One (seed, interlopers) at a time: the trial table of the most
        # recent pair is the one kept.
        for seed, interlopers in itertools.product(SEEDS, INTERLOPERS):
            for n, trials, noise in itertools.product(BIT_COUNTS, TRIALS, NOISES):
                rng = random.Random(f"channel-digest:{seed}:{n}")
                bits = [rng.randrange(2) for _ in range(n)]
                res = transmit(plan, bits, trials, noise, seed, interlopers)
                cases += 1
                total.update(f"{sender} {n} {trials} {noise} {seed} {interlopers} {res!r}\n".encode())
    return f"cases={cases} digest={total.hexdigest()}"


def main() -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    print(digest_line())


if __name__ == "__main__":
    main()
