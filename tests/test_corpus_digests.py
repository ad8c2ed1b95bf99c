"""Corpus-wide byte-identity pin for the cycle engine.

Every run below is reduced to one sha256 digest of its complete observable
output: the event log, the occupancy CSV, the per-op timestamps, the final
LLC state and the total cycle count. The digests in tests/golden/corpus.sha256
were recorded from the stepping engine; an engine change that moves any
byte of any of these traces fails here. Regenerate only after an intended
behaviour change: python3 tests/make_golden.py
"""

import hashlib
from pathlib import Path

from specsim.attacks import attack_image
from specsim.machine import MachineConfig
from specsim.microprog import ConstructionError, Gadget, Ordering, build_attack_program
from specsim.pipeline import ExecutionTrace, run
from specsim.schemes import all_scheme_ids
from specsim.seccheck import gen_random_program, synth_suite

from test_pipeline import diamond_program

CFG = MachineConfig()
CORPUS_DIGESTS = Path(__file__).parent / "golden" / "corpus.sha256"
RANDOM_SEEDS = 60


def trace_digest(trace: ExecutionTrace) -> str:
    text = (
        trace.serialize()
        + trace.occupancy_csv()
        + repr(trace.op_times)
        + repr(trace.llc_state)
        + str(trace.total_cycles)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_runs():
    """(label, run() arguments) for every pinned run: random corpus programs
    (squashes, mixed load levels), the synthetic overhead suite (fences,
    RS-hold), every attack sender with both secrets (protected I-fetch,
    scripted attacker accesses) and a dependence diamond (look-ahead), each
    under all ten schemes."""
    programs = []
    for seed in range(RANDOM_SEEDS):
        program, image = gen_random_program(seed)
        programs.append((f"corpus{seed}", program, {"image": image}))
    for bench in synth_suite(1):
        programs.append((f"synth1-{bench.name}", bench.program, {"image": bench.image}))
    for gadget in Gadget:
        image = attack_image(gadget, CFG)
        for ordering in Ordering:
            try:
                program, script = build_attack_program(ordering, gadget, CFG)
            except ConstructionError:
                continue  # blocked cell: no sender exists
            for secret in (0, 1):
                kw = {"image": image, "attacker": script, "secrets": {"s0": secret}}
                programs.append((f"attack-{gadget.value}-{ordering.value}-s{secret}", program, kw))
    program, image = diamond_program(16)
    programs.append(("diamond16", program, {"image": image}))
    for label, program, kw in programs:
        for scheme in all_scheme_ids():
            yield f"{label}/{scheme.value}", program, scheme, kw


def corpus_digests() -> dict[str, str]:
    return {
        label: trace_digest(run(program, CFG, scheme, **kw))
        for label, program, scheme, kw in corpus_runs()
    }


def format_digests(digests: dict[str, str]) -> str:
    return "".join(f"{label} {digest}\n" for label, digest in digests.items())


def test_corpus_traces_match_pinned_digests():
    pinned = dict(line.split() for line in CORPUS_DIGESTS.read_text().splitlines())
    actual = corpus_digests()
    assert actual.keys() == pinned.keys()
    moved = [label for label in actual if actual[label] != pinned[label]]
    assert not moved, f"{len(moved)} traces changed, first: {moved[:5]}"
