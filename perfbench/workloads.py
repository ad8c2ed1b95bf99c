"""The benchmark's three workloads.

Each workload calls, in-process, the public functions the matching
``specsim`` subcommand calls, on inputs made from the workload seed.

* ``matrix`` is ``specsim matrix --seed S``: sender calibration for every
  matrix cell, then the vulnerability matrix. It is the paper's headline
  table and the heaviest user of the cycle engine and of calibration.
* ``channel`` is ``specsim attack --no-calibrate`` for three senders, once
  noiseless and once with flip noise plus interloper accesses, on 2048
  seed-derived bits. Nearly all of its time is the receiver (prime/probe
  replacement-state decoding), with only 12 engine runs.
* ``defenses`` is ``specsim check`` and ``specsim bench``: the three
  defenses checked for non-interference on a random program corpus, on the
  default-parameter attack programs (wrong-path secrets and marked
  instruction-fetch lines), and on dependence-dense programs that load the
  advanced defense's look-ahead; then the synthetic overhead suite under
  all ten schemes.

The seed picks one of ``INPUT_SETS`` input sets, so that every output can
be compared against a digest pinned in ``pinned.json``.

A pass reports its results through a ``Tally``: one output text per item,
compared against the pinned digest of that item, and one latency per
request, a request being the work of one subcommand invocation (one
``specsim matrix``, one ``specsim attack``, one ``specsim check``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable
from time import perf_counter

INPUT_SETS = 32

CHANNEL_BITS = 2048
CHANNEL_TRIALS = 3  # the CLI default
CHANNEL_SENDERS = (
    ("npeu", "vdvd", "dom-nontso"),
    ("mshr", "vdad", "muontrap"),
    ("rs", "viad", "dom-nontso"),
)
CHANNEL_NOISE = 0.02
CHANNEL_INTERLOPERS = 1

DEFENSES = ("fence-spectre", "fence-futuristic", "nointerference")
# Corpus programs per length: every input set gets the same length mix, so
# the seed changes the programs but not the amount of work.
CORPUS_LENGTHS = range(6, 25)  # the lengths gen_random_program draws from
CORPUS_PER_LENGTH = 2
CORPUS_DRAWS = 100_000  # generator seeds per input set
DENSE_PROGRAMS = 16
# Diamond length: one run under nointerference takes 0.1-0.2 s at the
# commit that introduced the benchmark (2 cores, Python 3.11), against a few
# milliseconds under unsafe; the look-ahead cost grows about 1.5x per op,
# so the length is fixed and the seed varies only cost-neutral structure.
DENSE_DIAMOND_OPS = 23
DENSE_LINE_BASE = 900_000


def input_seed(seed: int) -> int:
    return seed % INPUT_SETS


@dataclass
class Tally:
    """Outputs and request intervals of one pass; requests are timed with
    ``clock``."""

    clock: Callable[[], float] = perf_counter
    outputs: dict[str, str] = field(default_factory=dict)
    raised: dict[str, str] = field(default_factory=dict)
    requests: list[tuple[float, float]] = field(default_factory=list)  # (start, end)

    def output(self, item: str, text: str) -> None:
        self.outputs[item] = text

    def fail(self, item: str, exc: BaseException) -> None:
        self.raised[item] = f"{type(exc).__name__}: {exc}"


# --- matrix -------------------------------------------------------------


def matrix_setup(m, seed: int) -> dict:
    return {"cfg": m.machine.MachineConfig(), "seed": input_seed(seed)}


def matrix_pass(m, inp: dict, tally: Tally, recorder=None) -> None:
    cfg = inp["cfg"]
    if recorder:
        recorder.item = f"matrix:{inp['seed']}"
    t0 = tally.clock()
    try:
        cals = m.seccheck.matrix_calibrations(cfg, m.attacks.MATRIX_SCHEMES)
        res = m.attacks.vulnerability_matrix(cfg, seed=inp["seed"], calibrations=cals)
    except Exception as e:  # every pinned item of the pass then counts as failed
        tally.fail("matrix", e)
        return
    tally.requests.append((t0, tally.clock()))
    for row in res.csv_lines()[1:]:
        tally.output(",".join(row.split(",")[:3]), row)
    tally.output("reference_match", "yes" if res.matches_reference() else "NO")


# --- channel ------------------------------------------------------------


def channel_setup(m, seed: int) -> dict:
    s = input_seed(seed)
    rng = random.Random(f"bits:{s}")  # the derivation `specsim attack` uses
    return {
        "cfg": m.machine.MachineConfig(),
        "seed": s,
        "bits": [rng.randrange(2) for _ in range(CHANNEL_BITS)],
    }


def channel_pass(m, inp: dict, tally: Tally, recorder=None) -> None:
    Gadget, Ordering = m.microprog.Gadget, m.microprog.Ordering
    SchemeId = m.schemes.SchemeId
    bits = inp["bits"]
    for gadget, ordering, scheme in CHANNEL_SENDERS:
        for label, noise, interlopers in (
            ("noiseless", 0.0, 0),
            ("noisy", CHANNEL_NOISE, CHANNEL_INTERLOPERS),
        ):
            item = f"{gadget}/{ordering}/{scheme}/{label}"
            if recorder:
                recorder.item = f"channel:{inp['seed']}:{item}"
            t0 = tally.clock()
            try:
                res = m.attacks.run_attack(
                    Gadget(gadget), Ordering(ordering), SchemeId(scheme), bits,
                    trials_per_bit=CHANNEL_TRIALS, noise=noise, seed=inp["seed"],
                    cfg=inp["cfg"], params=m.microprog.AttackParams(), interlopers=interlopers,
                )
            except Exception as e:
                tally.fail(item, e)
                continue
            tally.requests.append((t0, tally.clock()))
            decoded = "".join("x" if b < 0 else str(b) for b in res.decoded_bits)
            tally.output(item, (
                f"{gadget},{ordering},{scheme},{len(bits)},{CHANNEL_TRIALS},{noise},"
                f"{res.error_rate:.4f},{res.discard_rate:.4f},{res.cycles_per_bit:.1f},{decoded}"
            ))


# --- defenses -----------------------------------------------------------


def dependence_dense(m, seed: int, k: int):
    """An ALU diamond (op i depends on i-1 and i-2) behind one memory miss,
    feeding an older non-pipelined op, with a ready younger non-pipelined op
    beside it: the advanced defense's look-ahead must bound when the older
    op could want the unit before it may issue the younger one."""
    mp = m.microprog
    OpKind, MicroOp = mp.OpKind, mp.MicroOp
    rng = random.Random(f"dense:{seed}:{k}")
    line = DENSE_LINE_BASE + rng.randrange(1024)
    ops = [MicroOp(i, OpKind.ALU) for i in range(rng.randint(0, 3))]
    load = len(ops)
    ops.append(MicroOp(load, OpKind.LOAD, addr=mp.Literal(line)))
    for _ in range(DENSE_DIAMOND_OPS):
        i = len(ops)
        ops.append(MicroOp(i, OpKind.ALU, src_deps=(load,) if i == load + 1 else (i - 2, i - 1)))
    ops.append(MicroOp(len(ops), OpKind.NPEU, src_deps=(len(ops) - 1,)))
    ops.append(MicroOp(len(ops), OpKind.NPEU))
    for _ in range(rng.randint(0, 3)):
        ops.append(MicroOp(len(ops), OpKind.ALU, src_deps=(len(ops) - 1,)))
    program = mp.MicroProgram(ops=ops)
    program.validate()
    return program, m.memhier.CacheImage(scripts={line: m.memhier.Level.MEMMISS})


def stratified_corpus(m, seed: int) -> list:
    """``CORPUS_PER_LENGTH`` random corpus programs of every length in
    ``CORPUS_LENGTHS``, the first ones ``gen_random_program`` yields from
    this input set's seeds."""
    want = {n: CORPUS_PER_LENGTH for n in CORPUS_LENGTHS}
    out = []
    for k in range(CORPUS_DRAWS):
        program, image = m.seccheck.gen_random_program(seed * CORPUS_DRAWS + k)
        if want.get(len(program.ops), 0):
            want[len(program.ops)] -= 1
            out.append((program, image))
            if not any(want.values()):
                return sorted(out, key=lambda p: len(p[0].ops))
    raise ValueError(f"gen_random_program yields no programs of lengths {[n for n, c in want.items() if c]}")


def defenses_setup(m, seed: int) -> dict:
    s = input_seed(seed)
    cfg = m.machine.MachineConfig()
    mp = m.microprog
    attack_programs = {}
    for gadget in mp.Gadget:
        for group, orderings in m.attacks.MATRIX_GROUPS.items():
            if m.attacks.REFERENCE_VULNERABLE[(gadget, group)] is None:
                continue
            for ordering in orderings:
                plan = m.attacks.plan_attack(gadget, ordering, m.schemes.SchemeId.UNSAFE, cfg, mp.AttackParams())
                attack_programs[f"{gadget.value}/{ordering.value}"] = plan
    return {
        "cfg": cfg,
        "seed": s,
        "corpus": stratified_corpus(m, s),
        "attack": attack_programs,
        "dense": [dependence_dense(m, s, k) for k in range(DENSE_PROGRAMS)],
        "synth": m.seccheck.synth_suite(s),
    }


def _spread_evenly(groups: list[list]) -> list:
    """Merge job lists so that each one is spread evenly over the pass: the
    slow look-ahead checks then sample the host's speed across the whole
    pass rather than in one burst."""
    keyed = [((i + 0.5) / len(g), n, job) for n, g in enumerate(groups) for i, job in enumerate(g)]
    return [job for *_, job in sorted(keyed, key=lambda k: k[:2])]


def defenses_pass(m, inp: dict, tally: Tally, recorder=None) -> None:
    sc = m.seccheck
    SchemeId = m.schemes.SchemeId
    cfg = inp["cfg"]
    corpus, attack, dense = [], [], []
    for defense in DEFENSES:
        scheme = SchemeId(defense)
        for k, (program, image) in enumerate(inp["corpus"]):
            corpus.append((f"corpus{k}/{defense}", sc.check_ideal, (program, cfg, scheme, None, image)))
        for name, plan in inp["attack"].items():
            for bit in (0, 1):
                attack.append((f"attack/{name}/{defense}/s0={bit}", sc.check_ideal,
                               (plan.program, cfg, scheme, {"s0": bit}, plan.image, plan.script)))
            attack.append((f"attack/{name}/{defense}/differential", sc.check_ideal_differential,
                           (plan.program, cfg, scheme, plan.image, plan.script)))
        for k, (program, image) in enumerate(inp["dense"]):
            dense.append((f"dense{k}/{defense}", sc.check_ideal, (program, cfg, scheme, None, image)))

    for item, fn, args in _spread_evenly([corpus, attack, dense]):
        if recorder:
            recorder.item = f"defenses:{inp['seed']}:{item}"
        t0 = tally.clock()
        try:
            res = fn(*args)
        except Exception as e:
            tally.fail(item, e)
            continue
        if fn is sc.check_ideal:  # a request is one `specsim check`
            tally.requests.append((t0, tally.clock()))
        tally.output(item, "holds" if res.holds else f"violated@{res.witness_index}")
    if recorder:
        recorder.item = f"defenses:{inp['seed']}:bench"
    try:
        report = sc.bench_overhead(inp["synth"], cfg, list(SchemeId))
    except Exception as e:
        tally.fail("bench", e)
        return
    for row in report.csv_lines()[1:]:
        tally.output(f"bench/{row.split(',')[0]}", row)


WORKLOADS = {
    "matrix": (matrix_setup, matrix_pass),
    "channel": (channel_setup, channel_pass),
    "defenses": (defenses_setup, defenses_pass),
}
