"""Non-interference checking, defense-overhead benchmarking, and sender
calibration.

The ideal-invisible-speculation property compares the visible LLC access
pattern of a run against the run with every branch prediction forced
correct at fetch (the no-misspeculation oracle): equal sequences means the
speculation left no attacker-visible trace. The differential variant
compares patterns across secret assignments instead. Both properties, and
the calibration's final leak test on a sender's two bits, decide through
one comparison of two runs' visible patterns, _compare.
"""

from __future__ import annotations

import random
import statistics
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import product

from .machine import MachineConfig
from .memhier import CacheImage, Level
from .microprog import (
    AttackParams,
    AttackScript,
    BranchInfo,
    ConstructionError,
    Gadget,
    Literal,
    MicroOp,
    MicroProgram,
    OpKind,
    Ordering,
    SecretDep,
)
from .attacks import (
    MATRIX_GROUPS,
    REFERENCE_VULNERABLE,
    AttackPlan,
    RunMemo,
    RunSummary,
    group_orderings,
    plan_attack,  # unused here; perfbench/layers.py wraps seccheck.plan_attack by getattr
)
from .pipeline import ExecutionTrace, run
from .schemes import SchemeId, SchemeSpec, scheme_spec, serves

PatternKey = tuple[int, str, str]


@dataclass
class CheckResult:
    holds: bool
    witness_index: int | None = None
    pattern_a: list[PatternKey] = field(default_factory=list)
    pattern_b: list[PatternKey] = field(default_factory=list)
    label_a: str = ""
    label_b: str = ""

    def __bool__(self) -> bool:
        return self.holds


def _compare(
    a: ExecutionTrace | RunSummary, b: ExecutionTrace | RunSummary, label_a: str, label_b: str
) -> CheckResult:
    """Holds when the two runs' visible patterns are equal. Otherwise the
    witness is the first index at which they differ, or the shorter length
    when one pattern is a prefix of the other."""
    pa, pb = [r.key() for r in a.pattern], [r.key() for r in b.pattern]
    if pa == pb:
        return CheckResult(holds=True)
    witness = next((i for i, (x, y) in enumerate(zip(pa, pb)) if x != y), min(len(pa), len(pb)))
    return CheckResult(False, witness, pa, pb, label_a, label_b)


def nospec(
    program: MicroProgram,
    cfg: MachineConfig,
    scheme: SchemeId,
    secrets: dict[str, int] | None = None,
    image: CacheImage | None = None,
    attacker: AttackScript | None = None,
) -> ExecutionTrace:
    """The no-misspeculation oracle: same program and machine with every
    branch prediction forced correct at fetch; produces zero squashes."""
    trace = run(program, cfg, scheme, secrets, image, attacker, force_correct_predictions=True)
    assert not any(r[1] == "squash" for r in trace.records)
    return trace


def check_ideal(
    program: MicroProgram,
    cfg: MachineConfig,
    scheme: SchemeId,
    secrets: dict[str, int] | None = None,
    image: CacheImage | None = None,
    attacker: AttackScript | None = None,
) -> CheckResult:
    """Exact-sequence comparison of the visible access pattern against the
    no-misspeculation oracle; a mismatch returns the first divergent index
    and both patterns. A program with no mispredicted branch is its own
    oracle: forcing predictions correct changes nothing the engine reads."""
    e = run(program, cfg, scheme, secrets, image, attacker)
    if not any(op.branch is not None and op.branch.mispredicted() for op in program.ops):
        return CheckResult(holds=True)
    return _compare(e, nospec(program, cfg, scheme, secrets, image, attacker), "run", "nospec")


def _secret_assignments(program: MicroProgram) -> Iterator[dict[str, int]]:
    """Lazily, the assignments a differential check runs, each over every
    declared name in sorted order: the secrets some load reads vary in
    binary order (first sorted name most significant); the rest, which no
    run reads, stay 0. So no violation is found later than by varying all."""
    zero = dict.fromkeys(sorted(program.secret_slots), 0)
    read = sorted({op.addr.secret for op in program.ops if isinstance(op.addr, SecretDep)})
    for bits in product((0, 1), repeat=len(read)):
        yield zero | dict(zip(read, bits))


def check_ideal_differential(
    program: MicroProgram,
    cfg: MachineConfig,
    scheme: SchemeId,
    image: CacheImage | None = None,
    attacker: AttackScript | None = None,
) -> CheckResult:
    """Pattern must be invariant across all secret assignments. Only
    meaningful when secret-dependent loads sit on mis-speculated paths;
    programs with correct-path secret loads are rejected. A first run that
    reads no secret decides alone: every assignment runs the same."""
    for i in program.actual_path:
        if isinstance(program.ops[i].addr, SecretDep):
            raise ValueError(f"op {i} reads a secret on the bound-to-retire path; the property does not apply")
    combos = _secret_assignments(program)
    zero = next(combos)
    first = run(program, cfg, scheme, zero, image, attacker)
    if first.secret_read_cycle is None:
        return CheckResult(holds=True)
    for assignment in combos:
        other = run(program, cfg, scheme, assignment, image, attacker)
        result = _compare(first, other, str(zero), str(assignment))
        if not result.holds:
            return result
    return CheckResult(holds=True)


# --- calibration --------------------------------------------------------------

FAR_OFFSET = 1_000_000  # parks the scripted attacker access out of the run


@dataclass
class Calibration:
    params: AttackParams | None
    trace: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.params is not None


def _bit1_agrees(plan, cycle: int | None) -> bool:
    """Whether bit 1's victim run is known to match bit 0's up to and
    including bit 0's event at this cycle, without running it. The two runs
    differ only in the secret, so they agree on every cycle before the
    secret is first read, and entirely when it never is."""
    read = plan.summary(0).secret_read_cycle
    return read is None or (cycle is not None and cycle < read)


def _anchor_cycle(plan, bit: int) -> int | None:
    for r in plan.summary(bit).pattern:
        if r.line == plan.anchor:
            return r.cycle
    return None


def _order_flip(plan) -> bool:
    """Whether the secret flips the victim's pair of accesses: bit 0 sees
    the anchor and then the reference line, bit 1 the reverse."""
    pair = (plan.anchor, plan.layout.reference_line)

    def order(bit: int) -> list:
        return [r for r in plan.summary(bit).pattern if r.line in pair]

    # Bit 1 is run only when the verdict is still open: bit 0 must see the
    # anchor first, and bit 1 sees it first too if it agrees that far.
    o0 = order(0)
    if [r.line for r in o0] != list(pair) or _bit1_agrees(plan, o0[0].cycle):
        return False
    return [r.line for r in order(1)] == list(reversed(pair))


def calibrate(memo: RunMemo, scheme: SchemeId, base: AttackParams | None = None) -> Calibration:
    """Search sender parameters until the designated observable shows a
    stable secret differential: the reference-access offset for the
    attacker-clock orderings, the reference chain length for the
    victim-pair orderings, the fetch outcome for the RS sender. Bounded;
    reports the sweep on failure.

    The sender is the memo's (gadget, ordering) on the memo's config. The
    search reads only run summaries, and takes its candidates and their
    runs from ``memo``. A search under a scheme whose every run the memo
    already holds, or serves from another scheme's run (schemes.serves),
    makes no run at all and comes out the same as a fresh one."""
    gadget, ordering = memo.gadget, memo.ordering
    base = base or AttackParams()
    trace: list[str] = []

    def search() -> AttackParams | None:
        """The calibrated parameters, or None if the search finds none."""
        if gadget is Gadget.RS:
            plan = memo.plan(scheme, base)
            seen0 = _anchor_cycle(plan, 0) is not None
            seen1 = seen0 if _bit1_agrees(plan, None) else _anchor_cycle(plan, 1) is not None
            trace.append(f"rs fetch outcomes: bit0={seen0} bit1={seen1}")
            return base if seen0 != seen1 else None

        if ordering in (Ordering.VDAD, Ordering.VIAD):
            for z in (base.z_len, 16, 20, 8):
                plan = memo.plan(scheme, replace(base, z_len=z, reference_offset=FAR_OFFSET))
                c0 = _anchor_cycle(plan, 0)
                c1 = c0 if _bit1_agrees(plan, c0) else _anchor_cycle(plan, 1)
                trace.append(f"z={z}: anchor access bit0={c0} bit1={c1}")
                if c0 is None or c1 is None or abs(c1 - c0) < 2:
                    continue
                offset = (c0 + c1) // 2
                check = memo.plan(scheme, replace(base, z_len=z, reference_offset=offset))
                leaks = not _compare(check.summary(0), check.summary(1), "bit 0", "bit 1").holds
                trace.append(f"z={z} offset={offset}: differential={'yes' if leaks else 'no'}")
                if leaks:
                    return check.params
            return None

        # Victim-pair orderings: sweep the reference chain length.
        g_candidates = [base.g_len] + list(range(4, 64, 4))
        for z in (base.z_len, 16):
            for g in g_candidates:
                plan = memo.plan(scheme, replace(base, z_len=z, g_len=g))
                if _order_flip(plan):
                    trace.append(f"z={z} g={g}: order flips")
                    return plan.params
                trace.append(f"z={z} g={g}: no flip")
        return None

    try:
        found = search()
    except ConstructionError as e:
        trace.append(f"construction rejected: {e}")
        found = None
    return Calibration(found, trace)


def calibrate_for_matrix(
    gadget: Gadget,
    ordering: Ordering,
    schemes: Iterable[SchemeId],
    cfg: MachineConfig,
) -> dict[SchemeId, AttackPlan]:
    """The calibrated sender under each of the given schemes. Matrix cells
    need well-formed parameters even when the scheme blocks the channel: a
    scheme without a feasible calibration of its own falls back to the one
    found against the unprotected machine, searched at most once per sender
    and only when some scheme needs it. Every search and every sender reads
    one run memo, so each candidate sender is built once, a run is made
    once for every scheme it serves, and transmitting over a sender makes
    none of its calibration's runs again. The senders are copies, so the
    memo drops its builds once they are made."""
    memo = RunMemo(gadget, ordering, cfg)
    cals = {scheme: calibrate(memo, scheme) for scheme in schemes}
    fallback = None
    if not all(cal.feasible for cal in cals.values()):
        unsafe = cals.get(SchemeId.UNSAFE) or calibrate(memo, SchemeId.UNSAFE)
        # No differential even unprotected (the MSHR wait queue serializes
        # the victim-pair ordering): run the well-formed sender with
        # defaults; it decodes at chance, which is the honest verdict.
        fallback = unsafe.params if unsafe.feasible else AttackParams()
    senders = {
        scheme: memo.plan(scheme, cal.params if cal.feasible else fallback) for scheme, cal in cals.items()
    }
    memo.plans.clear()
    return senders


def matrix_calibrations(
    cfg: MachineConfig,
    schemes,
) -> dict[tuple[Gadget, Ordering, SchemeId], AttackPlan]:
    """The calibrated sender of every matrix cell, calibrated once per
    (gadget, ordering) over the schemes that evaluate that ordering (see
    calibrate_for_matrix). The senders of one (gadget, ordering) read one
    run memo, so ``vulnerability_matrix`` makes none of the calibration's
    runs again."""
    out: dict[tuple[Gadget, Ordering, SchemeId], AttackPlan] = {}
    for gadget in Gadget:
        for group, orderings in MATRIX_GROUPS.items():
            if REFERENCE_VULNERABLE[(gadget, group)] is None:
                continue
            for ordering in orderings:
                cell_schemes = [s for s in schemes if ordering in group_orderings(group, s)]
                for scheme, plan in calibrate_for_matrix(gadget, ordering, cell_schemes, cfg).items():
                    out[(gadget, ordering, scheme)] = plan
    return out


def victim_timing(plan: AttackPlan) -> dict[str, tuple[int, int]]:
    """(issue, complete) of the sender's interference target, the first
    victim op, in three runs: gadget executing (bit 1) and inert (bit 0),
    from the plan's run memo, and gadget removed (the no-misspeculation
    oracle, which never fetches a transient op; bit 1, no attacker access)."""
    victim = plan.program.role_ops("victim_a")[0]
    removed = nospec(plan.program, plan.cfg, plan.scheme, {"s0": 1}, plan.image, None)
    return {
        "gadget_present": plan.summary(1).victim,
        "gadget_inert": plan.summary(0).victim,
        "gadget_removed": (removed.times(victim, "issue"), removed.times(victim, "complete")),
    }


def interference_gap(
    cfg: MachineConfig | None = None,
    scheme: SchemeId = SchemeId.DOM_NONTSO,
) -> tuple[int, int]:
    """Victim completion delta for the calibrated non-pipelined-EU sender:
    (gadget executing vs inert, gadget executing vs removed).
    Both are strictly positive when the interference exists."""
    cfg = cfg or MachineConfig()
    memo = RunMemo(Gadget.NPEU, Ordering.VDAD, cfg)
    cal = calibrate(memo, scheme)
    timing = victim_timing(memo.plan(scheme, cal.params if cal.feasible else AttackParams()))
    present = timing["gadget_present"][1]
    return present - timing["gadget_inert"][1], present - timing["gadget_removed"][1]


# --- synthetic overhead benchmarks ---------------------------------------------

BENCH_LINE_BASE = 500_000


class _DepScope:
    """Tracks the bodies of not-taken branches during generation so that
    no op outside a body uses an op inside it. This is stricter than the
    liveness rule validation enforces (an op on the actual path uses only
    ops on it); it stays because the corpus digests and the benchmark's
    pinned programs fix its draws."""

    def __init__(self):
        self.bodies: list[tuple[int, int]] = []  # [start, join)

    def add_body(self, start: int, join: int) -> None:
        self.bodies.append((start, join))

    def allowed(self, pos: int, lo: int = 0) -> list[int]:
        out = []
        for d in range(lo, pos):
            if all(not (s <= d < j) or (s <= pos < j) for s, j in self.bodies):
                out.append(d)
        return out

    def pick(self, rng: random.Random, pos: int, window: int) -> int:
        cands = self.allowed(pos, max(0, pos - window))
        if not cands:
            cands = self.allowed(pos)
        return rng.choice(cands)


@dataclass
class Benchmark:
    name: str
    program: MicroProgram
    image: CacheImage


def _bench_image(lines: list[int], hot_ratio: float, rng: random.Random) -> CacheImage:
    scripts = {}
    for line in lines:
        scripts[line] = Level.L1HIT if rng.random() < hot_ratio else Level.LLCHIT
    return CacheImage(scripts=scripts)


def gen_branch_dense(seed: int) -> Benchmark:
    """Every few ops a correctly-predicted branch resolved by recent work,
    with a sprinkling of loads; fences after branches hurt here."""
    rng = random.Random(f"branch-dense:{seed}")
    n_ops = 90
    lines = [BENCH_LINE_BASE + i for i in range(8)]
    scope = _DepScope()
    ops: list[MicroOp] = [MicroOp(0, OpKind.ALU)]
    while len(ops) < n_ops:
        i = len(ops)
        roll = rng.random()
        if roll < 0.30 and i + 1 < n_ops:
            taken = rng.random() < 0.5
            body = rng.randint(1, min(2, n_ops - i - 1))
            resolver = scope.pick(rng, i, 4)
            join = i + 1 + body
            ops.append(
                MicroOp(i, OpKind.BRANCH, branch=BranchInfo(taken, taken, resolver=resolver, join=join))
            )
            if not taken:
                scope.add_body(i + 1, join)
        elif roll < 0.42:
            ops.append(MicroOp(i, OpKind.LOAD, addr=Literal(rng.choice(lines))))
        else:
            dep = scope.pick(rng, i, 3) if rng.random() < 0.7 else None
            ops.append(MicroOp(i, OpKind.ALU, src_deps=() if dep is None else (dep,)))
    return Benchmark("branch_dense", MicroProgram(ops=ops), _bench_image(lines, 0.8, rng))


def gen_load_chain(seed: int) -> Benchmark:
    """Bursts of independent loads (memory-level parallelism) with short
    address chains between bursts; per-load fences serialize the bursts."""
    rng = random.Random(f"load-chain:{seed}")
    lines = [BENCH_LINE_BASE + 100 + i for i in range(30)]  # 30 loads
    ops: list[MicroOp] = []
    for i, line in enumerate(lines):
        if i and i % 8 == 0:
            ops.append(MicroOp(len(ops), OpKind.ALU, src_deps=(len(ops) - 1,)))
        ops.append(MicroOp(len(ops), OpKind.LOAD, addr=Literal(line)))
    return Benchmark("load_chain", MicroProgram(ops=ops), _bench_image(lines, 0.9, rng))


def gen_alu_dense(seed: int) -> Benchmark:
    """Straight-line arithmetic, a few short chains; no branches or loads."""
    rng = random.Random(f"alu-dense:{seed}")
    ops: list[MicroOp] = [MicroOp(0, OpKind.ALU)]
    for i in range(1, 80):  # 80 ops
        deps = (rng.randrange(max(0, i - 6), i),) if rng.random() < 0.5 else ()
        kind = OpKind.NPEU if rng.random() < 0.05 else OpKind.ALU
        ops.append(MicroOp(i, kind, src_deps=deps))
    return Benchmark("alu_dense", MicroProgram(ops=ops), CacheImage())


def gen_mixed(seed: int) -> Benchmark:
    rng = random.Random(f"mixed:{seed}")
    n_ops = 100
    lines = [BENCH_LINE_BASE + 300 + i for i in range(12)]
    scope = _DepScope()
    ops: list[MicroOp] = [MicroOp(0, OpKind.ALU)]
    while len(ops) < n_ops:
        i = len(ops)
        roll = rng.random()
        if roll < 0.12 and i + 1 < n_ops:
            taken = rng.random() < 0.5
            resolver = scope.pick(rng, i, 4)
            ops.append(
                MicroOp(i, OpKind.BRANCH, branch=BranchInfo(taken, taken, resolver=resolver, join=i + 2))
            )
            if not taken:
                scope.add_body(i + 1, i + 2)
        elif roll < 0.35:
            ops.append(MicroOp(i, OpKind.LOAD, addr=Literal(rng.choice(lines))))
        elif roll < 0.42:
            ops.append(MicroOp(i, OpKind.STORE_ADDR, src_deps=(scope.pick(rng, i, 3),)))
        else:
            dep = scope.pick(rng, i, 4) if rng.random() < 0.6 else None
            ops.append(MicroOp(i, OpKind.ALU, src_deps=() if dep is None else (dep,)))
    return Benchmark("mixed", MicroProgram(ops=ops), _bench_image(lines, 0.7, rng))


def synth_suite(seed: int) -> list[Benchmark]:
    return [gen_branch_dense(seed), gen_load_chain(seed), gen_alu_dense(seed), gen_mixed(seed)]


@dataclass
class OverheadReport:
    # benchmark name -> scheme value -> slowdown vs the unprotected machine
    slowdowns: dict[str, dict[str, float]]
    baseline_cycles: dict[str, int]

    def geomean(self, scheme: SchemeId) -> float:
        return statistics.geometric_mean([per[scheme.value] for per in self.slowdowns.values()])

    def csv_lines(self) -> list[str]:
        schemes = sorted({s for per in self.slowdowns.values() for s in per})
        out = ["benchmark,baseline_cycles," + ",".join(schemes)]
        for name in sorted(self.slowdowns):
            row = [name, str(self.baseline_cycles[name])]
            row += [f"{self.slowdowns[name][s]:.3f}" for s in schemes]
            out.append(",".join(row))
        geo = ["geomean,"] + [f"{self.geomean(SchemeId(s)):.3f}" for s in schemes]
        out.append(",".join(geo))
        return out


def bench_overhead(
    benchmarks: list[Benchmark],
    cfg: MachineConfig,
    schemes: list[SchemeId],
) -> OverheadReport:
    """Cycle-count ratios against the unprotected machine. Benchmarks are
    squash-free, so every scheme executes the same op stream. A scheme
    reuses the first run of the benchmark that serves it (schemes.serves),
    and runs it otherwise; the unprotected baseline is one of them."""
    slowdowns: dict[str, dict[str, float]] = {}
    baselines: dict[str, int] = {}
    for bench in benchmarks:
        made: list[tuple[SchemeSpec, frozenset, int]] = []  # (spec, fetch_shadowed, total_cycles) per run
        cycles: dict[SchemeId, int] = {}
        for scheme in (SchemeId.UNSAFE, *schemes):
            spec = scheme_spec(scheme)
            got = next((n for ran, shadowed, n in made if serves(ran, spec, shadowed)), None)
            if got is None:
                trace = run(bench.program, cfg, scheme, image=bench.image)
                got = trace.total_cycles
                made.append((spec, trace.fetch_shadowed, got))
            cycles[scheme] = got
        base = baselines[bench.name] = cycles[SchemeId.UNSAFE]
        slowdowns[bench.name] = {s.value: cycles[s] / base if base else 1.0 for s in schemes}
    return OverheadReport(slowdowns=slowdowns, baseline_cycles=baselines)


# --- randomized program corpus --------------------------------------------------

def gen_random_program(seed: int, max_ops: int = 24) -> tuple[MicroProgram, CacheImage]:
    """Small valid programs with real mispredictions for corpus-level
    checks: loads over a scripted line pool, short chains, branches with
    transient bodies. No marked fetch lines and no secrets."""
    rng = random.Random(f"corpus:{seed}")
    lines = [700_000 + i for i in range(10)]
    levels = [Level.L1HIT, Level.L1HIT, Level.LLCHIT, Level.MEMMISS]
    scripts = {line: rng.choice(levels) for line in lines}
    n = rng.randint(6, max_ops)
    scope = _DepScope()
    ops: list[MicroOp] = [MicroOp(0, OpKind.ALU)]
    while len(ops) < n:
        i = len(ops)
        roll = rng.random()
        if roll < 0.18 and i + 2 < n:
            body = rng.randint(1, min(3, n - i - 1))
            predicted = rng.random() < 0.5
            actual = rng.random() < 0.5
            resolver = scope.pick(rng, i, 5)
            join = i + 1 + body
            ops.append(
                MicroOp(
                    i,
                    OpKind.BRANCH,
                    branch=BranchInfo(predicted, actual, resolver=resolver, join=join),
                )
            )
            if not actual:
                scope.add_body(i + 1, join)
        elif roll < 0.5:
            ops.append(MicroOp(i, OpKind.LOAD, addr=Literal(rng.choice(lines))))
        elif roll < 0.6:
            ops.append(MicroOp(i, OpKind.NPEU, src_deps=(scope.pick(rng, i, 4),)))
        elif roll < 0.68:
            ops.append(MicroOp(i, OpKind.STORE_ADDR, src_deps=(scope.pick(rng, i, 4),)))
        else:
            dep = scope.pick(rng, i, 4) if rng.random() < 0.6 else None
            ops.append(MicroOp(i, OpKind.ALU, src_deps=() if dep is None else (dep,)))
    return MicroProgram(ops=ops), CacheImage(scripts=scripts)
