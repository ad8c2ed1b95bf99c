"""End-to-end covert-channel harness.

The receiver turns a secret-dependent ordering of two same-set LLC accesses
into replacement state: prime the set (filler lines saturated at age 0, one
anchor line inserted last), let the victim run, then probe with a second
filler set and see which of the two interesting lines survived. The decode
table is derived by replaying prime -> victim order -> probe through the
replacement-policy model rather than hard-coded, because the two survivor
pairs fall out of the aging rules, not out of anything obvious.

Notes on the prime sequence: after "filler many times + anchor" the anchor
sits at age 1 (it fills the one free way). It reaches age 3 only once the
first subsequent miss to the set triggers the uniform aging step; no pure
access sequence over filler + anchor lands on age-0 filler with an age-3
anchor directly (aging that lifts the anchor to 3 would evict it unless a
more-leftward line also hits 3).
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import repeat
from operator import lt
import random
from types import MappingProxyType
from typing import NamedTuple

from .machine import MachineConfig
from .memhier import CacheImage, CacheSet, Level, qlru_touch
from .microprog import (
    AttackLayout,
    AttackParams,
    AttackScript,
    Gadget,
    MicroProgram,
    Ordering,
    build_attack_program,
)
from .pipeline import AccessRecord, ExecutionTrace, run
from .schemes import SchemeId, ShadowRule, scheme_spec, serves

DISCARD = -1
PRIME_PASSES = 2  # filler passes to saturate ages at 0 (test-asserted minimum)
INTERLOPER_POOL = 16  # same-set lines a trial's interloper accesses draw from


@dataclass
class AttackResult:
    decoded_bits: list[int]
    true_bits: list[int]
    error_rate: float
    discard_rate: float
    cycles_per_bit: float
    trials_per_bit: int


def prime(cset: CacheSet, evs1: tuple[int, ...], anchor: int, passes: int = PRIME_PASSES) -> CacheSet:
    """Prime a set: access the filler lines repeatedly, then the anchor."""
    if anchor in evs1:
        raise ValueError("anchor line collides with the filler set")
    if len(set(evs1)) != len(evs1):
        raise ValueError("filler lines collide with each other")
    for _ in range(passes):
        for line in evs1:
            qlru_touch(cset, line)
    qlru_touch(cset, anchor)
    return cset


def probe(cset: CacheSet, evs2: tuple[int, ...], a: int, b: int) -> tuple[bool, bool]:
    """Access the probe filler set, then report (a_hit, b_hit): which of
    a/b survived."""
    for line in evs2:
        qlru_touch(cset, line)
    return cset.resident(a), cset.resident(b)


# The receiver constants below are pure in (layout, anchor), both hashable,
# and a matrix asks for the same few anchors hundreds of times: derive each
# once, as a read-only value every caller shares.


@lru_cache(maxsize=64)
def primed_ways(layout: AttackLayout, anchor: int) -> tuple[tuple[int, int], ...]:
    """The target set's (tag, age) ways right after the prime, which fills
    every way: llc_ways - 1 filler lines and the anchor."""
    return prime(CacheSet(layout.geometry.llc_ways), layout.evs1, anchor).state()


@lru_cache(maxsize=64)
def derive_decode_table(layout: AttackLayout, anchor: int) -> Mapping[tuple[bool, ...], int]:
    """Replay prime -> victim order -> probe through the replacement model
    for both orders and map the two survivor pairs to bits. Bit 0 is the
    anchor-first order (no interference), bit 1 the reference-first order."""
    table: dict[tuple[bool, ...], int] = {}
    for bit, order in ((0, (anchor, layout.reference_line)), (1, (layout.reference_line, anchor))):
        cset = CacheSet(layout.geometry.llc_ways, primed_ways(layout, anchor))
        for line in order:
            qlru_touch(cset, line)
        key = probe(cset, layout.evs2, anchor, layout.reference_line)
        if key in table:
            raise ValueError("replacement state does not distinguish the two orders")
        table[key] = bit
    return MappingProxyType(table)


# The RS sender's reload sees the marked line present (bit 0: the chain
# drained and the line was fetched) or flushed (bit 1: the RS clogged).
PRESENCE_DECODE: Mapping[tuple[bool, ...], int] = MappingProxyType({(True,): 0, (False,): 1})


def attack_image(
    gadget: Gadget,
    cfg: MachineConfig,
    m: int | None = None,
    anchor: int | None = None,
) -> CacheImage:
    """Initial cache contents for one sender: per-gadget hit/miss scripting
    of the phantom lines plus (for the ordering receivers) the primed target
    set. The RS sender's marked line starts flushed instead."""
    lay = AttackLayout(cfg.geometry)
    scripts = {
        lay.resolver_line: Level.MEMMISS,
        lay.access_line: Level.L1HIT,
        lay.victim_phantom_line: Level.LLCHIT,
    }
    s = lay.secret_base
    if gadget is Gadget.NPEU:
        scripts[s] = Level.MEMMISS  # bit 0: transmitter stays slow
        scripts[s + 1] = Level.L1HIT  # bit 1: transmitter returns fast
    elif gadget is Gadget.RS:
        scripts[s] = Level.L1HIT  # bit 0: chain drains, line gets fetched
        scripts[s + 1] = Level.MEMMISS  # bit 1: chain clogs the RS
        return CacheImage(scripts=scripts)
    else:
        count = m if m is not None else cfg.l1d_mshrs
        for k in range(count):
            scripts[s + k] = Level.MEMMISS
    primed = primed_ways(lay, anchor if anchor is not None else lay.victim_line)
    return CacheImage(llc={lay.set_index: primed}, scripts=scripts)


def anchor_line(ordering: Ordering, layout: AttackLayout) -> int:
    """The access whose timing the gadget perturbs: the victim data line for
    VD orderings, the marked fetch line for VI orderings."""
    if ordering in (Ordering.VDVD, Ordering.VDAD):
        return layout.victim_line
    return layout.itarget_line


class RunSummary(NamedTuple):
    """What the harness reads of one victim run: the visible pattern, the
    cycle the secret was first read, the fetch-shadow rules that would
    have held a marked fetch, the target set's final ways, the run's
    length and the victim_a op's (issue, complete), None for the RS sender.
    No calibration step, trial or timing row needs more of the trace."""

    pattern: tuple[AccessRecord, ...]
    secret_read_cycle: int | None
    fetch_shadowed: frozenset[ShadowRule]
    ways: tuple[tuple[int | None, int], ...]
    total_cycles: int
    victim: tuple[int, int] | None

    @classmethod
    def of(cls, trace: ExecutionTrace, plan: AttackPlan) -> RunSummary:
        victim = plan.program.role_ops("victim_a")
        return cls(
            tuple(trace.pattern),
            trace.secret_read_cycle,
            trace.fetch_shadowed,
            trace.llc_state.get(plan.layout.set_index, ()),
            trace.total_cycles,
            (trace.times(victim[0], "issue"), trace.times(victim[0], "complete")) if victim else None,
        )


class RunMemo:
    """The victim runs of one sender, (gadget, ordering, config), as
    summaries, and the candidate builds of its calibration.

    ``plan`` builds each candidate once, as a plan that is never run, and
    hands out a copy under the asked scheme that reads this memo. No other
    plan reads it, so a run here is of the inputs that the sender and its
    parameters build, and is filed by the parameters and the bit.
    ``summary`` returns a stored run of the bit whose run serves the asked
    scheme (schemes.serves: the two are equal, or differ only in a fetch
    shadow that held none of the run's marked fetches), and files it under
    the asked scheme too; otherwise it runs the plan and stores what the
    harness reads of it."""

    def __init__(self, gadget: Gadget, ordering: Ordering, cfg: MachineConfig) -> None:
        self.gadget, self.ordering, self.cfg = gadget, ordering, cfg
        self.plans: dict[AttackParams, AttackPlan] = {}
        # (params, bit) -> scheme -> summary: each run under the scheme it
        # ran under and each scheme it serves.
        self.summaries: dict[tuple[AttackParams, int], dict[SchemeId, RunSummary]] = {}
        self.values: dict = {}  # every summary field value, kept once

    def plan(self, scheme: SchemeId, params: AttackParams) -> AttackPlan:
        if params not in self.plans:
            self.plans[params] = plan_attack(self.gadget, self.ordering, scheme, self.cfg, params)
        copy = replace(self.plans[params], scheme=scheme)
        copy.memo = self
        return copy

    def summary(self, plan: AttackPlan, bit: int) -> RunSummary:
        runs = self.summaries.setdefault((plan.params, bit), {})
        asked = scheme_spec(plan.scheme)
        for scheme, got in runs.items():
            if serves(scheme_spec(scheme), asked, got.fetch_shadowed):
                break
        else:
            # Few runs end in a target set, pattern or fetch-shadow set of
            # their own: each equal field value is kept once.
            fields = RunSummary.of(plan.trace(bit), plan)
            got = RunSummary._make(self.values.setdefault(v, v) for v in fields)
        runs[plan.scheme] = got
        return got


@dataclass
class AttackPlan:
    """Everything needed to run trials of one configured attack."""

    gadget: Gadget
    ordering: Ordering
    scheme: SchemeId
    cfg: MachineConfig
    params: AttackParams
    layout: AttackLayout
    program: MicroProgram
    script: AttackScript | None
    image: CacheImage
    anchor: int
    decode: Mapping[tuple[bool, ...], int]  # probe outcome -> bit
    # The simulator is a pure function of its inputs, so a bit's victim
    # run is shared across trials, and across the plans of one sender
    # (RunMemo.plan). Every other plan, a replace() copy included, gets a
    # memo of its own on its first read, so it never reads what another
    # plan ran. It is the plan's only state: what lives for one transmit
    # (the interloper pool, the trial readings) is kept by the transmit.
    memo: RunMemo | None = field(default=None, init=False, repr=False, compare=False)

    def trace(self, bit: int) -> ExecutionTrace:
        """A fresh run of the bit's victim, kept by no one: the one place
        a plan runs."""
        return run(self.program, self.cfg, self.scheme, secrets={"s0": bit}, image=self.image, attacker=self.script)

    def summary(self, bit: int) -> RunSummary:
        """What the harness reads of the bit's victim run, from the memo."""
        if self.memo is None:
            self.memo = RunMemo(self.gadget, self.ordering, self.cfg)
        return self.memo.summary(self, bit)


def plan_attack(
    gadget: Gadget,
    ordering: Ordering,
    scheme: SchemeId,
    cfg: MachineConfig,
    params: AttackParams | None = None,
) -> AttackPlan:
    p = params or AttackParams()
    lay = AttackLayout(cfg.geometry)
    program, script = build_attack_program(ordering, gadget, cfg, p)
    anchor = anchor_line(ordering, lay)
    image = attack_image(gadget, cfg, m=p.m, anchor=anchor)  # an RS image primes no set
    decode = PRESENCE_DECODE if gadget is Gadget.RS else derive_decode_table(lay, anchor)
    return AttackPlan(gadget, ordering, scheme, cfg, p, lay, program, script, image, anchor, decode)


def _prime_probe_cost(plan: AttackPlan) -> int:
    lat = plan.cfg.geometry.lat_llc
    if plan.gadget is Gadget.RS:
        return 2 * lat  # flush + reload
    n = len(plan.layout.evs1) * PRIME_PASSES + 1 + len(plan.layout.evs2)
    return n * lat


def observe_trial(plan: AttackPlan, bit: int, draws: tuple[int, ...] = ()) -> tuple[bool, ...]:
    """The noiseless reading of one prime+run+probe trial: copy the target
    set the bit's victim run left, touch the drawn interloper lines, then
    read (anchor present,) for the RS sender or probe for (a_hit, b_hit)."""
    cset = CacheSet(plan.cfg.geometry.llc_ways, plan.summary(bit).ways)
    for line in draws:
        qlru_touch(cset, line)
    if plan.gadget is Gadget.RS:
        return (cset.resident(plan.anchor),)
    return probe(cset, plan.layout.evs2, plan.anchor, plan.layout.reference_line)


_POOL_POSITIONS = range(INTERLOPER_POOL)


class TrialTable:
    """The random values of every noisy trial for one (seed, interlopers).

    Trial t of bit index i reads the first values of
    random.Random(f"{seed}:{i}:{t}") in their one order: one pool position
    per interloper (a choice over the pool consumes exactly what a choice
    over its positions does), then two flip uniforms, the widest probe
    outcome. A trial's randomness depends on nothing else, so every sender
    transmitting under one seed, and every trial count of a sweep, reads
    the same values; each stream is seeded once, the costly part of a
    noisy trial. The table holds k position bytes and two doubles per
    (bit index, trial) and grows to the largest request."""

    __slots__ = ("seed", "interlopers", "positions", "uniforms")

    def __init__(self, seed: int, interlopers: int) -> None:
        self.seed = seed
        self.interlopers = interlopers
        self.positions: list[bytearray] = []  # per trial: k pool positions per bit index
        self.uniforms: list[array] = []  # per trial: two flip uniforms per bit index

    def extend(self, bits: int, trials: int) -> TrialTable:
        while len(self.uniforms) < trials:
            self.positions.append(bytearray())
            self.uniforms.append(array("d"))
        new_stream, seed, per_trial = random.Random, self.seed, range(self.interlopers)
        for trial in range(trials):
            draw, flip = self.positions[trial].append, self.uniforms[trial].append
            for idx in range(len(self.uniforms[trial]) // 2, bits):
                rng = new_stream(f"{seed}:{idx}:{trial}")
                for _ in per_trial:
                    draw(rng.choice(_POOL_POSITIONS))
                flip(rng.random())
                flip(rng.random())
        return self


@lru_cache(maxsize=1, typed=True)
def trial_table(seed: int, interlopers: int) -> TrialTable:
    """The table of the most recent (seed, interlopers): one is kept."""
    return TrialTable(seed, interlopers)


class _Memo(dict):
    """A dict that fills each missing key with fill(key), once."""

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _decode_bit(votes: Sequence[int]) -> int:
    counted = [v for v in votes if v != DISCARD]
    if not counted:
        return DISCARD
    ones = sum(counted)
    zeros = len(counted) - ones
    if ones == zeros:
        return DISCARD
    return 1 if ones > zeros else 0


def transmit(
    plan: AttackPlan,
    secret_bits: list[int],
    trials_per_bit: int,
    noise: float,
    seed: int,
    interlopers: int = 0,
) -> AttackResult:
    """Transmit the given bits over a planned channel: per bit, run
    trials_per_bit prime/victim/probe rounds and majority-vote the decodes.
    All randomness derives from the root seed per (bit, trial), read from
    the seed's TrialTable; calls over one plan reuse its victim runs.

    A trial's decode is a pure function of its key: the bit, its
    interloper pool positions and, with noise above 0, whether each of its
    two flip uniforms falls below the noise. The trials go one trial number
    at a time, as a column of every bit index's key. Each distinct (bit,
    pool positions) is read once (observe_trial), each distinct key is
    decoded once from its reading, and each distinct tuple of a bit's
    votes is voted once; the pool and these memos live for this call only.
    A noiseless transmit with no interlopers thus reads once per bit value
    and draws no random value. A victim run's length depends only on the
    bit, so the cycle total is a sum over the bit values read."""
    if trials_per_bit < 0 or interlopers < 0:
        raise ValueError(f"trials and interlopers must be >= 0, got {trials_per_bit} and {interlopers}")
    n, k = len(secret_bits), interlopers
    table = trial_table(seed, k).extend(n, trials_per_bit) if trials_per_bit and (noise > 0 or k) else None
    columns = []  # per trial number, each bit index's key
    for trial in range(trials_per_bit):
        parts = [secret_bits]
        if k:
            positions = table.positions[trial]
            parts += [positions[j : n * k : k] for j in range(k)]
        if noise > 0:
            uniforms = table.uniforms[trial]
            parts += [map(lt, uniforms[j : 2 * n : 2], repeat(noise)) for j in (0, 1)]
        columns.append(zip(*parts))

    pool = plan.layout.interlopers(INTERLOPER_POOL) if k else ()
    readings = _Memo(lambda key: observe_trial(plan, key[0], tuple([pool[p] for p in key[1:]])))

    def decode_trial(key: tuple) -> int:
        reading, flips = readings[key[: 1 + k]], key[1 + k :]
        if flips:
            reading = tuple([hit != flip for hit, flip in zip(reading, flips)])
        return plan.decode.get(reading, DISCARD)

    # Column 0 is decoded first, so the victim runs are read in the order
    # the bits first appear.
    decode = _Memo(decode_trial).__getitem__
    votes = [list(map(decode, keys)) for keys in columns]
    decoded_bits = list(map(_Memo(_decode_bit).__getitem__, zip(*votes))) if votes else [DISCARD] * n
    victim = sum(plan.summary(bit).total_cycles * secret_bits.count(bit) for bit in {key[0] for key in readings})
    total_cycles = trials_per_bit * (victim + n * _prime_probe_cost(plan))
    counted = [(d, t) for d, t in zip(decoded_bits, secret_bits) if d != DISCARD]
    errors = sum(1 for d, t in counted if d != t)
    error_rate = errors / len(counted) if counted else 0.5
    discard_rate = 1 - len(counted) / len(secret_bits) if secret_bits else 0.0
    cycles_per_bit = total_cycles / len(secret_bits) if secret_bits else 0.0
    return AttackResult(
        decoded_bits=decoded_bits,
        true_bits=list(secret_bits),
        error_rate=error_rate,
        discard_rate=discard_rate,
        cycles_per_bit=cycles_per_bit,
        trials_per_bit=trials_per_bit,
    )


def run_attack(
    gadget: Gadget,
    ordering: Ordering,
    scheme: SchemeId,
    secret_bits: list[int],
    trials_per_bit: int,
    noise: float,
    seed: int,
    cfg: MachineConfig | None = None,
    params: AttackParams | None = None,
    interlopers: int = 0,
) -> AttackResult:
    """Plan the configured attack and transmit the given bits over it."""
    plan = plan_attack(gadget, ordering, scheme, cfg or MachineConfig(), params)
    return transmit(plan, secret_bits, trials_per_bit, noise, seed, interlopers)


# --- vulnerability matrix ----------------------------------------------------

MATRIX_SCHEMES = (
    SchemeId.INVISISPEC_SPECTRE,
    SchemeId.INVISISPEC_FUTURISTIC,
    SchemeId.DOM_NONTSO,
    SchemeId.SAFESPEC_WFB,
    SchemeId.MUONTRAP,
)

# Column groups: the two victim-only orderings share one column.
MATRIX_GROUPS: dict[str, tuple[Ordering, ...]] = {
    "vdvd+vivd": (Ordering.VDVD, Ordering.VIVD),
    "vdad": (Ordering.VDAD,),
    "viad": (Ordering.VIAD,),
}


def group_orderings(group: str, scheme: SchemeId) -> tuple[Ordering, ...]:
    """Orderings evaluated for a matrix cell. The victim-victim reordering
    attacks target designs that can have multiple unprotected accesses in
    flight; under unprotect-at-oldest schemes no such pair exists and the
    pair-reordering senders are out of scope by construction."""
    orderings = MATRIX_GROUPS[group]
    if group == "vdvd+vivd":
        shadow = scheme_spec(scheme).shadow
        if shadow in (ShadowRule.OLDEST_LOAD, ShadowRule.FUTURISTIC):
            return (Ordering.VDVD,)
    return orderings

_ALL = set(MATRIX_SCHEMES)

# Reference ground truth for the modeled designs: which schemes each
# gadget/ordering-group defeats; None marks non-constructible cells.
REFERENCE_VULNERABLE: dict[tuple[Gadget, str], set[SchemeId] | None] = {
    (Gadget.NPEU, "vdvd+vivd"): {
        SchemeId.INVISISPEC_SPECTRE,
        SchemeId.DOM_NONTSO,
        SchemeId.SAFESPEC_WFB,
    },
    (Gadget.NPEU, "vdad"): set(_ALL),
    (Gadget.NPEU, "viad"): set(_ALL),
    (Gadget.MSHR, "vdvd+vivd"): {SchemeId.INVISISPEC_SPECTRE, SchemeId.SAFESPEC_WFB},
    (Gadget.MSHR, "vdad"): {
        SchemeId.INVISISPEC_SPECTRE,
        SchemeId.INVISISPEC_FUTURISTIC,
        SchemeId.SAFESPEC_WFB,
        SchemeId.MUONTRAP,
    },
    (Gadget.MSHR, "viad"): {
        SchemeId.INVISISPEC_SPECTRE,
        SchemeId.INVISISPEC_FUTURISTIC,
        SchemeId.SAFESPEC_WFB,
        SchemeId.MUONTRAP,
    },
    (Gadget.RS, "vdvd+vivd"): None,
    (Gadget.RS, "vdad"): None,
    (Gadget.RS, "viad"): {
        SchemeId.INVISISPEC_SPECTRE,
        SchemeId.INVISISPEC_FUTURISTIC,
        SchemeId.DOM_NONTSO,
    },
}

VULNERABLE_THRESHOLD = 0.25  # noiseless error below this marks a working channel


@dataclass
class MatrixCell:
    gadget: Gadget
    group: str
    scheme: SchemeId
    error_rate: float  # best (lowest) across the group's orderings
    vulnerable: bool


@dataclass
class MatrixResult:
    cells: list[MatrixCell]

    def verdicts(self) -> dict[tuple[Gadget, str], set[SchemeId]]:
        out: dict[tuple[Gadget, str], set[SchemeId]] = {}
        for c in self.cells:
            out.setdefault((c.gadget, c.group), set())
            if c.vulnerable:
                out[(c.gadget, c.group)].add(c.scheme)
        return out

    def _compared(self) -> list[tuple[str, bool]]:
        """Per reference cell, in (gadget, group) order: its expected and
        actual verdicts as text, and whether they agree. Both are read over
        the reference's schemes that ran, so a run on a scheme subset is
        compared on that subset. A cell that is not constructible agrees
        when no cell of it ran."""
        out = []
        got = self.verdicts()
        ran = _ALL & {c.scheme for c in self.cells}
        for key, expected in sorted(REFERENCE_VULNERABLE.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
            gadget, group = key
            if expected is None:
                exp = act = "-"
                ok = key not in got
            else:
                expected, actual = expected & ran, got.get(key, set()) & ran
                exp = ",".join(sorted(s.value for s in expected)) or "-"
                act = ",".join(sorted(s.value for s in actual)) or "-"
                ok = actual == expected
            out.append((f"{gadget.value:5s} {group:10s} expected={exp} got={act}", ok))
        return out

    def matches_reference(self) -> bool:
        return all(ok for _, ok in self._compared())

    def diff_lines(self) -> list[str]:
        return [f"{text} [{'ok' if ok else 'MISMATCH'}]" for text, ok in self._compared()]

    def table_lines(self) -> list[str]:
        """Aligned text table: rows gadgets, columns ordering groups."""
        groups = list(MATRIX_GROUPS)
        got = self.verdicts()
        header = f"{'gadget':6s} | " + " | ".join(f"{g:^34s}" for g in groups)
        out = [header, "-" * len(header)]
        for gadget in Gadget:
            cells = []
            for group in groups:
                if REFERENCE_VULNERABLE[(gadget, group)] is None:
                    cells.append(f"{'-':^34s}")
                    continue
                vul = got.get((gadget, group), set())
                text = "All" if vul == _ALL else (",".join(sorted(s.value for s in vul)) or "none")
                cells.append(f"{text:^34s}")
            out.append(f"{gadget.value:6s} | " + " | ".join(cells))
        return out

    def csv_lines(self) -> list[str]:
        out = ["gadget,ordering_group,scheme,error_rate,verdict"]
        for c in sorted(self.cells, key=lambda c: (c.gadget.value, c.group, c.scheme.value)):
            verdict = "vulnerable" if c.vulnerable else "blocked"
            out.append(f"{c.gadget.value},{c.group},{c.scheme.value},{c.error_rate:.4f},{verdict}")
        skipped = [key for key, expected in REFERENCE_VULNERABLE.items() if expected is None]
        for gadget, group in sorted(skipped, key=lambda t: (t[0].value, t[1])):
            out.append(f"{gadget.value},{group},,,not_constructible")
        return out


def vulnerability_matrix(
    cfg: MachineConfig,
    seed: int,
    calibrations: Mapping[tuple[Gadget, Ordering, SchemeId], AttackPlan],
    bits: int = 32,
    schemes: tuple[SchemeId, ...] = MATRIX_SCHEMES,
) -> MatrixResult:
    """Run every constructible (gadget, ordering-group, scheme) attack at
    zero noise and mark cells whose decode error stays under the working
    threshold. Calibrations map every (gadget, ordering, scheme) the cells
    evaluate to the calibrated sender under that scheme and config, as
    ``matrix_calibrations`` returns them for the same schemes. The trials
    transmit over it and read their victim runs through its memo, one per
    sender, so no run its calibration made, or one such a run serves, is
    made again. Each bit gets one trial: with no noise and no interlopers
    every trial of a bit reads the same, so a vote over more would decide
    nothing."""
    rng = random.Random(f"matrix:{seed}")
    secret_bits = [rng.randrange(2) for _ in range(bits)]
    cells: list[MatrixCell] = []
    for gadget in Gadget:
        for group in MATRIX_GROUPS:
            if REFERENCE_VULNERABLE[(gadget, group)] is None:
                continue
            for scheme in schemes:
                best = 1.0
                for ordering in group_orderings(group, scheme):
                    plan = calibrations[(gadget, ordering, scheme)]
                    if (plan.gadget, plan.ordering, plan.scheme, plan.cfg) != (gadget, ordering, scheme, cfg):
                        cell = f"{gadget.value}/{ordering.value}/{scheme.value}"
                        raise ValueError(f"the calibration for {cell} is a sender of another cell or config")
                    res = transmit(plan, secret_bits, trials_per_bit=1, noise=0.0, seed=seed)
                    # Undecodable (all-discard) counts as chance level.
                    rate = 0.5 if res.discard_rate >= 0.5 else res.error_rate
                    best = min(best, rate)
                cells.append(MatrixCell(gadget, group, scheme, best, best < VULNERABLE_THRESHOLD))
    return MatrixResult(cells=cells)


# --- error-rate / throughput sweep -------------------------------------------


def sweep_error_vs_rate(
    plan: AttackPlan,
    noise: float,
    trial_counts: list[int],
    bits: int,
    seed: int,
) -> list[AttackResult]:
    """Error rate vs cost for increasing trials-per-bit at a fixed flip
    probability; the raw material for the channel quality curve. Every
    count transmits over the given plan, so its sender runs at most once
    per bit value, and not at all for a bit whose run its memo holds (a
    calibrated sender's)."""
    rng = random.Random(f"sweep:{seed}")
    secret_bits = [rng.randrange(2) for _ in range(bits)]
    return [transmit(plan, secret_bits, trials, noise, seed) for trials in trial_counts]


def sweep_csv(points: list[AttackResult]) -> str:
    rows = ["trials,error_rate,discard_rate,cycles_per_bit,bits_per_mcycle"]
    for p in points:
        bits_per_mcycle = 1e6 / p.cycles_per_bit if p.cycles_per_bit else 0.0
        rows.append(
            f"{p.trials_per_bit},{p.error_rate:.4f},{p.discard_rate:.4f},{p.cycles_per_bit:.1f},{bits_per_mcycle:.3f}"
        )
    return "\n".join(rows) + "\n"
