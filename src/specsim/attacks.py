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

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
import random
from types import MappingProxyType

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
from .pipeline import ExecutionTrace, run
from .schemes import SchemeId, ShadowRule, scheme_spec

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
    """The target set's (tag, age) ways right after the prime."""
    cset = CacheSet(layout.geometry.llc_ways)
    prime(cset, layout.evs1, anchor)
    return tuple((t, a) for t, a in zip(cset.tags, cset.ages) if t is not None)


@lru_cache(maxsize=64)
def derive_decode_table(layout: AttackLayout, anchor: int) -> Mapping[tuple[bool, ...], int]:
    """Replay prime -> victim order -> probe through the replacement model
    for both orders and map the two survivor pairs to bits. Bit 0 is the
    anchor-first order (no interference), bit 1 the reference-first order."""
    table: dict[tuple[bool, ...], int] = {}
    for bit, order in ((0, (anchor, layout.reference_line)), (1, (layout.reference_line, anchor))):
        cset = CacheSet(layout.geometry.llc_ways)
        prime(cset, layout.evs1, anchor)
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
    else:
        count = m if m is not None else cfg.l1d_mshrs
        for k in range(count):
            scripts[s + k] = Level.MEMMISS
    image = CacheImage(scripts=scripts)
    if gadget is not Gadget.RS:
        image.llc[lay.set_index] = list(primed_ways(lay, anchor if anchor is not None else lay.victim_line))
    image.validate(cfg.geometry)
    return image


def anchor_line(ordering: Ordering, layout: AttackLayout) -> int:
    """The access whose timing the gadget perturbs: the victim data line for
    VD orderings, the marked fetch line for VI orderings."""
    if ordering in (Ordering.VDVD, Ordering.VDAD):
        return layout.victim_line
    return layout.itarget_line


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
    # trace is shared across trials; only probe noise varies per trial.
    trace_cache: dict[int, ExecutionTrace] = field(default_factory=dict)
    # With the trace fixed, the noiseless probe outcome is a pure function
    # of the bit and the interloper lines drawn: (bit, draws) -> outcome.
    outcome_cache: dict[tuple[int, tuple[int, ...]], tuple[bool, ...]] = field(default_factory=dict)
    interloper_pool: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.interloper_pool = self.layout.interlopers(INTERLOPER_POOL)

    def victim_trace(self, bit: int) -> ExecutionTrace:
        if bit not in self.trace_cache:
            self.trace_cache[bit] = run(
                self.program,
                self.cfg,
                self.scheme,
                secrets={"s0": bit},
                image=self.image,
                attacker=self.script,
            )
        return self.trace_cache[bit]

    def probe_outcome(self, bit: int, draws: tuple[int, ...]) -> tuple[bool, ...]:
        """The noiseless reading of one trial: copy the victim's target set,
        touch the drawn interlopers, then read (anchor present,) for the
        RS sender or probe for (a_hit, b_hit)."""
        key = (bit, draws)
        outcome = self.outcome_cache.get(key)
        if outcome is None:
            ways = self.victim_trace(bit).llc_state.get(self.layout.set_index, ())
            cset = CacheSet(self.cfg.geometry.llc_ways, ways)
            for line in draws:
                qlru_touch(cset, line)
            if self.gadget is Gadget.RS:
                outcome = (cset.resident(self.anchor),)
            else:
                outcome = probe(cset, self.layout.evs2, self.anchor, self.layout.reference_line)
            self.outcome_cache[key] = outcome
        return outcome


def plan_attack(
    gadget: Gadget,
    ordering: Ordering,
    scheme: SchemeId | str,
    cfg: MachineConfig,
    params: AttackParams | None = None,
) -> AttackPlan:
    p = params or AttackParams()
    lay = AttackLayout(cfg.geometry)
    scheme = SchemeId(scheme) if isinstance(scheme, str) else scheme
    program, script = build_attack_program(ordering, gadget, cfg, p)
    anchor = anchor_line(ordering, lay)
    if gadget is Gadget.RS:
        image = attack_image(gadget, cfg, m=p.m)
        decode = PRESENCE_DECODE
    else:
        image = attack_image(gadget, cfg, m=p.m, anchor=anchor)
        decode = derive_decode_table(lay, anchor)
    return AttackPlan(gadget, ordering, scheme, cfg, p, lay, program, script, image, anchor, decode)


def _prime_probe_cost(plan: AttackPlan) -> int:
    lat = plan.cfg.geometry.lat_llc
    if plan.gadget is Gadget.RS:
        return 2 * lat  # flush + reload
    n = len(plan.layout.evs1) * PRIME_PASSES + 1 + len(plan.layout.evs2)
    return n * lat


def observe_trial(
    plan: AttackPlan, bit: int, rng: random.Random | None, noise: float, interlopers: int = 0
) -> tuple[int, int]:
    """One prime+run+probe trial; returns (decoded bit or DISCARD, cycles).
    rng is read only when noise > 0 or interlopers > 0: first one draw per
    interloper, then one flip draw per observed line."""
    trace = plan.victim_trace(bit)
    draws = ()
    if interlopers > 0:
        draws = tuple([rng.choice(plan.interloper_pool) for _ in range(interlopers)])
    outcome = plan.probe_outcome(bit, draws)
    if noise > 0:
        outcome = tuple([hit != (rng.random() < noise) for hit in outcome])
    return plan.decode.get(outcome, DISCARD), trace.total_cycles


def _decode_bit(votes: list[int]) -> int:
    counted = [v for v in votes if v != DISCARD]
    if not counted:
        return DISCARD
    ones = sum(counted)
    zeros = len(counted) - ones
    if ones == zeros:
        return DISCARD
    return 1 if ones > zeros else 0


def run_attack(
    gadget: Gadget,
    ordering: Ordering,
    scheme: SchemeId | str,
    secret_bits: list[int],
    trials_per_bit: int,
    noise: float,
    seed: int,
    cfg: MachineConfig | None = None,
    params: AttackParams | None = None,
    interlopers: int = 0,
) -> AttackResult:
    """Transmit the given bits over the configured channel: per bit, run
    trials_per_bit prime/victim/probe rounds and majority-vote the decodes.
    All randomness derives from the root seed per (bit, trial).
    """
    cfg = cfg or MachineConfig()
    plan = plan_attack(gadget, ordering, scheme, cfg, params)
    trial_cost = _prime_probe_cost(plan)
    seeded = noise > 0 or interlopers > 0
    decoded_bits = []
    total_cycles = 0
    for idx, bit in enumerate(secret_bits):
        votes = []
        for trial in range(trials_per_bit):
            rng = random.Random(f"{seed}:{idx}:{trial}") if seeded else None
            decoded, cycles = observe_trial(plan, bit, rng, noise, interlopers)
            votes.append(decoded)
            total_cycles += cycles + trial_cost
        decoded_bits.append(_decode_bit(votes))
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
    not_constructible: list[tuple[Gadget, str]]

    def verdicts(self) -> dict[tuple[Gadget, str], set[SchemeId]]:
        out: dict[tuple[Gadget, str], set[SchemeId]] = {}
        for c in self.cells:
            out.setdefault((c.gadget, c.group), set())
            if c.vulnerable:
                out[(c.gadget, c.group)].add(c.scheme)
        return out

    def matches_reference(self) -> bool:
        got = self.verdicts()
        for key, expected in REFERENCE_VULNERABLE.items():
            if expected is None:
                if key in got:
                    return False
                continue
            if got.get(key) != expected:
                return False
        return True

    def diff_lines(self) -> list[str]:
        out = []
        got = self.verdicts()
        for key, expected in sorted(REFERENCE_VULNERABLE.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
            gadget, group = key
            if expected is None:
                state = "ok" if key not in got else "MISMATCH"
                out.append(f"{gadget.value:5s} {group:10s} expected=- got=- [{state}]")
                continue
            actual = got.get(key, set())
            state = "ok" if actual == expected else "MISMATCH"
            exp = ",".join(sorted(s.value for s in expected)) or "-"
            act = ",".join(sorted(s.value for s in actual)) or "-"
            out.append(f"{gadget.value:5s} {group:10s} expected={exp} got={act} [{state}]")
        return out

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
        for gadget, group in sorted(self.not_constructible, key=lambda t: (t[0].value, t[1])):
            out.append(f"{gadget.value},{group},,,not_constructible")
        return out


def vulnerability_matrix(
    cfg: MachineConfig,
    seed: int,
    bits: int = 32,
    trials: int = 3,
    schemes: tuple[SchemeId, ...] = MATRIX_SCHEMES,
    calibrations: dict[tuple[Gadget, Ordering, SchemeId], AttackParams] | None = None,
) -> MatrixResult:
    """Run every constructible (gadget, ordering-group, scheme) attack at
    zero noise and mark cells whose decode error stays under the working
    threshold. Calibrations map each cell to sender parameters; missing
    entries use the builder defaults."""
    rng = random.Random(f"matrix:{seed}")
    secret_bits = [rng.randrange(2) for _ in range(bits)]
    cells: list[MatrixCell] = []
    skipped: list[tuple[Gadget, str]] = []
    for gadget in Gadget:
        for group in MATRIX_GROUPS:
            if REFERENCE_VULNERABLE[(gadget, group)] is None:
                skipped.append((gadget, group))
                continue
            for scheme in schemes:
                best = 1.0
                for ordering in group_orderings(group, scheme):
                    params = (calibrations or {}).get((gadget, ordering, scheme))
                    res = run_attack(
                        gadget,
                        ordering,
                        scheme,
                        secret_bits,
                        trials_per_bit=trials,
                        noise=0.0,
                        seed=seed,
                        cfg=cfg,
                        params=params,
                    )
                    # Undecodable (all-discard) counts as chance level.
                    rate = 0.5 if res.discard_rate >= 0.5 else res.error_rate
                    best = min(best, rate)
                cells.append(MatrixCell(gadget, group, scheme, best, best < VULNERABLE_THRESHOLD))
    return MatrixResult(cells=cells, not_constructible=skipped)


# --- error-rate / throughput sweep -------------------------------------------

@dataclass
class SweepPoint:
    trials: int
    error_rate: float
    discard_rate: float
    cycles_per_bit: float

    @property
    def bits_per_mcycle(self) -> float:
        return 1e6 / self.cycles_per_bit if self.cycles_per_bit else 0.0


def sweep_error_vs_rate(
    gadget: Gadget,
    ordering: Ordering,
    scheme: SchemeId | str,
    noise: float,
    trial_counts: list[int],
    bits: int,
    seed: int,
    cfg: MachineConfig | None = None,
    params: AttackParams | None = None,
) -> list[SweepPoint]:
    """Error rate vs cost for increasing trials-per-bit at a fixed flip
    probability; the raw material for the channel quality curve."""
    cfg = cfg or MachineConfig()
    rng = random.Random(f"sweep:{seed}")
    secret_bits = [rng.randrange(2) for _ in range(bits)]
    points = []
    for trials in trial_counts:
        res = run_attack(
            gadget,
            ordering,
            scheme,
            secret_bits,
            trials_per_bit=trials,
            noise=noise,
            seed=seed,
            cfg=cfg,
            params=params,
        )
        points.append(SweepPoint(trials, res.error_rate, res.discard_rate, res.cycles_per_bit))
    return points


def sweep_csv(points: list[SweepPoint]) -> str:
    rows = ["trials,error_rate,discard_rate,cycles_per_bit,bits_per_mcycle"]
    for p in points:
        rows.append(
            f"{p.trials},{p.error_rate:.4f},{p.discard_rate:.4f},{p.cycles_per_bit:.1f},{p.bits_per_mcycle:.3f}"
        )
    return "\n".join(rows) + "\n"
