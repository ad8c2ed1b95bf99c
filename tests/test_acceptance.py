"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; the stated runtime budgets are
asserted too (they carry an order of magnitude of slack on this engine).
"""

import random
import time
from pathlib import Path

import pytest

from specsim.machine import MachineConfig
from specsim.memhier import AGE_MAX, CacheSet, order_sensitivity, qlru_touch
from specsim import attacks
from specsim.microprog import AttackLayout, Gadget, Ordering, build_attack_program, marks_fetch
from specsim.attacks import (
    MATRIX_SCHEMES,
    REFERENCE_VULNERABLE,
    MatrixResult,
    attack_image,
    group_orderings,
    observe_trial,
    plan_attack,
    prime,
    probe,
    run_attack,
    sweep_error_vs_rate,
    transmit,
    vulnerability_matrix,
)
from specsim.pipeline import run
from specsim.schemes import SchemeId
from specsim.seccheck import (
    bench_overhead,
    calibrate_for_matrix,
    check_ideal,
    check_ideal_differential,
    interference_gap,
    matrix_calibrations,
    synth_suite,
)

from qlru_ref import new_set, ref_access, ref_state

CFG = MachineConfig()
GEOM = CFG.geometry
LAY = AttackLayout(GEOM)
GOLDEN_DIR = Path(__file__).parent / "golden"
MATRIX_GOLDEN = GOLDEN_DIR / "matrix_seed1.csv"

# run() calls of the seed-1 matrix, calibration included, and the cycles
# they simulate (occupancy rows).
MATRIX_RUNS = 530
MATRIX_CYCLES = 157_033
DEFENSES = (SchemeId.FENCE_SPECTRE, SchemeId.FENCE_FUTURISTIC, SchemeId.NOINTERFERENCE)


def report(criterion: int, description: str, ok: bool, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {criterion}: {verdict} [{elapsed:.1f}s/{budget:.0f}s] {description}")
    assert ok, f"criterion {criterion} failed: {description}"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"


def all_attack_cells():
    """Every (gadget, ordering, scheme) the matrix evaluates."""
    for gadget in Gadget:
        for group in ("vdvd+vivd", "vdad", "viad"):
            if REFERENCE_VULNERABLE[(gadget, group)] is None:
                continue
            for scheme in MATRIX_SCHEMES:
                for ordering in group_orderings(group, scheme):
                    yield gadget, ordering, scheme, group


def test_criterion_1_qlru_fidelity():
    t0 = time.time()
    ok = True
    # Rule transcript: insert at age 1, leftmost placement.
    cset = CacheSet(4)
    ok &= qlru_touch(cset, 10) is None
    ok &= cset.tags[0] == 10 and cset.ages[0] == 1
    cset = CacheSet(4, ((10, 1), (11, 2)))
    ok &= qlru_touch(cset, 12) is None  # leftmost free way is index 2
    ok &= cset.tags[2] == 12 and cset.ages[2] == 1
    # Hit promotions 3->1, 2->1, 1->0, 0->0.
    for before, after in ((3, 1), (2, 1), (1, 0), (0, 0)):
        s = CacheSet(1, ((7, before),))
        ok &= qlru_touch(s, 7) is None
        ok &= s.ages[0] == after
    # Leftmost age-3 eviction.
    s = CacheSet(4, ((1, 2), (2, 3), (3, 1), (4, 3)))
    ok &= qlru_touch(s, 10) == 2
    ok &= s.tags == [1, 10, 3, 4] and s.ages == [2, 1, 1, 3]
    # Increment-until-age-3 aging: [2, 3, 1, 3], then way 1 is replaced.
    s = CacheSet(4, ((1, 1), (2, 2), (3, 0), (4, 2)))
    ok &= qlru_touch(s, 10) == 2
    ok &= s.tags == [1, 10, 3, 4] and s.ages == [2, 1, 1, 3]
    # 10,000-step randomized property: age range, tag uniqueness, and
    # agreement with the independent reference; plus hit saturation.
    rng = random.Random(0xACCE55)
    impl, ref = CacheSet(16), new_set(16)
    pool = list(range(64))
    for _ in range(10_000):
        line = rng.choice(pool)
        qlru_touch(impl, line)
        ref_access(ref, line)
        impl.check_invariants()
        ok &= impl.state() == ref_state(ref)
        ok &= all(0 <= a <= AGE_MAX for a in impl.ages)
    s = CacheSet(1, ((9, 3),))
    qlru_touch(s, 9)
    qlru_touch(s, 9)
    ok &= s.ages[0] == 0  # k >= 2 hits saturate at age 0
    report(1, "QLRU rule transcript + 10k-step property", ok, time.time() - t0, 5.0)


def test_criterion_2_noncommutativity_witness():
    t0 = time.time()
    prefix = list(LAY.evs1) * 2  # the prime's filler passes
    ok = order_sensitivity(prefix, LAY.victim_line, LAY.reference_line, ways=GEOM.llc_ways, geom=GEOM)
    # Exhaustive same-set pairs over the fixture's probe-safe pool: the
    # survivor must differ between the two victim orders.
    pool = (LAY.victim_line, LAY.reference_line) + LAY.interlopers(4)
    for x in pool:
        for y in pool:
            if x == y:
                continue
            ok &= order_sensitivity(prefix, x, y, ways=GEOM.llc_ways, geom=GEOM)
            survivors = []
            for order in ((x, y), (y, x)):
                cset = CacheSet(GEOM.llc_ways)
                prime(cset, LAY.evs1, x)
                for line in order:
                    qlru_touch(cset, line)
                a_hit, b_hit = probe(cset, LAY.evs2, x, y)
                ok &= a_hit != b_hit  # exactly one of the pair
                survivors.append((a_hit, b_hit))
            ok &= survivors[0] != survivors[1]
    report(2, "order sensitivity on the primed set, exhaustive pairs", ok, time.time() - t0, 1.0)


class CountingRun:
    """Wraps attacks.run, through which every calibration and trial run of
    the matrix goes, and counts the calls and their simulated cycles."""

    def __init__(self, real):
        self.real = real
        self.calls = 0
        self.cycles = 0

    def __call__(self, *args, **kw):
        self.calls += 1
        trace = self.real(*args, **kw)
        self.cycles += len(trace.occupancy)
        return trace


@pytest.fixture(scope="module")
def calibration_runs():
    """The matrix calibrations and the count of the run() calls they made."""
    with pytest.MonkeyPatch.context() as mp:
        runs = CountingRun(attacks.run)
        mp.setattr(attacks, "run", runs)
        cals = matrix_calibrations(CFG, MATRIX_SCHEMES)
    return cals, runs


@pytest.fixture(scope="module")
def calibrations(calibration_runs):
    return calibration_runs[0]


def golden_matrix(calibrations) -> MatrixResult:
    return vulnerability_matrix(CFG, seed=1, bits=32, calibrations=calibrations)


def test_criterion_3_vulnerability_matrix(calibration_runs, monkeypatch):
    # Each (cell, ordering) transmits its 32 noiseless bits with one trial
    # per bit over its own calibrated sender. safespec-wfb and muontrap
    # differ from the two InvisiSpec schemes only at marked fetches, so
    # where no fetch shadow held one their trials read the same victim
    # runs from the pass's memo (schemes.serves) and run nothing.
    calls = []
    observed = []

    def counting(plan, *args, **kw):
        before = runs.calls
        got = transmit(plan, *args, **kw)
        calls.append((plan.gadget, plan.ordering, plan.scheme, runs.calls - before))
        return got

    def observing(*args, **kw):
        observed.append(args)
        return observe_trial(*args, **kw)

    monkeypatch.setattr(attacks, "transmit", counting)
    monkeypatch.setattr(attacks, "observe_trial", observing)
    runs = CountingRun(attacks.run)
    monkeypatch.setattr(attacks, "run", runs)
    calibrations, calibration = calibration_runs
    t0 = time.time()
    res = golden_matrix(calibrations)
    ok = res.matches_reference()
    # Per-cell error rates pinned byte for byte, not only the verdicts.
    ok &= res.csv_lines() == MATRIX_GOLDEN.read_text().splitlines()
    if not ok:
        for line in res.diff_lines():
            print("  " + line)
    ok &= len(calls) == sum(len(group_orderings(c.group, c.scheme)) for c in res.cells) == 41
    # Noiseless with no interlopers, every trial of a bit value reads the
    # same, so a transmit decodes once per bit value: both occur in the 32.
    ok &= len(observed) == 2 * len(calls) == 82
    reused = {SchemeId.SAFESPEC_WFB, SchemeId.MUONTRAP}
    ok &= not any(n for g, o, s, n in calls if s in reused and not marks_fetch(g, o))
    # Engine runs of the whole seed-1 matrix, calibration included: bit-1
    # runs the secret cannot reach are skipped, and every run the pass's
    # memo holds is reused for each scheme it serves, trials included.
    ok &= calibration.calls + runs.calls == MATRIX_RUNS
    ok &= calibration.cycles + runs.cycles == MATRIX_CYCLES
    report(3, "vulnerability matrix equals the reference cell-for-cell", ok, time.time() - t0, 300.0)


def test_criterion_4_interference_gap():
    t0 = time.time()
    gap_inert, gap_removed = interference_gap(CFG, SchemeId.DOM_NONTSO)
    again = interference_gap(CFG, SchemeId.DOM_NONTSO)
    ok = gap_inert > 0 and gap_removed > 0 and again == (gap_inert, gap_removed)
    report(
        4,
        f"victim completion gap +{gap_inert} (vs inert) / +{gap_removed} (vs removed), deterministic",
        ok,
        time.time() - t0,
        10.0,
    )


def test_criterion_5_noninterference_of_defenses(calibrations):
    t0 = time.time()
    ok = True
    seen = set()
    for gadget, ordering, scheme, group in all_attack_cells():
        key = (gadget, ordering, scheme)
        if key in seen:
            continue
        seen.add(key)
        params = calibrations[key].params
        # Defenses hold on every attack program, at both secrets and
        # differentially. Control flow is the only squash source here, so
        # the control-flow-only scope includes all of them.
        for defense in DEFENSES:
            plan = plan_attack(gadget, ordering, defense, CFG, params)
            for bit in (0, 1):
                ok &= check_ideal(plan.program, CFG, defense, {"s0": bit}, plan.image, plan.script).holds
            ok &= check_ideal_differential(plan.program, CFG, defense, plan.image, plan.script).holds
        # Every reference-vulnerable pair is Violated under its scheme.
        if scheme in REFERENCE_VULNERABLE[(gadget, group)]:
            plan = plan_attack(gadget, ordering, scheme, CFG, params)
            diff = check_ideal_differential(plan.program, CFG, scheme, plan.image, plan.script)
            decodable = not diff.holds
            if group == "vdvd+vivd":
                # The group cell is vulnerable via at least one ordering.
                others = [
                    not check_ideal_differential(
                        p2.program, CFG, scheme, p2.image, p2.script
                    ).holds
                    for o2 in group_orderings(group, scheme)
                    for p2 in [plan_attack(gadget, o2, scheme, CFG, calibrations[(gadget, o2, scheme)].params)]
                ]
                ok &= any(others)
            else:
                ok &= decodable
    report(5, "defenses Hold everywhere; vulnerable pairs Violated", ok, time.time() - t0, 120.0)


def test_criterion_6_fence_overhead_ordering():
    t0 = time.time()
    rep = bench_overhead(synth_suite(seed=3), CFG, [SchemeId.FENCE_SPECTRE, SchemeId.FENCE_FUTURISTIC])
    fs = rep.geomean(SchemeId.FENCE_SPECTRE)
    ff = rep.geomean(SchemeId.FENCE_FUTURISTIC)
    branchy = rep.slowdowns["branch_dense"][SchemeId.FENCE_SPECTRE.value]
    ok = ff > fs > 1.00 and branchy > 1.05
    report(
        6,
        f"slowdown ordering: futuristic {ff:.2f}x > spectre {fs:.2f}x > 1.00, branch-dense {branchy:.2f}x > 1.05",
        ok,
        time.time() - t0,
        120.0,
    )


def test_criterion_7_error_rate_vs_throughput(calibrations):
    t0 = time.time()
    noise = 0.15
    bits = 256
    d_key = (Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO)
    i_key = (Gadget.RS, Ordering.VIAD, SchemeId.DOM_NONTSO)
    curves = {}
    for label, key in (("dcache", d_key), ("icache", i_key)):
        curves[label] = sweep_error_vs_rate(calibrations[key], noise, [1, 3, 5, 15], bits, seed=42)
    ok = True
    for label, pts in curves.items():
        err1 = next(p.error_rate for p in pts if p.trials_per_bit == 1)
        err15 = next(p.error_rate for p in pts if p.trials_per_bit == 15)
        ok &= err1 > 0 and err15 <= err1 / 2

    def matched(pts, target=0.05):
        for p in pts:
            if p.error_rate <= target:
                return p
        return pts[-1]

    d_point, i_point = matched(curves["dcache"]), matched(curves["icache"])
    ok &= i_point.cycles_per_bit < d_point.cycles_per_bit
    report(
        7,
        f"majority vote: err(15) <= err(1)/2 both channels; icache {i_point.cycles_per_bit:.0f} "
        f"< dcache {d_point.cycles_per_bit:.0f} cycles/bit at error <= 0.05",
        ok,
        time.time() - t0,
        120.0,
    )


GOLDEN_RUNS = {
    "npeu": (Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO),
    "mshr": (Gadget.MSHR, Ordering.VDAD, SchemeId.INVISISPEC_SPECTRE),
    "rs": (Gadget.RS, Ordering.VIAD, SchemeId.INVISISPEC_SPECTRE),
}


def golden_trace_text(name: str) -> str:
    gadget, ordering, scheme = GOLDEN_RUNS[name]
    prog, script = build_attack_program(ordering, gadget, CFG)
    image = attack_image(gadget, CFG)
    trace = run(prog, CFG, scheme, secrets={"s0": 1}, image=image, attacker=script)
    return trace.serialize() + trace.occupancy_csv()


def test_criterion_8_determinism_golden_traces():
    t0 = time.time()
    ok = True
    for name in GOLDEN_RUNS:
        text = golden_trace_text(name)
        ok &= text == golden_trace_text(name)  # byte-identical across runs
        golden = GOLDEN_DIR / f"{name}.trace"
        ok &= golden.exists() and golden.read_text() == text
    # A seeded noisy attack gives the same result run after run.
    bits = [0, 1, 1, 0, 1, 0, 0, 1] * 2
    kw = dict(trials_per_bit=3, noise=0.1, seed=9, cfg=CFG)
    first = run_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, bits, **kw)
    second = run_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, bits, **kw)
    ok &= first == second
    report(8, "golden traces byte-identical; seeded attack repeats exactly", ok, time.time() - t0, 30.0)
