"""Receiver (prime/probe/decode) and end-to-end channel tests."""

import itertools
import random
from array import array
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, reject, settings, strategies as st

from specsim.machine import MachineConfig
from specsim.memhier import CacheGeometry, CacheImage, CacheSet
from specsim.microprog import AttackLayout, AttackParams, ConstructionError, Gadget, Ordering, constructible
from specsim import attacks
from specsim.attacks import (
    DISCARD,
    INTERLOPER_POOL,
    MATRIX_SCHEMES,
    PRIME_PASSES,
    REFERENCE_VULNERABLE,
    RunMemo,
    RunSummary,
    derive_decode_table,
    group_orderings,
    observe_trial,
    plan_attack,
    prime,
    primed_ways,
    probe,
    run_attack,
    sweep_error_vs_rate,
    transmit,
    trial_table,
    vulnerability_matrix,
)
from specsim.pipeline import run
from specsim.schemes import SchemeId, scheme_spec, serves
from specsim.seccheck import calibrate_for_matrix, matrix_calibrations

from conftest import examples
from qlru_ref import new_set, ref_access, ref_state

CFG = MachineConfig()
GEOM = CFG.geometry
LAY = AttackLayout(GEOM)


class TestLayout:
    @settings(max_examples=examples(200), deadline=None)
    @given(llc_sets=st.integers(1, 512), llc_ways=st.integers(1, 32))
    def test_lines_follow_the_geometry(self, llc_sets, llc_ways):
        geom = CacheGeometry(llc_sets=llc_sets, llc_ways=llc_ways)
        lay = AttackLayout(geom)
        named = (lay.victim_line, lay.reference_line, lay.itarget_line)
        lines = named + lay.evs1 + lay.evs2 + lay.interlopers(INTERLOPER_POOL)
        assert len(set(lines)) == len(lines)
        assert {geom.llc_index(x) for x in lines} == {lay.set_index}
        assert len(lay.evs1) == len(lay.evs2) == llc_ways - 1
        for anchor in (lay.victim_line, lay.itarget_line):
            assert derive_decode_table(lay, anchor) == {(False, True): 0, (True, False): 1}

    def test_every_attack_image_round_trips(self):
        # The strict image parser still loads what attack_image writes.
        for gadget, ordering in itertools.product(Gadget, Ordering):
            if constructible(gadget, ordering):
                text = plan_attack(gadget, ordering, SchemeId.UNSAFE, CFG).image.dump()
                assert CacheImage.parse(text).dump() == text, (gadget, ordering)


class TestPrime:
    def test_filler_saturates_at_age_zero_and_anchor_inserted(self):
        cset = CacheSet(GEOM.llc_ways)
        prime(cset, LAY.evs1, LAY.victim_line)
        assert None not in cset.tags
        for line in LAY.evs1:
            assert cset.ages[cset.find(line)] == 0
        # The literal prime sequence leaves the anchor at insertion age in
        # the one free way.
        assert cset.ages[cset.find(LAY.victim_line)] == 1

    def test_two_passes_reach_the_age_zero_fixed_point(self):
        one = CacheSet(GEOM.llc_ways)
        prime(one, LAY.evs1, LAY.victim_line, passes=1)
        assert any(one.ages[one.find(l)] != 0 for l in LAY.evs1)
        for extra in (2, 3, 5):
            cset = CacheSet(GEOM.llc_ways)
            prime(cset, LAY.evs1, LAY.victim_line, passes=extra)
            assert all(cset.ages[cset.find(l)] == 0 for l in LAY.evs1)

    def test_first_miss_ages_anchor_to_three(self):
        # The stated age-3 anchor state materializes at the first
        # subsequent miss: uniform aging lifts everything before eviction.
        cset = CacheSet(GEOM.llc_ways)
        prime(cset, LAY.evs1, LAY.victim_line)
        from specsim.memhier import qlru_touch

        qlru_touch(cset, LAY.victim_line)  # victim hit: anchor 1 -> 0
        qlru_touch(cset, LAY.reference_line)  # miss: everything ages to 3
        assert cset.ages[cset.find(LAY.victim_line)] == 3

    def test_prime_matches_reference_model(self):
        ref = new_set(GEOM.llc_ways)
        for _ in range(2):
            for line in LAY.evs1:
                ref_access(ref, line)
        ref_access(ref, LAY.victim_line)
        cset = CacheSet(GEOM.llc_ways)
        prime(cset, LAY.evs1, LAY.victim_line)
        assert cset.state() == ref_state(ref)

    def test_collisions_rejected(self):
        with pytest.raises(ValueError):
            prime(CacheSet(4), (1, 2, 3), anchor=2)


class TestProbeAndDecode:
    def test_exactly_one_survivor_per_order(self):
        a, b = LAY.victim_line, LAY.reference_line
        for order in ((a, b), (b, a)):
            cset = CacheSet(GEOM.llc_ways)
            prime(cset, LAY.evs1, a)
            from specsim.memhier import qlru_touch

            for line in order:
                qlru_touch(cset, line)
            a_hit, b_hit = probe(cset, LAY.evs2, a, b)
            assert a_hit != b_hit  # exactly one of the pair survives

    def test_decode_table_is_derived_and_injective(self):
        table = derive_decode_table(LAY, LAY.victim_line)
        assert sorted(table.values()) == [0, 1]
        # Anchor-first order survives as the reference line, and vice versa.
        assert table[(False, True)] == 0
        assert table[(True, False)] == 1

    def test_both_miss_decodes_to_discard(self):
        table = derive_decode_table(LAY, LAY.victim_line)
        assert table.get((False, False), DISCARD) == DISCARD

    def test_derived_constants_are_read_only(self):
        # Both are memoized and shared by every caller, so neither may be
        # editable in place.
        table = derive_decode_table(LAY, LAY.victim_line)
        with pytest.raises(TypeError):
            table[(False, False)] = 1
        with pytest.raises(AttributeError):
            table.pop((True, False))
        assert derive_decode_table(LAY, LAY.victim_line) is table
        ways = primed_ways(LAY, LAY.victim_line)
        assert isinstance(ways, tuple) and all(isinstance(w, tuple) for w in ways)
        with pytest.raises(TypeError):
            ways[0] = (LAY.reference_line, 3)
        assert primed_ways(LAY, LAY.victim_line) is ways


def bits_for(n, seed):
    rng = random.Random(f"tb:{seed}")
    return [rng.randrange(2) for _ in range(n)]


class TestRunAttack:
    def test_npeu_vdvd_dom_nontso_noiseless_is_exact(self):
        res = run_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, bits_for(32, 1), 1, 0.0, seed=5, cfg=CFG)
        assert res.error_rate == 0.0 and res.discard_rate == 0.0
        assert res.decoded_bits == res.true_bits

    def test_fence_futuristic_is_chance_level_over_many_bits(self):
        res = run_attack(
            Gadget.NPEU, Ordering.VDVD, SchemeId.FENCE_FUTURISTIC, bits_for(1024, 2), 1, 0.0, seed=5, cfg=CFG
        )
        assert abs(res.error_rate - 0.5) < 0.1

    def test_rs_viad_muontrap_fails(self):
        params = calibrate_for_matrix(Gadget.RS, Ordering.VIAD, [SchemeId.MUONTRAP], CFG)[SchemeId.MUONTRAP].params
        res = run_attack(Gadget.RS, Ordering.VIAD, SchemeId.MUONTRAP, bits_for(64, 3), 1, 0.0, seed=5, cfg=CFG, params=params)
        assert abs(res.error_rate - 0.5) < 0.2  # chance-level

    def test_rs_viad_dom_decodes(self):
        params = calibrate_for_matrix(Gadget.RS, Ordering.VIAD, [SchemeId.DOM_NONTSO], CFG)[SchemeId.DOM_NONTSO].params
        res = run_attack(Gadget.RS, Ordering.VIAD, SchemeId.DOM_NONTSO, bits_for(32, 4), 1, 0.0, seed=5, cfg=CFG, params=params)
        assert res.error_rate == 0.0

    def test_vdad_uses_attacker_reference(self):
        params = calibrate_for_matrix(Gadget.MSHR, Ordering.VDAD, [SchemeId.INVISISPEC_SPECTRE], CFG)[SchemeId.INVISISPEC_SPECTRE].params
        plan = plan_attack(Gadget.MSHR, Ordering.VDAD, SchemeId.INVISISPEC_SPECTRE, CFG, params)
        attacker_entries = [r for r in plan.summary(0).pattern if r.requester == "attacker"]
        assert len(attacker_entries) == 1
        assert attacker_entries[0].line == LAY.reference_line
        res = run_attack(
            Gadget.MSHR, Ordering.VDAD, SchemeId.INVISISPEC_SPECTRE, bits_for(32, 5), 1, 0.0, seed=5, cfg=CFG, params=params
        )
        assert res.error_rate == 0.0

    def test_differential_leakage_criterion(self):
        # Vulnerable iff the observable state differs across secrets with
        # identical seeds; decoding is then mechanical.
        for scheme, expect_vulnerable in ((SchemeId.DOM_NONTSO, True), (SchemeId.MUONTRAP, False)):
            plan = plan_attack(Gadget.NPEU, Ordering.VDVD, scheme, CFG)
            t0, t1 = plan.trace(0), plan.trace(1)
            differs = [r.key() for r in t0.pattern] != [r.key() for r in t1.pattern]
            assert differs == expect_vulnerable

    def test_discards_excluded_from_error_denominator(self):
        # With heavy noise some bits discard; the error rate must be over
        # the counted bits only.
        res = run_attack(
            Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, bits_for(64, 7), 1, 0.45, seed=13, cfg=CFG
        )
        assert 0 < res.discard_rate < 1
        counted = [(d, t) for d, t in zip(res.decoded_bits, res.true_bits) if d != DISCARD]
        errors = sum(1 for d, t in counted if d != t)
        assert res.error_rate == pytest.approx(errors / len(counted))

    def test_interloper_noise_is_seedable(self):
        bits = bits_for(8, 8)
        kw = dict(trials_per_bit=1, noise=0.0, seed=21, cfg=CFG, interlopers=3)
        a = run_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, bits, **kw)
        b = run_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, bits, **kw)
        assert a.decoded_bits == b.decoded_bits


def reference_outcome(plan, state, draws):
    """One trial's noiseless reading on the independent QLRU model: copy
    the target-set ways, touch the interlopers, then probe."""
    ways = new_set(GEOM.llc_ways)
    for i, (tag, age) in enumerate(state):
        ways[i] = [tag, age]
    for line in draws:
        ref_access(ways, line)
    if plan.gadget is Gadget.RS:
        return (any(w[0] == plan.anchor for w in ways),)
    for line in LAY.evs2:
        ref_access(ways, line)
    return (any(w[0] == plan.anchor for w in ways), any(w[0] == LAY.reference_line for w in ways))


def reference_receiver(gadget, ordering, scheme, secret_bits, trials, noise, seed, interlopers):
    """The receiver replayed trial by trial, without any per-plan outcome
    cache: draw the interlopers, read the set, apply the noise flips, then
    majority-vote each bit. Returns decoded bits, error, discard and cost."""
    plan = plan_attack(gadget, ordering, scheme, CFG, AttackParams())
    presence = plan.gadget is Gadget.RS
    lat = GEOM.lat_llc
    trial_cost = 2 * lat if presence else (len(LAY.evs1) * PRIME_PASSES + 1 + len(LAY.evs2)) * lat
    traces = {bit: plan.trace(bit) for bit in (0, 1)}
    decoded_bits, total_cycles = [], 0
    for idx, bit in enumerate(secret_bits):
        trace = traces[bit]
        state = trace.llc_state.get(LAY.set_index, ())
        votes = []
        for trial in range(trials):
            rng = random.Random(f"{seed}:{idx}:{trial}")
            draws = [rng.choice(LAY.interlopers(16)) for _ in range(interlopers)]
            outcome = list(reference_outcome(plan, state, draws))
            if noise > 0:
                for i, hit in enumerate(outcome):
                    if rng.random() < noise:
                        outcome[i] = not hit
            if presence:
                votes.append(0 if outcome[0] else 1)
            else:
                votes.append(plan.decode.get(tuple(outcome), DISCARD))
            total_cycles += trace.total_cycles + trial_cost
        counted = [v for v in votes if v != DISCARD]
        ones = sum(counted)
        zeros = len(counted) - ones
        decoded_bits.append(DISCARD if ones == zeros else int(ones > zeros))
    kept = [(d, t) for d, t in zip(decoded_bits, secret_bits) if d != DISCARD]
    return (
        decoded_bits,
        sum(d != t for d, t in kept) / len(kept) if kept else 0.5,
        1 - len(kept) / len(secret_bits),
        total_cycles / len(secret_bits),
    )


class TestReceiverReference:
    @pytest.mark.parametrize(
        "gadget, ordering, scheme",
        [
            (Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO),
            (Gadget.MSHR, Ordering.VDAD, SchemeId.MUONTRAP),
            (Gadget.RS, Ordering.VIAD, SchemeId.DOM_NONTSO),
        ],
    )
    @pytest.mark.parametrize("noise, interlopers, trials", [
        (0.0, 0, 3), (0.02, 1, 3), (0.1, 3, 3),
        # One trial, an even count (a tied vote is a discard) and five.
        (0.0, 2, 1), (0.3, 0, 2), (0.5, 1, 5),
    ], ids=["0.0-0", "0.02-1", "0.1-3", "0.0-2-1trial", "0.3-0-2trials", "0.5-1-5trials"])
    def test_run_attack_matches_per_trial_replay(self, gadget, ordering, scheme, noise, interlopers, trials):
        bits = bits_for(256, 9)
        kw = dict(trials_per_bit=trials, noise=noise, seed=17, cfg=CFG, params=AttackParams(), interlopers=interlopers)
        res = run_attack(gadget, ordering, scheme, bits, **kw)
        expected = reference_receiver(gadget, ordering, scheme, bits, trials, noise, 17, interlopers)
        assert (res.decoded_bits, res.error_rate, res.discard_rate, res.cycles_per_bit) == expected

    @pytest.mark.parametrize("bits, trials", [(bits_for(16, 12), 0), ([], 3)], ids=["no-trials", "no-bits"])
    @pytest.mark.parametrize("noise, interlopers", [(0.0, 0), (0.3, 2)])
    def test_a_transmit_of_no_trials_or_no_bits_runs_nothing(self, monkeypatch, bits, trials, noise, interlopers):
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        plan = plan_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, CFG)
        res = transmit(plan, bits, trials, noise, 18, interlopers)
        assert runs.calls == 0
        assert res.decoded_bits == [DISCARD] * len(bits) and res.cycles_per_bit == 0.0

    def test_a_noiseless_transmit_decodes_once_per_bit_value(self, monkeypatch):
        observed = []

        def observing(plan, bit, *args):
            observed.append(bit)
            return observe_trial(plan, bit, *args)

        monkeypatch.setattr(attacks, "observe_trial", observing)
        plan = plan_attack(Gadget.MSHR, Ordering.VDAD, SchemeId.MUONTRAP, CFG)
        bits = [1, 1, 0, 1] + bits_for(60, 13)
        res = transmit(plan, bits, 5, 0.0, 19)
        assert observed == [1, 0] and res.decoded_bits == bits

    @pytest.mark.parametrize("trials, interlopers", [(-1, 0), (3, -1)])
    def test_a_negative_count_is_refused(self, trials, interlopers):
        plan = plan_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, CFG)
        with pytest.raises(ValueError, match="trials and interlopers must be >= 0"):
            transmit(plan, [0, 1], trials, 0.1, 20, interlopers)

    def test_a_reading_is_keyed_by_the_draws(self):
        # One free way and the anchor as the leftmost age-3 line: a repeated
        # interloper hits and the anchor stays, a second distinct one evicts it.
        # The victim run is a summary with that set, read through a stub memo.
        plan = plan_attack(Gadget.RS, Ordering.VIAD, SchemeId.DOM_NONTSO, CFG, AttackParams())
        state = ((plan.anchor, 3),) + tuple((line, 0) for line in LAY.evs1[:14])
        victim = plan.summary(0)._replace(ways=state)
        plan.memo = SimpleNamespace(summary=lambda plan, bit: victim)
        pool = LAY.interlopers(INTERLOPER_POOL)
        seen = set()
        for draws in itertools.product(pool[:3], repeat=2):
            outcome = observe_trial(plan, 0, draws)
            assert outcome == reference_outcome(plan, state, draws)
            seen.add(outcome)
        assert seen == {(True,), (False,)}
        # A transmit reads each trial under its own draws: trial by trial,
        # on the same planted set, the decodes vary within each bit value.
        bits, seed = bits_for(64, 21), 22
        res = transmit(plan, bits, 1, 0.0, seed, interlopers=2)
        expected = []
        for idx in range(len(bits)):
            rng = random.Random(f"{seed}:{idx}:0")
            expected.append(0 if reference_outcome(plan, state, [rng.choice(pool) for _ in range(2)])[0] else 1)
        assert res.decoded_bits == expected
        assert all(len({d for d, b in zip(expected, bits) if b == bit}) == 2 for bit in (0, 1))
        assert res.cycles_per_bit == victim.total_cycles + 2 * GEOM.lat_llc

    def test_a_plan_copy_runs_under_its_own_scheme(self):
        plan = plan_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.UNSAFE, CFG)
        unsafe = plan.summary(1)
        copy = replace(plan, scheme=SchemeId.FENCE_FUTURISTIC)
        assert copy.memo is None
        kw = dict(secrets={"s0": 1}, image=plan.image, attacker=plan.script)
        fresh = run(plan.program, CFG, SchemeId.FENCE_FUTURISTIC, **kw)
        assert RunSummary.of(fresh, plan) != unsafe
        assert copy.summary(1) == RunSummary.of(fresh, plan)
        # Its first read gave it a memo of its own sender.
        assert copy.memo is not plan.memo
        assert (copy.memo.gadget, copy.memo.ordering, copy.memo.cfg) == (plan.gadget, plan.ordering, CFG)
        assert copy.trace(1).serialize() == fresh.serialize()
        assert plan.summary(1) is unsafe

    def test_a_summary_times_the_victim_op_of_its_sender(self):
        for gadget, ordering in ((Gadget.NPEU, Ordering.VDAD), (Gadget.MSHR, Ordering.VDVD)):
            plan = plan_attack(gadget, ordering, SchemeId.DOM_NONTSO, CFG)
            victim = plan.program.role_ops("victim_a")[0]
            for bit in (0, 1):
                t = plan.trace(bit)
                assert plan.summary(bit).victim == (t.times(victim, "issue"), t.times(victim, "complete"))
        # The RS sender has no victim op.
        plan = plan_attack(Gadget.RS, Ordering.VIAD, SchemeId.DOM_NONTSO, CFG)
        assert plan.program.role_ops("victim_a") == () and plan.summary(0).victim is None

    def test_a_transmit_leaves_its_plan_as_it_was(self, monkeypatch):
        # A plan's only state is its run memo: the interloper pool and the
        # trial readings live for one transmit, and only a transmit with
        # interlopers builds the pool.
        pools = []
        interlopers = AttackLayout.interlopers
        monkeypatch.setattr(AttackLayout, "interlopers", lambda lay, n: pools.append(n) or interlopers(lay, n))
        plan = plan_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.UNSAFE, CFG)
        transmit(plan, [0, 1], 1, 0.0, 5)
        before = dict(vars(plan))
        transmit(plan, [1, 0, 1], 3, 0.1, 5)
        assert pools == []
        for noise in (0.0, 0.1):
            transmit(plan, [1, 0, 1], 3, noise, 5, interlopers=2)
        assert pools == [INTERLOPER_POOL] * 2
        assert vars(plan).keys() == before.keys()
        assert all(vars(plan)[name] is value for name, value in before.items())


class CountingRandom(random.Random):
    """random.Random, recording the seed of every stream built."""

    seeds: list = []

    def __init__(self, x=None):
        CountingRandom.seeds.append(x)
        super().__init__(x)


class TestTrialTable:
    @pytest.mark.parametrize("interlopers", [0, 1, 2, 3])
    def test_every_entry_is_the_head_of_its_trial_stream(self, interlopers):
        # Filled in two steps, growing both bits and trials: each entry is
        # what a trial's own stream yields, interlopers drawn from the pool
        # first, then the two flip uniforms.
        trial_table(41, interlopers).extend(7, 2)
        table = trial_table(41, interlopers).extend(20, 4)
        pool = LAY.interlopers(INTERLOPER_POOL)
        k = interlopers
        assert len(table.uniforms) == len(table.positions) == 4
        for trial in range(4):
            assert len(table.uniforms[trial]) == 2 * 20 and len(table.positions[trial]) == k * 20
            for idx in range(20):
                rng = random.Random(f"41:{idx}:{trial}")
                drawn = [pool.index(rng.choice(pool)) for _ in range(k)]
                assert list(table.positions[trial][idx * k : idx * k + k]) == drawn
                assert list(table.uniforms[trial][2 * idx : 2 * idx + 2]) == [rng.random(), rng.random()]

    def test_one_table_is_kept_and_it_holds_no_generator(self):
        first = trial_table(42, 1).extend(4, 3)
        assert trial_table(42, 1) is first
        other = trial_table(42, 2)
        assert other is not first and trial_table.cache_info().currsize == 1
        assert trial_table(42, 1) is not first
        assert all(type(v) is bytearray for v in first.positions)
        assert all(type(v) is array for v in first.uniforms)

    @pytest.mark.parametrize(
        "first, second",
        [
            ((Gadget.NPEU, Ordering.VDVD), (Gadget.RS, Ordering.VIAD)),
            ((Gadget.RS, Ordering.VIAD), (Gadget.NPEU, Ordering.VDVD)),
        ],
    )
    def test_a_sender_reads_the_same_trials_after_another(self, first, second):
        # The RS sender reads one flip uniform per trial, the npeu sender
        # two: whichever fills the table, the other reads what its own
        # streams would give.
        bits = bits_for(96, 10)
        kw = dict(trials_per_bit=3, noise=0.1, seed=43, interlopers=1)
        trial_table.cache_clear()
        alone = transmit(plan_attack(*second, SchemeId.DOM_NONTSO, CFG), bits, **kw)
        trial_table.cache_clear()
        transmit(plan_attack(*first, SchemeId.DOM_NONTSO, CFG), bits, **kw)
        after = transmit(plan_attack(*second, SchemeId.DOM_NONTSO, CFG), bits, **kw)
        assert after == alone

    def test_a_sweep_seeds_each_trial_stream_once(self, monkeypatch):
        plan = plan_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, CFG)
        counts, n, seed = [1, 3, 5, 15], 24, 44
        rng = random.Random(f"sweep:{seed}")
        secret_bits = [rng.randrange(2) for _ in range(n)]
        separate = []
        for trials in counts:
            trial_table.cache_clear()
            separate.append(transmit(plan, secret_bits, trials, 0.2, seed))
        trial_table.cache_clear()
        CountingRandom.seeds = []
        monkeypatch.setattr(random, "Random", CountingRandom)
        points = sweep_error_vs_rate(plan, 0.2, counts, n, seed)
        assert points == separate
        streams = [s for s in CountingRandom.seeds if s != f"sweep:{seed}"]
        assert sorted(streams) == sorted(f"{seed}:{idx}:{t}" for idx in range(n) for t in range(15))

    def test_a_noiseless_transmit_seeds_nothing(self, monkeypatch):
        plan = plan_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, CFG)
        bits = bits_for(16, 11)
        CountingRandom.seeds = []
        monkeypatch.setattr(random, "Random", CountingRandom)
        res = transmit(plan, bits, 3, 0.0, 45)
        assert res.error_rate == 0.0 and CountingRandom.seeds == []


HANDOVER_SCHEMES = (SchemeId.UNSAFE, SchemeId.DOM_NONTSO)


@pytest.fixture(scope="module")
def handed():
    """The calibrated senders a two-scheme matrix hands to its trials. On
    the mshr senders dom-nontso finds no parameters and falls back."""
    return matrix_calibrations(CFG, HANDOVER_SCHEMES)


def fresh_run(plan, bit) -> RunSummary:
    """The summary of the plan's victim run, from a run of its own inputs
    made here."""
    t = run(plan.program, plan.cfg, plan.scheme, secrets={"s0": bit}, image=plan.image, attacker=plan.script)
    return RunSummary.of(t, plan)


class CountingRun:
    """Wraps attacks.run, counting the calls."""

    def __init__(self):
        self.real = attacks.run
        self.calls = 0

    def __call__(self, *args, **kw):
        self.calls += 1
        return self.real(*args, **kw)


class TestHandover:
    def test_handed_senders_carry_their_own_runs_and_no_trace(self, handed, monkeypatch):
        # The senders of one (gadget, ordering) read one memo of that
        # sender, which holds summaries only; what it returns is the
        # sender's own run, and the trials' runs are mostly the
        # calibration's.
        memos = {}
        for (gadget, ordering, _), plan in handed.items():
            assert memos.setdefault((gadget, ordering), plan.memo) is plan.memo
        assert len({id(memo) for memo in memos.values()}) == len(memos)
        for (gadget, ordering), memo in memos.items():
            assert (memo.gadget, memo.ordering, memo.cfg) == (gadget, ordering, CFG)
            stored = [got for runs in memo.summaries.values() for got in runs.values()]
            assert stored and all(type(got) is RunSummary for got in stored)
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        fallback = 0
        for (gadget, ordering, scheme), plan in handed.items():
            assert (plan.gadget, plan.ordering, plan.scheme) == (gadget, ordering, scheme)
            for bit in (0, 1):
                assert plan.summary(bit) == fresh_run(plan, bit), (gadget, ordering, scheme, bit)
            fallback += gadget is Gadget.MSHR and scheme is SchemeId.DOM_NONTSO
        assert fallback and runs.calls < len(handed)

    def test_handed_senders_read_memos_that_hold_no_builds(self, handed):
        # The candidate builds served only the searches, and the senders
        # are copies of them, so a handed sender keeps no build alive.
        for plan in handed.values():
            assert plan.memo.plans == {} and plan.memo.summaries

    def test_a_copy_reads_only_its_own_runs(self, handed, monkeypatch):
        # A copy under another scheme, image, program, attacker script or
        # config gets a memo of its own, so it runs both bits itself and
        # never reads the calibration's runs.
        plan = handed[(Gadget.NPEU, Ordering.VDAD, SchemeId.DOM_NONTSO)]
        own = [plan.summary(bit) for bit in (0, 1)]
        longer = replace(plan.params, z_len=plan.params.z_len + 4)
        other = plan_attack(plan.gadget, plan.ordering, plan.scheme, CFG, longer)
        assert other.program != plan.program
        slower = MachineConfig(geometry=replace(GEOM, lat_mem=GEOM.lat_mem + 40))
        copies = (
            replace(plan, scheme=SchemeId.FENCE_FUTURISTIC),
            replace(plan, image=CacheImage(scripts=plan.image.scripts)),
            replace(plan, program=other.program),
            replace(plan, script=replace(plan.script, offset_cycle=plan.script.offset_cycle + 30)),
            replace(plan, cfg=slower),
        )
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        for k, copy in enumerate(copies, 1):
            assert copy.memo is not plan.memo
            got = [copy.summary(bit) for bit in (0, 1)]
            assert runs.calls == 2 * k
            assert got == [fresh_run(copy, bit) for bit in (0, 1)]
        assert [plan.summary(bit) for bit in (0, 1)] == own and runs.calls == 2 * len(copies)

    def test_trials_over_handed_senders_equal_trials_over_fresh_plans(self, handed, monkeypatch):
        fresh = {(g, o, s): plan_attack(g, o, s, CFG, plan.params) for (g, o, s), plan in handed.items()}
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        expected = vulnerability_matrix(CFG, seed=1, calibrations=fresh, schemes=HANDOVER_SCHEMES).csv_lines()
        fresh_runs = runs.calls
        got = vulnerability_matrix(CFG, seed=1, calibrations=handed, schemes=HANDOVER_SCHEMES).csv_lines()
        assert got == expected
        assert runs.calls - fresh_runs < fresh_runs

    def test_a_sender_of_another_cell_is_refused(self, handed):
        cals = dict(handed)
        key = (Gadget.NPEU, Ordering.VDAD, SchemeId.DOM_NONTSO)
        cals[key] = replace(cals[key], scheme=SchemeId.UNSAFE)
        with pytest.raises(ValueError, match="calibration for npeu/vdad/dom-nontso is a sender of another cell"):
            vulnerability_matrix(CFG, seed=1, calibrations=cals, schemes=HANDOVER_SCHEMES)


SENDERS = [(g, o) for g, o in itertools.product(Gadget, Ordering) if constructible(g, o)]
MEMO_SCHEMES = (*MATRIX_SCHEMES, SchemeId.UNSAFE)


class TestRunMemo:
    """The memo returns the summary of a fresh run of the asked inputs, and
    serves a stored run only to a behaviour it serves (schemes.serves)."""

    @settings(max_examples=examples(40), deadline=None)
    @given(
        sender=st.sampled_from(SENDERS),
        z_len=st.sampled_from([1, 8, 12, 16, 20]),
        g_len=st.integers(0, 64),
        reference_offset=st.integers(0, 300),
        first=st.sampled_from(MEMO_SCHEMES),
        then=st.sampled_from(MEMO_SCHEMES),
        bit=st.integers(0, 1),
    )
    def test_every_summary_is_the_summary_of_a_fresh_run(
        self, sender, z_len, g_len, reference_offset, first, then, bit
    ):
        gadget, ordering = sender
        params = AttackParams(z_len=z_len, g_len=g_len, reference_offset=reference_offset)
        memo = RunMemo(gadget, ordering, CFG)
        try:
            a = memo.plan(first, params)
        except ConstructionError:
            reject()
        b = memo.plan(then, params)
        runs = CountingRun()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(attacks, "run", runs)
            stored = a.summary(bit)
            made = runs.calls
            got = b.summary(bit)
        assert made == 1
        assert stored == fresh_run(a, bit)
        assert got == fresh_run(b, bit)
        served = serves(scheme_spec(first), scheme_spec(then), stored.fetch_shadowed)
        assert runs.calls - made == (0 if served else 1)
        assert (got is stored) == served

    def test_both_cases_occur_on_the_matrix_senders(self):
        # npeu/vivd: no fetch shadow holds the marked fetch, so the InvisiSpec
        # run serves safespec-wfb. rs/viad: the BRANCH fetch shadow holds it,
        # so safespec-wfb runs again.
        for ordering, gadget, served in ((Ordering.VIVD, Gadget.NPEU, True), (Ordering.VIAD, Gadget.RS, False)):
            memo = RunMemo(gadget, ordering, CFG)
            stored = memo.plan(SchemeId.INVISISPEC_SPECTRE, AttackParams()).summary(0)
            got = memo.plan(SchemeId.SAFESPEC_WFB, AttackParams()).summary(0)
            assert (got is stored) == served, gadget


class TestSweep:
    def test_majority_vote_monotone_and_noiseless_exact(self):
        plan = calibrate_for_matrix(Gadget.NPEU, Ordering.VDVD, [SchemeId.DOM_NONTSO], CFG)[SchemeId.DOM_NONTSO]
        noiseless = sweep_error_vs_rate(plan, 0.0, [1, 3], 32, seed=3)
        assert all(p.error_rate == 0.0 for p in noiseless)
        noisy = sweep_error_vs_rate(plan, 0.2, [1, 5, 15], 128, seed=3)
        # Non-increasing within a small tolerance band for odd trials.
        assert noisy[1].error_rate <= noisy[0].error_rate + 0.02
        assert noisy[2].error_rate <= noisy[1].error_rate + 0.02
        assert noisy[2].cycles_per_bit > noisy[0].cycles_per_bit


class TestGroupScoping:
    def test_oldest_load_schemes_skip_the_fetch_variant(self):
        assert group_orderings("vdvd+vivd", SchemeId.INVISISPEC_FUTURISTIC) == (Ordering.VDVD,)
        assert group_orderings("vdvd+vivd", SchemeId.MUONTRAP) == (Ordering.VDVD,)
        assert group_orderings("vdvd+vivd", SchemeId.INVISISPEC_SPECTRE) == (
            Ordering.VDVD,
            Ordering.VIVD,
        )
        assert group_orderings("vdad", SchemeId.MUONTRAP) == (Ordering.VDAD,)

    def test_reference_covers_every_cell(self):
        for g in Gadget:
            for group in ("vdvd+vivd", "vdad", "viad"):
                assert (g, group) in REFERENCE_VULNERABLE
