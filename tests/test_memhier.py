"""QLRU state machine, MSHR file, cache image, and access-pattern tests."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from specsim.memhier import (
    AGE_MAX,
    CacheGeometry,
    CacheImage,
    CacheSet,
    Level,
    MemHier,
    MshrFile,
    Requester,
    format_set,
    order_sensitivity,
    qlru_touch,
)

from qlru_ref import new_set, ref_access, ref_state, replay


class TestQlruRules:
    """One test per policy rule sentence, each through qlru_touch."""

    def test_insert_age_is_1(self):
        cset = CacheSet(4)
        assert qlru_touch(cset, 10) is None
        assert cset.tags[0] == 10 and cset.ages[0] == 1

    def test_insert_leftmost_free_way(self):
        cset = CacheSet(4, [(1, 0), (None, 0), (None, 0), (2, 2)])
        assert qlru_touch(cset, 10) is None
        assert cset.tags[1] == 10 and cset.ages[1] == 1

    def test_hit_promotes_3_to_1(self):
        cset = CacheSet(4, [(1, 3)])
        assert qlru_touch(cset, 1) is None
        assert cset.ages[0] == 1

    def test_hit_promotes_2_to_1(self):
        cset = CacheSet(4, [(1, 2)])
        assert qlru_touch(cset, 1) is None
        assert cset.ages[0] == 1

    def test_hit_promotes_1_to_0(self):
        cset = CacheSet(4, [(1, 1)])
        assert qlru_touch(cset, 1) is None
        assert cset.ages[0] == 0

    def test_hit_keeps_0_at_0(self):
        cset = CacheSet(4, [(1, 0)])
        assert qlru_touch(cset, 1) is None
        assert cset.ages[0] == 0

    def test_evict_leftmost_age_3(self):
        cset = CacheSet(4, [(1, 2), (2, 3), (3, 1), (4, 3)])
        assert qlru_touch(cset, 10) == 2
        assert cset.tags == [1, 10, 3, 4]
        assert cset.ages == [2, 1, 1, 3]

    def test_aging_increments_until_age_3(self):
        # Derived with the reference model: max age 2 -> one increment to
        # [2, 3, 1, 3], then way 1 is replaced.
        cset = CacheSet(4, [(1, 1), (2, 2), (3, 0), (4, 2)])
        assert qlru_touch(cset, 10) == 2
        assert cset.tags == [1, 10, 3, 4]
        assert cset.ages == [2, 1, 1, 3]

    def test_all_zero_ages_age_to_3_leftmost_wins(self):
        cset = CacheSet(4, [(1, 0), (2, 0), (3, 0), (4, 0)])
        assert qlru_touch(cset, 10) == 1
        assert cset.tags == [10, 2, 3, 4]
        assert cset.ages == [1, 3, 3, 3]

    def test_insert_into_full_set_evicts_then_places(self):
        cset = CacheSet(4, [(1, 3), (2, 0), (3, 0), (4, 0)])
        assert qlru_touch(cset, 10) == 1
        assert cset.tags == [10, 2, 3, 4]
        assert cset.ages == [1, 0, 0, 0]


@st.composite
def access_runs(draw):
    """A set size and an access sequence over at most 3 * ways + 2 lines."""
    ways = draw(st.integers(1, 32))
    lines = draw(st.integers(1, 3 * ways + 2))
    return ways, draw(st.lists(st.integers(0, lines - 1), max_size=200))


class TestQlruProperties:
    def test_randomized_10k_steps_match_reference(self):
        """10,000 random accesses: implementation == reference model, plus
        age-range and tag-uniqueness invariants at every step."""
        rng = random.Random(20240817)
        ways = 16
        impl = CacheSet(ways)
        ref = new_set(ways)
        pool = list(range(40))
        for _ in range(10_000):
            line = rng.choice(pool)
            qlru_touch(impl, line)
            ref_access(ref, line)
            assert impl.state() == ref_state(ref)
            impl.check_invariants()

    @settings(max_examples=300, deadline=None)
    @given(access_runs())
    def test_victim_and_state_match_reference_at_every_step(self, run):
        ways, accesses = run
        impl, ref = CacheSet(ways), new_set(ways)
        for line in accesses:
            assert qlru_touch(impl, line) == ref_access(ref, line)
            assert impl.state() == ref_state(ref)

    def test_hit_saturation_at_age_0(self):
        """Two consecutive hits drive any resident line's age to 0."""
        for start_age in range(AGE_MAX + 1):
            cset = CacheSet(4, [(1, start_age)])
            qlru_touch(cset, 1)
            qlru_touch(cset, 1)
            assert cset.ages[0] == 0


class TestOrderSensitivity:
    def test_primed_set_distinguishes_ab_from_ba(self):
        # Prime prefix: 15 filler lines twice (ages saturate at 0).
        evs1 = list(range(100, 115))
        prefix = evs1 + evs1
        assert order_sensitivity(prefix, 200, 300, ways=16)

    def test_equal_lines_commute(self):
        assert not order_sensitivity([1, 2], 5, 5, ways=4)

    def test_different_sets_commute(self):
        geom = CacheGeometry()
        a, b = 5, 6  # different llc sets
        assert not order_sensitivity([], a, b, ways=16, geom=geom)

    def test_resident_line_returns_false(self):
        assert not order_sensitivity([7], 7, 8, ways=4)


class TestMshrFile:
    def test_distinct_lines_exhaust_then_busy(self):
        f = MshrFile(4)
        for k in range(4):
            assert f.allocate(line=k, op_id=k, free_at=200) is not None
        assert f.allocate(line=9, op_id=9, free_at=200) is None
        f.check_invariants()

    def test_same_line_merges(self):
        f = MshrFile(4)
        m1 = f.allocate(line=7, op_id=1, free_at=200)
        m2 = f.allocate(line=7, op_id=2, free_at=200)
        assert m1 is m2 and m1.waiters == [1, 2]
        assert f.occupancy() == 1

    def test_first_allocation_takes_entry_zero(self):
        f = MshrFile(4)
        m = f.allocate(line=3, op_id=0, free_at=10)
        assert f.entries[0] is m

    def test_release_due_and_drop_waiter(self):
        f = MshrFile(2)
        f.allocate(line=1, op_id=1, free_at=5)
        f.allocate(line=2, op_id=2, free_at=9)
        done = f.release_due(5)
        assert [m.line for m in done] == [1]
        f.drop_waiter(2)
        assert f.occupancy() == 0

    def test_merging_invariant_matches_distinct_lines(self):
        rng = random.Random(7)
        f = MshrFile(8)
        outstanding = set()
        for op in range(200):
            line = rng.randrange(12)
            got = f.allocate(line, op, free_at=op + 50)
            if got is not None:
                outstanding.add(line)
                assert f.occupancy() == len({m.line for m in f.entries})
            f.release_due(op - 20)
            outstanding = {m.line for m in f.entries}
        f.check_invariants()


class TestMemHier:
    def _hier(self, image=None):
        return MemHier(CacheGeometry(), mshrs=4, image=image)

    def test_visible_miss_fills_and_records(self):
        h = self._hier()
        res = h.llc_access(5, Requester.VICTIM, visible=True, cycle=3, op_id=1)
        assert res == "miss"
        assert h.llc[5].resident(5)
        assert [r.key() for r in h.pattern] == [(5, "victim", "fill")]

    def test_visible_hit_promotes_and_records(self):
        h = self._hier()
        h.llc_access(5, Requester.ATTACKER, visible=True, cycle=0)
        h.llc_access(5, Requester.VICTIM, visible=True, cycle=1)
        cset = h.llc[5]
        assert cset.ages[cset.find(5)] == 0  # inserted at 1, hit to 0
        assert len(h.pattern) == 2

    def test_invisible_access_changes_nothing(self):
        image = CacheImage(llc={5: [(5, 1), (133, 2)]})
        h = self._hier(image)
        before = h.llc[5].state()
        for line in (5, 261, 999):
            h.llc_access(line, Requester.VICTIM, visible=False, cycle=2)
        assert h.llc[5].state() == before
        assert h.pattern == []

    def test_scripted_lines_are_phantom(self):
        image = CacheImage(scripts={77: Level.MEMMISS, 78: Level.L1HIT})
        h = self._hier(image)
        assert h.llc_access(77, Requester.VICTIM, visible=True, cycle=1) == "miss"
        assert not h.llc[77 % 128].resident(77)
        assert [r.key() for r in h.pattern] == [(77, "victim", "fill")]
        assert h.service_level(78) is Level.L1HIT

    def test_inclusive_eviction_invalidates_l1(self):
        geom = CacheGeometry(llc_sets=2, llc_ways=2, l1_sets=2, l1_ways=2)
        h = MemHier(geom, mshrs=4)
        h.llc_access(0, Requester.VICTIM, visible=True, cycle=0)
        h.l1_fill(0)
        assert h.l1d[0].resident(0)
        h.llc_access(2, Requester.VICTIM, visible=True, cycle=1)
        h.llc_access(4, Requester.VICTIM, visible=True, cycle=2)  # evicts line 0
        assert not h.llc[0].resident(0)
        assert not h.l1d[0].resident(0)

    def test_service_level_walks_hierarchy(self):
        h = self._hier()
        assert h.service_level(9) is Level.MEMMISS
        h.llc_access(9, Requester.VICTIM, visible=True, cycle=0)
        assert h.service_level(9) is Level.LLCHIT
        h.l1_fill(9)
        assert h.service_level(9) is Level.L1HIT


class TestCacheImage:
    def test_round_trip(self):
        img = CacheImage(
            llc={5: [(5, 0), (133, 3)], 9: [(9, 1)]},
            l1d={1: [(1, 2)]},
            scripts={777: Level.L1HIT, 888: Level.MEMMISS},
        )
        text = img.dump()
        again = CacheImage.parse(text)
        assert again.dump() == text
        assert again.scripts[888] is Level.MEMMISS

    def test_empty_ways_keep_their_position(self):
        # Way position decides QLRU placement: the next miss to this set
        # fills the empty way 0, not a way after line 5.
        img = CacheImage.parse("l1d set=5 ways=[-,5:1]\nllc set=5 ways=[5:0,-,133:2]\n")
        assert img.l1d[5] == [(None, 0), (5, 1)]
        assert CacheImage.parse(img.dump()).dump() == img.dump()
        h = MemHier(CacheGeometry(), mshrs=4, image=img)
        h.l1_fill(69)
        assert h.l1d[5].state()[:2] == ((69, 1), (5, 1))
        h.llc_access(261, Requester.VICTIM, visible=True, cycle=0)
        assert h.llc[5].state()[:3] == ((5, 0), (261, 1), (133, 2))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            CacheImage.parse("bogus set=1 ways=[]")

    def test_validate_rejects_wrong_set(self):
        img = CacheImage(llc={5: [(6, 1)]})
        with pytest.raises(ValueError):
            img.validate(CacheGeometry())

    def test_validate_rejects_script_collision(self):
        img = CacheImage(llc={5: [(5, 1)]}, scripts={5: Level.L1HIT})
        with pytest.raises(ValueError):
            img.validate(CacheGeometry())

    def test_format_set_style(self):
        cset = CacheSet(4, [(7, 1)])
        assert format_set(cset, names={7: "L"}) == "ways=[L:1,-,-,-]"


def test_reference_replay_smoke():
    ways = replay(4, [1, 2, 3, 4, 1, 5])
    assert any(w[0] == 5 for w in ways)
