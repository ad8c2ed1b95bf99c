"""QLRU state machine, MSHR file, cache image, and access-pattern tests."""

import random

import pytest

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
    qlru_access,
    qlru_evict,
    qlru_touch,
)

from qlru_ref import new_set, ref_access, ref_state, replay


def make_set(entries, ways=4):
    cset = CacheSet(ways)
    for i, (tag, age) in enumerate(entries):
        cset.tags[i] = tag
        cset.ages[i] = age
    return cset


class TestQlruRules:
    """One test per policy rule sentence."""

    def test_insert_age_is_1(self):
        cset = CacheSet(4)
        qlru_access(cset, 10, "insert")
        assert cset.tags[0] == 10 and cset.ages[0] == 1

    def test_insert_leftmost_free_way(self):
        cset = make_set([(1, 0), (None, 0), (None, 0), (2, 2)])
        qlru_access(cset, 10, "insert")
        assert cset.tags[1] == 10 and cset.ages[1] == 1

    def test_hit_promotes_3_to_1(self):
        cset = make_set([(1, 3)])
        qlru_access(cset, 1, "hit")
        assert cset.ages[0] == 1

    def test_hit_promotes_2_to_1(self):
        cset = make_set([(1, 2)])
        qlru_access(cset, 1, "hit")
        assert cset.ages[0] == 1

    def test_hit_promotes_1_to_0(self):
        cset = make_set([(1, 1)])
        qlru_access(cset, 1, "hit")
        assert cset.ages[0] == 0

    def test_hit_keeps_0_at_0(self):
        cset = make_set([(1, 0)])
        qlru_access(cset, 1, "hit")
        assert cset.ages[0] == 0

    def test_evict_leftmost_age_3(self):
        cset = make_set([(1, 2), (2, 3), (3, 1), (4, 3)])
        assert qlru_evict(cset) == 1

    def test_aging_increments_until_age_3(self):
        # Derived with the reference model: max age 2 -> one increment.
        cset = make_set([(1, 1), (2, 2), (3, 0), (4, 2)])
        way = qlru_evict(cset)
        assert cset.ages == [2, 3, 1, 3]
        assert way == 1

    def test_all_zero_ages_age_to_3_leftmost_wins(self):
        cset = make_set([(1, 0), (2, 0), (3, 0), (4, 0)])
        assert qlru_evict(cset) == 0
        assert cset.ages == [3, 3, 3, 3]

    def test_insert_into_full_set_evicts_then_places(self):
        cset = make_set([(1, 3), (2, 0), (3, 0), (4, 0)])
        qlru_access(cset, 10, "insert")
        assert cset.tags[0] == 10 and cset.ages[0] == 1
        assert cset.tags[1:] == [2, 3, 4]

    def test_hit_precondition(self):
        with pytest.raises(AssertionError):
            qlru_access(CacheSet(2), 5, "hit")

    def test_insert_precondition(self):
        cset = make_set([(5, 1)], ways=2)
        with pytest.raises(AssertionError):
            qlru_access(cset, 5, "insert")


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

    def test_hit_saturation_at_age_0(self):
        """Two consecutive hits drive any resident line's age to 0."""
        for start_age in range(AGE_MAX + 1):
            cset = make_set([(1, start_age)])
            qlru_access(cset, 1, "hit")
            qlru_access(cset, 1, "hit")
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
        cset = make_set([(7, 1)], ways=4)
        assert format_set(cset, names={7: "L"}) == "ways=[L:1,-,-,-]"


def test_reference_replay_smoke():
    ways = replay(4, [1, 2, 3, 4, 1, 5])
    assert any(w[0] == 5 for w in ways)
