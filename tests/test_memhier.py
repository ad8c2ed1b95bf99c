"""QLRU state machine, MSHR file, cache image, and access-pattern tests."""

import itertools
import math
import random
from dataclasses import FrozenInstanceError, replace

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
    format_set,
    order_sensitivity,
    qlru_touch,
)

from specsim import memhier
from specsim.attacks import plan_attack
from specsim.cli import EXIT_USAGE, main
from specsim.machine import MachineConfig
from specsim.microprog import Gadget, MicroOp, MicroProgram, OpKind, Ordering, constructible
from specsim.pipeline import run
from specsim.schemes import SchemeId
from specsim.seccheck import gen_random_program

from conftest import examples
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

    @settings(max_examples=examples(300), deadline=None)
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
        assert len(f.entries) == 1

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
        assert f.next_free == 9
        f.drop_waiter(2)
        assert f.entries == [] and f.next_free == math.inf

    def test_merging_invariant_matches_distinct_lines(self):
        rng = random.Random(7)
        f = MshrFile(8)
        outstanding = set()
        for op in range(200):
            line = rng.randrange(12)
            got = f.allocate(line, op, free_at=op + 50)
            if got is not None:
                outstanding.add(line)
                assert len(f.entries) == len({m.line for m in f.entries})
            f.release_due(op - 20)
            f.check_invariants()
            outstanding = {m.line for m in f.entries}
        f.check_invariants()


class TestMemHier:
    def _hier(self, image=None):
        return MemHier(CacheGeometry(), mshrs=4, image=image)

    def test_visible_miss_fills(self):
        h = self._hier()
        assert h.llc_access(5) == "miss"
        assert h.llc[5].state()[:2] == ((5, 1), (None, 0))  # leftmost way, age 1

    def test_visible_hit_promotes(self):
        h = self._hier()
        assert h.llc_access(5) == "miss"
        assert h.llc_access(5) == "hit"
        cset = h.llc[5]
        assert cset.ages[cset.find(5)] == 0  # inserted at 1, hit to 0

    def test_every_hierarchy_llc_access_is_logged(self, monkeypatch):
        # The hierarchy performs only persistent accesses: each LLC access
        # it sees is one l2access record of the run, in order, under every
        # scheme. Invisible service never reaches it (the engine keeps the
        # MSHR and the latency, and replays the access once the load is safe).
        calls = []
        real = MemHier.llc_access

        def spy(hier, line):
            calls.append(line)
            return real(hier, line)

        monkeypatch.setattr(MemHier, "llc_access", spy)
        cfg = MachineConfig()
        runs = []
        for gadget, ordering in itertools.product(Gadget, Ordering):
            if constructible(gadget, ordering):
                plan = plan_attack(gadget, ordering, SchemeId.UNSAFE, cfg)
                label = f"{gadget.value}/{ordering.value}"
                runs += [(f"{label}/{b}", plan.program, plan.image, plan.script, {"s0": b}) for b in (0, 1)]
        for seed in range(30):
            prog, image = gen_random_program(seed)
            runs.append((f"random:{seed}", prog, image, None, None))
        bad = []
        for (label, prog, image, attacker, secrets), scheme in itertools.product(runs, SchemeId):
            calls.clear()
            t = run(prog, cfg, scheme, secrets=secrets, image=image, attacker=attacker)
            logged = [r[3]["line"] for r in t.records if r[1] == "l2access"]
            if calls != logged:
                bad.append((label, scheme.value, calls[:], logged))
        assert len(runs) * len(SchemeId) == 480
        assert bad == []

    def test_scripted_lines_are_phantom(self):
        image = CacheImage(scripts={77: Level.MEMMISS, 78: Level.L1HIT, 79: Level.LLCHIT})
        h = self._hier(image)
        assert [h.llc_access(line) for line in (77, 78, 79)] == ["miss", "hit", "hit"]
        assert dict(h.llc) == {}  # no set was touched
        assert h.service_level(78) is Level.L1HIT

    def test_inclusive_eviction_invalidates_l1(self):
        geom = CacheGeometry(llc_sets=2, llc_ways=2, l1_sets=2, l1_ways=2)
        h = MemHier(geom, mshrs=4)
        h.llc_access(0)
        h.l1_fill(0)
        assert h.l1d[0].resident(0)
        h.llc_access(2)
        h.llc_access(4)  # evicts line 0
        assert not h.llc[0].resident(0)
        assert not h.l1d[0].resident(0)

    def test_service_level_walks_hierarchy(self):
        h = self._hier()
        assert h.service_level(9) is Level.MEMMISS
        h.llc_access(9)
        assert h.service_level(9) is Level.LLCHIT
        h.l1_fill(9)
        assert h.service_level(9) is Level.L1HIT


IMAGE_TYPOS = [
    # (test id, image text, error text after "cache image ")
    ("second-llc-set", "llc set=5 ways=[5:1]\nllc set=5 ways=[133:2]", "line 2: second llc record for set 5"),
    ("second-l1d-set", "l1d set=5 ways=[5:1]\nl1d set=05 ways=[69:2]", "line 2: second l1d record for set 5"),
    ("second-l1i-set", "l1i set=3 ways=[]\n\nl1i set=3 ways=[3:1]", "line 3: second l1i record for set 3"),
    ("second-script-line", "script line=7 level=l1hit\nscript line=7 level=memmiss", "line 2: second script record for line 7"),
    ("unknown-set-field", "llc set=5 ways=[5:1] bogus=3", "line 1: unknown field 'bogus'"),
    ("misspelt-set-field", "llc set=5 ways=[5:1] sets=7", "line 1: unknown field 'sets'"),
    ("script-field-on-set", "llc set=5 ways=[5:1] line=5", "line 1: unknown field 'line'"),
    ("set-field-on-script", "script line=7 level=l1hit set=1", "line 1: unknown field 'set'"),
    ("misspelt-script-field", "script line=7 level=l1hit lvl=memmiss", "line 1: unknown field 'lvl'"),
    ("repeated-set", "llc set=5 set=6 ways=[5:1]", "line 1: repeated field 'set'"),
    ("repeated-level", "script line=7 level=l1hit level=memmiss", "line 1: repeated field 'level'"),
    ("missing-ways", "llc set=5", "line 1: missing field 'ways'"),
    ("missing-line", "script level=l1hit", "line 1: missing field 'line'"),
    ("bare-word", "llc set=5 ways=[5:1] extra", "line 1: expected key=value, got 'extra'"),
    ("nested-ways", "llc set=5 ways=[[5:1]]", r"line 1: ways must be one \[\.\.\.\] list, got '\[\[5:1\]\]'"),
    ("bare-ways", "l1d set=5 ways=5:1", r"line 1: ways must be one \[\.\.\.\] list, got '5:1'"),
    ("unclosed-ways", "llc set=5 ways=[]\nllc set=6 ways=[6:1", r"line 2: ways must be one \[\.\.\.\] list"),
    ("empty-ways", "l1i set=5 ways=", r"line 1: ways must be one \[\.\.\.\] list, got ''"),
    ("age-too-high", "llc set=9 ways=[]\nllc set=5 ways=[5:4]", "line 2: llc line 5 age 4 out of range"),
    ("age-negative", "l1d set=5 ways=[-,5:-1]", "line 1: l1d line 5 age -1 out of range"),
    ("duplicate-tag", "llc set=5 ways=[5:1,-,5:2]", "line 1: llc set 5 has duplicate tags"),
    ("empty-way", "llc set=5 ways=[5:1,,6:1]", "line 1: empty item in list '5:1,,6:1'"),
    ("tag-without-age", "llc set=5 ways=[5]", "line 1: '5' is not a TAG:AGE pair or -"),
    ("empty-key", "llc set=5 ways=[5:1] =5", "line 1: expected key=value, got '=5'"),
]


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
        assert img.l1d[5] == ((None, 0), (5, 1))
        assert CacheImage.parse(img.dump()).dump() == img.dump()
        h = MemHier(CacheGeometry(), mshrs=4, image=img)
        h.l1_fill(69)
        assert h.l1d[5].state()[:2] == ((69, 1), (5, 1))
        h.llc_access(261)
        assert h.llc[5].state()[:3] == ((5, 0), (261, 1), (133, 2))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            CacheImage.parse("bogus set=1 ways=[]")

    @pytest.mark.parametrize("text, message", [pytest.param(t, m, id=i) for i, t, m in IMAGE_TYPOS])
    def test_parse_rejects_repeated_and_unknown_records(self, text, message):
        with pytest.raises(ValueError, match=f"^cache image {message}"):
            CacheImage.parse(text)

    def test_the_same_set_at_another_level_is_not_a_repeat(self):
        img = CacheImage.parse("llc set=5 ways=[5:1]\nl1d set=5 ways=[5:1]\nl1i set=5 ways=[5:1]\n")
        assert img.llc[5] == img.l1d[5] == img.l1i[5] == ((5, 1),)

    @pytest.mark.parametrize("ways, message", [
        ([(5, 4)], "llc line 5 age 4 out of range"),
        ([(5, 1), (None, 0), (5, 2)], "llc set 5 has duplicate tags"),
    ], ids=["age", "duplicate-tag"])
    def test_construction_gives_the_parse_messages(self, ways, message):
        # One rule serves both paths; parsing only adds the line number.
        with pytest.raises(ValueError) as exc:
            CacheImage(llc={5: ways})
        assert str(exc.value) == message

    @pytest.mark.parametrize("llc, message", [
        ({5: [(6, 1)]}, "llc line 6 does not map to set 5"),
        ({128: [(128, 1)]}, "llc set 128 out of range"),
        ({5: [(5 + 128 * k, 0) for k in range(17)]}, "llc set 5 lists 17 ways > 16"),
    ], ids=["tag-in-another-set", "set-out-of-range", "too-many-ways"])
    def test_a_run_rejects_an_image_that_does_not_fit_the_geometry(self, tmp_path, capsys, llc, message):
        # Only the geometry can tell: the image itself is valid. The CLI
        # parses the image against the config, so its message names the line.
        img = CacheImage(llc=llc)
        with pytest.raises(ValueError) as exc:
            run(MicroProgram(ops=[MicroOp(0, OpKind.ALU)]), MachineConfig(), SchemeId.UNSAFE, image=img)
        assert str(exc.value) == message
        (tmp_path / "p.mprog").write_text("0 ALU deps=[]\n")
        (tmp_path / "misfit.image").write_text(img.dump())
        argv = ["run", "--program", str(tmp_path / "p.mprog"), "--image", str(tmp_path / "misfit.image")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: cache image line 1: {message}\n"

    def test_construction_rejects_script_collision(self):
        with pytest.raises(ValueError, match=r"^scripted lines also placed in sets: \[5\]$"):
            CacheImage(llc={5: [(5, 1)]}, scripts={5: Level.L1HIT})

    @pytest.mark.parametrize("text, lineno", [
        ("script line=5 level=l1hit\nllc set=5 ways=[5:1]\n", 2),
        ("l1d set=5 ways=[-,5:1]\n# placed first\nllc set=9 ways=[]\nscript line=5 level=memmiss\n", 4),
    ], ids=["set-after-script", "script-after-set"])
    def test_parse_names_the_later_record_of_a_script_collision(self, tmp_path, capsys, text, lineno):
        message = f"cache image line {lineno}: scripted lines also placed in sets: [5]"
        with pytest.raises(ValueError) as exc:
            CacheImage.parse(text)
        assert str(exc.value) == message
        (tmp_path / "p.mprog").write_text("0 ALU deps=[]\n")
        (tmp_path / "collide.image").write_text(text)
        argv = ["run", "--program", str(tmp_path / "p.mprog"), "--image", str(tmp_path / "collide.image")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_format_set_style(self):
        cset = CacheSet(4, [(7, 1)])
        assert format_set(cset, names={7: "L"}) == "ways=[L:1,-,-,-]"


class TestImageIsAValue:
    """A cache image is checked once, when built, and cannot change after:
    a run checks only how it fits the geometry, and a plan's cached traces
    stay the traces of its image."""

    def test_read_only_and_checked_when_derived(self):
        img = CacheImage(llc={5: [(5, 1)]}, scripts={77: Level.MEMMISS})
        with pytest.raises(TypeError):
            img.scripts[78] = Level.L1HIT
        with pytest.raises(TypeError):
            img.llc[5] = ((5, 0),)
        with pytest.raises(FrozenInstanceError):
            img.scripts = {}
        with pytest.raises(ValueError, match=r"^scripted lines also placed in sets: \[5\]$"):
            replace(img, scripts={5: Level.L1HIT})

    def test_holds_its_own_copies(self):
        ways = [(5, 1)]
        scripts = {77: Level.MEMMISS}
        img = CacheImage(llc={5: ways}, scripts=scripts)
        ways.append((133, 1))
        scripts[5] = Level.L1HIT  # would collide with the placed line
        assert img.llc[5] == ((5, 1),) and dict(img.scripts) == {77: Level.MEMMISS}

    def test_runs_check_no_image_again(self, monkeypatch):
        calls = []
        check = memhier._check_ways
        monkeypatch.setattr(memhier, "_check_ways", lambda *a: calls.append(a[:2]) or check(*a))
        cfg = MachineConfig()
        plan = plan_attack(Gadget.NPEU, Ordering.VDAD, SchemeId.UNSAFE, cfg)
        assert calls == [("llc", plan.layout.set_index)]
        for scheme in (SchemeId.UNSAFE, SchemeId.INVISISPEC_SPECTRE):
            for bit in (0, 1):
                run(plan.program, cfg, scheme, secrets={"s0": bit}, image=plan.image, attacker=plan.script)
        assert len(calls) == 1

    def test_a_plan_image_cannot_go_stale(self):
        # Editing the image in place used to leave the plan's stored run
        # (280 cycles) beside a fresh run of the edited inputs (205).
        plan = plan_attack(Gadget.NPEU, Ordering.VDAD, SchemeId.UNSAFE, MachineConfig())
        stored = plan.summary(1)
        with pytest.raises(TypeError):
            plan.image.scripts[plan.layout.secret_base + 1] = Level.MEMMISS
        fresh = run(plan.program, plan.cfg, plan.scheme, {"s0": 1}, plan.image, plan.script)
        assert plan.summary(1) is stored
        assert fresh.total_cycles == stored.total_cycles == 280


def test_reference_replay_smoke():
    ways = replay(4, [1, 2, 3, 4, 1, 5])
    assert any(w[0] == 5 for w in ways)
