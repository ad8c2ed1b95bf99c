"""Cycle engine tests: single-op timing, ordering, squash, frontend
backpressure, determinism, and the interference mechanisms themselves."""

import time
from collections import Counter, defaultdict
from dataclasses import FrozenInstanceError, replace
from math import inf

import pytest
from hypothesis import given, reject, settings, strategies as st

from specsim.attacks import attack_image, plan_attack
from specsim.machine import EuClass, MachineConfig
from specsim.memhier import CacheImage, Level
from specsim.microprog import (
    AttackLayout,
    AttackParams,
    BranchInfo,
    ConstructionError,
    EngineTables,
    Gadget,
    Literal,
    MicroOp,
    MicroProgram,
    OpKind,
    Ordering,
    SecretDep,
    build_attack_program,
    format_program,
    parse_program,
)
from specsim.pipeline import NEVER, SimulationDeadlock, _Engine, run
from specsim.schemes import SchemeId
from specsim.seccheck import FAR_OFFSET, gen_random_program

CFG = MachineConfig()
LAY = AttackLayout(CFG.geometry)


def prog_of(*ops, secrets=None, annotations=None):
    return MicroProgram(ops=ops, secret_slots=secrets or {}, annotations=annotations or {})


def npeu_image(secret_hits: bool = True) -> CacheImage:
    """Scripts for the non-pipelined-EU sender: resolver misses to memory,
    the secret-read hits, and the transmitter line hits the L1 for bit 1
    and misses to memory for bit 0 (or inverted)."""
    s = LAY.secret_base
    scripts = {
        LAY.resolver_line: Level.MEMMISS,
        LAY.access_line: Level.L1HIT,
        LAY.victim_phantom_line: Level.LLCHIT,
        s: Level.MEMMISS if secret_hits else Level.L1HIT,
        s + 1: Level.L1HIT if secret_hits else Level.MEMMISS,
    }
    return CacheImage(scripts=scripts)


DIAMOND_LINE = 910_000


def diamond_program(n_alu: int) -> tuple[MicroProgram, CacheImage]:
    """One memory-miss load, an ALU diamond hanging off it (op i depends on
    i-1 and i-2), an NPEU op fed by the diamond, and a ready younger NPEU op
    that the no-interference look-ahead must weigh against the older one."""
    ops = [MicroOp(0, OpKind.LOAD, addr=Literal(DIAMOND_LINE))]
    for i in range(1, n_alu + 1):
        ops.append(MicroOp(i, OpKind.ALU, src_deps=(0,) if i == 1 else (i - 2, i - 1)))
    ops.append(MicroOp(len(ops), OpKind.NPEU, src_deps=(len(ops) - 1,)))
    ops.append(MicroOp(len(ops), OpKind.NPEU))
    return prog_of(*ops), CacheImage(scripts={DIAMOND_LINE: Level.MEMMISS})


def stall_stretch_program(n_loads: int) -> tuple[MicroProgram, CacheImage]:
    """n_loads independent loads, each a memory miss on its own line: with
    one MSHR, the loads behind the first retry every cycle until its fill
    returns."""
    lines = [950_000 + k for k in range(n_loads)]
    ops = [MicroOp(i, OpKind.LOAD, addr=Literal(line)) for i, line in enumerate(lines)]
    return prog_of(*ops), CacheImage(scripts={line: Level.MEMMISS for line in lines})


class TestBasics:
    def test_empty_program_is_zero_cycles(self):
        trace = run(prog_of(), CFG, SchemeId.UNSAFE)
        assert trace.total_cycles == 0
        assert trace.records == []

    def test_single_l1_hit_load_completes_at_issue_plus_l1_latency(self):
        image = CacheImage(scripts={100: Level.L1HIT})
        p = prog_of(MicroOp(0, OpKind.LOAD, addr=Literal(100)))
        t = run(p, CFG, SchemeId.UNSAFE, image=image)
        assert t.times(0, "complete") == t.times(0, "issue") + CFG.geometry.lat_l1
        assert t.times(0, "retire") >= t.times(0, "complete")

    def test_dependent_alu_chain_spacing(self):
        # 1-cycle ALU plus the 1-cycle writeback: dependents issue 2 apart.
        p = prog_of(
            MicroOp(0, OpKind.ALU),
            MicroOp(1, OpKind.ALU, src_deps=(0,)),
            MicroOp(2, OpKind.ALU, src_deps=(1,)),
        )
        t = run(p, CFG, SchemeId.UNSAFE)
        assert t.times(1, "issue") - t.times(0, "issue") == 2
        assert t.times(2, "issue") - t.times(1, "issue") == 2

    def test_in_order_retirement(self):
        p = prog_of(
            MicroOp(0, OpKind.LOAD, addr=Literal(100)),
            MicroOp(1, OpKind.ALU),
            MicroOp(2, OpKind.ALU, src_deps=(1,)),
        )
        image = CacheImage(scripts={100: Level.MEMMISS})
        t = run(p, CFG, SchemeId.UNSAFE, image=image)
        retires = [t.times(i, "retire") for i in range(3)]
        assert retires == sorted(retires)
        # op1/op2 completed long before op0 but must wait for it.
        assert t.times(1, "complete") < t.times(0, "complete")
        assert retires[1] >= retires[0]

    def test_determinism_bit_for_bit(self):
        p, _ = build_attack_program(Ordering.VDVD, Gadget.NPEU, CFG)
        img = npeu_image()
        a = run(p, CFG, SchemeId.DOM_NONTSO, secrets={"s0": 1}, image=img)
        b = run(p, CFG, SchemeId.DOM_NONTSO, secrets={"s0": 1}, image=img)
        assert a.serialize() == b.serialize()
        assert a.occupancy_csv() == b.occupancy_csv()

    def test_resource_occupancy_bounds(self):
        p = build_attack_program(Ordering.VIAD, Gadget.RS, CFG)[0]
        t = run(p, CFG, SchemeId.UNSAFE, secrets={"s0": 1}, image=rs_image())
        for _, rs_fill, mshr_fill, _ in t.occupancy:
            assert rs_fill <= CFG.rs_size
            assert mshr_fill <= CFG.l1d_mshrs

    def test_deadlock_detector_raises(self, monkeypatch):
        # With no threshold ahead while the ROB holds work, the first cycle
        # that changes nothing is a deadlock, raised there even when a
        # max_cycles lies ahead. op0 completes and retires at cycle 2;
        # cycle 3 changes nothing.
        monkeypatch.setattr(_Engine, "_next_event", lambda self, max_cycles: None)
        cfg = replace(CFG, writeback_delay=5)
        p = prog_of(MicroOp(0, OpKind.ALU), MicroOp(1, OpKind.ALU, src_deps=(0,)))
        for max_cycles in (None, 100):
            with pytest.raises(SimulationDeadlock) as exc:
                run(p, cfg, SchemeId.UNSAFE, max_cycles=max_cycles)
            assert str(exc.value) == "no progress since cycle 2; rob head: op1:ALU(issue=-1,complete=-1)"

    def test_cdb_width_staggers_completions_oldest_first(self):
        # Four ALU ops finish together but only two results broadcast per
        # cycle; the two oldest win the bus.
        cfg = replace(CFG, cdb_width=2)
        p = prog_of(*[MicroOp(i, OpKind.ALU) for i in range(4)])
        t = run(p, cfg, SchemeId.UNSAFE)
        completes = [t.times(i, "complete") for i in range(4)]
        assert completes[0] == completes[1]
        assert completes[2] == completes[3] == completes[0] + 1

    def test_nop_completes_at_dispatch(self):
        p = prog_of(MicroOp(0, OpKind.NOP))
        t = run(p, CFG, SchemeId.UNSAFE)
        assert t.times(0, "complete") == t.times(0, "dispatch")


class TestIssueSelect:
    def test_older_ready_op_wins_the_npeu(self):
        # Both ready at the same cycle: age order picks op0.
        p = prog_of(MicroOp(0, OpKind.NPEU), MicroOp(1, OpKind.NPEU))
        t = run(p, CFG, SchemeId.UNSAFE)
        lat = CFG.eu["npeu"].latency
        assert t.times(0, "issue") < t.times(1, "issue")
        assert t.times(1, "issue") == t.times(0, "issue") + lat

    def test_younger_only_ready_takes_unit_and_blocks_older(self):
        # op2 (younger, independent) is ready before op1 (needs the chain);
        # it grabs the non-pipelined unit and the older op waits.
        p = prog_of(
            MicroOp(0, OpKind.ALU),
            MicroOp(1, OpKind.ALU, src_deps=(0,)),
            MicroOp(2, OpKind.ALU, src_deps=(1,)),
            MicroOp(3, OpKind.ALU, src_deps=(2,)),
            MicroOp(4, OpKind.NPEU, src_deps=(3,)),
            MicroOp(5, OpKind.NPEU),
        )
        t = run(p, CFG, SchemeId.UNSAFE)
        assert t.times(5, "issue") < t.times(4, "issue")
        assert t.times(4, "issue") >= t.times(5, "issue") + CFG.eu["npeu"].latency

    def test_empty_ready_set_is_fine(self):
        p = prog_of(MicroOp(0, OpKind.ALU), MicroOp(1, OpKind.ALU, src_deps=(0,)))
        t = run(p, CFG, SchemeId.UNSAFE)
        assert t.times(1, "issue") > t.times(0, "issue")


def branchy_program(predicted=True, actual=False, body=2):
    """resolver load; branch; body ALUs; one post-join ALU."""
    ops = [MicroOp(0, OpKind.LOAD, addr=Literal(LAY.resolver_line))]
    join = 2 + body
    ops.append(
        MicroOp(1, OpKind.BRANCH, branch=BranchInfo(predicted, actual, resolver=0, join=join))
    )
    for i in range(body):
        ops.append(MicroOp(2 + i, OpKind.ALU))
    ops.append(MicroOp(join, OpKind.ALU))
    return prog_of(*ops)


RESOLVER_IMG = CacheImage(scripts={LAY.resolver_line: Level.MEMMISS})


def overbooked_cycles(trace, program: MicroProgram, cfg: MachineConfig) -> list[int]:
    """Cycles at which more ops of a non-pipelined class execute than the
    class has units, read from the run's records. An op executes from its
    issue record for its class's latency, or until its squash record if
    that comes first."""
    classes = program.tables.eu_classes
    started: dict[int, int] = {}
    busy: dict[str, Counter] = defaultdict(Counter)

    def close(i: int, end: float) -> None:
        klass, start = classes[i], started.pop(i)
        busy[klass].update(range(start, min(start + cfg.eu[klass].latency, end)))

    for cycle, name, i, _ in trace.records:
        if i is None or classes[i] is None or cfg.eu[classes[i]].pipelined:
            continue
        if name == "issue":
            started[i] = cycle
        elif name == "squash" and i in started:
            close(i, cycle)
    for i in list(started):
        close(i, inf)
    return sorted(c for klass, n in busy.items() for c, k in n.items() if k > cfg.eu[klass].count)


class TestSquash:
    def test_mispredicted_branch_squashes_younger_only(self):
        p = branchy_program()
        t = run(p, CFG, SchemeId.UNSAFE, image=RESOLVER_IMG)
        assert t.times(2, "squash") != NEVER and t.times(3, "squash") != NEVER
        assert t.times(2, "retire") == NEVER
        assert t.times(0, "retire") != NEVER  # older op unaffected
        assert t.times(4, "retire") != NEVER  # correct path refetched and retired

    def test_correct_prediction_is_a_noop(self):
        p = branchy_program(predicted=False, actual=False)
        t = run(p, CFG, SchemeId.UNSAFE, image=RESOLVER_IMG)
        assert all(t.times(i, "squash") == NEVER for i in range(len(p.ops)))
        assert t.times(2, "dispatch") == NEVER  # not-taken body never fetched

    def test_squash_frees_non_pipelined_unit(self):
        # A wrong-path NPEU op occupies the unit when the squash lands;
        # the post-squash correct-path NPEU op gets the unit immediately.
        ops = [
            MicroOp(0, OpKind.LOAD, addr=Literal(LAY.resolver_line)),
            MicroOp(1, OpKind.BRANCH, branch=BranchInfo(True, False, resolver=0, join=3)),
            MicroOp(2, OpKind.NPEU),
            MicroOp(3, OpKind.NPEU),
        ]
        # Long unit: without freeing, the correct-path op would wait out
        # the full residual latency.
        cfg = replace(CFG, eu={**CFG.eu, "npeu": CFG.eu["npeu"].__class__(False, 150, 1)})
        t = run(prog_of(*ops), cfg, SchemeId.UNSAFE, image=RESOLVER_IMG)
        squash_cycle = t.times(2, "squash")
        assert squash_cycle != NEVER
        assert t.times(3, "issue") <= squash_cycle + 2

    def test_squash_keeps_a_survivors_booking_of_a_non_pipelined_unit(self):
        # Ops 6 and 7 take the only unit early and finish long before the
        # squash; op 1, older than the branch, books it at 42 for 16 cycles.
        # The squash at 48 must not hand op 1's unit to the refetched op 7.
        ops = [
            MicroOp(0, OpKind.LOAD, addr=Literal(777)),
            MicroOp(1, OpKind.NPEU, src_deps=(0,)),
            MicroOp(2, OpKind.ALU, src_deps=(0,)),
            MicroOp(3, OpKind.ALU, src_deps=(2,)),
            MicroOp(4, OpKind.ALU, src_deps=(3,)),
            MicroOp(5, OpKind.BRANCH, branch=BranchInfo(True, False, resolver=4, join=7)),
            MicroOp(6, OpKind.NPEU),
            MicroOp(7, OpKind.NPEU),
        ]
        prog = prog_of(*ops)
        t = run(prog, CFG, SchemeId.UNSAFE, image=CacheImage(scripts={777: Level.LLCHIT}))
        assert overbooked_cycles(t, prog, CFG) == []
        assert [(r[0], r[2]) for r in t.records if r[1] == "issue" and r[2] in (1, 6, 7)] == [
            (2, 6), (18, 7), (42, 1), (58, 7)
        ]
        assert [(r[0], r[2]) for r in t.records if r[1] == "squash"] == [(48, 6), (48, 7)]

    def test_non_pipelined_units_are_never_overbooked(self):
        from test_corpus_digests import corpus_runs  # it imports this module

        for label, program, scheme, kw in corpus_runs():
            assert overbooked_cycles(run(program, CFG, scheme, **kw), program, CFG) == [], label

    def test_unknown_eu_class_is_rejected_before_the_first_cycle(self):
        # The bad op waits on the missing resolver on the wrong path, so it
        # is squashed before it could issue; the program is invalid anyway.
        ops = [
            MicroOp(0, OpKind.LOAD, addr=Literal(LAY.resolver_line)),
            MicroOp(1, OpKind.BRANCH, branch=BranchInfo(True, False, resolver=0, join=3)),
            MicroOp(2, OpKind.ALU, src_deps=(0,), lat_class="bogus"),
            MicroOp(3, OpKind.ALU),
        ]
        with pytest.raises(ValueError, match="op 2: unknown EU class 'bogus'"):
            run(prog_of(*ops), CFG, SchemeId.UNSAFE, image=RESOLVER_IMG)

    def test_force_correct_predictions_equals_pruned_program(self):
        # Deleting the wrong-path body and fixing the prediction produces
        # the same trace as forcing predictions correct (id remapping aside).
        full = branchy_program(body=3)
        nospec = run(full, CFG, SchemeId.UNSAFE, image=RESOLVER_IMG, force_correct_predictions=True)
        pruned_ops = [
            MicroOp(0, OpKind.LOAD, addr=Literal(LAY.resolver_line)),
            MicroOp(1, OpKind.BRANCH, branch=BranchInfo(False, False, resolver=0, join=2)),
            MicroOp(2, OpKind.ALU),
        ]
        from test_corpus_digests import op_stamps  # it imports this module

        pruned = run(prog_of(*pruned_ops), CFG, SchemeId.UNSAFE, image=RESOLVER_IMG)
        remap = {0: 0, 1: 1, 5: 2}  # join op id 5 in the full program
        for full_id, pruned_id in remap.items():
            assert op_stamps(nospec)[full_id] == op_stamps(pruned)[pruned_id]
        assert [r.key() for r in nospec.pattern] == [r.key() for r in pruned.pattern]


def rs_image(secret_miss_on_1: bool = True) -> CacheImage:
    s = LAY.secret_base
    return CacheImage(
        scripts={
            LAY.resolver_line: Level.MEMMISS,
            LAY.access_line: Level.L1HIT,
            s: Level.L1HIT if secret_miss_on_1 else Level.MEMMISS,
            s + 1: Level.MEMMISS if secret_miss_on_1 else Level.L1HIT,
        }
    )


class TestFrontend:
    def test_rs_congestion_stalls_fetch_and_blocks_marked_line(self):
        p = build_attack_program(Ordering.VIAD, Gadget.RS, CFG)[0]
        marker = p.role_ops("itarget")[0]
        # Transmitter misses: chain never drains, RS fills, marker unfetched.
        t1 = run(p, CFG, SchemeId.UNSAFE, secrets={"s0": 1}, image=rs_image())
        assert t1.times(marker, "dispatch") == NEVER
        assert max(r for _, r, _, _ in t1.occupancy) == CFG.rs_size
        # Transmitter hits: chain drains, marker fetched before the squash.
        t0 = run(p, CFG, SchemeId.UNSAFE, secrets={"s0": 0}, image=rs_image())
        assert t0.times(marker, "dispatch") != NEVER
        assert t0.times(marker, "squash") != NEVER  # transient path

    def test_marked_fetch_touches_llc_when_line_absent(self):
        p = build_attack_program(Ordering.VIAD, Gadget.RS, CFG)[0]
        t0 = run(p, CFG, SchemeId.UNSAFE, secrets={"s0": 0}, image=rs_image())
        assert (LAY.itarget_line, "victim", "fill") in [r.key() for r in t0.pattern]

    def test_program_exhausted_frontend_noop(self):
        p = prog_of(MicroOp(0, OpKind.ALU))
        t = run(p, CFG, SchemeId.UNSAFE)
        assert t.total_cycles >= 0


class TestInterference:
    def test_npeu_gadget_delays_victim_issue_under_dom(self):
        p = build_attack_program(Ordering.VDAD, Gadget.NPEU, CFG)[0]
        victim = p.role_ops("victim_a")[0]
        t1 = run(p, CFG, SchemeId.DOM_NONTSO, secrets={"s0": 1}, image=npeu_image())
        t0 = run(p, CFG, SchemeId.DOM_NONTSO, secrets={"s0": 0}, image=npeu_image())
        gap = t1.times(victim, "issue") - t0.times(victim, "issue")
        assert gap > 0

    def test_npeu_delay_is_deterministic(self):
        p = build_attack_program(Ordering.VDAD, Gadget.NPEU, CFG)[0]
        victim = p.role_ops("victim_a")[0]
        runs = [
            run(p, CFG, SchemeId.DOM_NONTSO, secrets={"s0": 1}, image=npeu_image()).times(victim, "issue")
            for _ in range(3)
        ]
        assert len(set(runs)) == 1

    def test_mshr_exhaustion_stalls_victim_under_invisispec(self):
        p = build_attack_program(Ordering.VDAD, Gadget.MSHR, CFG)[0]
        victim = p.role_ops("victim_a")[0]
        img = CacheImage(
            scripts={
                LAY.resolver_line: Level.MEMMISS,
                LAY.access_line: Level.L1HIT,
                **{LAY.secret_base + k: Level.MEMMISS for k in range(CFG.l1d_mshrs)},
            }
        )
        t1 = run(p, CFG, SchemeId.INVISISPEC_SPECTRE, secrets={"s0": 1}, image=img)
        t0 = run(p, CFG, SchemeId.INVISISPEC_SPECTRE, secrets={"s0": 0}, image=img)
        stalls1 = [r for r in t1.records if r[1:3] == ("mshr_stall", victim)]
        assert stalls1, "victim should stall with MSHRs exhausted"
        a1 = next(r[0] for r in t1.records if r[1:3] == ("l2access", victim))
        a0 = next(r[0] for r in t0.records if r[1:3] == ("l2access", victim))
        assert a1 > a0


class TestLookahead:
    DIAMOND_OPS = 150

    def test_dependence_diamond_costs_no_more_than_a_small_multiple_of_unsafe(self):
        # With the RS as large as the ROB the whole diamond waits behind the
        # miss, and the look-ahead bound for the older NPEU op walks all of
        # it. Unmemoized, that walk doubles with every pair of ops.
        cfg = replace(CFG, rs_size=CFG.rob_size)
        p, image = diamond_program(self.DIAMOND_OPS)

        def best_time(scheme):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                trace = run(p, cfg, scheme, image=image)
                times.append(time.perf_counter() - t0)
            assert sum(r[1] == "retire" for r in trace.records) == len(p.ops)
            return min(times)

        unsafe = best_time(SchemeId.UNSAFE)
        assert best_time(SchemeId.NOINTERFERENCE) < 10 * unsafe


class TestClockEdges:
    """The engine skips event-free cycles; every check tied to the clock
    must still fire on the cycle a one-cycle step would reach."""

    def test_max_cycles_inside_an_idle_stretch_raises(self):
        p = prog_of(MicroOp(0, OpKind.LOAD, addr=Literal(100)), MicroOp(1, OpKind.ALU, src_deps=(0,)))
        image = CacheImage(scripts={100: Level.MEMMISS})
        t = run(p, CFG, SchemeId.UNSAFE, image=image)
        last = t.occupancy[-1][0]
        assert t.times(0, "complete") - t.times(0, "issue") == CFG.geometry.lat_mem
        for k in (t.times(0, "issue") + 100, last):
            with pytest.raises(SimulationDeadlock, match=f"^exceeded max_cycles={k}$"):
                run(p, CFG, SchemeId.UNSAFE, image=image, max_cycles=k)
        capped = run(p, CFG, SchemeId.UNSAFE, image=image, max_cycles=last + 1)
        assert capped.occupancy == t.occupancy and capped.serialize() == t.serialize()

    def test_slow_write_back_completes_unless_max_cycles_cuts_it(self):
        # No event from cycle 3 until op0's write-back lands, 5000 cycles
        # after it completes: far longer than rob_size times any unit or
        # memory latency, and still no deadlock.
        cfg = replace(CFG, rob_size=4, writeback_delay=5000)
        p = prog_of(MicroOp(0, OpKind.ALU), MicroOp(1, OpKind.ALU, src_deps=(0,)))
        t = run(p, cfg, SchemeId.UNSAFE)
        assert t.times(1, "issue") == t.times(0, "complete") + 5000
        assert t.times(1, "retire") != NEVER
        for k in (803, 804):
            with pytest.raises(SimulationDeadlock, match=f"^exceeded max_cycles={k}$"):
                run(p, cfg, SchemeId.UNSAFE, max_cycles=k)

    def test_llc_hit_slower_than_memory_completes(self):
        # An LLC hit of 65 cycles with a memory latency of 10: the wait
        # exceeds rob_size times the slowest unit or memory latency (64).
        cfg = replace(CFG, rob_size=4, geometry=replace(CFG.geometry, lat_mem=10, lat_llc=65))
        p = prog_of(MicroOp(0, OpKind.LOAD, addr=Literal(100)))
        t = run(p, cfg, SchemeId.UNSAFE, image=CacheImage(scripts={100: Level.LLCHIT}))
        assert t.times(0, "complete") - t.times(0, "issue") == 65
        assert t.times(0, "retire") != NEVER

    def test_max_cycles_bounds_the_run_after_the_rob_drains(self):
        # The ROB drains by cycle 3; the attacker's access at 500 lies
        # beyond max_cycles, so the run stops at 100 as a step would.
        p = prog_of(MicroOp(0, OpKind.ALU))
        t = run(p, CFG, SchemeId.UNSAFE, attacker=[(500, 900_000)])
        assert t.records[-1][:2] == (500, "l2access")
        with pytest.raises(SimulationDeadlock, match="^exceeded max_cycles=100$"):
            run(p, CFG, SchemeId.UNSAFE, attacker=[(500, 900_000)], max_cycles=100)

    def test_parked_attacker_access_keeps_the_row_gap(self):
        # Calibration parks the attacker's reference access far beyond the
        # victim: the rows stop when the ROB drains and resume only at the
        # access itself, with no rows for the cycles in between.
        params = AttackParams(reference_offset=FAR_OFFSET)
        p, script = build_attack_program(Ordering.VDAD, Gadget.NPEU, CFG, params)
        image = attack_image(Gadget.NPEU, CFG)
        t = run(p, CFG, SchemeId.DOM_NONTSO, secrets={"s0": 1}, image=image, attacker=script)
        assert len(t.occupancy) == 207
        assert [row[0] for row in t.occupancy[-3:]] == [204, 205, FAR_OFFSET]
        assert t.total_cycles == 205
        assert t.records[-1][:2] == (FAR_OFFSET, "l2access")

    def test_max_cycles_inside_a_stall_stretch_raises(self):
        # Load 0 holds the only MSHR from cycle 1 to 201; loads 1 and 2
        # retry on every cycle in between, load 3 behind them from 201.
        cfg = replace(CFG, l1d_mshrs=1)
        p, image = stall_stretch_program(4)
        t = run(p, cfg, SchemeId.UNSAFE, image=image)
        stalled = {r[0] for r in t.records if r[1] == "mshr_stall"}
        for k in (3, 100, 200, 300, 500):
            assert k in stalled
            with pytest.raises(SimulationDeadlock, match=f"^exceeded max_cycles={k}$"):
                run(p, cfg, SchemeId.UNSAFE, image=image, max_cycles=k)
        capped = run(p, cfg, SchemeId.UNSAFE, image=image, max_cycles=t.occupancy[-1][0] + 1)
        assert capped.occupancy == t.occupancy and capped.serialize() == t.serialize()

    def test_stall_stretch_ends_on_the_mshr_fill(self):
        cfg = replace(CFG, l1d_mshrs=1)
        p, image = stall_stretch_program(4)
        t = run(p, cfg, SchemeId.UNSAFE, image=image)
        free_at = t.times(0, "issue") + cfg.geometry.lat_mem
        by_cycle: dict[int, list[tuple[str, int | None]]] = {}
        for cycle, name, op, _ in t.records:
            by_cycle.setdefault(cycle, []).append((name, op))
        # One retry per stalled op on every cycle of the stretch, in op
        # order, and nothing else until the fill returns.
        for c in range(t.times(0, "issue") + 1, free_at):
            assert by_cycle[c] == [("mshr_stall", 1), ("mshr_stall", 2)]
        assert by_cycle[free_at][0] == ("mshr_free", None)
        assert t.times(1, "issue") == free_at
        # The stretch keeps one occupancy row per cycle, each equal to the
        # row of its first cycle.
        assert [row[0] for row in t.occupancy] == list(range(len(t.occupancy)))
        first = t.occupancy[t.times(0, "issue") + 1]
        assert all(t.occupancy[c][1:] == first[1:] for c in range(first[0], free_at))


    def test_a_stall_stretch_is_stepped_once_then_jumped(self, monkeypatch):
        # A cycle that logs only MSHR retries changes nothing, so the engine
        # steps the first cycle of each stretch and jumps to the fill,
        # writing the repeated retries itself. Stepping every stalled cycle
        # logs the same trace, so only the phase calls tell them apart.
        issued_at = []
        real = _Engine._phase_issue

        def counting(engine):
            issued_at.append(engine.cycle)
            return real(engine)

        monkeypatch.setattr(_Engine, "_phase_issue", counting)
        p, image = stall_stretch_program(4)
        t = run(p, replace(CFG, l1d_mshrs=1), SchemeId.UNSAFE, image=image)
        assert issued_at == [1, 2, 201, 202, 401, 402, 601]
        assert len(t.occupancy) == 802

EVENT_KINDS = {
    "fetch", "dispatch", "issue", "complete", "retire", "safe", "resolve", "squash",
    "reissue", "delayed", "mshr_stall", "mshr_free", "l2access", "ifetch",
}


def every_event_program() -> tuple[MicroProgram, CacheImage]:
    """Under dom-spectre with one MSHR and an attacker access at cycle 3,
    this logs every event kind: a correct-path miss that stalls on the MSHR,
    an L1I-hit and an LLC I-fetch, a shadowed miss delayed until its
    correctly predicted branch resolves, and a mispredicted branch."""
    ops = [
        MicroOp(0, OpKind.LOAD, addr=Literal(900)),
        MicroOp(1, OpKind.LOAD, addr=Literal(901)),
        MicroOp(2, OpKind.ALU, iline=950),
        MicroOp(3, OpKind.ALU, iline=951),
        MicroOp(4, OpKind.BRANCH, branch=BranchInfo(True, True, 0, 6)),
        MicroOp(5, OpKind.LOAD, addr=Literal(902)),
        MicroOp(6, OpKind.BRANCH, branch=BranchInfo(True, False, 0, 8)),
        MicroOp(7, OpKind.ALU),
        MicroOp(8, OpKind.ALU),
    ]
    return prog_of(*ops), CacheImage(scripts={950: Level.L1HIT})


class TestTraceRecords:
    def test_event_view_matches_records(self):
        p, image = every_event_program()
        t = run(p, replace(CFG, l1d_mshrs=1), SchemeId.DOM_SPECTRE, image=image, attacker=[(3, 960)])
        assert {r[1] for r in t.records} == EVENT_KINDS
        accesses = {(r[3]["requester"], r[3].get("fetch")) for r in t.records if r[1] == "l2access"}
        assert accesses == {("attacker", None), ("victim", None), ("victim", 1)}
        # The pattern is the l2access records, field for field, in order.
        l2 = [(c, x["line"], x["requester"], op) for c, name, op, x in t.records if name == "l2access"]
        assert [(r.cycle, r.line, r.requester, r.op_id) for r in t.pattern] == l2
        assert [r.key() for r in t.pattern] == [(line, who, "fill") for _, line, who, _ in l2]
        assert len(t.events) == len(t.records)
        for e, (cycle, name, op, extra) in zip(t.events, t.records):
            assert (e.cycle, e.name, e.op) == (cycle, name, op)
            assert e.extra == ({} if extra is None else extra)
        assert t.serialize() == "\n".join(e.line_text() for e in t.events) + "\n"
        # Each event owns its extra dict: editing the view leaves the log alone.
        text = t.serialize()
        for e in t.events:
            e.extra["edited"] = 1
        assert t.serialize() == text

    def test_an_attacker_access_to_a_scripted_l1hit_line_is_visible(self):
        # A scripted l1hit line reaches the LLC only through the attacker.
        # The access is logged, so it is in the pattern too, and it hits:
        # the LLC is inclusive, so a line in the victim's L1 is in it.
        p = MicroProgram(ops=[MicroOp(0, OpKind.ALU)])
        t = run(p, CFG, SchemeId.UNSAFE, image=CacheImage(scripts={5: Level.L1HIT}), attacker=[(0, 5)])
        assert t.records[0] == (0, "l2access", None, {"line": 5, "requester": "attacker", "result": "hit"})
        assert [r.key() for r in t.pattern] == [(5, "attacker", "fill")]


class TestValidByConstruction:
    def test_config_is_checked_when_built_or_replaced(self):
        with pytest.raises(ValueError, match="^rob_size must be >= 1$"):
            MachineConfig(rob_size=0)
        with pytest.raises(ValueError, match="^lat_mem must be >= 1$"):
            replace(CFG, geometry=replace(CFG.geometry, lat_mem=0))

    def test_run_checks_neither_program_nor_config(self, monkeypatch):
        calls = {MicroProgram: 0, MachineConfig: 0}
        for cls in calls:
            def counted(self, _cls=cls, _check=cls.validate):
                calls[_cls] += 1
                _check(self)

            monkeypatch.setattr(cls, "validate", counted)
        cfg = MachineConfig()
        p, script = build_attack_program(Ordering.VDAD, Gadget.MSHR, cfg)
        assert calls == {MicroProgram: 1, MachineConfig: 1}
        image = attack_image(Gadget.MSHR, cfg)
        # A fence scheme builds no fenced copy either.
        schemes = (SchemeId.UNSAFE, SchemeId.INVISISPEC_SPECTRE, SchemeId.FENCE_SPECTRE, SchemeId.FENCE_FUTURISTIC)
        for scheme in schemes:
            for bit in (0, 1):
                run(p, cfg, scheme, secrets={"s0": bit}, image=image, attacker=script)
        assert calls == {MicroProgram: 1, MachineConfig: 1}

    def test_config_eu_table_is_read_only(self):
        table = {"alu": EuClass(True, 1, 4), "npeu": EuClass(False, 16, 1), "lsu": EuClass(True, 1, 2)}
        cfg = MachineConfig(eu=table)
        with pytest.raises(TypeError):
            cfg.eu["npeu"] = EuClass(True, 16, 1)
        table["npeu"] = EuClass(True, 16, 1)  # the config holds its own copy
        assert cfg.npeu_class == "npeu"


class TestProgramTables:
    """The engine's per-program tables are derived once and shared by every
    run of the program; a derived program derives its own."""

    def test_derived_once_per_program(self, monkeypatch):
        derived = []
        derive = EngineTables.derive
        monkeypatch.setattr(EngineTables, "derive", staticmethod(lambda ops: derived.append(ops) or derive(ops)))
        p, script = build_attack_program(Ordering.VDAD, Gadget.MSHR, CFG)
        image = attack_image(Gadget.MSHR, CFG)
        for scheme in (SchemeId.UNSAFE, SchemeId.DOM_SPECTRE, SchemeId.FENCE_FUTURISTIC, SchemeId.NOINTERFERENCE):
            for bit in (0, 1):
                run(p, CFG, scheme, secrets={"s0": bit}, image=image, attacker=script)
        assert len(derived) == 1
        q = replace(p, annotations={})
        run(q, CFG, SchemeId.UNSAFE, image=image, attacker=script)
        assert len(derived) == 2
        assert q.tables is not p.tables and q.tables == p.tables

    def test_tables_are_tuples(self):
        p, _ = build_attack_program(Ordering.VIVD, Gadget.NPEU, CFG)
        t = p.tables
        rows = (t.eu_classes, t.consumers, t.resolves, *t.consumers, *t.resolves, *t.fence_points.values())
        assert all(type(row) is tuple for row in rows)
        with pytest.raises(TypeError):
            t.fence_points[None] = ()
        with pytest.raises(FrozenInstanceError):
            t.consumers = ()


def constructible_senders():
    """(gadget, ordering, program, script) for every sender that can be
    built on the default machine with default parameters; blocked cells
    have none."""
    for gadget in Gadget:
        for ordering in Ordering:
            try:
                program, script = build_attack_program(ordering, gadget, CFG)
            except ConstructionError:
                continue
            yield gadget, ordering, program, script


SENDERS = [(g, o) for g, o, _, _ in constructible_senders()]
PREFIX_CONFIGS = [
    CFG,
    replace(CFG, rob_size=16, rs_size=4),
    replace(CFG, l1d_mshrs=2, cdb_width=1),
    replace(CFG, l1d_mshrs=1, issue_width=1),
    replace(CFG, writeback_delay=120, branch_resolve_extra=90),
    replace(CFG, rs_size=3, cdb_width=1, branch_resolve_extra=300),
]


class TestSecretFreePrefix:
    """Runs that differ only in their secrets are the same machine until a
    secret-dependent load first resolves its address: the calibration and
    the differential check skip runs on this invariant."""

    @settings(max_examples=60, deadline=None)
    @given(
        sender=st.sampled_from(SENDERS),
        scheme=st.sampled_from(list(SchemeId)),
        cfg=st.sampled_from(PREFIX_CONFIGS),
        z_len=st.sampled_from([1, 8, 12, 16, 20]),
        g_len=st.integers(0, 64),
        reference_offset=st.integers(0, 300),
    )
    def test_both_bits_agree_before_the_secret_read(self, sender, scheme, cfg, z_len, g_len, reference_offset):
        gadget, ordering = sender
        params = AttackParams(z_len=z_len, g_len=g_len, reference_offset=reference_offset)
        try:
            plan = plan_attack(gadget, ordering, scheme, cfg, params)
        except ConstructionError:
            reject()  # e.g. an MSHR sender on a one-MSHR machine
        t0, t1 = plan.trace(0), plan.trace(1)
        read = t0.secret_read_cycle
        assert t1.secret_read_cycle == read
        if read is None:
            from test_corpus_digests import op_stamps  # it imports this module

            assert t0.serialize() == t1.serialize()
            assert (t0.occupancy, t0.pattern, op_stamps(t0), t0.llc_state, t0.total_cycles) == (
                t1.occupancy,
                t1.pattern,
                op_stamps(t1),
                t1.llc_state,
                t1.total_cycles,
            )
            return
        assert [r for r in t0.records if r[0] < read] == [r for r in t1.records if r[0] < read]
        assert [r for r in t0.pattern if r.cycle < read] == [r for r in t1.pattern if r.cycle < read]
        assert [r for r in t0.occupancy if r[0] < read] == [r for r in t1.occupancy if r[0] < read]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), scheme=st.sampled_from(list(SchemeId)))
    def test_programs_without_secrets_never_read_one(self, seed, scheme):
        program, image = gen_random_program(seed)
        assert run(program, CFG, scheme, image=image).secret_read_cycle is None


class TestRarePaths:
    """Engine paths that no corpus run reaches."""

    def test_a_replay_finds_its_line_already_in_the_l1(self):
        # Op 13 misses in the shadow of branch 12, whose resolver (op 11)
        # misses to memory, so it is serviced invisibly at cycle 4. Op 10,
        # at the end of an ALU chain, reads the same line later but safely:
        # its visible access fills the L1. When op 13 turns safe, its replay
        # finds the line there and only promotes it: no LLC access.
        ops = [MicroOp(i, OpKind.ALU, src_deps=(i - 1,) if i else ()) for i in range(10)]
        ops += [
            MicroOp(10, OpKind.LOAD, src_deps=(9,), addr=Literal(3000)),
            MicroOp(11, OpKind.LOAD, addr=Literal(4000)),
            MicroOp(12, OpKind.BRANCH, branch=BranchInfo(True, True, resolver=11, join=14)),
            MicroOp(13, OpKind.LOAD, addr=Literal(3000)),
        ]
        image = CacheImage(scripts={4000: Level.MEMMISS})
        t = run(prog_of(*ops), CFG, SchemeId.INVISISPEC_SPECTRE, image=image)
        assert (t.times(13, "issue"), t.times(13, "safe")) == (4, 204)
        assert [(r.cycle, r.op_id) for r in t.pattern] == [(3, 11), (21, 10)]
        assert t.times(13, "retire") != NEVER

    def test_a_branch_without_a_resolver_resolves_when_it_completes(self):
        text = "0 ALU deps=[]\n1 BRANCH deps=[] branch=T,N,res:-,join:3\n2 ALU deps=[]\n3 ALU deps=[]\n"
        prog = parse_program(text)
        assert prog.ops[1].branch.resolver is None
        assert format_program(prog) == text
        t = run(prog, CFG, SchemeId.UNSAFE)
        # Mispredicted: its body (op 2) and the join (op 3) are squashed in
        # the cycle it completes, and only the join is fetched again.
        assert t.times(1, "complete") == t.times(1, "resolved") == 2
        assert [(r.squash, r.retire) for r in t.ops] == [(NEVER, 2), (NEVER, 2), (2, NEVER), (NEVER, 5)]

    def test_the_look_ahead_bounds_a_marker_that_a_prediction_skipped(self):
        # Branch 1 is predicted not taken but is taken. While its resolver
        # (op 0) misses to memory, fetch goes straight to the join, so the
        # marker in its body (op 2) is never dispatched, yet op 3 on the
        # wrong path consumes it. Unsafe issues op 4 at cycle 1; the
        # look-ahead bounds op 3's start through op 2 and holds op 4 off
        # the one NPEU unit until the squash.
        text = (
            "0 LOAD deps=[] addr=100001\n1 BRANCH deps=[] branch=N,T,res:0,join:3\n"
            "2 NOP deps=[]\n3 NPEU deps=[2]\n4 NPEU deps=[]\n"
        )
        image = CacheImage(scripts={100001: Level.MEMMISS})
        t = run(parse_program(text), CFG, SchemeId.NOINTERFERENCE, image=image)
        moves = [(c, name, op) for c, name, op, _ in t.records if name in ("issue", "squash") and op in (3, 4)]
        assert moves == [(202, "squash", 3), (202, "squash", 4), (204, "issue", 3), (220, "issue", 4)]
        assert t.total_cycles == 236
