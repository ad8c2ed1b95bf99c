"""Non-interference checker, overhead benchmarks, calibration, and the
randomized corpus."""

import importlib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from specsim.machine import MachineConfig
from specsim.memhier import CacheImage, Level
from specsim.microprog import (
    AttackLayout,
    AttackParams,
    BranchInfo,
    Gadget,
    Literal,
    MicroOp,
    MicroProgram,
    OpKind,
    Ordering,
    SecretDep,
    marks_fetch,
)
from specsim import attacks, seccheck
from specsim.schemes import SchemeId, ShadowRule, scheme_spec
from specsim.attacks import (
    MATRIX_GROUPS,
    MATRIX_SCHEMES,
    REFERENCE_VULNERABLE,
    RunMemo,
    group_orderings,
    plan_attack,
)
from specsim.seccheck import (
    Benchmark,
    Calibration,
    CheckResult,
    OverheadReport,
    bench_overhead,
    calibrate,
    calibrate_for_matrix,
    check_ideal,
    check_ideal_differential,
    gen_alu_dense,
    gen_branch_dense,
    gen_load_chain,
    gen_random_program,
    interference_gap,
    matrix_calibrations,
    nospec,
    synth_suite,
)
from specsim.pipeline import run

from test_corpus_digests import op_stamps

CFG = MachineConfig()
LAY = AttackLayout(CFG.geometry)


def prog_of(*ops, secrets=None):
    return MicroProgram(ops=ops, secret_slots=secrets or {})


def spectre_v1_program():
    """Bounds-check bypass shape: a mispredicted branch guards a secret
    read feeding a secret-indexed load into a real (set-tracked) line."""
    ops = [
        MicroOp(0, OpKind.LOAD, addr=Literal(LAY.resolver_line)),
        MicroOp(1, OpKind.BRANCH, branch=BranchInfo(True, False, resolver=0, join=4)),
        MicroOp(2, OpKind.LOAD, addr=Literal(LAY.access_line)),
        MicroOp(3, OpKind.LOAD, src_deps=(2,), addr=SecretDep(LAY.victim_line, "s0", stride=1, k=1)),
    ]
    prog = MicroProgram(ops=ops, secret_slots={"s0": 0})
    image = CacheImage(scripts={LAY.resolver_line: Level.MEMMISS, LAY.access_line: Level.L1HIT})
    return prog, image


class TestCheckIdeal:
    def test_branchless_program_holds_under_any_scheme(self):
        p = prog_of(MicroOp(0, OpKind.LOAD, addr=Literal(LAY.victim_line)), MicroOp(1, OpKind.ALU))
        for scheme in (SchemeId.UNSAFE, SchemeId.DOM_NONTSO, SchemeId.NOINTERFERENCE):
            assert check_ideal(p, CFG, scheme).holds

    def test_spectre_v1_violates_under_unsafe(self):
        prog, image = spectre_v1_program()
        res = check_ideal(prog, CFG, SchemeId.UNSAFE, secrets={"s0": 1}, image=image)
        # The transient secret-indexed fill is the divergence; the oracle's
        # pattern is a prefix of the run's, so the witness is its length.
        resolver = (LAY.resolver_line, "victim", "fill")
        assert res == CheckResult(
            False, 1, [resolver, (LAY.victim_line + 1, "victim", "fill")], [resolver], "run", "nospec"
        )
        assert not res

    def test_spectre_v1_holds_under_fence_futuristic(self):
        prog, image = spectre_v1_program()
        for bit in (0, 1):
            assert check_ideal(prog, CFG, SchemeId.FENCE_FUTURISTIC, secrets={"s0": bit}, image=image).holds

    def test_program_without_misprediction_costs_one_run(self, monkeypatch):
        calls = []

        def counting(*args, **kw):
            calls.append(args)
            return run(*args, **kw)

        monkeypatch.setattr(seccheck, "run", counting)
        p = prog_of(MicroOp(0, OpKind.LOAD, addr=Literal(LAY.victim_line)), MicroOp(1, OpKind.ALU))
        assert check_ideal(p, CFG, SchemeId.UNSAFE).holds
        assert len(calls) == 1

    def test_program_without_misprediction_is_its_own_oracle(self):
        # The engine reads force_correct_predictions only where a
        # mispredicted branch resolves and where fetch follows a prediction.
        programs = [gen_random_program(seed) for seed in range(60)]
        programs += [(b.program, b.image) for b in synth_suite(1)]
        programs = [
            (prog, image)
            for prog, image in programs
            if not any(op.branch is not None and op.branch.mispredicted() for op in prog.ops)
        ]
        assert len(programs) > 20
        for prog, image in programs:
            for scheme in SchemeId:
                e = run(prog, CFG, scheme, image=image)
                ns = nospec(prog, CFG, scheme, image=image)
                assert e.serialize() == ns.serialize(), scheme
                assert op_stamps(e) == op_stamps(ns), scheme
                assert e.occupancy == ns.occupancy, scheme
                assert [r.key() for r in e.pattern] == [r.key() for r in ns.pattern], scheme

    def test_nospec_oracle_of_squash_free_program_is_the_run_itself(self):
        bench = gen_branch_dense(seed=9)
        e = run(bench.program, CFG, SchemeId.UNSAFE, image=bench.image)
        ns = nospec(bench.program, CFG, SchemeId.UNSAFE, image=bench.image)
        assert [r.key() for r in e.pattern] == [r.key() for r in ns.pattern]
        assert e.serialize() == ns.serialize()


class TestCheckDifferential:
    def test_attack_program_violated_under_vulnerable_scheme(self):
        plan = plan_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.DOM_NONTSO, CFG)
        res = check_ideal_differential(plan.program, CFG, SchemeId.DOM_NONTSO, plan.image, plan.script)
        # Witness: the victim/reference pair swaps.
        resolver, victim, reference = (
            (line, "victim", "fill") for line in (LAY.resolver_line, LAY.victim_line, LAY.reference_line)
        )
        assert res == CheckResult(
            False, 1, [resolver, victim, reference], [resolver, reference, victim], "{'s0': 0}", "{'s0': 1}"
        )
        assert not res

    def test_attack_program_holds_under_nointerference(self):
        plan = plan_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.NOINTERFERENCE, CFG)
        assert check_ideal_differential(plan.program, CFG, SchemeId.NOINTERFERENCE, plan.image, plan.script).holds

    @pytest.mark.parametrize(
        "scheme, runs",
        [
            # The fence keeps the wrong-path secret load from ever issuing,
            # so one run decides: every secret runs the same.
            (SchemeId.FENCE_SPECTRE, 1),
            (SchemeId.FENCE_FUTURISTIC, 1),
            # The secret is read (invisibly), so both secrets are run.
            (SchemeId.NOINTERFERENCE, 2),
        ],
    )
    def test_unread_secret_costs_one_run(self, monkeypatch, scheme, runs):
        calls = []

        def counting(*args, **kw):
            calls.append(args)
            return run(*args, **kw)

        monkeypatch.setattr(seccheck, "run", counting)
        plan = plan_attack(Gadget.NPEU, Ordering.VDAD, scheme, CFG)
        assert check_ideal_differential(plan.program, CFG, scheme, plan.image, plan.script).holds
        assert len(calls) == runs

    def test_no_secrets_holds_vacuously(self):
        p = prog_of(MicroOp(0, OpKind.ALU))
        assert check_ideal_differential(p, CFG, SchemeId.UNSAFE).holds

    def test_correct_path_secret_load_rejected(self):
        p = MicroProgram(
            ops=[MicroOp(0, OpKind.LOAD, addr=SecretDep(LAY.victim_line, "s0"))],
            secret_slots={"s0": 0},
        )
        with pytest.raises(ValueError):
            check_ideal_differential(p, CFG, SchemeId.UNSAFE)

    def test_soundness_coupling_with_run_attack(self):
        # Decodable above chance at zero noise iff the differential check
        # is violated, for a sample of cells either way.
        from specsim.attacks import run_attack

        cases = [
            (Gadget.NPEU, Ordering.VDAD, SchemeId.MUONTRAP, True),
            (Gadget.MSHR, Ordering.VDAD, SchemeId.DOM_NONTSO, False),
            (Gadget.RS, Ordering.VIAD, SchemeId.INVISISPEC_FUTURISTIC, True),
            (Gadget.RS, Ordering.VIAD, SchemeId.SAFESPEC_WFB, False),
        ]
        bits = [0, 1] * 8
        for gadget, ordering, scheme, vulnerable in cases:
            params = calibrate_for_matrix(gadget, ordering, [scheme], CFG)[scheme].params
            res = run_attack(gadget, ordering, scheme, bits, 1, 0.0, seed=3, cfg=CFG, params=params)
            decodes = res.error_rate < 0.25
            plan = plan_attack(gadget, ordering, scheme, CFG, params)
            diff = check_ideal_differential(plan.program, CFG, scheme, plan.image, plan.script)
            assert decodes == vulnerable
            assert diff.holds == (not vulnerable)


class TestBenchmarks:
    def test_suite_programs_are_squash_free(self):
        for bench in synth_suite(seed=5):
            t = run(bench.program, CFG, SchemeId.UNSAFE, image=bench.image)
            assert not any(r[1] == "squash" for r in t.records), bench.name

    def test_fence_overhead_ordering(self):
        rep = bench_overhead(synth_suite(seed=3), CFG, [SchemeId.FENCE_SPECTRE, SchemeId.FENCE_FUTURISTIC])
        fs, ff = rep.geomean(SchemeId.FENCE_SPECTRE), rep.geomean(SchemeId.FENCE_FUTURISTIC)
        assert ff > fs > 1.0
        assert rep.slowdowns["branch_dense"][SchemeId.FENCE_SPECTRE.value] > 1.05

    def test_straight_line_alu_fence_spectre_is_free(self):
        bench = gen_alu_dense(seed=3)
        rep = bench_overhead([bench], CFG, [SchemeId.FENCE_SPECTRE])
        assert rep.slowdowns["alu_dense"][SchemeId.FENCE_SPECTRE.value] == pytest.approx(1.0)

    def test_load_chain_fence_futuristic_slows(self):
        bench = gen_load_chain(seed=3)
        rep = bench_overhead([bench], CFG, [SchemeId.FENCE_FUTURISTIC])
        assert rep.slowdowns["load_chain"][SchemeId.FENCE_FUTURISTIC.value] > 1.0

    def test_runs_each_engine_behaviour_once(self, monkeypatch):
        # A scheme reuses the first run that serves it (schemes.serves). A
        # marked fetch at op 0 is held by no fetch shadow, so the
        # fetch-shadow schemes still share runs with the InvisiSpec pair;
        # one at op 89 is held by both shadows in use, which tells every
        # scheme apart.
        suite = synth_suite(seed=1)
        first = suite[0].program
        held = {0: frozenset(), 89: frozenset({ShadowRule.BRANCH, ShadowRule.FUTURISTIC})}
        for op_id in held:
            fetching = replace(first, ops=[replace(op, iline=800_000) if op.id == op_id else op for op in first.ops])
            suite.append(Benchmark(f"fetching{op_id}", fetching, suite[0].image))
        schemes = list(SchemeId)
        programs = []

        def counting(program, *args, **kw):
            programs.append(program)
            return run(program, *args, **kw)

        monkeypatch.setattr(seccheck, "run", counting)
        report = bench_overhead(suite, CFG, schemes)
        for bench, runs in zip(suite, (8, 8, 8, 8, 8, 10)):
            assert sum(p is bench.program for p in programs) == runs, bench.name
        for bench, shadowed in zip(suite[4:], held.values()):
            assert run(bench.program, CFG, SchemeId.UNSAFE, image=bench.image).fetch_shadowed == shadowed
        slowdowns, baselines = {}, {}
        for bench in suite:
            base = baselines[bench.name] = run(bench.program, CFG, SchemeId.UNSAFE, image=bench.image).total_cycles
            slowdowns[bench.name] = {
                s.value: run(bench.program, CFG, s, image=bench.image).total_cycles / base for s in schemes
            }
        assert report.csv_lines() == OverheadReport(slowdowns, baselines).csv_lines()

    def test_slowdown_at_least_one_for_fence_schemes(self):
        rep = bench_overhead(synth_suite(seed=7), CFG, [SchemeId.FENCE_SPECTRE, SchemeId.FENCE_FUTURISTIC])
        for per in rep.slowdowns.values():
            for ratio in per.values():
                assert ratio >= 1.0


class TestCalibrate:
    def test_npeu_under_dom_finds_positive_gap(self):
        cal = calibrate(Gadget.NPEU, Ordering.VDAD, SchemeId.DOM_NONTSO, CFG)
        assert cal.feasible
        assert cal.params.reference_offset > 0

    def test_single_mshr_is_infeasible(self):
        cal = calibrate(Gadget.MSHR, Ordering.VDAD, SchemeId.INVISISPEC_SPECTRE, CFG, base=AttackParams(m=1))
        assert not cal.feasible
        assert any("rejected" in line for line in cal.trace)

    def test_blocked_scheme_reports_sweep_trace(self):
        cal = calibrate(Gadget.MSHR, Ordering.VDAD, SchemeId.DOM_NONTSO, CFG)
        assert not cal.feasible
        assert cal.trace  # the sweep is reported

    def test_rs_frontend_stall_differential(self):
        cal = calibrate(Gadget.RS, Ordering.VIAD, SchemeId.DOM_NONTSO, CFG)
        assert cal.feasible


def own_params(gadget, ordering, scheme) -> AttackParams:
    """Distinct parameters per sender and scheme, so a test can tell whose
    calibration a cell received."""
    return AttackParams(
        z_len=list(Gadget).index(gadget) + 1,
        g_len=list(Ordering).index(ordering) + 1,
        reference_offset=list(SchemeId).index(scheme) + 1,
    )


def params_of(senders) -> dict:
    """The parameters of each calibrated sender, by scheme."""
    return {scheme: plan.params for scheme, plan in senders.items()}


class ScriptedCalibrate:
    """Stands in for seccheck.calibrate, the search calibrate_for_matrix
    runs: feasible exactly for the scripted (gadget, ordering, scheme)
    triples, counting every call; builds and simulates nothing."""

    def __init__(self, feasible):
        self.feasible = set(feasible)
        self.calls = []

    def __call__(self, gadget, ordering, scheme, cfg=None, base=None, memo=None):
        self.calls.append((gadget, ordering, scheme))
        if (gadget, ordering, scheme) in self.feasible:
            return Calibration(True, own_params(gadget, ordering, scheme))
        return Calibration(False, None)

    def count(self, gadget, ordering, scheme):
        return self.calls.count((gadget, ordering, scheme))


class TestMatrixFallback:
    G, O = Gadget.NPEU, Ordering.VDAD
    A, B = SchemeId.DOM_NONTSO, SchemeId.MUONTRAP

    def test_own_params_then_unsafe_then_defaults(self, monkeypatch):
        fake = ScriptedCalibrate({(self.G, self.O, self.A), (self.G, self.O, SchemeId.UNSAFE)})
        monkeypatch.setattr(seccheck, "calibrate", fake)
        got = params_of(calibrate_for_matrix(self.G, self.O, [self.A, self.B], CFG))
        assert got == {
            self.A: own_params(self.G, self.O, self.A),
            self.B: own_params(self.G, self.O, SchemeId.UNSAFE),
        }
        fake.feasible.discard((self.G, self.O, SchemeId.UNSAFE))
        got = params_of(calibrate_for_matrix(self.G, self.O, [self.A, self.B], CFG))
        assert got == {self.A: own_params(self.G, self.O, self.A), self.B: AttackParams()}

    def test_every_scheme_feasible_skips_unsafe(self, monkeypatch):
        fake = ScriptedCalibrate({(self.G, self.O, self.A), (self.G, self.O, self.B)})
        monkeypatch.setattr(seccheck, "calibrate", fake)
        calibrate_for_matrix(self.G, self.O, [self.A, self.B], CFG)
        assert fake.calls == [(self.G, self.O, self.A), (self.G, self.O, self.B)]

    def test_unsafe_alone_calibrates_once(self, monkeypatch):
        fake = ScriptedCalibrate(set())
        monkeypatch.setattr(seccheck, "calibrate", fake)
        got = params_of(calibrate_for_matrix(self.G, self.O, [SchemeId.UNSAFE], CFG))
        assert got == {SchemeId.UNSAFE: AttackParams()}
        assert fake.calls == [(self.G, self.O, SchemeId.UNSAFE)]

    def test_data_side_sender_runs_once_per_behaviour(self, monkeypatch):
        # npeu/vdad has no marked fetch, so safespec-wfb and muontrap run as
        # invisispec-spectre and invisispec-futuristic do: their searches
        # read those schemes' runs from the memo and make none.
        searches = RecordingCalibrate()
        monkeypatch.setattr(seccheck, "calibrate", searches)
        monkeypatch.setattr(attacks, "run", searches.count_runs)
        got = params_of(calibrate_for_matrix(self.G, self.O, MATRIX_SCHEMES, CFG))
        assert [s for s, _ in searches.calls] == list(MATRIX_SCHEMES)
        assert [s for s, n in searches.runs.items() if n] == [
            SchemeId.INVISISPEC_SPECTRE,
            SchemeId.INVISISPEC_FUTURISTIC,
            SchemeId.DOM_NONTSO,
        ]
        assert got[SchemeId.SAFESPEC_WFB] == got[SchemeId.INVISISPEC_SPECTRE]
        assert got[SchemeId.MUONTRAP] == got[SchemeId.INVISISPEC_FUTURISTIC]

    def test_marked_fetch_sender_searches_every_scheme(self, monkeypatch):
        fake = ScriptedCalibrate({(self.G, Ordering.VIAD, s) for s in MATRIX_SCHEMES})
        monkeypatch.setattr(seccheck, "calibrate", fake)
        got = params_of(calibrate_for_matrix(self.G, Ordering.VIAD, MATRIX_SCHEMES, CFG))
        assert fake.calls == [(self.G, Ordering.VIAD, s) for s in MATRIX_SCHEMES]
        assert got == {s: own_params(self.G, Ordering.VIAD, s) for s in MATRIX_SCHEMES}

    def test_matrix_calibrates_unsafe_at_most_once_per_sender(self, monkeypatch):
        # Feasibility is scripted per behaviour class, since the engine
        # cannot tell a class's schemes apart. NPEU: DOM_NONTSO's class
        # needs the fallback. MSHR: every class does, and the unprotected
        # search succeeds only for the attacker orderings. RS: every class
        # has its own calibration.
        cells = {
            (g, o, s)
            for g in Gadget
            for group in MATRIX_GROUPS
            if REFERENCE_VULNERABLE[(g, group)] is not None
            for s in MATRIX_SCHEMES
            for o in group_orderings(group, s)
        }

        def behaviour(g, o, s):
            # The spec, less the fetch shadow a sender with no marked fetch
            # never reads: schemes alike here share every run.
            spec = scheme_spec(s)
            return spec if marks_fetch(g, o) else replace(spec, fetch_shadow=None)

        feasible_classes = {
            (g, o, behaviour(g, o, s))
            for g, o, s in cells
            if g is Gadget.RS or (g is Gadget.NPEU and s is not SchemeId.DOM_NONTSO)
        }
        feasible_classes |= {(g, o, behaviour(g, o, SchemeId.UNSAFE)) for g, o, _ in cells if g is Gadget.NPEU}
        feasible_classes |= {
            (Gadget.MSHR, o, behaviour(Gadget.MSHR, o, SchemeId.UNSAFE)) for o in (Ordering.VDAD, Ordering.VIAD)
        }
        fake = ScriptedCalibrate(
            {(g, o, s) for g, o, _ in cells for s in SchemeId if (g, o, behaviour(g, o, s)) in feasible_classes}
        )
        monkeypatch.setattr(seccheck, "calibrate", fake)
        got = matrix_calibrations(CFG, MATRIX_SCHEMES)
        assert set(got) == cells
        defaults = 0
        senders = {(g, o) for g, o, _ in cells}
        for g, o in senders:
            schemes = [s for s in MATRIX_SCHEMES if (g, o, s) in cells]
            needs_fallback = any((g, o, s) not in fake.feasible for s in schemes)
            calls = [s for gg, oo, s in fake.calls if (gg, oo) == (g, o)]
            assert calls == [*schemes, *[SchemeId.UNSAFE] * needs_fallback]
            for s in schemes:
                if (g, o, s) in fake.feasible:
                    assert got[(g, o, s)].params == own_params(g, o, s)
                elif (g, o, SchemeId.UNSAFE) in fake.feasible:
                    assert got[(g, o, s)].params == own_params(g, o, SchemeId.UNSAFE)
                else:
                    assert got[(g, o, s)].params == AttackParams()
                    defaults += 1
        assert defaults > 0
        assert 0 < sum(fake.count(g, o, SchemeId.UNSAFE) for g, o in senders) < len(senders)

    def test_matrix_builds_each_candidate_sender_once(self, monkeypatch):
        # Every behaviour's search and the unsafe fallback share one build
        # of each candidate; a build per search made 372.
        builds = []
        real = attacks.build_attack_program

        def counting(ordering, gadget, cfg, params=None):
            builds.append((gadget, ordering, params))
            return real(ordering, gadget, cfg, params)

        monkeypatch.setattr(attacks, "build_attack_program", counting)
        matrix_calibrations(CFG, MATRIX_SCHEMES)
        assert len(builds) == len(set(builds)) == 143


class RecordingCalibrate:
    """Wraps seccheck.calibrate, recording each search's scheme and result
    and, through count_runs in place of attacks.run, the runs it made."""

    def __init__(self):
        self.real = seccheck.calibrate
        self.real_run = attacks.run
        self.calls = []
        self.runs: dict[SchemeId, int] = {}

    def __call__(self, gadget, ordering, scheme, *args, **kw):
        self.runs.setdefault(scheme, 0)
        cal = self.real(gadget, ordering, scheme, *args, **kw)
        self.calls.append((scheme, cal))
        return cal

    def count_runs(self, program, cfg, scheme, **kw):
        self.runs[scheme] += 1
        return self.real_run(program, cfg, scheme, **kw)


class TestSearchSharing:
    def test_a_search_whose_runs_serve_a_scheme_is_its_search(self, monkeypatch):
        # npeu/vivd: no fetch shadow holds the marked fetch in any run of
        # the InvisiSpec searches, so the searches of safespec-wfb and
        # muontrap, which differ from them only in that shadow, read every
        # run from the memo, make none, and come out as fresh searches do.
        searches = RecordingCalibrate()
        monkeypatch.setattr(seccheck, "calibrate", searches)
        monkeypatch.setattr(attacks, "run", searches.count_runs)
        got = params_of(calibrate_for_matrix(Gadget.NPEU, Ordering.VIVD, MATRIX_SCHEMES, CFG))
        assert [s for s, _ in searches.calls] == [*MATRIX_SCHEMES, SchemeId.UNSAFE]
        assert [s for s, n in searches.runs.items() if n] == [
            SchemeId.INVISISPEC_SPECTRE,
            SchemeId.INVISISPEC_FUTURISTIC,
            SchemeId.DOM_NONTSO,
            SchemeId.UNSAFE,
        ]
        searched = dict(searches.calls)
        monkeypatch.undo()
        for scheme, served_by in ((SchemeId.SAFESPEC_WFB, SchemeId.INVISISPEC_SPECTRE),
                                  (SchemeId.MUONTRAP, SchemeId.INVISISPEC_FUTURISTIC)):
            fresh = calibrate(Gadget.NPEU, Ordering.VIVD, scheme, CFG)
            assert searched[scheme] == searched[served_by] == fresh
            assert got[scheme] == got[served_by]

    def test_a_fetch_shadow_that_holds_the_marked_line_searches_again(self, monkeypatch):
        # rs/viad: the BRANCH fetch shadow holds the marked line, which is
        # the verdict under safespec-wfb and muontrap, so their searches run.
        searches = RecordingCalibrate()
        monkeypatch.setattr(seccheck, "calibrate", searches)
        monkeypatch.setattr(attacks, "run", searches.count_runs)
        calibrate_for_matrix(Gadget.RS, Ordering.VIAD, MATRIX_SCHEMES, CFG)
        assert searches.runs[SchemeId.SAFESPEC_WFB] and searches.runs[SchemeId.MUONTRAP]
        plan = plan_attack(Gadget.RS, Ordering.VIAD, SchemeId.INVISISPEC_SPECTRE, CFG)
        assert ShadowRule.BRANCH in plan.summary(0).fetch_shadowed


class TestSharedBuilds:
    def test_shared_builds_give_the_calibration_of_a_fresh_search(self, monkeypatch):
        # mshr/vdad is feasible unprotected and infeasible under dom-nontso,
        # whose sweep starts from a candidate the first search built. The
        # memo's candidates are never run themselves.
        memo = RunMemo(Gadget.MSHR, Ordering.VDAD, CFG)
        for scheme, feasible in ((SchemeId.UNSAFE, True), (SchemeId.DOM_NONTSO, False)):
            got = calibrate(Gadget.MSHR, Ordering.VDAD, scheme, CFG, memo=memo)
            fresh = calibrate(Gadget.MSHR, Ordering.VDAD, scheme, CFG)
            assert got.feasible is feasible
            assert got == fresh
        assert memo.plans and memo.summaries
        for plan in memo.plans.values():
            assert plan.memo is None and plan.outcome_cache == {}
        # A second search under a scheme reads all of its runs.
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        assert calibrate(Gadget.MSHR, Ordering.VDAD, SchemeId.DOM_NONTSO, CFG, memo=memo) == fresh
        assert runs.bits == []

    @pytest.mark.parametrize(
        "gadget, ordering, cfg",
        [
            (Gadget.NPEU, Ordering.VDAD, CFG),
            (Gadget.MSHR, Ordering.VIAD, CFG),
            (Gadget.MSHR, Ordering.VDAD, MachineConfig(geometry=replace(LAY.geometry, lat_mem=300))),
        ],
    )
    def test_a_memo_of_another_sender_or_config_is_refused(self, gadget, ordering, cfg, monkeypatch):
        # A memo files its runs by parameters and bit alone, so a search of
        # another sender would read runs of other inputs.
        memo = RunMemo(gadget, ordering, cfg)
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        with pytest.raises(ValueError, match="run memo is of another sender or config than mshr/vdad"):
            calibrate(Gadget.MSHR, Ordering.VDAD, SchemeId.UNSAFE, CFG, memo=memo)
        assert memo.plans == memo.summaries == {} and runs.bits == []
        # An equal config is the same sender.
        own = RunMemo(Gadget.MSHR, Ordering.VDAD, MachineConfig())
        assert calibrate(Gadget.MSHR, Ordering.VDAD, SchemeId.UNSAFE, CFG, memo=own).feasible


class TestBenchmarkSeam:
    def test_calibration_layer_sees_every_matrix_search(self, monkeypatch):
        # The benchmark traces calibration by wrapping seccheck.calibrate;
        # a matrix search that went around that name would read 0 there.
        monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
        import layers
        from recorder import Recorder

        names = ("pipeline", "microprog", "attacks", "seccheck")
        m = SimpleNamespace(**{n: importlib.import_module(f"specsim.{n}") for n in names})
        rec = Recorder()
        layers.install(m, rec)
        try:
            calibrate_for_matrix(Gadget.RS, Ordering.VIAD, [SchemeId.DOM_NONTSO], CFG)
        finally:
            rec.restore()
        assert len(rec.named(layers.CALIBRATE)) == 1
        runs = rec.named(layers.RUN)
        assert runs and all(s.attrs["in_calibrate"] for s in runs)


class CountingRun:
    """Wraps attacks.run, recording the secret bit of every victim run."""

    def __init__(self):
        self.real = attacks.run
        self.bits = []

    def __call__(self, program, cfg, scheme, **kw):
        self.bits.append(kw["secrets"]["s0"])
        return self.real(program, cfg, scheme, **kw)


class TestOrderFlip:
    def test_reference_first_bit0_makes_one_run(self, monkeypatch):
        # npeu/vivd at default parameters: bit 0 already sees the reference
        # line first under every searched scheme, so no bit-1 order can flip.
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        for scheme in (*MATRIX_SCHEMES, SchemeId.UNSAFE):
            runs.bits.clear()
            plan = plan_attack(Gadget.NPEU, Ordering.VIVD, scheme, CFG, AttackParams())
            assert not seccheck._order_flip(plan)
            assert runs.bits == [0], scheme

    def test_anchor_before_secret_read_makes_one_run(self, monkeypatch):
        # mshr/vdvd with a 60-op reference chain: bit 0 reaches the anchor
        # at cycle 25, before the secret is first read at cycle 75, so bit 1
        # reaches it first too and cannot flip the order.
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        plan = plan_attack(Gadget.MSHR, Ordering.VDVD, SchemeId.UNSAFE, CFG, AttackParams(g_len=60))
        assert not seccheck._order_flip(plan)
        assert runs.bits == [0]
        assert seccheck._anchor_cycle(plan, 0) == 25 and plan.summary(0).secret_read_cycle == 75

    def test_anchor_first_bit0_runs_bit1(self, monkeypatch):
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        plan = plan_attack(Gadget.NPEU, Ordering.VDVD, SchemeId.UNSAFE, CFG, AttackParams())
        assert seccheck._order_flip(plan)
        assert runs.bits == [0, 1]


class TestRsFetchOutcome:
    @pytest.mark.parametrize("scheme", [SchemeId.FENCE_SPECTRE, SchemeId.FENCE_FUTURISTIC])
    def test_unread_secret_makes_one_run(self, monkeypatch, scheme):
        # The fence keeps the wrong-path secret load from issuing, so bit 1
        # runs as bit 0 does and fetches what bit 0 fetched.
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        cal = calibrate(Gadget.RS, Ordering.VIAD, scheme, CFG)
        assert not cal.feasible
        assert cal.trace == ["rs fetch outcomes: bit0=False bit1=False"]
        assert runs.bits == [0]

    def test_read_secret_runs_bit1(self, monkeypatch):
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        assert calibrate(Gadget.RS, Ordering.VIAD, SchemeId.DOM_NONTSO, CFG).feasible
        assert runs.bits == [0, 1]


class TestInterferenceGap:
    def test_gap_positive_and_deterministic(self):
        g1a, g2a = interference_gap(CFG)
        g1b, g2b = interference_gap(CFG)
        assert (g1a, g2a) == (g1b, g2b)
        assert g1a > 0 and g2a > 0

    def test_times_the_calibrated_sender_from_the_search_runs(self, monkeypatch):
        # Bits 1 and 0 of the calibrated sender are read from the search's
        # run memo, so the only victim runs are the search's.
        runs = CountingRun()
        monkeypatch.setattr(attacks, "run", runs)
        calibrate(Gadget.NPEU, Ordering.VDAD, SchemeId.DOM_NONTSO, CFG)
        searched, runs.bits = runs.bits, []
        interference_gap(CFG)
        assert runs.bits == searched


class TestRandomCorpus:
    def test_programs_valid_and_runnable(self):
        for seed in range(40):
            prog, image = gen_random_program(seed)
            t = run(prog, CFG, SchemeId.UNSAFE, image=image)
            assert t.total_cycles >= 0

    def test_fence_futuristic_holds_on_sample(self):
        for seed in range(60):
            prog, image = gen_random_program(seed)
            assert check_ideal(prog, CFG, SchemeId.FENCE_FUTURISTIC, image=image).holds
