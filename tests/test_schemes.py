"""Scheme policy tests: shadow rules, protected-load handling, fences,
the advanced no-interference defense, and which schemes the engine can
tell apart."""

import itertools
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from specsim.machine import MachineConfig
from specsim.memhier import CacheImage, Level
from specsim.attacks import plan_attack
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
    build_attack_program,
    constructible,
    marks_fetch,
    parse_program,
)
from specsim.attacks import MATRIX_SCHEMES
from specsim.pipeline import NEVER, _Engine, run
from specsim.seccheck import gen_random_program
from specsim.schemes import (
    FETCH_SHADOWS,
    FenceModel,
    SchemeId,
    SchemeSpec,
    ShadowRule,
    ShadowState,
    insert_fences,
    scheme_spec,
    serves,
)

from test_corpus_digests import corner_config, op_stamps, reference_run

CFG = MachineConfig()
LAY = AttackLayout(CFG.geometry)


def prog_of(*ops, secrets=None):
    return MicroProgram(ops=ops, secret_slots=secrets or {})


def access_cycle(t, op_id: int) -> int:
    """Cycle of the op's first LLC access in the event log."""
    return next(c for c, name, op, _ in t.records if name == "l2access" and op == op_id)


def shadowed_load(load_level: Level) -> tuple[MicroProgram, CacheImage, int]:
    """A load in the shadow of a slow, correctly-predicted branch."""
    ops = [
        MicroOp(0, OpKind.LOAD, addr=Literal(LAY.resolver_line)),
        MicroOp(1, OpKind.BRANCH, branch=BranchInfo(True, True, resolver=0, join=2)),
        MicroOp(2, OpKind.LOAD, addr=Literal(900)),
    ]
    image = CacheImage(scripts={LAY.resolver_line: Level.MEMMISS, 900: load_level})
    return prog_of(*ops), image, 2


class TestShadowState:
    def test_rules(self):
        # A fence follows the load, and only the load.
        st = ShadowState(tuple(i == 3 for i in range(11)))
        load = MicroOp(3, OpKind.LOAD, addr=Literal(900))
        st.open(load)
        st.open(MicroOp(8, OpKind.STORE_ADDR))
        st.open(MicroOp(10, OpKind.BRANCH, branch=BranchInfo(True, True, resolver=None, join=11)))
        assert st.oldest_open_fence == 3
        assert st.safe(ShadowRule.ALWAYS_SAFE, 99)
        assert st.safe(ShadowRule.BRANCH, 10) and not st.safe(ShadowRule.BRANCH, 11)
        # Loads cast no shadow under the weak-consistency rule, stores do.
        assert st.safe(ShadowRule.NONTSO, 8) and not st.safe(ShadowRule.NONTSO, 9)
        assert st.safe(ShadowRule.OLDEST_LOAD, 3) and not st.safe(ShadowRule.OLDEST_LOAD, 4)
        assert not st.safe(ShadowRule.FUTURISTIC, 9)
        assert st.safe(ShadowRule.FUTURISTIC, 3)
        assert st.settle(load) and st.oldest_open_fence is None


class TestProtectedLoads:
    def test_unsafe_scheme_never_protects(self):
        prog, image, load = shadowed_load(Level.MEMMISS)
        t = run(prog, CFG, SchemeId.UNSAFE, image=image)
        # Visible access happens at issue, long before the branch resolves.
        access = access_cycle(t, load)
        assert access < t.times(1, "resolved")

    def test_dom_speculative_hit_forwards_with_deferred_update(self):
        prog, image, load = shadowed_load(Level.L1HIT)
        t = run(prog, CFG, SchemeId.DOM_SPECTRE, image=image)
        # Forwarded at L1 latency while still under the shadow.
        assert t.times(load, "complete") == t.times(load, "issue") + CFG.geometry.lat_l1
        assert t.times(load, "complete") < t.times(load, "safe")

    def test_dom_speculative_miss_is_delayed_until_safe(self):
        prog, image, load = shadowed_load(Level.MEMMISS)
        t = run(prog, CFG, SchemeId.DOM_SPECTRE, image=image)
        assert any(r[1:3] == ("delayed", load) for r in t.records)
        safe = t.times(load, "safe")
        assert t.times(load, "issue") >= safe  # re-executed once unprotected
        access = access_cycle(t, load)
        assert access >= safe

    def test_invisispec_miss_services_invisibly_then_validates(self):
        prog, image, load = shadowed_load(Level.MEMMISS)
        t = run(prog, CFG, SchemeId.INVISISPEC_SPECTRE, image=image)
        # Data comes back at memory latency, well before safety.
        assert t.times(load, "complete") == t.times(load, "issue") + CFG.geometry.lat_mem
        safe = t.times(load, "safe")
        assert t.times(load, "complete") < safe
        access = access_cycle(t, load)
        assert access == safe  # the visible validation fill

    def test_protection_soundness_no_visible_access_before_safe(self):
        for scheme in (
            SchemeId.DOM_SPECTRE,
            SchemeId.DOM_NONTSO,
            SchemeId.INVISISPEC_SPECTRE,
            SchemeId.INVISISPEC_FUTURISTIC,
            SchemeId.SAFESPEC_WFB,
            SchemeId.MUONTRAP,
            SchemeId.NOINTERFERENCE,
        ):
            for g, o in ((Gadget.NPEU, Ordering.VDVD), (Gadget.RS, Ordering.VIAD)):
                prog, script = build_attack_program(o, g, CFG)
                from specsim.attacks import attack_image

                image = attack_image(g, CFG)
                for bit in (0, 1):
                    t = run(prog, CFG, scheme, secrets={"s0": bit}, image=image, attacker=script)
                    for rec in t.pattern:
                        if rec.op_id is None or rec.requester != "victim":
                            continue
                        safe = t.times(rec.op_id, "safe")
                        fetch_entry = any(
                            name == "l2access" and op == rec.op_id and "fetch" in extra
                            for _, name, op, extra in t.records
                        )
                        if not fetch_entry:
                            assert safe != NEVER and rec.cycle >= safe

    def test_shadow_monotonicity_once_safe_stays_safe(self):
        prog, image, load = shadowed_load(Level.MEMMISS)
        for scheme in (SchemeId.DOM_SPECTRE, SchemeId.INVISISPEC_FUTURISTIC):
            t = run(prog, CFG, scheme, image=image)
            safes = [r for r in t.records if r[1:3] == ("safe", load)]
            assert len(safes) == 1

    def test_oldest_load_rule_serializes_visible_accesses(self):
        # Two independent loads; the younger is ready first but must wait
        # for the older one before its access goes visible.
        ops = [
            MicroOp(0, OpKind.ALU),
            MicroOp(1, OpKind.ALU, src_deps=(0,)),
            MicroOp(2, OpKind.ALU, src_deps=(1,)),
            MicroOp(3, OpKind.LOAD, src_deps=(2,), addr=Literal(LAY.victim_line)),
            MicroOp(4, OpKind.LOAD, addr=Literal(LAY.reference_line)),
        ]
        prog = prog_of(*ops)
        t_unsafe = run(prog, CFG, SchemeId.UNSAFE)
        t_fut = run(prog, CFG, SchemeId.INVISISPEC_FUTURISTIC)
        order = lambda t: [r.line for r in t.pattern]
        assert order(t_unsafe) == [LAY.reference_line, LAY.victim_line]
        assert order(t_fut) == [LAY.victim_line, LAY.reference_line]

    def test_dom_nontso_gates_on_store_addresses(self):
        ops = [
            MicroOp(0, OpKind.ALU),
            MicroOp(1, OpKind.ALU, src_deps=(0,)),
            MicroOp(2, OpKind.ALU, src_deps=(1,)),
            MicroOp(3, OpKind.STORE_ADDR, src_deps=(2,)),
            MicroOp(4, OpKind.LOAD, addr=Literal(901)),
        ]
        image = CacheImage(scripts={901: Level.MEMMISS})
        t = run(prog_of(*ops), CFG, SchemeId.DOM_NONTSO, image=image)
        # The load misses while the older store address is unresolved:
        # delayed until the store-addr op completes.
        assert t.times(4, "safe") > t.times(3, "complete") - 1
        access = access_cycle(t, 4)
        assert access >= t.times(3, "complete")


class TestFences:
    def test_spectre_model_fences_branches_only(self):
        prog, _ = build_attack_program(Ordering.VDVD, Gadget.NPEU, CFG)
        fenced = insert_fences(prog, FenceModel.SPECTRE)
        for op in fenced.ops:
            assert op.fence_after == (op.kind is OpKind.BRANCH)

    def test_futuristic_model_fences_branches_and_loads(self):
        prog, _ = build_attack_program(Ordering.VDVD, Gadget.NPEU, CFG)
        fenced = insert_fences(prog, FenceModel.FUTURISTIC)
        for op in fenced.ops:
            assert op.fence_after == (op.kind in (OpKind.BRANCH, OpKind.LOAD))

    def test_branchless_loadless_program_unchanged(self):
        prog = prog_of(MicroOp(0, OpKind.ALU), MicroOp(1, OpKind.NPEU))
        fenced = insert_fences(prog, FenceModel.FUTURISTIC)
        assert fenced.ops == prog.ops

    def test_idempotent(self):
        prog, _ = build_attack_program(Ordering.VDVD, Gadget.NPEU, CFG)
        once = insert_fences(prog, FenceModel.FUTURISTIC)
        twice = insert_fences(once, FenceModel.FUTURISTIC)
        assert once.ops == twice.ops

    def test_fence_completeness_no_issue_under_unresolved_shadow(self):
        # Per-cycle audit: under the all-squash-sources fence model no op
        # issues while any older branch is unresolved or older load
        # incomplete.
        prog, _ = build_attack_program(Ordering.VDVD, Gadget.NPEU, CFG)
        from specsim.attacks import attack_image

        t = run(prog, CFG, SchemeId.FENCE_FUTURISTIC, secrets={"s0": 1}, image=attack_image(Gadget.NPEU, CFG))
        stamps = op_stamps(t)
        issue_cycle = {i: times.get("issue") for i, times in stamps.items()}
        for i, op in enumerate(prog.ops):
            if issue_cycle[i] in (None, NEVER):
                continue
            for j in range(i):
                older = prog.ops[j]
                tj = stamps[j]
                if older.kind is OpKind.BRANCH and tj["resolved"] != NEVER:
                    assert tj["resolved"] <= issue_cycle[i]
                if older.kind is OpKind.LOAD and tj["complete"] != NEVER:
                    assert tj["complete"] <= issue_cycle[i]

    def test_wrong_path_never_issues_under_fences(self):
        prog, _ = build_attack_program(Ordering.VDVD, Gadget.NPEU, CFG)
        from specsim.attacks import attack_image

        for model in (SchemeId.FENCE_SPECTRE, SchemeId.FENCE_FUTURISTIC):
            t = run(prog, CFG, model, secrets={"s0": 1}, image=attack_image(Gadget.NPEU, CFG))
            for i in set(range(len(prog.ops))).difference(prog.actual_path):
                assert t.times(i, "issue") == NEVER


class TestNoInterference:
    def test_lookahead_stalls_younger_npeu_op(self):
        # Older NPEU op turns ready inside the younger op's occupancy
        # window: the younger op must wait.
        ops = [
            MicroOp(0, OpKind.ALU),
            MicroOp(1, OpKind.ALU, src_deps=(0,)),
            MicroOp(2, OpKind.NPEU, src_deps=(1,)),
            MicroOp(3, OpKind.NPEU),
        ]
        t = run(prog_of(*ops), CFG, SchemeId.NOINTERFERENCE)
        assert t.times(2, "issue") < t.times(3, "issue")

    def test_all_safe_reduces_to_age_order(self):
        # Without speculation the directives reduce to plain age-ordered
        # issue: same timestamps as the unsafe machine.
        ops = [
            MicroOp(0, OpKind.NPEU),
            MicroOp(1, OpKind.NPEU),
            MicroOp(2, OpKind.ALU),
        ]
        t_unsafe = run(prog_of(*ops), CFG, SchemeId.UNSAFE)
        t_ni = run(prog_of(*ops), CFG, SchemeId.NOINTERFERENCE)
        for i in range(3):
            assert t_unsafe.times(i, "issue") == t_ni.times(i, "issue")

    def test_npeu_attack_timing_invariant_across_secrets(self):
        prog = build_attack_program(Ordering.VDAD, Gadget.NPEU, CFG)[0]
        from specsim.attacks import attack_image

        image = attack_image(Gadget.NPEU, CFG)
        victim = prog.role_ops("victim_a")[0]
        t1 = run(prog, CFG, SchemeId.NOINTERFERENCE, secrets={"s0": 1}, image=image)
        t0 = run(prog, CFG, SchemeId.NOINTERFERENCE, secrets={"s0": 0}, image=image)
        assert t1.times(victim, "issue") == t0.times(victim, "issue")
        assert t1.times(victim, "complete") == t0.times(victim, "complete")

    def test_rs_hold_makes_occupancy_secret_invariant(self):
        prog = build_attack_program(Ordering.VIAD, Gadget.RS, CFG)[0]
        from specsim.attacks import attack_image

        image = attack_image(Gadget.RS, CFG)
        t1 = run(prog, CFG, SchemeId.NOINTERFERENCE, secrets={"s0": 1}, image=image)
        t0 = run(prog, CFG, SchemeId.NOINTERFERENCE, secrets={"s0": 0}, image=image)
        occ = lambda t: [(c, r) for c, r, _, _ in t.occupancy]
        assert occ(t1) == occ(t0)
        marker = prog.role_ops("itarget")[0]
        assert t1.times(marker, "dispatch") == t0.times(marker, "dispatch")


def test_scheme_spec_flags():
    # None: the scheme leaves speculative instruction fetches visible.
    fetch_shadow = {
        SchemeId.UNSAFE: None,
        SchemeId.DOM_SPECTRE: None,
        SchemeId.DOM_NONTSO: None,
        SchemeId.INVISISPEC_SPECTRE: None,
        SchemeId.INVISISPEC_FUTURISTIC: None,
        SchemeId.SAFESPEC_WFB: ShadowRule.BRANCH,
        SchemeId.MUONTRAP: ShadowRule.BRANCH,
        SchemeId.FENCE_SPECTRE: ShadowRule.BRANCH,
        SchemeId.FENCE_FUTURISTIC: ShadowRule.FUTURISTIC,
        SchemeId.NOINTERFERENCE: ShadowRule.FUTURISTIC,
    }
    assert {s: scheme_spec(s).fetch_shadow for s in SchemeId} == fetch_shadow
    assert scheme_spec(SchemeId.FENCE_FUTURISTIC).fence_model is FenceModel.FUTURISTIC


def data_side_runs():
    """(label, program, image, attacker, secrets) with no marked fetch:
    generated programs, and every vdvd/vdad sender with both secrets."""
    for seed in range(60):
        prog, image = gen_random_program(seed)
        yield f"random:{seed}", prog, image, None, None
    for gadget, ordering in itertools.product((Gadget.NPEU, Gadget.MSHR), (Ordering.VDVD, Ordering.VDAD)):
        plan = plan_attack(gadget, ordering, SchemeId.UNSAFE, CFG)
        for bit in (0, 1):
            yield f"{gadget.value}/{ordering.value}/{bit}", plan.program, plan.image, plan.script, {"s0": bit}


def shared_runs(shadowed: frozenset) -> list[list[SchemeId]]:
    """The schemes in classes of those whose runs reporting ``shadowed``
    serve one another (schemes.serves), in SchemeId order."""
    classes: list[list[SchemeId]] = []
    for scheme in SchemeId:
        home = next((c for c in classes if serves(scheme_spec(c[0]), scheme_spec(scheme), shadowed)), None)
        if home is None:
            classes.append([scheme])
        else:
            home.append(scheme)
    return classes


class TestEngineBehaviour:
    def test_equal_data_side_behaviour_runs_byte_identically(self):
        shared = [schemes for schemes in shared_runs(frozenset()) if len(schemes) > 1]
        assert shared
        for label, prog, image, attacker, secrets in data_side_runs():
            assert all(op.iline is None for op in prog.ops), label
            for schemes in shared:
                first, *rest = (run(prog, CFG, s, secrets=secrets, image=image, attacker=attacker) for s in schemes)
                assert first.fetch_shadowed == frozenset(), label
                for scheme, t in zip(schemes[1:], rest):
                    where = (label, schemes[0].value, scheme.value)
                    assert t.fetch_shadowed == frozenset(), where
                    assert t.serialize() == first.serialize(), where
                    assert op_stamps(t) == op_stamps(first), where
                    assert t.occupancy == first.occupancy, where
                    assert t.llc_state == first.llc_state, where
                    assert [r.key() for r in t.pattern] == [r.key() for r in first.pattern], where
                    assert t.total_cycles == first.total_cycles, where

    def test_marked_fetch_tells_every_scheme_apart(self):
        # All ten specs are distinct, so a run whose marked fetches every
        # fetch shadow would hold serves no other scheme.
        assert len({scheme_spec(s) for s in SchemeId}) == len(SchemeId)
        assert shared_runs(frozenset(FETCH_SHADOWS)) == [[s] for s in SchemeId]

    def test_behaviour_is_the_spec_less_unread_fetch_protection(self):
        # Runs with no shadowed fetch serve one another exactly when the
        # specs agree once the fetch shadow is dropped.
        classes = shared_runs(frozenset())
        assert len(classes) == 8
        assert [c for c in classes if len(c) > 1] == [
            [SchemeId.INVISISPEC_SPECTRE, SchemeId.SAFESPEC_WFB],
            [SchemeId.INVISISPEC_FUTURISTIC, SchemeId.MUONTRAP],
        ]
        home = {s: i for i, c in enumerate(classes) for s in c}
        for a, b in itertools.product(SchemeId, repeat=2):
            unread = replace(scheme_spec(a), fetch_shadow=None) == replace(scheme_spec(b), fetch_shadow=None)
            assert serves(scheme_spec(a), scheme_spec(b), frozenset()) == unread == (home[a] == home[b]), (a, b)

    def test_spec_holds_only_engine_choices(self):
        assert [f.name for f in fields(SchemeSpec)] == [
            "shadow",
            "miss_policy",
            "fetch_shadow",
            "fence_model",
            "rs_hold",
            "npeu_lookahead",
        ]

    def test_marks_fetch_matches_the_built_sender(self):
        for gadget, ordering in itertools.product(Gadget, Ordering):
            if not constructible(gadget, ordering):
                continue
            for z_len, g_len, m in itertools.product((1, 12), (0, 25), (2, None)):
                params = AttackParams(z_len=z_len, g_len=g_len, m=m)
                prog, _ = build_attack_program(ordering, gadget, CFG, params)
                has_iline = any(op.iline is not None for op in prog.ops)
                assert marks_fetch(gadget, ordering) == has_iline, (gadget, ordering, params)


def gen_fetching_program(seed: int) -> tuple[MicroProgram, CacheImage]:
    """A random corpus program (gen_random_program) with marked fetches:
    a seeded share of its ops, wrong-path ones included, fetch one of a
    few instruction lines, so some fetches repeat and hit in the L1I."""
    program, image = gen_random_program(seed)
    rng = random.Random(f"fetching:{seed}")
    share = rng.choice([0.2, 0.5, 1.0])
    lines = [810_000 + k for k in range(rng.randint(1, 4))]
    ops = [replace(op, iline=rng.choice(lines)) if rng.random() < share else op for op in program.ops]
    return replace(program, ops=ops), image


# Behaviours that differ only in the fetch shadow: each load-side choice of
# the matrix schemes, under no fetch shadow and under each one in use.
LOAD_SIDES = list(dict.fromkeys(replace(scheme_spec(s), fetch_shadow=None) for s in MATRIX_SCHEMES))
FETCH_PAIRS = [
    (replace(side, fetch_shadow=a), replace(side, fetch_shadow=b))
    for side in LOAD_SIDES
    for a, b in itertools.permutations((None, *FETCH_SHADOWS), 2)
]


def run_behaviour(program, spec, image):
    return _Engine(program, CFG, spec, None, image, None, False).run(None)


class TestFetchShadowCertificate:
    """A run reports the fetch shadows that would have held one of its
    marked fetches; under any behaviour it then serves (schemes.serves),
    a fresh run is the same run."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 100_000), pair=st.sampled_from(FETCH_PAIRS))
    def test_a_run_is_the_run_of_every_behaviour_it_serves(self, seed, pair):
        program, image = gen_fetching_program(seed)
        behaviour, other = pair
        t = run_behaviour(program, behaviour, image)
        assert t.fetch_shadowed <= set(FETCH_SHADOWS)
        if not serves(behaviour, other, t.fetch_shadowed):
            return
        u = run_behaviour(program, other, image)
        assert u.serialize() == t.serialize()
        assert op_stamps(u) == op_stamps(t)
        assert u.occupancy == t.occupancy
        assert u.llc_state == t.llc_state
        assert u.total_cycles == t.total_cycles
        assert u.secret_read_cycle == t.secret_read_cycle
        assert u.fetch_shadowed == t.fetch_shadowed

    def test_the_generator_reaches_every_case(self):
        # Some runs serve the other behaviour with a non-empty set, some
        # are held by one fetch shadow only, and some serve nothing.
        sets = [
            run_behaviour(program, LOAD_SIDES[0], image).fetch_shadowed
            for program, image in map(gen_fetching_program, range(40))
        ]
        assert frozenset() in sets
        assert frozenset({ShadowRule.FUTURISTIC}) in sets
        assert frozenset(FETCH_SHADOWS) in sets

    def test_runs_with_no_shadowed_fetch_share_one_empty_set(self):
        runs = (run(prog, CFG, SchemeId.UNSAFE, image=image) for prog, image in map(gen_random_program, (0, 1)))
        first, second = runs
        assert first.fetch_shadowed == frozenset()
        assert first.fetch_shadowed is second.fetch_shadowed

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_run_is_the_reference_run_on_fetching_programs(self, seed):
        # The phase triggers and the fetch-shadow report hold on programs
        # outside the fixed corpora, under every scheme.
        program, image = gen_fetching_program(seed)
        for scheme in SchemeId:
            got, want = (runner(program, CFG, scheme, image=image) for runner in (run, reference_run))
            assert got.records == want.records, scheme
            assert got.occupancy == want.occupancy, scheme
            assert op_stamps(got) == op_stamps(want), scheme
            assert got.llc_state == want.llc_state, scheme
            assert got.fetch_shadowed == want.fetch_shadowed, scheme

    def test_serves_needs_fetch_shadows_outside_the_set(self):
        spectre, wfb = scheme_spec(SchemeId.INVISISPEC_SPECTRE), scheme_spec(SchemeId.SAFESPEC_WFB)
        assert serves(spectre, wfb, frozenset()) and serves(wfb, spectre, frozenset())
        assert not serves(spectre, wfb, frozenset({ShadowRule.BRANCH}))
        assert serves(spectre, wfb, frozenset({ShadowRule.FUTURISTIC}))
        assert serves(wfb, wfb, frozenset(FETCH_SHADOWS))
        # The load side must match.
        assert not serves(spectre, scheme_spec(SchemeId.MUONTRAP), frozenset())


# Small machines that keep every structure near full: corner configs of
# the config corpus, drawn by seed.
CORNERS = [corner_config(random.Random(f"corner:{seed}")) for seed in range(8)]


def with_markers(program: MicroProgram, seed: int) -> MicroProgram:
    """The program with a seeded share of its non-branch ops turned into
    markers (NOPs) that keep their inputs, a load's excepted. The wrong
    path past a join may then consume a marker that was never dispatched."""
    rng = random.Random(f"markers:{seed}")
    share = rng.choice([0.15, 0.3, 0.5])
    ops = [
        replace(op, kind=OpKind.NOP, addr=None, src_deps=() if op.kind is OpKind.LOAD else op.src_deps)
        if op.kind is not OpKind.BRANCH and rng.random() < share
        else op
        for op in program.ops
    ]
    return replace(program, ops=ops)


class TestRetirement:
    """Nothing retires before it is safe, and a retired op leaves nothing
    behind: the engine keeps no check of its own for either."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000), cfg=st.sampled_from(CORNERS), markers=st.booleans())
    def test_retirement_invariants_on_fetching_programs(self, seed, cfg, markers):
        program, image = gen_fetching_program(seed)
        if markers:
            program = with_markers(program, seed)
        for scheme in SchemeId:
            t = run(program, cfg, scheme, image=image)
            for r in t.ops:
                if r.retire != NEVER and r.op.kind is not OpKind.NOP:
                    assert r.safe != NEVER and r.safe <= r.retire, (scheme, r.op.id)
            assert t.occupancy[-1][1] == 0, scheme  # no RS entry is left held
            # Each I-access (an L1I hit, or an LLC access by a fetch) follows
            # a dispatch of its op with no squash in between, and each
            # dispatch makes at most one.
            owed: dict[int, bool] = {}
            for _, name, op, x in t.records:
                if name in ("dispatch", "squash"):
                    owed[op] = name == "dispatch"
                elif name == "ifetch" or name == "l2access" and "fetch" in x:
                    assert owed.get(op), (scheme, op)
                    owed[op] = False


def gen_path_program(seed: int) -> tuple[MicroProgram, CacheImage]:
    """Programs at the edge of the liveness rule. Branch bodies may overlap,
    so the path can reach ops inside the body of a branch that it skips.
    An op on the path reads only ops on the path; an op off it reads any
    older op. Most uses read an op inside some not-taken branch's body:
    on the path, one that the path reaches past a skipped body; off the
    path, often one that no path fetches."""
    rng = random.Random(f"path:{seed}")
    lines = [710_000 + i for i in range(6)]
    image = CacheImage(scripts={line: rng.choice(list(Level)) for line in lines})
    n = rng.randint(6, 18)
    ops = [MicroOp(0, OpKind.ALU)]

    def branch(predicted: bool, actual: bool, join: int) -> None:
        ops.append(MicroOp(len(ops), OpKind.BRANCH, branch=BranchInfo(predicted, actual, None, join)))

    while len(ops) < n:
        i = len(ops)
        roll = rng.random()
        if roll < 0.15 and i + 3 < n:
            # The witness shape: op i skips op i + 1, a not-taken branch
            # whose body reaches past op i's join.
            branch(rng.random() < 0.5, False, i + 2)
            branch(rng.random() < 0.5, False, rng.randint(i + 3, min(n, i + 6)))
        elif roll < 0.35 and i + 1 < n:
            branch(rng.random() < 0.5, rng.random() < 0.5, rng.randint(i + 1, min(n, i + 5)))
        elif roll < 0.55:
            ops.append(MicroOp(i, OpKind.LOAD, addr=Literal(rng.choice(lines))))
        else:
            ops.append(MicroOp(i, rng.choice((OpKind.ALU, OpKind.ALU, OpKind.NPEU, OpKind.NOP))))
    path = set(MicroProgram(ops=ops).actual_path)
    in_body = {d for op in ops if op.branch and not op.branch.actual_taken for d in range(op.id + 1, op.branch.join)}

    def pick(i: int) -> int:
        allowed = [d for d in range(i) if d in path or i not in path]
        edge = [d for d in allowed if d in in_body]
        return rng.choice(edge if edge and rng.random() < 0.7 else allowed)

    for i, op in enumerate(ops[1:], 1):
        if op.branch is not None:
            ops[i] = replace(op, branch=replace(op.branch, resolver=pick(i)))
        elif op.kind is not OpKind.LOAD and rng.random() < 0.7:
            ops[i] = replace(op, src_deps=tuple(sorted({pick(i) for _ in range(rng.randint(1, 2))})))
    return MicroProgram(ops=ops), image


def old_rule_rejects(program: MicroProgram, on_path: bool) -> bool:
    """Whether an op on the path (or off it) uses an op inside the body of
    a not-taken branch whose join it lies past: the rule that held every
    not-taken body dead rejected each such use."""
    path = set(program.actual_path)
    for op in program.ops:
        b = op.branch
        if b is None or b.actual_taken:
            continue
        for user in program.ops[b.join :]:
            uses = (*user.src_deps, *(() if user.branch is None else (user.branch.resolver,)))
            if (user.id in path) == on_path and any(op.id < d < b.join for d in uses):
                return True
    return False


# Op 5 reads op 3, which lies in the body of branch 2, but which the path
# reaches through op 1's join. A rule that held every not-taken body dead
# rejected this program.
PAST_A_SKIPPED_BODY = """\
0 ALU deps=[]
1 BRANCH deps=[] branch=N,N,res:0,join:3
2 BRANCH deps=[] branch=T,N,res:0,join:5
3 ALU deps=[]
4 ALU deps=[]
5 ALU deps=[3]
"""


def retired(t) -> tuple[int, ...]:
    return tuple(r.op.id for r in t.ops if r.retire != NEVER)


class TestActualPath:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000), cfg=st.sampled_from(CORNERS[:2]))
    def test_the_retired_ops_are_the_actual_path(self, seed, cfg):
        program, image = gen_random_program(seed)
        for scheme in SchemeId:
            assert retired(run(program, cfg, scheme, image=image)) == program.actual_path, scheme

    def test_a_path_op_reads_an_op_the_path_reaches_past_a_skipped_body(self):
        program = parse_program(PAST_A_SKIPPED_BODY)
        assert program.actual_path == (0, 1, 3, 4, 5)
        for scheme in SchemeId:
            for force in (False, True):
                assert retired(run(program, CFG, scheme, force_correct_predictions=force)) == (0, 1, 3, 4, 5)

    def test_the_generator_makes_both_kinds_of_use(self):
        programs = [gen_path_program(seed)[0] for seed in range(40)]
        assert sum(old_rule_rejects(p, on_path=True) for p in programs) >= 5
        assert sum(old_rule_rejects(p, on_path=False) for p in programs) >= 5

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        cfg=st.sampled_from([CFG, *CORNERS[:2]]),
        force=st.booleans(),
        sampled=st.sampled_from(list(SchemeId)),
    )
    def test_every_use_the_path_keeps_runs_as_the_reference(self, seed, cfg, force, sampled):
        program, image = gen_path_program(seed)
        for scheme in SchemeId:
            t = run(program, cfg, scheme, image=image, force_correct_predictions=force, max_cycles=20_000)
            assert retired(t) == program.actual_path, scheme
            if scheme is sampled:
                want = reference_run(program, cfg, scheme, image=image, force_correct_predictions=force)
                assert t.records == want.records and op_stamps(t) == op_stamps(want), scheme
