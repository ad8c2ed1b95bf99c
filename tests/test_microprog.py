"""Program construction, validation, serialization, and gadget builders."""

import random
import re
from dataclasses import FrozenInstanceError, replace

import pytest

from specsim.machine import MachineConfig
from specsim.microprog import (
    AttackLayout,
    AttackParams,
    BranchInfo,
    ConstructionError,
    Gadget,
    Literal,
    MicroOp,
    MicroProgram,
    OpKind,
    Ordering,
    SecretDep,
    build_attack_program,
    constructible,
    format_program,
    parse_addr,
    parse_program,
)

CFG = MachineConfig()


def rejected(message: str):
    """Building the program raises ValueError with exactly this message."""
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_validate_rejects_forward_deps():
    with rejected("op 0 depends on non-older op 1"):
        MicroProgram(ops=[MicroOp(0, OpKind.ALU, src_deps=(1,)), MicroOp(1, OpKind.ALU)])


def test_validate_rejects_addr_on_non_load():
    with rejected("op 0: only LOAD carries an address"):
        MicroProgram(ops=[MicroOp(0, OpKind.ALU, addr=Literal(5))])


def test_validate_rejects_undeclared_secret():
    with rejected("op 0 references undeclared secret 'sx'"):
        MicroProgram(ops=[MicroOp(0, OpKind.LOAD, addr=SecretDep(10, "sx"))])


def test_validate_rejects_double_role():
    with rejected("op 0 carries roles gadget and target"):
        MicroProgram(
            ops=[MicroOp(0, OpKind.ALU)],
            annotations={"gadget": (0,), "target": (0,)},
        )


def test_branch_info_only_on_branches():
    with rejected("op 0: branch info iff BRANCH kind"):
        MicroProgram(ops=[MicroOp(0, OpKind.ALU, branch=BranchInfo(True, False, None, 1))])


def test_program_is_frozen_and_checked_when_derived():
    prog = MicroProgram(ops=[MicroOp(0, OpKind.ALU), MicroOp(1, OpKind.ALU, src_deps=(0,))])
    assert prog.ops == (MicroOp(0, OpKind.ALU), MicroOp(1, OpKind.ALU, src_deps=(0,)))
    with rejected("op 1 out of order at position 0"):
        replace(prog, ops=prog.ops[1:])
    with pytest.raises(FrozenInstanceError):
        prog.ops = ()


def test_program_mappings_are_read_only():
    slots = {"s0": 0}
    prog = MicroProgram(
        ops=[MicroOp(0, OpKind.LOAD, addr=SecretDep(10, "s0"))],
        secret_slots=slots,
        annotations={"victim": (0,)},
    )
    with pytest.raises(TypeError):
        prog.annotations["gadget"] = (7,)
    with pytest.raises(TypeError):
        prog.secret_slots["s0"] = 1
    slots["s1"] = 1  # the program holds its own copy
    assert dict(prog.secret_slots) == {"s0": 0}


def test_addr_expr_round_trip():
    for expr in (Literal(640), SecretDep(512, "s0", 1, 3)):
        assert parse_addr(expr.text()) == expr
    with pytest.raises(ValueError):
        parse_addr("512+*1*1")


def test_serialization_round_trip_byte_stable():
    prog, script = build_attack_program(Ordering.VDVD, Gadget.NPEU, CFG)
    text = format_program(prog)
    again = parse_program(text)
    assert format_program(again) == text
    assert script is None


def test_serialization_preserves_branch_and_roles():
    prog = build_attack_program(Ordering.VIAD, Gadget.RS, CFG)[0]
    text = format_program(prog)
    again = parse_program(text)
    assert again.annotations == prog.annotations
    branch = next(op for op in again.ops if op.kind is OpKind.BRANCH)
    assert branch.branch == next(op for op in prog.ops if op.kind is OpKind.BRANCH).branch
    nop = next(op for op in again.ops if op.kind is OpKind.NOP)
    assert nop.iline is not None


BRANCH_TEXT = format_program(MicroProgram(ops=[
    MicroOp(0, OpKind.LOAD, addr=Literal(640)),
    MicroOp(1, OpKind.BRANCH, branch=BranchInfo(True, False, resolver=0, join=3, taken_stream_ends=True)),
    MicroOp(2, OpKind.ALU, src_deps=(0,)),
    MicroOp(3, OpKind.ALU, fence_after=True),
]))


def test_an_empty_role_round_trips():
    # format_program writes it as "!role r " with no ids.
    prog = MicroProgram(ops=[MicroOp(0, OpKind.ALU)], annotations={"r": ()})
    text = format_program(prog)
    assert parse_program(text) == prog
    assert format_program(parse_program(text)) == text


def test_branch_and_fence_tokens_round_trip():
    assert "branch=T,N,res:0,join:3,ends:1" in BRANCH_TEXT and "fence=1" in BRANCH_TEXT
    assert format_program(parse_program(BRANCH_TEXT)) == BRANCH_TEXT


@pytest.mark.parametrize("good, typo", [
    ("branch=T,", "branch=t,"),
    ("branch=T,N,", "branch=Y,Q,"),
    ("branch=T,N,", "branch=T,x,"),
    ("res:0", "r:0"),
    ("join:3", "j:3"),
    ("ends:1", "bogus"),
    ("ends:1", "ends:yes"),
    ("fence=1", "fence=yes"),
])
def test_parse_rejects_branch_and_fence_typos(good, typo):
    # Each typo used to parse as a different program (a mispredicted
    # branch read as a correct one, a fence read as none).
    text = BRANCH_TEXT.replace(good, typo, 1)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if typo in line)
    with pytest.raises(ValueError, match=f"program line {lineno}: "):
        parse_program(text)


@pytest.mark.parametrize("text, error", [
    ("0 LOAD deps=[] addr=5 addr=7\n", "program line 1: repeated field 'addr'"),
    ("!secret s0 0\n!secret s0 1\n0 ALU deps=[]\n", "program line 2: second !secret s0"),
    ("!role victim 0\n!role victim 1\n0 ALU deps=[]\n1 ALU deps=[]\n", "program line 2: second !role victim"),
    ("!secret s0 2\n0 ALU deps=[]\n", "program line 1: !secret s0 2: want 0 or 1"),
    ("0 ALU deps=[\n", "program line 1: deps must be one [...] list, got '['"),
    ("0 ALU deps=[]\n1 ALU deps=0]\n", "program line 2: deps must be one [...] list, got '0]'"),
    ("!secretx s0 1\n0 ALU deps=[]\n", "program line 1: unknown directive '!secretx'"),
    ("0 ALU deps=[]\n1 ALU deps=[]\n!role victim 0,,1\n", "program line 3: empty item in list '0,,1'"),
    ("0 ALU deps=[]\n1 ALU deps=[0,,0]\n", "program line 2: empty item in list '0,,0'"),
    ("0 ALU deps=[] lat=\n", "program line 1: lat= needs an EU class name"),
    ("0 ALU deps=[] extra\n", "program line 1: expected key=value, got 'extra'"),
    ("0 ALU deps=[] =5\n", "program line 1: expected key=value, got '=5'"),
    ("!secret s0\n0 ALU deps=[]\n", "program line 1: !secret s0: want !secret NAME 0|1"),
    ("0 ALU deps=[]\n1 ALU deps=[]\n!role victim 0 1\n", "program line 3: !role victim 0 1: want !role NAME [ID,...]"),
    ("0\n", "program line 1: 0: want ID KIND [key=value ...]"),
], ids=["repeated-field", "repeated-secret", "repeated-role", "secret-default", "deps-open", "deps-close",
        "directive-prefix", "role-empty-item", "deps-empty-item", "lat-empty", "bare-word", "empty-key",
        "secret-missing-bit", "role-extra-word", "op-without-kind"])
def test_parse_rejects_text_that_format_program_never_writes(text, error):
    # Each used to parse, keeping the last repeat or a default other than
    # 0 or 1, reading a half list as a whole one, a directive by its
    # prefix, or a list with an empty item as one without it; an empty
    # lat= failed only when the engine started. A bare word or an empty key
    # failed with a message that did not name the field, and a directive or
    # op line with a word too few or too many with a Python unpacking or
    # index message.
    with pytest.raises(ValueError) as exc:
        parse_program(text)
    assert str(exc.value) == error


class TestMshrGadget:
    def test_shape(self):
        prog = build_attack_program(Ordering.VDAD, Gadget.MSHR, CFG, AttackParams(m=4, z_len=8))[0]
        gadget = prog.role_ops("gadget")
        assert len(gadget) == 4
        lines1 = {prog.ops[i].resolve_line({"s0": 1}) for i in gadget}
        lines0 = {prog.ops[i].resolve_line({"s0": 0}) for i in gadget}
        assert len(lines1) == 4  # distinct lines: one MSHR each
        assert len(lines0) == 1  # all the same line: merged
        assert gadget[0] not in prog.actual_path

    def test_rejects_single_mshr(self):
        with pytest.raises(ConstructionError):
            build_attack_program(Ordering.VDAD, Gadget.MSHR, CFG, AttackParams(m=1, z_len=8))

    def test_rejects_more_than_configured(self):
        with pytest.raises(ConstructionError):
            build_attack_program(Ordering.VDAD, Gadget.MSHR, CFG, AttackParams(m=CFG.l1d_mshrs + 1, z_len=8))


class TestNpeuGadget:
    def test_shape(self):
        prog = build_attack_program(Ordering.VDAD, Gadget.NPEU, CFG, AttackParams(z_len=10))[0]
        target = prog.role_ops("target")
        gadget = prog.role_ops("gadget")
        transmitter = prog.role_ops("transmitter")[0]
        assert all(prog.ops[i].kind is OpKind.NPEU for i in target + gadget)
        # Gadget ops are mutually independent, all hanging off the transmitter.
        assert all(prog.ops[i].src_deps == (transmitter,) for i in gadget)
        assert set(gadget).isdisjoint(prog.actual_path)

    def test_rejects_empty_target_chain(self):
        with pytest.raises(ConstructionError):
            build_attack_program(Ordering.VDAD, Gadget.NPEU, CFG, AttackParams(f_len=0, fp_len=2, z_len=4))


class TestRsGadget:
    def test_shape(self):
        prog = build_attack_program(Ordering.VIAD, Gadget.RS, CFG)[0]
        assert len(prog.role_ops("gadget")) == CFG.rs_size
        marker = prog.role_ops("itarget")[0]
        assert prog.ops[marker].iline is not None
        assert marker not in prog.actual_path  # target sits on the transient path


class TestAttackPrograms:
    def test_constructibility_matches_blocked_cells(self):
        for g in Gadget:
            for o in Ordering:
                expected = not (g is Gadget.RS and o is not Ordering.VIAD)
                assert constructible(g, o) == expected
                if expected:
                    build_attack_program(o, g, CFG)
                else:
                    with pytest.raises(ConstructionError):
                        build_attack_program(o, g, CFG)

    def test_vdvd_reference_follows_victim(self):
        prog, _ = build_attack_program(Ordering.VDVD, Gadget.NPEU, CFG)
        a = prog.role_ops("victim_a")[0]
        b = prog.role_ops("reference_b")[0]
        assert a < b
        lay = AttackLayout(CFG.geometry)
        assert prog.ops[a].resolve_line({"s0": 0}) == lay.victim_line
        assert prog.ops[b].resolve_line({"s0": 0}) == lay.reference_line

    def test_vivd_branch_resolved_by_victim_load(self):
        prog, _ = build_attack_program(Ordering.VIVD, Gadget.NPEU, CFG)
        a = prog.role_ops("victim_a")[0]
        branch = next(op for op in prog.ops if op.kind is OpKind.BRANCH)
        assert branch.branch.resolver == a
        marker = prog.role_ops("itarget")[0]
        assert marker == branch.branch.join  # first correct-path op
        assert marker in prog.actual_path

    def test_rejects_negative_reference_chain(self):
        for o in (Ordering.VDVD, Ordering.VIVD):
            with pytest.raises(ValueError, match="g_len must be >= 0"):
                build_attack_program(o, Gadget.NPEU, CFG, AttackParams(g_len=-1))
        build_attack_program(Ordering.VDAD, Gadget.NPEU, CFG, AttackParams(g_len=-1))  # no load B

    def test_rejects_negative_reference_offset(self):
        for g, o in ((Gadget.NPEU, Ordering.VDAD), (Gadget.MSHR, Ordering.VIAD), (Gadget.RS, Ordering.VIAD)):
            with pytest.raises(ValueError, match="reference_offset must be >= 0, got -5"):
                build_attack_program(o, g, CFG, AttackParams(reference_offset=-5))
        build_attack_program(Ordering.VDVD, Gadget.NPEU, CFG, AttackParams(reference_offset=-5))  # no attacker
        _, script = build_attack_program(Ordering.VDAD, Gadget.NPEU, CFG, AttackParams(reference_offset=0))
        assert script.offset_cycle == 0

    def test_ad_orderings_emit_attacker_script(self):
        for g, o in ((Gadget.NPEU, Ordering.VDAD), (Gadget.MSHR, Ordering.VIAD), (Gadget.RS, Ordering.VIAD)):
            _, script = build_attack_program(o, g, CFG, AttackParams(reference_offset=77))
            assert script is not None and script.offset_cycle == 77

    def test_secret_flip_changes_only_secret_dependent_loads(self):
        for g in Gadget:
            o = Ordering.VIAD if g is Gadget.RS else Ordering.VDVD
            prog, _ = build_attack_program(o, g, CFG)
            for op in prog.ops:
                l0 = op.resolve_line({"s0": 0})
                l1 = op.resolve_line({"s0": 1})
                if isinstance(op.addr, SecretDep):
                    pass  # may differ
                else:
                    assert l0 == l1

    def test_random_parameter_sweep_builds_valid_programs(self):
        rng = random.Random(11)
        for _ in range(60):
            g = rng.choice(list(Gadget))
            o = Ordering.VIAD if g is Gadget.RS else rng.choice(list(Ordering))
            params = AttackParams(
                z_len=rng.randint(1, 20),
                f_len=rng.randint(1, 5),
                fp_len=rng.randint(1, 8),
                g_len=rng.randint(1, 40),
                m=rng.randint(2, CFG.l1d_mshrs) if g is Gadget.MSHR else None,
                reference_offset=rng.randint(10, 200),
            )
            build_attack_program(o, g, CFG, params)  # building checks the invariants


def test_the_actual_path_steps_over_skipped_bodies_only():
    # Op 1 sits in op 0's skipped body; its predicted-taken body would
    # reach op 2, but the walk never reaches op 1, so op 2 stays on it.
    prog = parse_program(
        "0 BRANCH deps=[] branch=N,N,res:-,join:2\n"
        "1 BRANCH deps=[] branch=T,N,res:-,join:3\n"
        "2 ALU deps=[]\n"
    )
    assert prog.actual_path == (0, 2)
    # A taken branch's body is on the path; a not-taken one's join ends it.
    prog = parse_program(
        "0 BRANCH deps=[] branch=N,T,res:-,join:2\n"
        "1 ALU deps=[]\n"
        "2 BRANCH deps=[] branch=T,N,res:-,join:4\n"
        "3 ALU deps=[]\n"
    )
    assert prog.actual_path == (0, 1, 2)


def test_validate_rejects_a_path_op_that_uses_a_skipped_op():
    # Op 2 sits in the body op 1 skips; op 3 is on the path and reads it.
    head = "0 ALU deps=[]\n1 BRANCH deps=[] branch=N,N,res:0,join:3\n2 ALU deps=[]\n"
    with rejected("program line 4: op 3 uses op 2, which the actual path skips"):
        parse_program(head + "3 ALU deps=[2]\n")
    # A resolver counts as a use.
    with rejected("program line 4: op 3 uses op 2, which the actual path skips"):
        parse_program(head + "3 BRANCH deps=[] branch=T,T,res:2,join:4\n")


@pytest.mark.parametrize("text, error", [
    ("0 ALU deps=[]\n\n# reads ahead\n1 ALU deps=[2]\n2 ALU deps=[]\n",
     "program line 4: op 1 depends on non-older op 2"),
    ("0 ALU deps=[]\n2 ALU deps=[]\n", "program line 2: op 2 out of order at position 1"),
    ("!secret s0 0\n0 LOAD deps=[] addr=10+sx*1*1\n", "program line 2: op 0 references undeclared secret 'sx'"),
    ("0 ALU deps=[]\n1 BRANCH deps=[] branch=T,T,res:0,join:7\n", "program line 2: branch 1 join 7 out of range"),
    ("0 ALU deps=[]\n1 ALU deps=[]\n!role a 1\n!role b 1\n", "program line 2: op 1 carries roles a and b"),
    ("0 ALU deps=[]\n!role a 3\n", "annotation a references op 3"),
], ids=["forward-dep", "out-of-order", "undeclared-secret", "join-range", "double-role", "missing-op"])
def test_parse_names_the_line_of_the_op_a_program_check_rejects(text, error):
    # Checks of the whole program name the op's line, as a line's own
    # fields do; a role naming a missing op has no line to name.
    with rejected(error):
        parse_program(text)


def test_validate_admits_every_use_the_actual_path_keeps():
    # Op 3 lies in the body of op 2, a not-taken branch, but op 1's join
    # puts it on the path, so op 5 may read it.
    prog = parse_program(
        "0 ALU deps=[]\n"
        "1 BRANCH deps=[] branch=N,N,res:0,join:3\n"
        "2 BRANCH deps=[] branch=T,N,res:0,join:5\n"
        "3 ALU deps=[]\n"
        "4 ALU deps=[]\n"
        "5 ALU deps=[3]\n"
    )
    assert prog.actual_path == (0, 1, 3, 4, 5)
    # An op off the path may read one that no path fetches: op 4, on the
    # wrong path of op 3, reads op 2, which op 1 skips under both its
    # prediction and its outcome.
    prog = parse_program(
        "0 ALU deps=[]\n"
        "1 BRANCH deps=[] branch=N,N,res:0,join:3\n"
        "2 ALU deps=[]\n"
        "3 BRANCH deps=[] branch=T,N,res:0,join:5\n"
        "4 ALU deps=[2]\n"
        "5 ALU deps=[]\n"
    )
    assert prog.actual_path == (0, 1, 3, 5)
