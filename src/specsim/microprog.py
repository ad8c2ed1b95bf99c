"""Micro-program ISA: dependence-annotated straight-line programs with
scripted branch outcomes, plus builders for the interference senders
(MSHR exhaustion, non-pipelined-EU contention, RS congestion) and the
complete attack programs that pair them with a reference access.

Addresses are abstract line numbers (one unit = one cache line). Branch
bodies are the contiguous ops between a branch and its join id; a taken
branch falls through into its body, a not-taken branch jumps to the join.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum

from .machine import MachineConfig


class OpKind(Enum):
    LOAD = "LOAD"
    STORE_ADDR = "STORE-ADDR"
    ALU = "ALU"
    NPEU = "NPEU"
    BRANCH = "BRANCH"
    NOP = "NOP"


class Ordering(Enum):
    """Which two accesses the secret reorders: victim data (VD), victim
    instruction fetch (VI), attacker data (AD)."""

    VDVD = "vdvd"
    VIVD = "vivd"
    VDAD = "vdad"
    VIAD = "viad"


class Gadget(Enum):
    MSHR = "mshr"
    NPEU = "npeu"
    RS = "rs"


class ConstructionError(ValueError):
    """A gadget/ordering combination or parameterization that cannot form
    a working sender."""


@dataclass(frozen=True)
class Literal:
    line: int

    def resolve(self, secrets: dict[str, int]) -> int:
        return self.line

    def text(self) -> str:
        return str(self.line)


@dataclass(frozen=True)
class SecretDep:
    """base + secret*stride*k, all in line units."""

    base: int
    secret: str
    stride: int = 1
    k: int = 1

    def resolve(self, secrets: dict[str, int]) -> int:
        return self.base + secrets[self.secret] * self.stride * self.k

    def text(self) -> str:
        return f"{self.base}+{self.secret}*{self.stride}*{self.k}"


AddrExpr = Literal | SecretDep

_SDEP_RE = re.compile(r"^(\d+)\+([A-Za-z_]\w*)\*(\d+)\*(\d+)$")


def parse_addr(text: str) -> AddrExpr:
    m = _SDEP_RE.match(text)
    if m:
        return SecretDep(int(m.group(1)), m.group(2), int(m.group(3)), int(m.group(4)))
    if text.isdigit():
        return Literal(int(text))
    raise ValueError(f"bad addr expression {text!r}")


@dataclass(frozen=True)
class BranchInfo:
    predicted_taken: bool
    actual_taken: bool
    resolver: int | None  # op whose completion resolves the branch
    join: int  # first op past the taken-path body
    # The taken-path code region ends with the body (no fall-through into
    # the join region): a predicted-taken frontend stops fetching at the
    # join until the branch resolves. Attack senders use this to keep the
    # correct-path fetch target out of the transient stream.
    taken_stream_ends: bool = False

    def mispredicted(self) -> bool:
        return self.predicted_taken != self.actual_taken


@dataclass(frozen=True)
class MicroOp:
    id: int
    kind: OpKind
    src_deps: tuple[int, ...] = ()
    addr: AddrExpr | None = None
    lat_class: str | None = None  # None: engine default for the kind
    branch: BranchInfo | None = None
    iline: int | None = None  # I-cache line touched at fetch, if marked
    fence_after: bool = False

    def resolve_line(self, secrets: dict[str, int]) -> int | None:
        return None if self.addr is None else self.addr.resolve(secrets)


@dataclass
class MicroProgram:
    ops: list[MicroOp]
    secret_slots: dict[str, int] = field(default_factory=dict)
    annotations: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ops)

    def validate(self) -> None:
        n = len(self.ops)
        for i, op in enumerate(self.ops):
            if op.id != i:
                raise ValueError(f"op {op.id} out of order at position {i}")
            for d in op.src_deps:
                if not 0 <= d < op.id:
                    raise ValueError(f"op {op.id} depends on non-older op {d}")
            if op.addr is not None and op.kind is not OpKind.LOAD:
                raise ValueError(f"op {op.id}: only LOAD carries an address")
            if op.kind is OpKind.LOAD and op.addr is None:
                raise ValueError(f"load {op.id} has no address")
            if isinstance(op.addr, SecretDep) and op.addr.secret not in self.secret_slots:
                raise ValueError(f"op {op.id} references undeclared secret {op.addr.secret!r}")
            if (op.branch is not None) != (op.kind is OpKind.BRANCH):
                raise ValueError(f"op {op.id}: branch info iff BRANCH kind")
            if op.branch is not None:
                b = op.branch
                if not op.id < b.join <= n:
                    raise ValueError(f"branch {op.id} join {b.join} out of range")
                if b.resolver is not None and not 0 <= b.resolver < op.id:
                    raise ValueError(f"branch {op.id} resolver must be older")
        # Liveness: an op that executes on the actual path must not consume
        # a producer confined to a body the actual path skips (the value
        # would never be produced). Branch resolvers count as consumed.
        for op in self.ops:
            b = op.branch
            if b is None or b.actual_taken:
                continue
            dead = range(op.id + 1, b.join)
            for consumer in self.ops[b.join :]:
                uses = set(consumer.src_deps)
                if consumer.branch is not None and consumer.branch.resolver is not None:
                    uses.add(consumer.branch.resolver)
                for d in uses:
                    if d in dead:
                        raise ValueError(
                            f"op {consumer.id} uses op {d} inside the not-taken body of branch {op.id}"
                        )
        seen: dict[int, str] = {}
        for role, ids in self.annotations.items():
            for i in ids:
                if not 0 <= i < n:
                    raise ValueError(f"annotation {role} references op {i}")
                if i in seen:
                    raise ValueError(f"op {i} carries roles {seen[i]} and {role}")
                seen[i] = role

    def secrets_with(self, assignment: dict[str, int] | None) -> dict[str, int]:
        bits = dict(self.secret_slots)
        if assignment:
            unknown = set(assignment) - set(bits)
            if unknown:
                raise ValueError(f"unknown secrets {sorted(unknown)}")
            bits.update(assignment)
        return bits

    def role_ops(self, role: str) -> tuple[int, ...]:
        return self.annotations.get(role, ())

    def wrong_path_ids(self) -> set[int]:
        """Ops only ever fetched transiently: bodies of predicted-taken,
        actually-not-taken branches (the gadget shape)."""
        out: set[int] = set()
        for op in self.ops:
            b = op.branch
            if b and b.predicted_taken and not b.actual_taken:
                out.update(range(op.id + 1, b.join))
        return out


# --- serialization ---------------------------------------------------------

def format_program(prog: MicroProgram) -> str:
    lines: list[str] = []
    for name in sorted(prog.secret_slots):
        lines.append(f"!secret {name} {prog.secret_slots[name]}")
    for role in sorted(prog.annotations):
        ids = ",".join(str(i) for i in prog.annotations[role])
        lines.append(f"!role {role} {ids}")
    for op in prog.ops:
        fields = [str(op.id), op.kind.value]
        fields.append("deps=[" + ",".join(str(d) for d in op.src_deps) + "]")
        if op.addr is not None:
            fields.append(f"addr={op.addr.text()}")
        if op.lat_class is not None:
            fields.append(f"lat={op.lat_class}")
        if op.iline is not None:
            fields.append(f"iline={op.iline}")
        if op.branch is not None:
            b = op.branch
            pred = "T" if b.predicted_taken else "N"
            act = "T" if b.actual_taken else "N"
            res = "-" if b.resolver is None else str(b.resolver)
            text = f"branch={pred},{act},res:{res},join:{b.join}"
            if b.taken_stream_ends:
                text += ",ends:1"
            fields.append(text)
        if op.fence_after:
            fields.append("fence=1")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def parse_program(text: str) -> MicroProgram:
    ops: list[MicroOp] = []
    secrets: dict[str, int] = {}
    annotations: dict[str, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        try:
            if s.startswith("!secret"):
                _, name, bit = s.split()
                secrets[name] = int(bit)
                continue
            if s.startswith("!role"):
                _, role, ids = s.split()
                annotations[role] = tuple(int(i) for i in ids.split(",") if i)
                continue
            fields = s.split()
            op_id = int(fields[0])
            kind = OpKind(fields[1])
            kw: dict = {}
            deps: tuple[int, ...] = ()
            for f in fields[2:]:
                key, val = f.split("=", 1)
                if key == "deps":
                    body = val.strip("[]")
                    deps = tuple(int(d) for d in body.split(",") if d)
                elif key == "addr":
                    kw["addr"] = parse_addr(val)
                elif key == "lat":
                    kw["lat_class"] = val
                elif key == "iline":
                    kw["iline"] = int(val)
                elif key == "fence":
                    kw["fence_after"] = val == "1"
                elif key == "branch":
                    parts = val.split(",")
                    pred, act, res, join = parts[:4]
                    resolver = None if res == "res:-" else int(res.split(":")[1])
                    ends = any(p == "ends:1" for p in parts[4:])
                    kw["branch"] = BranchInfo(
                        predicted_taken=pred == "T",
                        actual_taken=act == "T",
                        resolver=resolver,
                        join=int(join.split(":")[1]),
                        taken_stream_ends=ends,
                    )
                else:
                    raise ValueError(f"unknown field {key!r}")
            ops.append(MicroOp(id=op_id, kind=kind, src_deps=deps, **kw))
        except (ValueError, IndexError) as e:
            raise ValueError(f"program line {lineno}: {e}") from e
    prog = MicroProgram(ops=ops, secret_slots=secrets, annotations=annotations)
    prog.validate()
    return prog


# --- attack address layout -------------------------------------------------

@dataclass(frozen=True)
class AttackLayout:
    """Concrete line addresses for one target LLC set plus the phantom
    (scripted) lines the sender programs use off to the side."""

    set_index: int = 5
    llc_sets: int = 128
    phantom_base: int = 100_000

    def _member(self, k: int) -> int:
        return self.set_index + k * self.llc_sets

    @property
    def victim_line(self) -> int:  # load A
        return self._member(1)

    @property
    def reference_line(self) -> int:  # load B / attacker reference
        return self._member(2)

    @property
    def itarget_line(self) -> int:  # marked instruction-fetch line
        return self._member(3)

    @property
    def evs1(self) -> tuple[int, ...]:
        return tuple(self._member(k) for k in range(4, 19))

    @property
    def evs2(self) -> tuple[int, ...]:
        return tuple(self._member(k) for k in range(19, 34))

    def interlopers(self, n: int) -> tuple[int, ...]:
        return tuple(self._member(k) for k in range(34, 34 + n))

    # Phantom lines: resolver miss, secret read, secret-indexed array, and
    # a slow victim-address line for the fetch-observable variants.
    @property
    def resolver_line(self) -> int:
        return self.phantom_base + 1

    @property
    def access_line(self) -> int:
        return self.phantom_base + 2

    @property
    def victim_phantom_line(self) -> int:
        return self.phantom_base + 3

    @property
    def secret_base(self) -> int:
        return self.phantom_base + 16


SECRET = "s0"


@dataclass(frozen=True)
class AttackScript:
    """Attacker-core reference access: one visible same-set LLC access at a
    fixed cycle after the run starts."""

    line: int
    offset_cycle: int


# --- gadget builders -------------------------------------------------------

def _alu_chain(ops: list[MicroOp], length: int, first_deps: tuple[int, ...]) -> int:
    """Append a serial ALU chain; returns the tail op id."""
    assert length >= 1
    for i in range(length):
        deps = first_deps if i == 0 else (ops[-1].id,)
        ops.append(MicroOp(id=len(ops), kind=OpKind.ALU, src_deps=deps))
    return ops[-1].id


def build_gadget_mshr(
    m: int,
    z_len: int,
    cfg: MachineConfig,
) -> MicroProgram:
    """MSHR-exhaustion sender: a victim load whose address takes a z-cycle
    chain, a slow-to-resolve mispredicted branch, and m secret-indexed loads
    that occupy m distinct MSHRs when the secret is 1 and one when it is 0.
    """
    if m < 2:
        raise ConstructionError("mshr gadget needs m >= 2: one shared line cannot encode the secret")
    if m > cfg.l1d_mshrs:
        raise ConstructionError(f"mshr gadget m={m} exceeds configured L1D MSHRs ({cfg.l1d_mshrs})")
    if z_len < 1:
        raise ConstructionError("z_len must be >= 1")
    lay = AttackLayout(llc_sets=cfg.geometry.llc_sets)
    ops: list[MicroOp] = []
    z_tail = _alu_chain(ops, z_len, ())
    victim = len(ops)
    ops.append(MicroOp(id=victim, kind=OpKind.LOAD, src_deps=(z_tail,), addr=Literal(lay.victim_line)))
    resolver = len(ops)
    ops.append(MicroOp(id=resolver, kind=OpKind.LOAD, addr=Literal(lay.resolver_line)))
    branch = len(ops)
    access = branch + 1
    gadget_ids = tuple(range(access + 1, access + 1 + m))
    join = access + 1 + m
    ops.append(
        MicroOp(
            id=branch,
            kind=OpKind.BRANCH,
            branch=BranchInfo(predicted_taken=True, actual_taken=False, resolver=resolver, join=join),
        )
    )
    ops.append(MicroOp(id=access, kind=OpKind.LOAD, addr=Literal(lay.access_line)))
    for k in range(m):
        ops.append(
            MicroOp(
                id=access + 1 + k,
                kind=OpKind.LOAD,
                src_deps=(access,),
                addr=SecretDep(lay.secret_base, SECRET, stride=1, k=k),
            )
        )
    prog = MicroProgram(
        ops=ops,
        secret_slots={SECRET: 0},
        annotations={
            "victim_a": (victim,),
            "access": (access,),
            "gadget": gadget_ids,
        },
    )
    prog.validate()
    return prog


def build_gadget_npeu(
    f_len: int,
    fp_len: int,
    z_len: int,
    cfg: MachineConfig,
    eu_class: str | None = None,
) -> MicroProgram:
    """Non-pipelined-EU contention sender: the victim address comes out of a
    dependent chain f on the non-pipelined unit; the gadget is a transmitter
    load plus fp_len mutually independent ops on the same unit that are
    ready early exactly when the transmitter hits."""
    if f_len < 1:
        raise ConstructionError("npeu gadget needs f_len >= 1: no target chain to interfere with")
    if fp_len < 1:
        raise ConstructionError("npeu gadget needs fp_len >= 1")
    if z_len < 1:
        raise ConstructionError("z_len must be >= 1")
    klass = eu_class or cfg.npeu_class
    if klass not in cfg.eu:
        raise ConstructionError(f"unknown EU class {klass!r}")
    if cfg.eu[klass].pipelined:
        raise ConstructionError(f"EU class {klass!r} is pipelined; chain interference needs a non-pipelined unit")
    lay = AttackLayout(llc_sets=cfg.geometry.llc_sets)
    ops: list[MicroOp] = []
    z_tail = _alu_chain(ops, z_len, ())
    f_ids = []
    for i in range(f_len):
        deps = (z_tail,) if i == 0 else (ops[-1].id,)
        ops.append(MicroOp(id=len(ops), kind=OpKind.NPEU, src_deps=deps, lat_class=klass))
        f_ids.append(ops[-1].id)
    victim = len(ops)
    ops.append(MicroOp(id=victim, kind=OpKind.LOAD, src_deps=(f_ids[-1],), addr=Literal(lay.victim_line)))
    resolver = len(ops)
    ops.append(MicroOp(id=resolver, kind=OpKind.LOAD, addr=Literal(lay.resolver_line)))
    branch = len(ops)
    access = branch + 1
    transmitter = access + 1
    fp_ids = tuple(range(transmitter + 1, transmitter + 1 + fp_len))
    join = transmitter + 1 + fp_len
    ops.append(
        MicroOp(
            id=branch,
            kind=OpKind.BRANCH,
            branch=BranchInfo(predicted_taken=True, actual_taken=False, resolver=resolver, join=join),
        )
    )
    ops.append(MicroOp(id=access, kind=OpKind.LOAD, addr=Literal(lay.access_line)))
    ops.append(
        MicroOp(
            id=transmitter,
            kind=OpKind.LOAD,
            src_deps=(access,),
            addr=SecretDep(lay.secret_base, SECRET, stride=1, k=1),
        )
    )
    for i in range(fp_len):
        # Each interfering op depends only on the transmitter, so the whole
        # group turns ready the moment the load returns.
        ops.append(MicroOp(id=fp_ids[i], kind=OpKind.NPEU, src_deps=(transmitter,), lat_class=klass))
    prog = MicroProgram(
        ops=ops,
        secret_slots={SECRET: 0},
        annotations={
            "target": tuple(f_ids),
            "victim_a": (victim,),
            "access": (access,),
            "transmitter": (transmitter,),
            "gadget": fp_ids,
        },
    )
    prog.validate()
    return prog


def build_gadget_rs(
    rs_slots: int,
    cfg: MachineConfig,
) -> MicroProgram:
    """RS-congestion sender: a transmitter load feeds a serial chain of as
    many dependent ALU ops as there are reservation stations; a marked
    fetch-target op sits behind them on the mis-speculated path, so whether
    its line is ever fetched depends on whether the chain drains."""
    if rs_slots < cfg.rs_size:
        raise ConstructionError(
            f"rs gadget needs at least rs_size={cfg.rs_size} dependent ops to guarantee a frontend stall"
        )
    lay = AttackLayout(llc_sets=cfg.geometry.llc_sets)
    ops: list[MicroOp] = []
    resolver = 0
    ops.append(MicroOp(id=resolver, kind=OpKind.LOAD, addr=Literal(lay.resolver_line)))
    branch = 1
    access = 2
    transmitter = 3
    adds = tuple(range(4, 4 + rs_slots))
    marker = 4 + rs_slots
    join = marker + 1
    ops.append(
        MicroOp(
            id=branch,
            kind=OpKind.BRANCH,
            branch=BranchInfo(predicted_taken=True, actual_taken=False, resolver=resolver, join=join),
        )
    )
    ops.append(MicroOp(id=access, kind=OpKind.LOAD, addr=Literal(lay.access_line)))
    ops.append(
        MicroOp(
            id=transmitter,
            kind=OpKind.LOAD,
            src_deps=(access,),
            addr=SecretDep(lay.secret_base, SECRET, stride=1, k=1),
        )
    )
    for i, op_id in enumerate(adds):
        deps = (transmitter,) if i == 0 else (transmitter, op_id - 1)
        ops.append(MicroOp(id=op_id, kind=OpKind.ALU, src_deps=deps))
    ops.append(MicroOp(id=marker, kind=OpKind.NOP, iline=lay.itarget_line))
    prog = MicroProgram(
        ops=ops,
        secret_slots={SECRET: 0},
        annotations={
            "access": (access,),
            "transmitter": (transmitter,),
            "gadget": adds,
            "itarget": (marker,),
        },
    )
    prog.validate()
    return prog


# --- complete attack programs ----------------------------------------------

@dataclass(frozen=True)
class AttackParams:
    """Sender shape knobs; calibration picks working values per machine."""

    z_len: int = 12
    f_len: int = 2
    fp_len: int = 4
    g_len: int = 25
    m: int | None = None  # MSHR gadget loads; default: the configured count
    rs_slots: int | None = None  # RS gadget chain; default: configured RS size
    reference_offset: int = 60  # attacker reference cycle for *-AD orderings


_CONSTRUCTIBLE = {
    (Gadget.NPEU, Ordering.VDVD),
    (Gadget.NPEU, Ordering.VIVD),
    (Gadget.NPEU, Ordering.VDAD),
    (Gadget.NPEU, Ordering.VIAD),
    (Gadget.MSHR, Ordering.VDVD),
    (Gadget.MSHR, Ordering.VIVD),
    (Gadget.MSHR, Ordering.VDAD),
    (Gadget.MSHR, Ordering.VIAD),
    (Gadget.RS, Ordering.VIAD),
}


def constructible(gadget: Gadget, ordering: Ordering) -> bool:
    return (gadget, ordering) in _CONSTRUCTIBLE


def build_attack_program(
    ordering: Ordering,
    gadget: Gadget,
    cfg: MachineConfig,
    params: AttackParams | None = None,
) -> tuple[MicroProgram, AttackScript | None]:
    """Assemble a complete sender for one (ordering, gadget) pair.

    VD-VD / VI-VD append a victim reference load B whose address generation
    g(z) outlasts f(z); VD-AD / VI-AD instead script the attacker core to
    touch the reference line at a fixed cycle. VI-* variants resolve the
    branch with the victim load itself and put the marked fetch line on the
    post-squash correct path. The RS gadget pairs only with VI-AD.
    """
    p = params or AttackParams()
    lay = AttackLayout(llc_sets=cfg.geometry.llc_sets)
    if not constructible(gadget, ordering):
        raise ConstructionError(f"({gadget.value}, {ordering.value}) is a blocked cell: no sender exists")

    if gadget is Gadget.RS:
        prog = build_gadget_rs(p.rs_slots if p.rs_slots is not None else cfg.rs_size, cfg)
        return prog, AttackScript(line=lay.reference_line, offset_cycle=p.reference_offset)

    victim_fetch = ordering in (Ordering.VIVD, Ordering.VIAD)
    if gadget is Gadget.NPEU:
        base = build_gadget_npeu(p.f_len, p.fp_len, p.z_len, cfg)
    else:
        base = build_gadget_mshr(p.m if p.m is not None else cfg.l1d_mshrs, p.z_len, cfg)
    ops = list(base.ops)
    annotations = dict(base.annotations)
    victim = annotations["victim_a"][0]
    z_tail = p.z_len - 1
    branch_pos = next(i for i, op in enumerate(ops) if op.kind is OpKind.BRANCH)

    if victim_fetch:
        # The branch condition depends on the victim load: its delay moves
        # the squash, hence the correct-path fetch of the marked line. The
        # victim load itself is steered at a phantom slow line so only the
        # marked fetch and the reference touch the target set. The taken
        # region is laid out not to fall through into the marked line.
        ops[victim] = replace(ops[victim], addr=Literal(lay.victim_phantom_line))
        old_branch = ops[branch_pos]
        ops[branch_pos] = replace(
            old_branch,
            branch=replace(old_branch.branch, resolver=victim, taken_stream_ends=True),
        )

    insert_b = ordering in (Ordering.VDVD, Ordering.VIVD)
    shift = p.g_len + 1 if insert_b else 0
    if insert_b:
        # Reference chain g(z) on the pipelined units, then load B; placed
        # between the victim load and the resolver/branch block.
        at = victim + 1
        head: list[MicroOp] = []
        for i in range(p.g_len):
            deps = (z_tail,) if i == 0 else (at + i - 1,)
            head.append(MicroOp(id=at + i, kind=OpKind.ALU, src_deps=deps))
        head.append(
            MicroOp(id=at + p.g_len, kind=OpKind.LOAD, src_deps=(at + p.g_len - 1,), addr=Literal(lay.reference_line))
        )
        tail = []
        for op in ops[at:]:
            new_deps = tuple(d + shift if d >= at else d for d in op.src_deps)
            new_branch = op.branch
            if new_branch is not None:
                resolver = new_branch.resolver
                if resolver is not None and resolver >= at:
                    resolver += shift
                new_branch = replace(new_branch, resolver=resolver, join=new_branch.join + shift)
            tail.append(replace(op, id=op.id + shift, src_deps=new_deps, branch=new_branch))
        ops = ops[:at] + head + tail
        annotations = {
            role: tuple(i + shift if i >= at else i for i in ids) for role, ids in annotations.items()
        }
        annotations["reference_b"] = (at + p.g_len,)

    if victim_fetch:
        marker = len(ops)
        ops.append(MicroOp(id=marker, kind=OpKind.NOP, iline=lay.itarget_line))
        annotations["itarget"] = (marker,)

    prog = MicroProgram(ops=ops, secret_slots=dict(base.secret_slots), annotations=annotations)
    prog.validate()
    script = None
    if ordering in (Ordering.VDAD, Ordering.VIAD):
        script = AttackScript(line=lay.reference_line, offset_cycle=p.reference_offset)
    return prog, script
