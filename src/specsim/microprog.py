"""Micro-program ISA: dependence-annotated straight-line programs with
scripted branch outcomes, plus the builder that assembles the complete
attack programs: an interference sender (MSHR exhaustion,
non-pipelined-EU contention, RS congestion) paired with a reference access.

Addresses are abstract line numbers (one unit = one cache line). Branch
bodies are the contiguous ops between a branch and its join id; a taken
branch falls through into its body, a not-taken branch jumps to the join.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType

from .machine import MachineConfig
from .memhier import CacheGeometry, _record_fields


class OpKind(Enum):
    LOAD = "LOAD"
    STORE_ADDR = "STORE-ADDR"
    ALU = "ALU"
    NPEU = "NPEU"
    BRANCH = "BRANCH"
    NOP = "NOP"


class FenceModel(Enum):
    SPECTRE = "spectre"  # fences after branches
    FUTURISTIC = "futuristic"  # fences after anything that can squash


# Bound once for EngineTables.derive, which tests every op's kind: on
# CPython 3.11 naming an enum member through its class, or hashing one,
# costs about 200 ns ("Enum costs" in the pipeline module docstring).
_LOAD, _STORE_ADDR, _NPEU, _BRANCH, _NOP = OpKind.LOAD, OpKind.STORE_ADDR, OpKind.NPEU, OpKind.BRANCH, OpKind.NOP


def _default_class(kind: OpKind) -> str:
    """The EU class of a non-marker op that names none (lat_class None)."""
    if kind is _LOAD or kind is _STORE_ADDR:
        return "lsu"
    return "npeu" if kind is _NPEU else "alu"  # ALU and BRANCH


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


class OpError(ValueError):
    """A program check that fails at one op; ``op`` is its position in the
    program, so that a parser can name the line the op came from."""

    def __init__(self, op: int, message: str) -> None:
        super().__init__(message)
        self.op = op


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


@dataclass(frozen=True)
class EngineTables:
    """What the engine reads of a program under any scheme, derived once
    per program (``MicroProgram.tables``). Every table is a tuple, so the
    runs that share them cannot change them."""

    eu_classes: tuple[str | None, ...]  # per op: EU class name, None for a marker
    consumers: tuple[tuple[int, ...], ...]  # per op: the ops that read its result
    resolves: tuple[tuple[int, ...], ...]  # per op: the branches it resolves
    # Per fence model (None: no fence scheme), per op: a fence follows it.
    fence_points: Mapping[FenceModel | None, tuple[bool, ...]]
    frontiers: tuple[int | None, ...]  # per op: 0 branch, 1 load, 2 store address, else None

    @staticmethod
    def derive(ops: tuple[MicroOp, ...]) -> EngineTables:
        consumers: list[list[int]] = [[] for _ in ops]
        resolves: list[list[int]] = [[] for _ in ops]
        for op in ops:
            for d in op.src_deps:
                consumers[d].append(op.id)
            if op.branch is not None and op.branch.resolver is not None:
                resolves[op.branch.resolver].append(op.id)
        # The one fence rule: op i is a fence point if it carries its own
        # fence, or if its kind can squash under the scheme's fence model,
        # branches under Spectre, branches and loads under Futuristic (None:
        # not a fence scheme).
        return EngineTables(
            eu_classes=tuple(None if op.kind is _NOP else op.lat_class or _default_class(op.kind) for op in ops),
            consumers=tuple(map(tuple, consumers)),
            resolves=tuple(map(tuple, resolves)),
            fence_points=MappingProxyType({
                None: tuple(op.fence_after for op in ops),
                FenceModel.SPECTRE: tuple(op.fence_after or op.kind is _BRANCH for op in ops),
                FenceModel.FUTURISTIC: tuple(op.fence_after or op.kind is _BRANCH or op.kind is _LOAD for op in ops),
            }),
            frontiers=tuple(
                0 if op.kind is _BRANCH else 1 if op.kind is _LOAD else 2 if op.kind is _STORE_ADDR else None
                for op in ops
            ),
        )


@dataclass(frozen=True)
class MicroProgram:
    """Valid by construction: building one (directly, by ``replace`` or by
    parsing) checks it once, so a program in hand needs no further check.
    Its mappings are read-only copies of the ones it was built from, so
    nothing in it can change after the check, and ``tables`` can be kept
    for as long as the program lives."""

    ops: tuple[MicroOp, ...]
    secret_slots: Mapping[str, int] = field(default_factory=dict)
    annotations: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(self, "secret_slots", MappingProxyType(dict(self.secret_slots)))
        object.__setattr__(self, "annotations", MappingProxyType(dict(self.annotations)))
        self.validate()

    @cached_property
    def tables(self) -> EngineTables:
        """The engine's scheme-independent tables, derived on first use and
        shared by every later run of this program."""
        return EngineTables.derive(self.ops)

    def validate(self) -> None:
        n = len(self.ops)
        for i, op in enumerate(self.ops):
            if op.id != i:
                raise OpError(i, f"op {op.id} out of order at position {i}")
            for d in op.src_deps:
                if not 0 <= d < op.id:
                    raise OpError(i, f"op {op.id} depends on non-older op {d}")
            if op.addr is not None and op.kind is not _LOAD:
                raise OpError(i, f"op {op.id}: only LOAD carries an address")
            if op.kind is _LOAD and op.addr is None:
                raise OpError(i, f"load {op.id} has no address")
            if isinstance(op.addr, SecretDep) and op.addr.secret not in self.secret_slots:
                raise OpError(i, f"op {op.id} references undeclared secret {op.addr.secret!r}")
            if (op.branch is not None) != (op.kind is _BRANCH):
                raise OpError(i, f"op {op.id}: branch info iff BRANCH kind")
            if op.branch is not None:
                b = op.branch
                if not op.id < b.join <= n:
                    raise OpError(i, f"branch {op.id} join {b.join} out of range")
                if b.resolver is not None and not 0 <= b.resolver < op.id:
                    raise OpError(i, f"branch {op.id} resolver must be older")
        # Liveness: an op on the actual path uses (as an input or as its
        # resolver) only ops on that path; any other value is never produced.
        on_path = set(self.actual_path)
        for i in self.actual_path:
            op = self.ops[i]
            uses = op.src_deps if op.branch is None else (*op.src_deps, op.branch.resolver)
            for d in uses:
                if d is not None and d not in on_path:
                    raise OpError(i, f"op {i} uses op {d}, which the actual path skips")
        seen: dict[int, str] = {}
        for role, ids in self.annotations.items():
            for i in ids:
                if not 0 <= i < n:
                    raise ValueError(f"annotation {role} references op {i}")
                if i in seen:
                    raise OpError(i, f"op {i} carries roles {seen[i]} and {role}")
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

    @cached_property
    def actual_path(self) -> tuple[int, ...]:
        """The ops that retire, in order: from op 0, step to the next op,
        or to the join after a branch that is not actually taken. A body
        skipped this way may hold branches and joins of its own; they are
        never reached, so they never steer the walk."""
        path: list[int] = []
        i = 0
        while i < len(self.ops):
            path.append(i)
            b = self.ops[i].branch
            i = b.join if b is not None and not b.actual_taken else i + 1
        return tuple(path)


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


_BRANCH_RE = re.compile(r"^([TN]),([TN]),res:(-|\d+),join:(\d+)(,ends:1)?$")


def _parse_branch(text: str) -> BranchInfo:
    """The format_program form: T|N,T|N,res:<id|->,join:<id>[,ends:1]."""
    m = _BRANCH_RE.match(text)
    if m is None:
        raise ValueError(f"branch={text}: want T|N,T|N,res:<id|->,join:<id>[,ends:1]")
    pred, act, res, join, ends = m.groups()
    return BranchInfo(
        predicted_taken=pred == "T",
        actual_taken=act == "T",
        resolver=None if res == "-" else int(res),
        join=int(join),
        taken_stream_ends=ends is not None,
    )


def _parse_ids(text: str) -> tuple[int, ...]:
    """A comma-separated id list as format_program writes it; "" is empty."""
    if not text:
        return ()
    items = text.split(",")
    if "" in items:
        raise ValueError(f"empty item in list {text!r}")
    return tuple(int(i) for i in items)


_OP_FIELDS = ("deps", "addr", "lat", "iline", "fence", "branch")


def parse_program(text: str) -> MicroProgram:
    ops: list[MicroOp] = []
    secrets: dict[str, int] = {}
    annotations: dict[str, tuple[int, ...]] = {}
    op_lines: list[int] = []  # per op, the line it came from
    for lineno, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        try:
            words = s.split()
            head = words[0]
            if head.startswith("!") and head not in ("!secret", "!role"):
                raise ValueError(f"unknown directive {head!r}")
            if head == "!secret":
                if len(words) != 3:
                    raise ValueError(f"{s}: want !secret NAME 0|1")
                _, name, bit = words
                if name in secrets:
                    raise ValueError(f"second !secret {name}")
                if bit not in ("0", "1"):
                    raise ValueError(f"!secret {name} {bit}: want 0 or 1")
                secrets[name] = int(bit)
                continue
            if head == "!role":
                # No ids is the empty role: format_program writes "!role NAME ".
                if not 2 <= len(words) <= 3:
                    raise ValueError(f"{s}: want !role NAME [ID,...]")
                role = words[1]
                if role in annotations:
                    raise ValueError(f"second !role {role}")
                annotations[role] = _parse_ids(words[2] if len(words) == 3 else "")
                continue
            if len(words) < 2:
                raise ValueError(f"{s}: want ID KIND [key=value ...]")
            op_id = int(head)
            kind = OpKind(words[1])
            kw: dict = {}
            deps: tuple[int, ...] = ()
            for key, val in _record_fields(words[2:], (), _OP_FIELDS).items():
                if key == "deps":
                    body = val[1:-1]
                    if val[:1] != "[" or val[-1:] != "]" or "[" in body or "]" in body:
                        raise ValueError(f"deps must be one [...] list, got {val!r}")
                    deps = _parse_ids(body)
                elif key == "addr":
                    kw["addr"] = parse_addr(val)
                elif key == "lat":
                    if not val:
                        raise ValueError("lat= needs an EU class name")
                    kw["lat_class"] = val
                elif key == "iline":
                    kw["iline"] = int(val)
                elif key == "fence":
                    if val not in ("0", "1"):
                        raise ValueError(f"fence={val}: want 0 or 1")
                    kw["fence_after"] = val == "1"
                else:
                    kw["branch"] = _parse_branch(val)
            ops.append(MicroOp(id=op_id, kind=kind, src_deps=deps, **kw))
            op_lines.append(lineno)
        except ValueError as e:
            raise ValueError(f"program line {lineno}: {e}") from e
    try:
        return MicroProgram(ops=ops, secret_slots=secrets, annotations=annotations)
    except OpError as e:
        raise ValueError(f"program line {op_lines[e.op]}: {e}") from e


# --- attack address layout -------------------------------------------------

PHANTOM_BASE = 100_000  # scripted lines: phantom, never resident in a set


@dataclass(frozen=True)
class AttackLayout:
    """Concrete line addresses for one target LLC set plus the phantom
    (scripted) lines the sender programs use off to the side. The target
    set is 5 % llc_sets and each eviction set holds llc_ways - 1 lines, so
    every set line is distinct and maps to the target set by construction."""

    geometry: CacheGeometry

    @property
    def set_index(self) -> int:
        return 5 % self.geometry.llc_sets

    def _member(self, k: int) -> int:
        return self.set_index + k * self.geometry.llc_sets

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
        return tuple(self._member(k) for k in range(4, 3 + self.geometry.llc_ways))

    @property
    def evs2(self) -> tuple[int, ...]:
        w = self.geometry.llc_ways
        return tuple(self._member(k) for k in range(3 + w, 2 + 2 * w))

    def interlopers(self, n: int) -> tuple[int, ...]:
        first = 2 + 2 * self.geometry.llc_ways
        return tuple(self._member(k) for k in range(first, first + n))

    # Phantom lines: resolver miss, secret read, secret-indexed array, and
    # a slow victim-address line for the fetch-observable variants.
    resolver_line = PHANTOM_BASE + 1
    access_line = PHANTOM_BASE + 2
    victim_phantom_line = PHANTOM_BASE + 3
    secret_base = PHANTOM_BASE + 16


SECRET = "s0"


@dataclass(frozen=True)
class AttackScript:
    """Attacker-core reference access: one visible same-set LLC access at a
    fixed cycle after the run starts."""

    line: int
    offset_cycle: int


# --- attack programs -------------------------------------------------------

@dataclass(frozen=True)
class AttackParams:
    """Sender shape knobs, in the order of the ``[attack]`` config keys;
    calibration picks working values per machine."""

    z_len: int = 12
    f_len: int = 2
    fp_len: int = 4
    g_len: int = 25
    reference_offset: int = 60  # attacker reference cycle for *-AD orderings
    m: int | None = None  # MSHR gadget loads; default: the configured count


def constructible(gadget: Gadget, ordering: Ordering) -> bool:
    return gadget is not Gadget.RS or ordering is Ordering.VIAD


def marks_fetch(gadget: Gadget, ordering: Ordering) -> bool:
    """Whether the sender ends in a marked instruction fetch (an op with an
    ``iline``): the RS sender always, the others for the VI orderings."""
    return gadget is Gadget.RS or ordering in (Ordering.VIVD, Ordering.VIAD)


def build_attack_program(
    ordering: Ordering,
    gadget: Gadget,
    cfg: MachineConfig,
    params: AttackParams | None = None,
) -> tuple[MicroProgram, AttackScript | None]:
    """Assemble a complete sender for one (ordering, gadget) pair, in
    program order:

        z chain -> f chain (npeu) -> victim load A -> [g chain -> load B]
        -> resolver -> mispredicted branch -> access -> gadget body
        -> [marked fetch]

    The gadget body runs only transiently. MSHR: m secret-indexed loads
    that occupy m distinct MSHRs when the secret is 1 and one when it is 0.
    NPEU: a transmitter load plus fp_len mutually independent ops on the
    non-pipelined unit that the f chain feeding load A also needs; they
    turn ready early exactly when the transmitter hits. RS: a transmitter
    feeding as many dependent ALU ops as there are reservation stations,
    with the marked fetch behind them, so whether its line is fetched
    depends on whether the chain drains. The RS sender has no victim chain
    and pairs only with VI-AD.

    VD-VD / VI-VD add load B, whose address chain g(z) outlasts f(z);
    VD-AD / VI-AD instead script the attacker core to touch the reference
    line at a fixed cycle. VI-* senders resolve the branch with load A,
    steered at a slow phantom line, and put the marked fetch on the
    post-squash correct path; the taken region does not fall through into
    it.
    """
    p = params or AttackParams()
    if not constructible(gadget, ordering):
        raise ConstructionError(f"({gadget.value}, {ordering.value}) is a blocked cell: no sender exists")
    m = p.m if p.m is not None else cfg.l1d_mshrs
    if gadget is Gadget.NPEU:
        if p.f_len < 1:
            raise ConstructionError("npeu gadget needs f_len >= 1: no target chain to interfere with")
        if p.fp_len < 1:
            raise ConstructionError("npeu gadget needs fp_len >= 1")
    if gadget is Gadget.MSHR:
        if m < 2:
            raise ConstructionError("mshr gadget needs m >= 2: one shared line cannot encode the secret")
        if m > cfg.l1d_mshrs:
            raise ConstructionError(f"mshr gadget m={m} exceeds configured L1D MSHRs ({cfg.l1d_mshrs})")
    if gadget is not Gadget.RS and p.z_len < 1:
        raise ConstructionError("z_len must be >= 1")
    victim_pair = ordering in (Ordering.VDVD, Ordering.VIVD)
    if victim_pair and p.g_len < 0:
        raise ValueError(f"g_len must be >= 0, got {p.g_len}")
    if not victim_pair and p.reference_offset < 0:
        raise ValueError(f"reference_offset must be >= 0, got {p.reference_offset}")

    lay = AttackLayout(cfg.geometry)
    npeu = cfg.npeu_class
    ops: list[MicroOp] = []
    roles: dict[str, tuple[int, ...]] = {}

    def add(kind: OpKind, deps: tuple[int, ...] = (), **kw) -> int:
        ops.append(MicroOp(id=len(ops), kind=kind, src_deps=deps, **kw))
        return len(ops) - 1

    def chain(n: int, kind: OpKind, first_deps: tuple[int, ...], **kw) -> tuple[int, ...]:
        """n serial ops, each consuming the one before."""
        ids: list[int] = []
        for _ in range(n):
            ids.append(add(kind, tuple(ids[-1:]) or first_deps, **kw))
        return tuple(ids)

    def secret_line(k: int) -> SecretDep:
        return SecretDep(lay.secret_base, SECRET, stride=1, k=k)

    marked_fetch = marks_fetch(gadget, ordering)
    victim_fetch = marked_fetch and gadget is not Gadget.RS
    if gadget is not Gadget.RS:
        z_tail = chain(p.z_len, OpKind.ALU, ())[-1]
        if gadget is Gadget.NPEU:
            roles["target"] = chain(p.f_len, OpKind.NPEU, (z_tail,), lat_class=npeu)
        victim_line = lay.victim_phantom_line if victim_fetch else lay.victim_line
        # Load A reads the f tail (npeu) or the z tail; load B reads the g
        # tail, or load A itself when g_len is 0.
        victim = add(OpKind.LOAD, (len(ops) - 1,), addr=Literal(victim_line))
        roles["victim_a"] = (victim,)
        if victim_pair:
            chain(p.g_len, OpKind.ALU, (z_tail,))
            reference_b = add(OpKind.LOAD, (len(ops) - 1,), addr=Literal(lay.reference_line))
    resolver = add(OpKind.LOAD, addr=Literal(lay.resolver_line))
    body = {Gadget.MSHR: m, Gadget.NPEU: 1 + p.fp_len, Gadget.RS: 2 + cfg.rs_size}[gadget]
    info = BranchInfo(
        predicted_taken=True,
        actual_taken=False,
        resolver=victim if victim_fetch else resolver,
        join=len(ops) + 2 + body,  # past the branch, the access and the body
        taken_stream_ends=victim_fetch,
    )
    add(OpKind.BRANCH, branch=info)
    access = add(OpKind.LOAD, addr=Literal(lay.access_line))
    roles["access"] = (access,)
    if gadget is Gadget.MSHR:
        roles["gadget"] = tuple(add(OpKind.LOAD, (access,), addr=secret_line(k)) for k in range(m))
    else:
        transmitter = add(OpKind.LOAD, (access,), addr=secret_line(1))
        roles["transmitter"] = (transmitter,)
        if gadget is Gadget.NPEU:
            roles["gadget"] = tuple(add(OpKind.NPEU, (transmitter,), lat_class=npeu) for _ in range(p.fp_len))
        else:
            adds: list[int] = []
            for _ in range(cfg.rs_size):
                adds.append(add(OpKind.ALU, (transmitter, *adds[-1:])))
            roles["gadget"] = tuple(adds)
    if victim_pair:
        roles["reference_b"] = (reference_b,)
    if marked_fetch:
        roles["itarget"] = (add(OpKind.NOP, iline=lay.itarget_line),)

    prog = MicroProgram(ops=ops, secret_slots={SECRET: 0}, annotations=roles)
    if victim_pair:
        return prog, None
    return prog, AttackScript(line=lay.reference_line, offset_cycle=p.reference_offset)
