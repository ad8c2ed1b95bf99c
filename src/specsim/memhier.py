"""Two-level memory hierarchy: per-core L1I/L1D, a shared LLC with the
QLRU_H11_M1_R0_U0 replacement policy, MSHRs, and the visible/invisible
access discipline that records the attacker-observable access pattern.

QLRU_H11_M1_R0_U0 in one breath: lines carry a 2-bit age; inserts land in
the leftmost free way with age 1; a hit promotes 3->1, 2->1, 1->0, 0->0;
eviction takes the leftmost way of age 3, aging every line uniformly first
if no age-3 candidate exists. qlru_touch is the one function that applies
it: every hit, fill and eviction in every set goes through it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum

AGE_MAX = 3
AGE_INSERT = 1

# H11 hit-promotion table: age before hit -> age after hit.
_HIT_PROMOTE = {0: 0, 1: 0, 2: 1, 3: 1}


class Level(Enum):
    """Where a scripted line is serviced from."""

    L1HIT = "l1hit"
    LLCHIT = "llchit"
    MEMMISS = "memmiss"


class Requester(Enum):
    VICTIM = "victim"
    ATTACKER = "attacker"


class CacheSet:
    """One set: an ordered array of ways, each empty or holding (tag, age).

    Way order is physical position; "leftmost" means lowest index. The
    optional state fills the leftmost ways from (tag | None, age) pairs in
    way order, the format state() returns.
    """

    __slots__ = ("tags", "ages")

    def __init__(self, ways: int, state: Iterable[tuple[int | None, int]] = ()):
        self.tags: list[int | None] = [None] * ways
        self.ages: list[int] = [0] * ways
        for i, (tag, age) in enumerate(state):
            self.tags[i] = tag
            self.ages[i] = age

    def find(self, line: int) -> int | None:
        try:
            return self.tags.index(line)
        except ValueError:
            return None

    def resident(self, line: int) -> bool:
        return line in self.tags

    def state(self) -> tuple[tuple[int | None, int], ...]:
        return tuple(zip(self.tags, self.ages))

    def invalidate(self, line: int) -> bool:
        i = self.find(line)
        if i is None:
            return False
        self.tags[i] = None
        self.ages[i] = 0
        return True

    def check_invariants(self) -> None:
        seen = set()
        for t, a in zip(self.tags, self.ages):
            assert 0 <= a <= AGE_MAX, f"age {a} out of range"
            if t is not None:
                assert t not in seen, f"duplicate tag {t}"
                seen.add(t)


def qlru_touch(cset: CacheSet, line: int) -> int | None:
    """One access to a set under QLRU_H11_M1_R0_U0: the whole policy.

    A hit promotes the line per H11. A miss fills the leftmost free way at
    age 1; in a full set it first adds 3 - max age to every age (U0) and
    then replaces the leftmost age-3 way (R0). Returns the evicted line, or
    None when nothing was displaced.
    """
    tags, ages = cset.tags, cset.ages
    if line in tags:
        i = tags.index(line)
        ages[i] = _HIT_PROMOTE[ages[i]]
        return None
    victim = None
    if None in tags:
        i = tags.index(None)
    else:
        bump = AGE_MAX - max(ages)
        if bump:
            ages[:] = [a + bump for a in ages]
        i = ages.index(AGE_MAX)
        victim = tags[i]
    tags[i] = line
    ages[i] = AGE_INSERT
    return victim


@dataclass(frozen=True)
class CacheGeometry:
    """Set/way counts and service latencies (cycles, total per level)."""

    l1_sets: int = 64
    l1_ways: int = 8
    llc_sets: int = 128
    llc_ways: int = 16
    lat_l1: int = 4
    lat_llc: int = 40
    lat_mem: int = 200

    def l1_index(self, line: int) -> int:
        return line % self.l1_sets

    def llc_index(self, line: int) -> int:
        return line % self.llc_sets


@dataclass
class AccessRecord:
    """One visible LLC access. Pattern equality uses (line, requester, kind)
    only; cycle and op are simulator-internal bookkeeping."""

    cycle: int
    line: int
    requester: Requester
    kind: str  # "fill" | "writeback"
    op_id: int | None = None

    def key(self) -> tuple[int, str, str]:
        return (self.line, self.requester.value, self.kind)


@dataclass
class Mshr:
    line: int
    waiters: list[int]
    free_at: int


class MshrFile:
    """L1D miss status holding registers: one per outstanding miss line,
    merged waiters, allocation refused when all entries are busy."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: list[Mshr] = []

    def occupancy(self) -> int:
        return len(self.entries)

    def find(self, line: int) -> Mshr | None:
        for m in self.entries:
            if m.line == line:
                return m
        return None

    def allocate(self, line: int, op_id: int, free_at: int) -> Mshr | None:
        """Allocate or merge; None means Busy (caller retries)."""
        m = self.find(line)
        if m is not None:
            m.waiters.append(op_id)
            m.free_at = max(m.free_at, free_at)
            return m
        if len(self.entries) >= self.capacity:
            return None
        m = Mshr(line=line, waiters=[op_id], free_at=free_at)
        self.entries.append(m)
        return m

    def release_due(self, cycle: int) -> list[Mshr]:
        """Drop entries whose fill has returned by this cycle."""
        done = [m for m in self.entries if m.free_at <= cycle]
        self.entries = [m for m in self.entries if m.free_at > cycle]
        return done

    def drop_waiter(self, op_id: int) -> None:
        """Remove a squashed op; entries with no waiters left are reclaimed."""
        for m in self.entries:
            if op_id in m.waiters:
                m.waiters.remove(op_id)
        self.entries = [m for m in self.entries if m.waiters]

    def check_invariants(self) -> None:
        assert len(self.entries) <= self.capacity
        lines = [m.line for m in self.entries]
        assert len(lines) == len(set(lines)), "duplicate MSHR lines"
        assert all(m.waiters for m in self.entries), "waiterless MSHR"


@dataclass
class CacheImage:
    """Initial cache contents plus per-line service-level scripting.

    Scripted lines are phantom: fixed service level and latency, MSHR
    occupancy when they miss the L1, a visible pattern entry when they reach
    the LLC, but no residency in any tracked set. They must not collide with
    lines placed in sets.
    """

    llc: dict[int, list[tuple[int | None, int]]] = field(default_factory=dict)
    l1d: dict[int, list[tuple[int | None, int]]] = field(default_factory=dict)
    l1i: dict[int, list[tuple[int | None, int]]] = field(default_factory=dict)
    scripts: dict[int, Level] = field(default_factory=dict)

    def validate(self, geom: CacheGeometry) -> None:
        placed: set[int] = set()
        for name, content, n_sets, n_ways, index in (
            ("llc", self.llc, geom.llc_sets, geom.llc_ways, geom.llc_index),
            ("l1d", self.l1d, geom.l1_sets, geom.l1_ways, geom.l1_index),
            ("l1i", self.l1i, geom.l1_sets, geom.l1_ways, geom.l1_index),
        ):
            for set_idx, ways in content.items():
                if not 0 <= set_idx < n_sets:
                    raise ValueError(f"{name} set {set_idx} out of range")
                if len(ways) > n_ways:
                    raise ValueError(f"{name} set {set_idx} lists {len(ways)} ways > {n_ways}")
                tags = [t for t, _ in ways if t is not None]
                if len(tags) != len(set(tags)):
                    raise ValueError(f"{name} set {set_idx} has duplicate tags")
                for tag, age in ways:
                    if tag is None:
                        continue
                    if not 0 <= age <= AGE_MAX:
                        raise ValueError(f"{name} line {tag} age {age} out of range")
                    if index(tag) != set_idx:
                        raise ValueError(f"{name} line {tag} does not map to set {set_idx}")
                    placed.add(tag)
        overlap = placed & set(self.scripts)
        if overlap:
            raise ValueError(f"scripted lines also placed in sets: {sorted(overlap)}")

    def dump(self) -> str:
        out: list[str] = []
        for name, content in (("llc", self.llc), ("l1d", self.l1d), ("l1i", self.l1i)):
            for set_idx in sorted(content):
                ways = ",".join("-" if t is None else f"{t}:{a}" for t, a in content[set_idx])
                out.append(f"{name} set={set_idx} ways=[{ways}]")
        for line in sorted(self.scripts):
            out.append(f"script line={line} level={self.scripts[line].value}")
        return "\n".join(out) + ("\n" if out else "")

    @classmethod
    def parse(cls, text: str) -> CacheImage:
        img = cls()
        for lineno, raw in enumerate(text.splitlines(), 1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            fields = s.split()
            try:
                if fields[0] in ("llc", "l1d", "l1i"):
                    kv = dict(f.split("=", 1) for f in fields[1:])
                    set_idx = int(kv["set"])
                    body = kv["ways"].strip("[]")
                    ways = []
                    if body:
                        for part in body.split(","):
                            if part == "-":
                                ways.append((None, 0))
                                continue
                            tag, age = part.split(":")
                            ways.append((int(tag), int(age)))
                    getattr(img, fields[0])[set_idx] = ways
                elif fields[0] == "script":
                    kv = dict(f.split("=", 1) for f in fields[1:])
                    img.scripts[int(kv["line"])] = Level(kv["level"])
                else:
                    raise ValueError(f"unknown record {fields[0]!r}")
            except (KeyError, ValueError, IndexError) as e:
                raise ValueError(f"cache image line {lineno}: {e}") from e
        return img


def format_set(cset: CacheSet, names: dict[int, str] | None = None) -> str:
    """Render a set in the image text style: ways=[TAG:AGE,-,...]."""
    parts = []
    for t, a in zip(cset.tags, cset.ages):
        if t is None:
            parts.append("-")
        else:
            label = names.get(t, str(t)) if names else str(t)
            parts.append(f"{label}:{a}")
    return "ways=[" + ",".join(parts) + "]"


class SetArray(dict):
    """One cache level's sets, indexed by set number. A set is built empty
    on first touch: a run touches few of the LLC's sets."""

    __slots__ = ("n_sets", "ways")

    def __init__(self, n_sets: int, ways: int):
        super().__init__()
        self.n_sets = n_sets
        self.ways = ways

    def __missing__(self, idx: int) -> CacheSet:
        if not 0 <= idx < self.n_sets:
            raise IndexError(f"set {idx} out of range")
        cset = self[idx] = CacheSet(self.ways)
        return cset


class MemHier:
    """The hierarchy owned by one simulation run: victim L1I/L1D, an MSHR
    file, the shared LLC, line scripting, and the visible access pattern."""

    def __init__(self, geom: CacheGeometry, mshrs: int, image: CacheImage | None = None):
        self.geom = geom
        self.l1d = SetArray(geom.l1_sets, geom.l1_ways)
        self.l1i = SetArray(geom.l1_sets, geom.l1_ways)
        self.llc = SetArray(geom.llc_sets, geom.llc_ways)
        self.mshrs = MshrFile(mshrs)
        self._latency = {Level.L1HIT: geom.lat_l1, Level.LLCHIT: geom.lat_llc, Level.MEMMISS: geom.lat_mem}
        self.scripts: dict[int, Level] = {}
        self.pattern: list[AccessRecord] = []
        if image is not None:
            image.validate(geom)
            self.scripts = dict(image.scripts)
            for sets, content in ((self.llc, image.llc), (self.l1d, image.l1d), (self.l1i, image.l1i)):
                for set_idx, ways in content.items():
                    sets[set_idx] = CacheSet(sets.ways, ways)

    def service_level(self, line: int, icache: bool = False) -> Level:
        """Where a demand access to this line would be serviced from now."""
        script = self.scripts.get(line)
        if script is not None:
            return script
        l1 = self.l1i if icache else self.l1d
        if l1[self.geom.l1_index(line)].resident(line):
            return Level.L1HIT
        if self.llc[self.geom.llc_index(line)].resident(line):
            return Level.LLCHIT
        return Level.MEMMISS

    def latency(self, level: Level) -> int:
        return self._latency[level]

    def llc_access(
        self,
        line: int,
        requester: Requester,
        visible: bool,
        cycle: int,
        op_id: int | None = None,
    ) -> str:
        """One LLC access. Visible accesses update QLRU state and append to
        the pattern; invisible accesses change nothing anywhere. Returns
        "hit" or "miss" (for phantom lines, per their script level)."""
        script = self.scripts.get(line)
        if script is not None:
            if visible and script is not Level.L1HIT:
                self.pattern.append(AccessRecord(cycle, line, requester, "fill", op_id))
            return "hit" if script is Level.LLCHIT else "miss"
        cset = self.llc[self.geom.llc_index(line)]
        hit = cset.resident(line)
        if visible:
            evicted = qlru_touch(cset, line)
            if evicted is not None:
                # Inclusive LLC: back-invalidate the L1 copies.
                self.l1d[self.geom.l1_index(evicted)].invalidate(evicted)
                self.l1i[self.geom.l1_index(evicted)].invalidate(evicted)
            self.pattern.append(AccessRecord(cycle, line, requester, "fill", op_id))
        return "hit" if hit else "miss"

    def l1_fill(self, line: int, icache: bool = False) -> None:
        """Install a line in the L1 after a visible fill (real lines only)."""
        if line in self.scripts:
            return
        l1 = self.l1i if icache else self.l1d
        qlru_touch(l1[self.geom.l1_index(line)], line)

    def l1_hit_update(self, line: int, icache: bool = False) -> None:
        """Apply the replacement-state side of an L1 hit (promotion)."""
        if line in self.scripts:
            return
        l1 = self.l1i if icache else self.l1d
        cset = l1[self.geom.l1_index(line)]
        if cset.resident(line):
            qlru_touch(cset, line)


def order_sensitivity(
    prefix: list[int],
    a: int,
    b: int,
    ways: int,
    geom: CacheGeometry | None = None,
) -> bool:
    """Whether the final set state distinguishes prefix+a+b from prefix+b+a.

    a and b must be distinct, map to the same set, and be absent after the
    prefix replay; otherwise the orders trivially commute and this returns
    False. State comparison covers tags, ages, and way positions.
    """
    if a == b:
        return False
    if geom is not None and geom.llc_index(a) != geom.llc_index(b):
        return False
    base = CacheSet(ways)
    for line in prefix:
        qlru_touch(base, line)
    if base.resident(a) or base.resident(b):
        return False
    ab = CacheSet(ways, base.state())
    qlru_touch(ab, a)
    qlru_touch(ab, b)
    ba = CacheSet(ways, base.state())
    qlru_touch(ba, b)
    qlru_touch(ba, a)
    return ab.state() != ba.state()
