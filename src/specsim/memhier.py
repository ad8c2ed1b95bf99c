"""Two-level memory hierarchy: per-core L1I/L1D, a shared LLC with the
QLRU_H11_M1_R0_U0 replacement policy, and MSHRs. Every access the
hierarchy performs is persistent: it updates replacement state. It keeps
no log: the engine records each LLC access it makes as an l2access record.
Invisible service of a protected load belongs to the engine: the load
holds an MSHR and takes the level's latency, and the hierarchy sees no
access until the engine replays it at the load's safe cycle.

QLRU_H11_M1_R0_U0 in one breath: lines carry a 2-bit age; inserts land in
the leftmost free way with age 1; a hit promotes 3->1, 2->1, 1->0, 0->0;
eviction takes the leftmost way of age 3, aging every line uniformly first
if no age-3 candidate exists. qlru_touch is the one function that applies
it: every hit, fill and eviction in every set goes through it.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from math import inf
from types import MappingProxyType

AGE_MAX = 3
AGE_INSERT = 1

# H11 hit-promotion table: age before hit -> age after hit.
_HIT_PROMOTE = {0: 0, 1: 0, 2: 1, 3: 1}


class Level(Enum):
    """Where a scripted line is serviced from."""

    L1HIT = "l1hit"
    LLCHIT = "llchit"
    MEMMISS = "memmiss"


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
        self.next_free: int | float = inf  # earliest free_at held; inf when empty

    def _refresh_next_free(self) -> None:
        self.next_free = min([m.free_at for m in self.entries], default=inf)

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
            if free_at > m.free_at:
                m.free_at = free_at
                self._refresh_next_free()
            return m
        if len(self.entries) >= self.capacity:
            return None
        m = Mshr(line=line, waiters=[op_id], free_at=free_at)
        self.entries.append(m)
        self.next_free = min(self.next_free, free_at)
        return m

    def release_due(self, cycle: int) -> list[Mshr]:
        """Drop entries whose fill has returned by this cycle."""
        done = [m for m in self.entries if m.free_at <= cycle]
        if done:
            self.entries = [m for m in self.entries if m.free_at > cycle]
            self._refresh_next_free()
        return done

    def drop_waiter(self, op_id: int) -> None:
        """Remove a squashed op; entries with no waiters left are reclaimed."""
        for m in self.entries:
            if op_id in m.waiters:
                m.waiters.remove(op_id)
        self.entries = [m for m in self.entries if m.waiters]
        self._refresh_next_free()

    def check_invariants(self) -> None:
        assert len(self.entries) <= self.capacity
        assert self.next_free == min([m.free_at for m in self.entries], default=inf)
        lines = [m.line for m in self.entries]
        assert len(lines) == len(set(lines)), "duplicate MSHR lines"
        assert all(m.waiters for m in self.entries), "waiterless MSHR"


# One level's sets: set index -> (tag | None, age) per way, leftmost first.
Ways = tuple[tuple[int | None, int], ...]
_NO_SETS: Mapping[int, Ways] = MappingProxyType({})  # the default: shared, never copied
_LEVELS = ("llc", "l1d", "l1i")


@dataclass(frozen=True)
class CacheImage:
    """Initial cache contents plus per-line service-level scripting.

    Scripted lines are phantom: fixed service level and latency, MSHR
    occupancy when they miss the L1, a visible pattern entry when they reach
    the LLC, but no residency in any tracked set, and none may be placed in
    a set. Valid by construction, like a program: building one (directly,
    by ``replace`` or by parsing) checks every rule that needs no geometry;
    its mappings are read-only copies and its way lists tuples.
    """

    llc: Mapping[int, Ways] = field(default_factory=lambda: _NO_SETS)
    l1d: Mapping[int, Ways] = field(default_factory=lambda: _NO_SETS)
    l1i: Mapping[int, Ways] = field(default_factory=lambda: _NO_SETS)
    scripts: Mapping[int, Level] = field(default_factory=dict)

    def __post_init__(self) -> None:
        placed: set[int] = set()
        for name in _LEVELS:
            content = getattr(self, name)
            if content is _NO_SETS:  # most images script lines and place no set
                continue
            sets = {}
            for set_idx, ways in content.items():
                ways = sets[set_idx] = tuple((tag, age) for tag, age in ways)
                _check_ways(name, set_idx, ways)
                placed.update(tag for tag, _ in ways if tag is not None)
            object.__setattr__(self, name, MappingProxyType(sets))
        object.__setattr__(self, "scripts", MappingProxyType(dict(self.scripts)))
        _check_overlap(placed, self.scripts)

    def dump(self) -> str:
        out: list[str] = []
        for name in _LEVELS:
            for set_idx, ways in sorted(getattr(self, name).items()):
                text = ",".join("-" if t is None else f"{t}:{a}" for t, a in ways)
                out.append(f"{name} set={set_idx} ways=[{text}]")
        for line in sorted(self.scripts):
            out.append(f"script line={line} level={self.scripts[line].value}")
        return "\n".join(out) + ("\n" if out else "")

    @classmethod
    def parse(cls, text: str) -> CacheImage:
        sets: dict[str, dict[int, Ways]] = {name: {} for name in _LEVELS}
        scripts: dict[int, Level] = {}
        placed: set[int] = set()
        for lineno, raw in enumerate(text.splitlines(), 1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            kind, *rest = s.split()
            try:
                if kind in sets:
                    kv = _record_fields(rest, ("set", "ways"))
                    set_idx = int(kv["set"])
                    if set_idx in sets[kind]:
                        raise ValueError(f"second {kind} record for set {set_idx}")
                    ways = sets[kind][set_idx] = _parse_ways(kind, set_idx, kv["ways"])
                    placed.update(tag for tag, _ in ways if tag is not None)
                    _check_overlap(placed, scripts)
                elif kind == "script":
                    kv = _record_fields(rest, ("line", "level"))
                    line = int(kv["line"])
                    if line in scripts:
                        raise ValueError(f"second script record for line {line}")
                    scripts[line] = Level(kv["level"])
                    _check_overlap(placed, (line,))
                else:
                    raise ValueError(f"unknown record {kind!r}")
            except ValueError as e:
                raise ValueError(f"cache image line {lineno}: {e}") from e
        return cls(**sets, scripts=scripts)


def _check_overlap(placed: set[int], scripted: Iterable[int]) -> None:
    """No scripted line is also placed in a set. Parsing checks each record
    against the records before it, so its error names the later one."""
    overlap = placed.intersection(scripted)
    if overlap:
        raise ValueError(f"scripted lines also placed in sets: {sorted(overlap)}")


def _check_ways(kind: str, set_idx: int, ways: Ways) -> None:
    """The rules one set's way list keeps without the geometry: every age
    in range, no tag twice. Building an image checks them; parsing checks
    them per record too, where the error can name the image line."""
    seen: set[int] = set()
    for tag, age in ways:
        if tag is None:
            continue
        if not 0 <= age <= AGE_MAX:
            raise ValueError(f"{kind} line {tag} age {age} out of range")
        if tag in seen:
            raise ValueError(f"{kind} set {set_idx} has duplicate tags")
        seen.add(tag)


def _parse_ways(kind: str, set_idx: int, text: str) -> Ways:
    """One set's ways=[TAG:AGE,-,...] list. Whether a tag maps to its set
    depends on the geometry and is checked by the run that loads the image."""
    body = text[1:-1]
    if len(text) < 2 or text[0] != "[" or text[-1] != "]" or "[" in body or "]" in body:
        raise ValueError(f"ways must be one [...] list, got {text!r}")
    parts = body.split(",") if body else []
    if "" in parts:
        raise ValueError(f"empty item in list {body!r}")
    ways: list[tuple[int | None, int]] = []
    for part in parts:
        if part == "-":
            ways.append((None, 0))
            continue
        tag_text, sep, age_text = part.partition(":")
        if not sep:
            raise ValueError(f"{part!r} is not a TAG:AGE pair or -")
        ways.append((int(tag_text), int(age_text)))
    _check_ways(kind, set_idx, ways)
    return tuple(ways)


def _record_fields(fields: list[str], keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict[str, str]:
    """A text record's key=value fields, in text order: each of keys
    exactly once, each of optional at most once, and nothing else. Cache
    image records and program ops both read their fields here."""
    known = keys + optional
    kv: dict[str, str] = {}
    for f in fields:
        key, sep, val = f.partition("=")
        if not key or not sep:
            raise ValueError(f"expected key=value, got {f!r}")
        if key not in known:
            raise ValueError(f"unknown field {key!r} (expected {', '.join(known)})")
        if key in kv:
            raise ValueError(f"repeated field {key!r}")
        kv[key] = val
    for key in keys:
        if key not in kv:
            raise ValueError(f"missing field {key!r}")
    return kv


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


class MemHier:
    """The hierarchy owned by one simulation run: victim L1I/L1D, an MSHR
    file, the shared LLC and line scripting. The image comes checked; a
    run checks only how it fits the geometry. Each level's sets are built
    empty on first touch (a run touches few of the LLC's sets), always at a
    set index the geometry gives, or one checked here."""

    def __init__(self, geom: CacheGeometry, mshrs: int, image: CacheImage | None = None):
        self.geom = geom
        self.l1d = defaultdict(partial(CacheSet, geom.l1_ways))
        self.l1i = defaultdict(partial(CacheSet, geom.l1_ways))
        self.llc = defaultdict(partial(CacheSet, geom.llc_ways))
        self.mshrs = MshrFile(mshrs)
        self._latency = {Level.L1HIT: geom.lat_l1, Level.LLCHIT: geom.lat_llc, Level.MEMMISS: geom.lat_mem}
        self.scripts: Mapping[int, Level] = {}  # read only: the image's own
        if image is not None:
            self.scripts = image.scripts
            for name in _LEVELS:
                llc = name == "llc"
                index = geom.llc_index if llc else geom.l1_index
                n_sets, n_ways = (geom.llc_sets, geom.llc_ways) if llc else (geom.l1_sets, geom.l1_ways)
                for set_idx, ways in getattr(image, name).items():
                    if not 0 <= set_idx < n_sets:
                        raise ValueError(f"{name} set {set_idx} out of range")
                    if len(ways) > n_ways:
                        raise ValueError(f"{name} set {set_idx} lists {len(ways)} ways > {n_ways}")
                    for tag, _ in ways:
                        if tag is not None and index(tag) != set_idx:
                            raise ValueError(f"{name} line {tag} does not map to set {set_idx}")
                    getattr(self, name)[set_idx] = CacheSet(n_ways, ways)

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

    def llc_access(self, line: int) -> str:
        """One LLC access: update QLRU state. Returns "hit" or "miss" (for
        phantom lines, per their script level: the LLC is inclusive, so an
        l1hit line is in it too)."""
        script = self.scripts.get(line)
        if script is not None:
            return "miss" if script is Level.MEMMISS else "hit"
        cset = self.llc[self.geom.llc_index(line)]
        hit = cset.resident(line)
        evicted = qlru_touch(cset, line)
        if evicted is not None:
            # Inclusive LLC: back-invalidate the L1 copies.
            self.l1d[self.geom.l1_index(evicted)].invalidate(evicted)
            self.l1i[self.geom.l1_index(evicted)].invalidate(evicted)
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
