"""Cycle-level out-of-order core.

In-order fetch/dispatch into ROB + reservation stations, age-ordered issue
to pipelined and non-pipelined units, a width-limited common data bus with
oldest-first arbitration, scripted branch prediction with squash/refetch,
in-order retirement, and the per-scheme load/fetch protection discipline.

Per-cycle phase order (fixed; ties inside a phase go by op id):
  1. MSHR fills return
  2. CDB arbitration: finished ops complete, capped at cdb_width
  3. branch resolution and squash
  4. safe transitions: each protected load does what it owes (OpRec.owed):
     a re-issue, a visible replay or a deferred replacement update
  5. attacker-core scripted accesses
  6. issue select + D-cache accesses
  7. frontend: due I-fetch replays, then fetch/dispatch + I-accesses
  8. retirement, occupancy snapshot

A phase runs only when its trigger holds; otherwise it would change
nothing and log nothing:
  1. the earliest MSHR free_at is due (MshrFile.next_free);
  2. an in-flight op's finish is due, or the CDB queue is non-empty;
  3. a completed branch is due to resolve: it has no resolver, or its
     resolver has completed and complete + branch_resolve_extra is due
     (resolve_at holds the earliest such cycle);
  4. shadow_moved: since the phase last ran, the head of the branch, load
     or store frontier settled, or an op entered an empty unsafe list;
  5. the next attacker access is due;
  6. some op is ready to issue, or a wakeup is due;
  7. the earliest I-fetch replay is due, or fetch is open: redirect_at
     reached, ops left to fetch, the ROB and the RS not full, and no fetch
     hold at fetch_pos (the test the frontend makes itself);
  8. the ROB head has completed.
The occupancy snapshot and its two bounds checks run every stepped cycle.

Why each trigger is exact. Phases 1 and 3 compare the clock with the
thresholds _next_event lists; resolve_at falls when a branch completes or
the resolver of a completed, unresolved branch does, and is recomputed
from shadow.branches whenever phase 3 runs. Phase 4 asks, for the head of
unsafe and of ifetch_waiting, whether the oldest unresolved branch,
incomplete load or incomplete store is older; after it runs, both heads
are unsafe. Neither turns safe until such a frontier head settles: opening
a frontier or squashing only touches ops younger than every waiting op,
and an op enters ifetch_waiting only just found unsafe. Only an op that
enters an empty unsafe list is a new head that may be safe at once. (A
marker that retires in its dispatch cycle pops the head of unsafe, but the
ops behind it came in the same cycle, and the first of them entered an
empty list.) Phase 7 compares the clock with the top of ifetch_replays
and reads the current fetch holds (a hold goes when its branch resolves or
is squashed); the ROB and the RS are read after every phase of the cycle
that frees an entry, except retirement, which follows the frontend
anyway. So when it holds, the frontend logs a due replay or a fetch.
Therefore run() logs exactly what calling all eight phases on every
cycle would log, field for field; a test holds it to that reference loop,
and another holds phases 1, 3 and 7 to logging at every call.

Secret-free prefix. A secret enters the machine only through the address
of a SecretDep load, when _issue_load resolves it. So two runs that differ
only in their secrets take the same path up to that point: both reach the
first such resolution in the same cycle, and every record, pattern entry
and occupancy row of an earlier cycle is the same in both. The trace
reports that cycle as secret_read_cycle; when no load resolves a secret
address it is None, and the two runs are identical throughout. The
checker and the calibration skip the second run wherever this fixes its
outcome.

Fetch-shadow-free runs. The fetch shadow is read at one point only: when a
marked fetch (an op with an iline) is dispatched, phase 7 asks whether the
scheme's fetch-shadow rule holds it, and defers its I-access if so. The
shadow frontiers do not depend on the scheme's fetch shadow, so the engine
asks the same of every rule some scheme uses there (schemes.FETCH_SHADOWS)
and the trace reports those that held some marked fetch as fetch_shadowed.
Take two runs whose schemes differ only in the fetch shadow. Up to the
first marked fetch that either one defers they are the same run, so that
fetch finds the same frontiers in both, and its rule enters the set of
both. So when neither shadow is in the set, neither run defers a fetch and
they are the same run throughout, the set included. schemes.serves states
the rule; a sender's run memo (attacks.RunMemo) reuses a run under it.

Clock advance. A stepped cycle changes no state when it logs no event, or
only mshr_stall retries (a refused MSHR allocation leaves everything as it
was). Every following cycle then repeats it, the same retries in the same
op order included, until the clock reaches a threshold that some phase
compares against:
  - the earliest MSHR free_at, MshrFile.next_free (phase 1);
  - an in-flight op's finish, the top of finishing (phase 2);
  - the earliest due branch resolution, resolve_at (phase 3);
  - the next attacker access (phase 5);
  - a waiting op's last producer complete + writeback_delay, the top of
    wakeups, and an NPEU unit's busy_until (phase 6);
  - redirect_at and the due I-fetch replays (phase 7).
_next_event names the earliest of these, or max_cycles if that comes
first. It reads the same values the phase triggers compare with the clock,
so no jump can pass a cycle at which a trigger holds. An unchanged cycle
always ends with work in the ROB: ops leave it only at logged events
(retire, squash), a cycle that starts drained logs the access it was
jumped to, and with the ROB empty fetch logs unless redirect_at (set in a
cycle that logged its squash) or a fetch hold, whose branch is unresolved
and so in the ROB, holds it. After such a cycle the engine appends the
repeated retries and occupancy rows for every cycle up to the target and
jumps the clock there, so max_cycles fires on the cycle a one-cycle step
would reach. If _next_event returns None, no phase can ever act again:
that is a deadlock, raised at once with the cycle of the last record. Once
the ROB is drained and nothing is left to fetch, only the attacker script
and I-fetch replays remain: the clock jumps to the next of them (or to
max_cycles) and leaves no rows for the cycles between.

"Logs nothing" means "changes nothing" up to the trigger bookkeeping and
two silent moves. The bookkeeping (next_free, resolve_at, shadow_moved)
only records when a phase can act next; a phase it skips would have logged
and changed nothing, so a run is the one that calling all eight phases
every cycle gives, and the rest of this argument is about that run. The
issue phase moves an op whose wakeup is due from wakeups to ready, and the
safe transitions move an op that has left its fetch shadow from
ifetch_waiting to ifetch_replays; neither logs an event. Neither hides
progress from _next_event. An op moved to ready that does not issue in
that cycle is held by a fence, a parked miss, a busy NPEU unit or the
look-ahead (a full issue width or pipelined class means another op issued,
and a refused MSHR logs a retry). Each of these lets go only at a logged
event or at an NPEU unit's busy_until: the look-ahead's bounds never fall
behind the clock, so once it holds an op it holds it while the clock alone
advances. A replay moved to ifetch_replays is due at a cycle that
_next_event reports.

Incremental state. Instead of rescanning the ROB, the engine keeps these
views current at the events that change them (dispatch, issue, complete,
resolve, safe transition, retire, squash):
  - rob: a deque of op ids in age order (ids ascend; refetch after a
    squash only appends ids younger than every survivor);
  - waiting / wakeups / ready: a dispatched, un-issued op sits in exactly
    one of them: producers still incomplete (count, decremented by
    dependence wakeup at each producer's completion), all complete but the
    last write-back still ahead (heap by ready cycle), or inputs ready
    (ascending ids, the issue candidates; a parked load stays here);
  - rs_count: the RS entries held. A non-marker op holds one from dispatch
    until it issues, or under rs_hold until it turns safe if it issued
    first; issue, the safe transition and a squash free them by that rule;
  - finishing / cdb_queue: issued ops by finish cycle, then the finished
    ones awaiting the bus by id; together they are the issued, incomplete
    ops, so their lengths sum to the occupancy rows' eu_busy column;
  - shadow: one ShadowState whose frontiers (oldest unresolved branch,
    oldest incomplete load and store, oldest open fence) serve both the
    load shadow rule and the fetch shadow rule; the completed members of
    its branch list are the branches phase 3 may resolve;
  - unsafe / ifetch_waiting: ROB ops still awaiting their safe transition
    or their deferred I-access. Under every shadow rule an op is safe only
    if every older op is, so each cycle's transitions pop a prefix. The
    ROB head is safe under every rule, and phase 4 ran after the last
    older frontier op settled (phase 2 or 3, heading its list): a retiring
    op owes nothing and no I-access, and holds no RS entry;
  - OpRec.owed: set by _issue_load, at most once per load (a parked load
    re-issues safe), and done and cleared by the safe transition;
  - fetch_holds: branch id -> join of each fetched predicted-taken branch
    whose taken region ends at the join, from its fetch until it resolves;
  - ifetch_replays: a heap of (due cycle, op), pushed by the safe
    transitions and popped by the frontend. The frontend runs at every due
    cycle and _next_event lists the top, so a due entry is due now and
    heap order is op order.
A squash truncates every view to the ops at or older than the branch (the
four issue and CDB queues in place, since run() holds them for the whole
run), drops the fetch holds of killed branches, and frees the non-pipelined
unit of each killed op that is still executing; a killed op that finished
earlier leaves the unit to whichever op has booked it since. A killed op
keeps its owed value, but it has left ready and unsafe, so nothing reads
it again. Both fetch shadows hold a fetch behind an older unresolved
branch, so no killed op has left ifetch_waiting for ifetch_replays. Each
killed op that is fetched again gets a fresh OpRec. The OpRecs hold the
per-op stamps, not the op (program.ops[i]); the trace keeps the final one
of each op as `ops`.

Per-program tables. What the engine reads of a program under any scheme is
derived once per program and kept on it (MicroProgram.tables): each op's
EU class name, the ops that consume each result, the branches each op
resolves, the shadow frontier it opens and the fence points under each
fence model. The program is frozen, so the tables cannot go stale, and
they are tuples, so no run can change them for the next. A run looks each
class up in cfg.eu (an unknown class still fails here, per run) and builds
its own OpRecs and MemHier. A fence scheme runs the program as given:
ShadowState reads the fence points of the scheme's model, so no fenced
copy is built or checked.

Enum costs. The per-event path (the phases, ShadowState, MemHier and
EngineTables.derive) reads each enum member it compares against from a
name bound once at module level, and keys no dict or set by an enum; the
one enum set, fetch_shadowed, grows only at a marked fetch that a fetch
shadow holds. Both costs are CPython 3.11's: EnumType defines
__getattr__, so naming a member through its class (OpKind.LOAD) takes the
metaclass's slow attribute path, about 220 ns against about 30 ns for a
module-level name; and Enum.__hash__ is a Python function of about 210 ns
a call. A run hashes a few members in all (its scheme, its fence model,
the fetch shadows that held a marked fetch), however many ops it has; a
test counts them.

Event log. Each event is logged as a plain tuple record (cycle, name, op,
extra): op is None for events of no op, and extra is None or a dict of the
fields that six kinds carry (l2access, mshr_stall, mshr_free, delayed,
resolve, ifetch). Records are never mutated, so repeated stall records
share one extra dict. The hot phases append records directly; the rare
kinds go through _event. ExecutionTrace keeps them as `records`, the run's
only log, and `accesses`, the positions of its l2access records, which the
engine notes as it logs them. Two views are built on first read: `pattern`,
one AccessRecord per l2access record, read at those positions instead of
scanning the log (the hierarchy keeps no copy), and `events`, one
TraceEvent per record with its own extra dict. serialize() renders the
records directly. The per-op timing is not copied either: the trace keeps
the engine's final OpRec of each op as `ops`, and times(op, key) reads one
stamp from it.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import islice, repeat
from math import inf
from typing import NamedTuple

from .machine import EuClass, MachineConfig
from .memhier import CacheImage, Level, MemHier
from .microprog import AttackScript, MicroProgram, OpKind, SecretDep
from .schemes import FETCH_SHADOWS, MissPolicy, SchemeId, SchemeSpec, ShadowRule, ShadowState, scheme_spec


class SimulationDeadlock(RuntimeError):
    pass


NEVER = -1

# The enum members the phases compare against, bound once each: on CPython
# 3.11 a load such as OpKind.LOAD takes EnumType's slow attribute path,
# about 220 ns against about 30 ns for a module-level name ("Enum costs").
_BRANCH, _LOAD, _NOP = OpKind.BRANCH, OpKind.LOAD, OpKind.NOP
_L1HIT = Level.L1HIT
_VISIBLE, _DELAY, _INVISIBLE = MissPolicy.VISIBLE, MissPolicy.DELAY, MissPolicy.INVISIBLE

# What a protected load's safe transition owes (OpRec.owed), compared by identity.
PARKED = "parked"  # a parked miss: it re-issues
REPLAY = "replay"  # an invisibly serviced load: its visible access is replayed
L1_UPDATE = "l1_update"  # an L1 hit: its replacement update is applied


class OpRec:
    """Runtime record of one op: lifecycle timestamps plus load state, not
    the op. The engine updates it in place; a squash followed by a refetch
    replaces it.
    Each run's trace keeps the final record of every op as ``ops``, so its
    stamps (dispatch, issue, complete, retire, squash, safe, resolved; NEVER
    if the op never reached that point) are the trace's per-op timing."""

    __slots__ = (
        "dispatch",
        "issue",
        "complete",
        "retire",
        "squash",
        "safe",
        "resolved",
        "finish",
        "owed",
        "npeu_unit",
    )

    def __init__(self):
        self.dispatch = NEVER  # fetched and dispatched in the same cycle
        self.issue = NEVER
        self.complete = NEVER
        self.retire = NEVER
        self.squash = NEVER
        self.safe = NEVER
        self.resolved = NEVER
        self.finish = NEVER  # scheduled execution end, awaiting CDB
        self.owed: str | None = None  # PARKED, REPLAY or L1_UPDATE, until safe
        self.npeu_unit: int | None = None


# One logged event: (cycle, name, op or None, extra fields or None). The
# extra dict is shared by repeated records and is never mutated.
Record = tuple[int, str, int | None, dict | None]


def _record_text(cycle: int, name: str, op: int | None, extra: dict | None) -> str:
    parts = [f"cycle={cycle}", f"event={name}"]
    if op is not None:
        parts.append(f"op={op}")
    if extra:
        for k in sorted(extra):
            parts.append(f"{k}={extra[k]}")
    return " ".join(parts)


@dataclass
class TraceEvent:
    cycle: int
    name: str
    op: int | None
    extra: dict = field(default_factory=dict)


class AccessRecord(NamedTuple):
    """One visible LLC access: an l2access record's fields. All are fills."""

    cycle: int
    line: int
    requester: str  # "victim" | "attacker"
    op_id: int | None

    def key(self) -> tuple[int, str, str]:
        return (self.line, self.requester, "fill")


@dataclass
class ExecutionTrace:
    """Everything observable about one run: the event log, per-op
    timestamps, per-cycle occupancy, the visible-access pattern, and the
    total cycle count (the last retirement: a squashing branch stays in
    the ROB and retires at or after its squash). records, ops and
    occupancy are kept as the engine left them; ops holds the final OpRec
    of each op, whose stamps times() reads. Nothing may change them."""

    records: list[Record]
    accesses: list[int]  # the positions of the l2access records in records
    ops: tuple[OpRec, ...]  # the final OpRec of each op, by op id
    occupancy: list[tuple[int, int, int, int]]  # cycle, rs, mshr, eu_busy
    total_cycles: int
    # Final LLC contents (non-empty sets only), for receiver probes and
    # golden set-state dumps: set index -> ((tag|None, age), ...) per way.
    llc_state: dict[int, tuple[tuple[int | None, int], ...]] = field(default_factory=dict)
    # First cycle at which a load with a secret-dependent address resolved
    # its line; None if none did. Runs that differ only in their secrets
    # agree on everything logged before it, and entirely when it is None.
    secret_read_cycle: int | None = None
    # The fetch-shadow rules (schemes.FETCH_SHADOWS) that would have held
    # one of this run's marked fetches at its dispatch. The run is also the
    # run under a fetch shadow outside this set (schemes.serves).
    fetch_shadowed: frozenset[ShadowRule] = frozenset()

    @cached_property
    def pattern(self) -> list[AccessRecord]:
        """The visible LLC accesses: the l2access records at `accesses`, in order."""
        records = self.records
        return [AccessRecord(c, x["line"], x["requester"], op) for c, _, op, x in map(records.__getitem__, self.accesses)]

    @cached_property
    def events(self) -> list[TraceEvent]:
        """The records as TraceEvent objects, each with its own extra dict.
        Besides a test, perfbench/layers.py is its only reader."""
        return [TraceEvent(c, name, op, dict(extra) if extra else {}) for c, name, op, extra in self.records]

    def serialize(self) -> str:
        return "\n".join([_record_text(*r) for r in self.records]) + "\n"

    def occupancy_csv(self) -> str:
        rows = ["cycle,rs_fill,mshr_fill,eu_busy"]
        rows += [f"{c},{r},{m},{e}" for c, r, m, e in self.occupancy]
        return "\n".join(rows) + "\n"

    def times(self, op_id: int, key: str) -> int:
        """One stamp of one op, e.g. times(3, "issue"); NEVER if not reached."""
        return getattr(self.ops[op_id], key)


def run(
    program: MicroProgram,
    cfg: MachineConfig,
    scheme: SchemeId,
    secrets: dict[str, int] | None = None,
    image: CacheImage | None = None,
    attacker: AttackScript | list[tuple[int, int]] | None = None,
    force_correct_predictions: bool = False,
    max_cycles: int | None = None,
) -> ExecutionTrace:
    """Simulate one program to completion. Pure function of its inputs:
    identical arguments produce an identical trace, bit for bit.

    ``program``, ``cfg`` and ``image`` are valid by construction, so none
    is checked again here. Per run, only what pairs inputs is checked: how
    the image fits the cache geometry, the secrets against the program's
    slots, and each op's EU class against the configured table.
    A fence scheme runs the program as given: the engine reads its fence
    points from ``program.tables``, so no fenced copy is built."""
    engine = _Engine(program, cfg, scheme_spec(scheme), secrets, image, attacker, force_correct_predictions)
    return engine.run(max_cycles)


class _Engine:
    def __init__(
        self,
        program: MicroProgram,
        cfg: MachineConfig,
        spec: SchemeSpec,
        secrets: dict[str, int] | None,
        image: CacheImage | None,
        attacker: AttackScript | list[tuple[int, int]] | None,
        force_correct: bool,
    ):
        self.ops = program.ops
        self.cfg = cfg
        self.spec = spec
        self.secrets = program.secrets_with(secrets)
        self.hier = MemHier(cfg.geometry, cfg.l1d_mshrs, image)
        self.force_correct = force_correct
        self.recs = [OpRec() for _ in program.ops]
        tables = program.tables
        # Per op: its EU class name and entry, None for a marker.
        self.lat_classes = tables.eu_classes
        eu = cfg.eu
        try:
            self.eus: list[EuClass | None] = [None if k is None else eu[k] for k in self.lat_classes]
        except KeyError:
            i, klass = next((i, k) for i, k in enumerate(self.lat_classes) if k is not None and k not in eu)
            raise ValueError(f"op {i}: unknown EU class {klass!r}") from None
        self.consumers = tables.consumers
        self.resolves = tables.resolves  # op -> branches it resolves
        self.rob: deque[int] = deque()
        self.fetch_pos = 0
        self.redirect_at = 0  # earliest cycle the frontend may fetch
        self.cycle = 0
        self.records: list[Record] = []
        self.accesses: list[int] = []  # positions of the l2access records
        self.occupancy: list[tuple[int, int, int, int]] = []
        self.shadow = ShadowState(tables.frontiers, tables.fence_points[spec.fence_model])
        # Validation allows exactly one non-pipelined class: one busy list.
        self.npeu_busy_until = [0] * cfg.eu[cfg.npeu_class].count
        self.ifetch_replays: list[tuple[int, int]] = []  # heap of (due cycle, op)
        if attacker is None:
            self.attacker: list[tuple[int, int]] = []
        elif isinstance(attacker, AttackScript):
            self.attacker = [(attacker.offset_cycle, attacker.line)]
        else:
            self.attacker = sorted(attacker)
        self.attacker_pos = 0
        self.rs_count = 0
        # branch id -> join position: fetch holds at the join while the
        # predicted-taken branch whose region ends there is unresolved.
        self.fetch_holds: dict[int, int] = {}
        # Incremental views of the ROB (see the module docstring).
        self.waiting: dict[int, int] = {}  # op -> its producers not yet complete
        self.wakeups: list[tuple[int, int]] = []  # heap of (ready cycle, op)
        self.ready: list[int] = []  # ascending: un-issued ops whose inputs are ready
        self.finishing: list[tuple[int, int]] = []  # heap of (finish, op), result not yet due
        self.cdb_queue: list[int] = []  # heap of ops whose result is due, awaiting the bus
        self.unsafe: deque[int] = deque()  # ROB ops without a safe transition yet
        self.ifetch_waiting: deque[int] = deque()  # ROB ops owing a deferred I-access
        # Phase triggers (see the module docstring).
        self.resolve_at: int | float = inf  # earliest due of a completed, unresolved branch
        self.shadow_moved = False  # a frontier or a waiting-list head moved
        self.secret_read_cycle: int | None = None
        self.fetch_shadowed: set[ShadowRule] = set()

    # -- bookkeeping ---------------------------------------------------

    def _event(self, name: str, op: int | None, extra: dict | None = None) -> None:
        self.records.append((self.cycle, name, op, extra))

    def _wake(self, op_id: int) -> None:
        """Every producer of op_id has completed: it may issue once the
        last result has been written back."""
        recs = self.recs
        at = 0
        for d in self.ops[op_id].src_deps:
            done = recs[d].complete + self.cfg.writeback_delay
            if done > at:
                at = done
        if at <= self.cycle:
            insort(self.ready, op_id)
        else:
            heappush(self.wakeups, (at, op_id))

    def _resolve_due(self, branch_id: int) -> int | float:
        """First cycle at which a completed branch may resolve: at once
        without a resolver, inf while its resolver is incomplete."""
        resolver = self.ops[branch_id].branch.resolver
        if resolver is None:
            return 0
        done = self.recs[resolver].complete
        return inf if done == NEVER else done + self.cfg.branch_resolve_extra

    # -- clock -----------------------------------------------------------

    def run(self, max_cycles: int | None) -> ExecutionTrace:
        n, mshrs = len(self.ops), self.hier.mshrs
        recs, rob, records, occupancy, attacker = self.recs, self.rob, self.records, self.occupancy, self.attacker
        rob_size, rs_size, n_mshrs = self.cfg.rob_size, self.cfg.rs_size, self.cfg.l1d_mshrs
        # Bound once: a squash truncates these queues in place.
        ready, wakeups, finishing, cdb_queue = self.ready, self.wakeups, self.finishing, self.cdb_queue
        phase_cdb, phase_issue = self._phase_cdb, self._phase_issue
        phase_frontend, phase_retire = self._phase_frontend, self._phase_retire
        replays = self.ifetch_replays
        while True:
            if self.fetch_pos >= n and not rob:
                # Drained: jump to the next attacker access or I-fetch replay.
                nxt = self._next_event(max_cycles)
                if nxt is None:
                    break
                self.cycle = max(self.cycle, nxt)
            if max_cycles is not None and self.cycle >= max_cycles:
                raise SimulationDeadlock(f"exceeded max_cycles={max_cycles}")
            n_events = len(records)
            cycle = self.cycle
            # Each phase runs only when its trigger holds; otherwise it
            # would change nothing (see the module docstring).
            if mshrs.next_free <= cycle:
                self._phase_mshr_returns()
            if cdb_queue or (finishing and finishing[0][0] <= cycle):
                phase_cdb()
            if self.resolve_at <= cycle:
                self._phase_resolve_and_squash()
            if self.shadow_moved:
                self._phase_safe_transitions()
            if self.attacker_pos < len(attacker) and attacker[self.attacker_pos][0] <= cycle:
                self._phase_attacker()
            if ready or (wakeups and wakeups[0][0] <= cycle):
                phase_issue()
            if (replays and replays[0][0] <= cycle) or (
                self.fetch_pos < n
                and cycle >= self.redirect_at
                and len(rob) < rob_size
                and self.rs_count < rs_size
                and not (self.fetch_holds and self.fetch_pos in self.fetch_holds.values())
            ):
                phase_frontend()
            if rob and recs[rob[0]].complete != NEVER:
                phase_retire()
            held = len(mshrs.entries)
            occupancy.append((cycle, self.rs_count, held, len(finishing) + len(cdb_queue)))
            assert self.rs_count <= rs_size
            assert held <= n_mshrs
            self.cycle = cycle + 1
            if len(records) == n_events or records[-1][1] == "mshr_stall" and all(
                r[1] == "mshr_stall" for r in islice(records, n_events, None)
            ):
                self._repeat_unchanged(n_events, max_cycles)
        return self._finish()

    def _next_event(self, max_cycles: int | None) -> int | None:
        """Earliest cycle at which some phase's comparison against the clock
        can come out differently, or max_cycles if that comes first; None if
        no phase has such a cycle ahead. With the ROB drained and nothing
        left to fetch, only the attacker's script and I-fetch replays remain."""
        times = [self.ifetch_replays[0][0]] if self.ifetch_replays else []
        if self.attacker_pos < len(self.attacker):
            times.append(self.attacker[self.attacker_pos][0])
        if self.rob:
            if self.finishing:
                times.append(self.finishing[0][0])
            if self.wakeups:
                times.append(self.wakeups[0][0])
            later = (self.hier.mshrs.next_free, self.resolve_at, self.redirect_at, *self.npeu_busy_until)
            times += [t for t in later if self.cycle <= t < inf]
        if not times:
            return None
        nxt = min(times)
        return nxt if max_cycles is None else min(nxt, max_cycles)

    def _repeat_unchanged(self, first: int, max_cycles: int | None) -> None:
        """The cycle just stepped changed no state: it logged nothing, or
        only the MSHR retries in self.records[first:]. Every cycle before
        the next threshold repeats it, retries and occupancy row alike; with
        no threshold ahead, the run is deadlocked."""
        target = self._next_event(max_cycles)
        if target is None:
            raise SimulationDeadlock(self._deadlock_diagnostic())
        assert target >= self.cycle
        if first < len(self.records):
            stalls = [(op, extra) for _, _, op, extra in islice(self.records, first, None)]
            for c in range(self.cycle, target):
                self.records.extend([(c, "mshr_stall", op, extra) for op, extra in stalls])
        busy = len(self.finishing) + len(self.cdb_queue)
        rows = zip(range(self.cycle, target), repeat(self.rs_count), repeat(len(self.hier.mshrs.entries)), repeat(busy))
        self.occupancy.extend(rows)
        self.cycle = target

    def _deadlock_diagnostic(self) -> str:
        stuck = [
            f"op{i}:{self.ops[i].kind.value}"
            f"(issue={self.recs[i].issue},complete={self.recs[i].complete})"
            for i in islice(self.rob, 8)
        ]
        return f"no progress since cycle {self.records[-1][0]}; rob head: {', '.join(stuck)}"

    # -- phases ----------------------------------------------------------

    def _phase_mshr_returns(self) -> None:
        cycle = self.cycle
        self.records.extend([(cycle, "mshr_free", None, {"line": m.line}) for m in self.hier.mshrs.release_due(cycle)])

    def _phase_cdb(self) -> None:
        cycle = self.cycle
        finishing, cdb_queue = self.finishing, self.cdb_queue
        while finishing and finishing[0][0] <= cycle:
            heappush(cdb_queue, heappop(finishing)[1])
        recs, records, ops, shadow = self.recs, self.records, self.ops, self.shadow
        resolves, consumers, waiting = self.resolves, self.consumers, self.waiting
        for _ in range(min(self.cfg.cdb_width, len(cdb_queue))):
            i = heappop(cdb_queue)
            recs[i].complete = cycle
            records.append((cycle, "complete", i, None))
            if ops[i].kind is _BRANCH:
                self.resolve_at = min(self.resolve_at, self._resolve_due(i))
            elif shadow.settle(i):
                self.shadow_moved = True
            for b in resolves[i]:
                # A completed branch it resolves falls due. It is unresolved:
                # a resolver completes again only after a squash that replaced
                # the branch's OpRec. (A marker resolver completes at dispatch.)
                r = recs[b]
                if r.complete != NEVER and r.squash == NEVER:
                    self.resolve_at = min(self.resolve_at, cycle + self.cfg.branch_resolve_extra)
            for k in consumers[i]:
                left = waiting.get(k)  # None: k waits on no producer
                if left == 1:
                    del waiting[k]
                    self._wake(k)
                elif left:
                    waiting[k] = left - 1

    def _phase_resolve_and_squash(self) -> None:
        cycle = self.cycle
        recs, ops = self.recs, self.ops
        squash_branch: int | None = None
        for i in [j for j in self.shadow.branches if recs[j].complete != NEVER]:
            if cycle < self._resolve_due(i):
                continue
            b = ops[i].branch
            recs[i].resolved = cycle
            self.fetch_holds.pop(i, None)
            if self.shadow.settle(i):
                self.shadow_moved = True
            self._event("resolve", i, {"mispredicted": int(b.mispredicted() and not self.force_correct)})
            if b.mispredicted() and not self.force_correct and squash_branch is None:
                squash_branch = i
        if squash_branch is not None:
            self.squash(squash_branch)
        done = [j for j in self.shadow.branches if recs[j].complete != NEVER]
        self.resolve_at = min(map(self._resolve_due, done), default=inf)

    def squash(self, branch_id: int) -> None:
        """Kill everything younger than the branch and redirect fetch."""
        b = self.ops[branch_id].branch
        killed: list[int] = []
        while self.rob and self.rob[-1] > branch_id:
            killed.append(self.rob.pop())
        rs_hold = self.spec.rs_hold
        for i in reversed(killed):
            r = self.recs[i]
            # Its RS entry, if it holds one (see rs_count in the module docstring).
            # Under rs_hold it does: this branch has shadowed it since it entered.
            if self.ops[i].kind is not _NOP and (r.issue == NEVER or rs_hold):
                self.rs_count -= 1
            if r.npeu_unit is not None and r.finish > self.cycle:
                self.npeu_busy_until[r.npeu_unit] = self.cycle
            self.hier.mshrs.drop_waiter(i)
            r.squash = self.cycle
            self._event("squash", i)
        self.fetch_holds = {b: j for b, j in self.fetch_holds.items() if b <= branch_id}
        self.shadow.squash_after(branch_id)
        self.waiting = {i: left for i, left in self.waiting.items() if i <= branch_id}
        # In place: run() holds these four queues for the whole run.
        for queue in (self.wakeups, self.finishing):
            queue[:] = [(t, i) for t, i in queue if i <= branch_id]
            heapify(queue)
        self.cdb_queue[:] = [i for i in self.cdb_queue if i <= branch_id]
        heapify(self.cdb_queue)
        del self.ready[bisect_right(self.ready, branch_id) :]
        for ids in (self.unsafe, self.ifetch_waiting):
            while ids and ids[-1] > branch_id:
                ids.pop()
        # Correct-path ops fetched down the wrong direction get refetched.
        resume = branch_id + 1 if b.actual_taken else b.join
        for i in range(resume, len(self.recs)):
            if self.recs[i].squash != NEVER:
                self.recs[i] = OpRec()
        self.fetch_pos = resume
        self.redirect_at = self.cycle + 1

    def _phase_safe_transitions(self) -> None:
        # Safety is monotone in age under every rule, so the ops that turn
        # safe this cycle are a prefix of the age-ordered waiting lists.
        self.shadow_moved = False
        cycle = self.cycle
        unsafe, safe, rule = self.unsafe, self.shadow.safe, self.spec.shadow
        rs_hold = self.spec.rs_hold
        while unsafe and safe(rule, unsafe[0]):
            i = unsafe.popleft()
            r = self.recs[i]
            r.safe = cycle
            self.records.append((cycle, "safe", i, None))
            owed = r.owed
            if owed is not None:
                r.owed = None
                if owed is PARKED:
                    self._event("reissue", i)  # re-executes this cycle
                elif owed is REPLAY:
                    self._visible_access(self.ops[i].resolve_line(self.secrets), i)
                else:
                    self.hier.l1_hit_update(self.ops[i].resolve_line(self.secrets))
            if rs_hold and r.issue != NEVER:
                self.rs_count -= 1  # it issued before this, so while unsafe
        # Deferred I-accesses replay on a refetch-shaped schedule: starting
        # the cycle after the op left its fetch shadow, fetch-width per
        # cycle. They fire in the frontend phase so a replay and an actual
        # post-squash refetch of the same program point land identically.
        idx = 0
        waiting, rule = self.ifetch_waiting, self.spec.fetch_shadow
        while waiting and safe(rule, waiting[0]):
            heappush(self.ifetch_replays, (cycle + 1 + idx // self.cfg.fetch_width, waiting.popleft()))
            idx += 1

    def _phase_attacker(self) -> None:
        while self.attacker_pos < len(self.attacker) and self.attacker[self.attacker_pos][0] <= self.cycle:
            _, line = self.attacker[self.attacker_pos]
            self.attacker_pos += 1
            res = self.hier.llc_access(line)
            self.accesses.append(len(self.records))
            self._event("l2access", None, {"line": line, "requester": "attacker", "result": res})

    # -- issue -----------------------------------------------------------

    def _earliest_ready_lb(self, op_id: int, memo: dict[int, int]) -> int:
        """Lower bound on when an un-issued op could demand a unit; used by
        the advanced-defense look-ahead. Unknown-latency inputs (parked or
        un-issued loads) bound at next cycle. memo holds the bounds already
        derived in this look-ahead, which keeps a dependence DAG linear."""
        if op_id in memo:
            return memo[op_id]
        worst = self.cycle
        for d in self.ops[op_id].src_deps:
            dep = self.recs[d]
            if dep.complete != NEVER:
                t = dep.complete + self.cfg.writeback_delay
            elif dep.finish != NEVER:
                t = dep.finish + self.cfg.writeback_delay
            elif self.ops[d].kind is _LOAD:
                t = self.cycle + 1
            else:
                # A marker in a body that a not-taken prediction skipped was
                # never dispatched, yet the wrong path past the join may use it.
                eu = self.eus[d]
                t = self._earliest_ready_lb(d, memo) + (eu.latency if eu else 1) + self.cfg.writeback_delay
            worst = max(worst, t)
        memo[op_id] = worst
        return worst

    def _lookahead_blocks(self, op_id: int, klass: str) -> bool:
        """Would issuing this op now risk stalling an older op of the same
        non-pipelined class before the unit frees again?"""
        release = self.cycle + self.cfg.eu[klass].latency
        memo: dict[int, int] = {}
        for i in self.rob:
            if i >= op_id:
                break
            if self.recs[i].issue != NEVER or self.lat_classes[i] != klass:
                continue  # issued, or a marker (no class) or another class
            if self._earliest_ready_lb(i, memo) < release:
                return True
        return False

    def _phase_issue(self) -> None:
        cycle = self.cycle
        ready, wakeups = self.ready, self.wakeups
        while wakeups and wakeups[0][0] <= cycle:
            insort(ready, heappop(wakeups)[1])
        fence_frontier = self.shadow.oldest_open_fence
        recs, ops, eus, lat_classes, records = self.recs, self.ops, self.eus, self.lat_classes, self.records
        issue_width = self.cfg.issue_width
        rs_hold = self.spec.rs_hold
        busy_until, finishing = self.npeu_busy_until, self.finishing
        issued = 0
        started: list[int] = []
        pipelined_used: dict[str, int] = {}
        for i in ready:
            if issued >= issue_width:
                break
            if fence_frontier is not None and i > fence_frontier:
                break  # so is every younger candidate
            r = recs[i]
            if r.owed is PARKED:
                continue
            eu = eus[i]
            unit = None
            if eu.pipelined:
                klass = lat_classes[i]
                used = pipelined_used.get(klass, 0)
                if used >= eu.count:
                    continue
                pipelined_used[klass] = used + 1
            else:
                if self.spec.npeu_lookahead and self._lookahead_blocks(i, lat_classes[i]):
                    continue
                unit = next((u for u, until in enumerate(busy_until) if until <= cycle), None)
                if unit is None:
                    continue
            issued += 1  # load attempts consume the slot whether or not they land
            if ops[i].kind is _LOAD:
                if self._issue_load(i) != "ok":
                    continue
            else:
                finish = r.finish = cycle + eu.latency
                heappush(finishing, (finish, i))
                if unit is not None:
                    busy_until[unit] = finish
                    r.npeu_unit = unit
            r.issue = cycle
            started.append(i)
            if not (rs_hold and r.safe == NEVER):
                self.rs_count -= 1
            records.append((cycle, "issue", i, None))
        if len(started) == len(ready):
            ready.clear()
        else:
            for i in started:
                ready.remove(i)

    def _issue_load(self, op_id: int) -> str:
        """Access the D-side for a load at its issue point. Returns "ok",
        "stall" (no MSHR, retry next cycle) or "delayed" (protected miss
        parked until safe)."""
        r = self.recs[op_id]
        op = self.ops[op_id]
        line = op.resolve_line(self.secrets)
        if self.secret_read_cycle is None and isinstance(op.addr, SecretDep):
            self.secret_read_cycle = self.cycle
        safe = r.safe != NEVER
        level = self.hier.service_level(line)
        lat = self.hier.latency(level)
        if level is _L1HIT:
            if safe or self.spec.miss_policy is _VISIBLE:
                self.hier.l1_hit_update(line)
            else:
                r.owed = L1_UPDATE
        else:
            if not safe and self.spec.miss_policy is _DELAY:
                r.owed = PARKED
                self._event("delayed", op_id, {"line": line})
                return "delayed"
            if self.hier.mshrs.allocate(line, op_id, free_at=self.cycle + lat) is None:
                self._event("mshr_stall", op_id, {"line": line})
                return "stall"
            if not safe and self.spec.miss_policy is _INVISIBLE:
                # Serviced invisibly: the MSHR and the latency are all it
                # costs now. The hierarchy sees the access only when the
                # safe transition replays it.
                r.owed = REPLAY
            else:
                self._visible_access(line, op_id)
        r.finish = self.cycle + lat  # it executes from now
        heappush(self.finishing, (r.finish, op_id))
        return "ok"

    def _visible_access(self, line: int, op_id: int, icache: bool = False) -> None:
        """Perform the persistent (visible) side of a D-access, or of an
        I-fetch with icache, now: on an L1 miss, the LLC replacement update,
        the L1 fill and the l2access record (fetch=1 for an I-fetch); or the
        L1 promotion when the line sits in the L1 (an l1i ifetch record)."""
        if self.hier.service_level(line, icache) is _L1HIT:
            self.hier.l1_hit_update(line, icache)
            if icache:
                self._event("ifetch", op_id, {"line": line, "level": "l1i"})
            return
        res = self.hier.llc_access(line)
        self.hier.l1_fill(line, icache)
        extra = {"line": line, "requester": "victim", "result": res}
        self.accesses.append(len(self.records))
        self._event("l2access", op_id, extra | {"fetch": 1} if icache else extra)

    # -- frontend ----------------------------------------------------------

    def _phase_frontend(self) -> None:
        cycle = self.cycle
        replays = self.ifetch_replays
        while replays and replays[0][0] <= cycle:
            # Every due replay is due now (none is ever passed), so heap
            # order is op order.
            op_id = heappop(replays)[1]
            self._visible_access(self.ops[op_id].iline, op_id, icache=True)
        if cycle < self.redirect_at:
            return
        ops, recs, rob, unsafe, records = self.ops, self.recs, self.rob, self.unsafe, self.records
        n = len(ops)
        cfg = self.cfg
        width = min(cfg.fetch_width, cfg.dispatch_width)
        fetch_shadow = self.spec.fetch_shadow
        shadow, safe = self.shadow, self.shadow.safe
        holds = self.fetch_holds
        fetched = 0
        while fetched < width and self.fetch_pos < n:
            if holds and self.fetch_pos in holds.values():
                break  # a taken region ended: nothing to fetch until its branch resolves
            op = ops[self.fetch_pos]
            if len(rob) >= cfg.rob_size:
                break
            # Dispatch is head-of-line: a full RS stalls fetch wholesale,
            # even for ops (markers) that will not occupy an RS slot.
            if self.rs_count >= cfg.rs_size:
                break
            i = op.id
            r = recs[i]
            r.dispatch = cycle
            rob.append(i)
            if not unsafe:
                self.shadow_moved = True  # a new head, which may be safe already
            unsafe.append(i)
            if op.kind is _NOP:
                r.complete = cycle  # markers complete at dispatch
            else:
                self.rs_count += 1
                shadow.open(i)
                left = 0  # its producers not yet complete
                for d in op.src_deps:
                    if recs[d].complete == NEVER:
                        left += 1
                if left:
                    self.waiting[i] = left
                else:
                    self._wake(i)
            records += ((cycle, "fetch", i, None), (cycle, "dispatch", i, None))
            if op.iline is not None:
                # Which fetch shadows cover the fetch right now (including
                # ops dispatched earlier this cycle)? The scheme's own one, if
                # among them, holds it until a frontier moves: no need to flag
                # the safe transitions.
                shadowed = [rule for rule in FETCH_SHADOWS if not safe(rule, op.id)]
                self.fetch_shadowed.update(shadowed)
                if fetch_shadow in shadowed:
                    self.ifetch_waiting.append(op.id)
                else:
                    self._visible_access(op.iline, op.id, icache=True)
            if op.kind is _BRANCH:
                taken = op.branch.actual_taken if self.force_correct else op.branch.predicted_taken
                self.fetch_pos = op.id + 1 if taken else op.branch.join
                if taken and op.branch.taken_stream_ends:
                    holds[op.id] = op.branch.join
            else:
                self.fetch_pos += 1
            fetched += 1

    def _phase_retire(self) -> None:
        cycle = self.cycle
        rob, recs, ops, unsafe = self.rob, self.recs, self.ops, self.unsafe
        retired = 0
        while rob and retired < self.cfg.retire_width:
            i = rob[0]
            r = recs[i]
            if r.complete == NEVER or (ops[i].kind is _BRANCH and r.resolved == NEVER):
                break
            rob.popleft()
            if unsafe and unsafe[0] == i:
                # A marker retiring in its dispatch cycle. Every op left in
                # the list came in this cycle, after the safe transitions
                # ran, so the first of them entered an empty list and
                # shadow_moved is still set.
                unsafe.popleft()
            r.retire = cycle
            self.records.append((cycle, "retire", i, None))
            retired += 1

    def _finish(self) -> ExecutionTrace:
        llc_state: dict[int, tuple[tuple[int | None, int], ...]] = {}
        empty = [None] * self.cfg.geometry.llc_ways
        for idx in sorted(self.hier.llc):
            cset = self.hier.llc[idx]
            if cset.tags != empty:
                llc_state[idx] = cset.state()
        return ExecutionTrace(
            records=self.records,
            accesses=self.accesses,
            ops=tuple(self.recs),
            occupancy=self.occupancy,
            total_cycles=next((c for c, name, _, _ in reversed(self.records) if name == "retire"), 0),
            llc_state=llc_state,
            secret_read_cycle=self.secret_read_cycle,
            fetch_shadowed=frozenset(self.fetch_shadowed),
        )
