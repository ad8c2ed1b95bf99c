"""Cycle-level out-of-order core.

In-order fetch/dispatch into ROB + reservation stations, age-ordered issue
to pipelined and non-pipelined units, a width-limited common data bus with
oldest-first arbitration, scripted branch prediction with squash/refetch,
in-order retirement, and the per-scheme load/fetch protection discipline.

Per-cycle phase order (fixed; ties inside a phase go by op id):
  1. MSHR fills return
  2. CDB arbitration: finished ops complete, capped at cdb_width
  3. branch resolution and squash
  4. safe transitions: deferred replacement updates, delayed-load
     re-issues, visible replays of invisibly-serviced loads
  5. attacker-core scripted accesses
  6. issue select + D-cache accesses
  7. frontend: due I-fetch replays, then fetch/dispatch + I-accesses
  8. retirement, occupancy snapshot

A phase runs only when its trigger holds; otherwise it would change
nothing and log nothing:
  1. some MSHR entry is held;
  2. an in-flight op's finish is due, or the CDB queue is non-empty;
  3. some completed branch is unresolved;
  4. some ROB op awaits its safe transition or its deferred I-access;
  5. the next attacker access is due;
  6. some op is ready to issue, or a wakeup is due;
  7. an I-fetch replay is owed, or fetch is open (redirect_at reached)
     with ops left to fetch;
  8. the ROB head has completed.
The occupancy snapshot and its two bounds checks run every stepped cycle.

Secret-free prefix. A secret enters the machine only through the address
of a SecretDep load, when _issue_load resolves it. So two runs that differ
only in their secrets take the same path up to that point: both reach the
first such resolution in the same cycle, and every record, pattern entry
and occupancy row of an earlier cycle is the same in both. The trace
reports that cycle as secret_read_cycle; when no load resolves a secret
address it is None, and the two runs are identical throughout. The
checker and the calibration skip the second run wherever this fixes its
outcome.

Clock advance. A cycle in which no phase appends an event changes no
state, so every following cycle is event-free too until the clock reaches
a threshold that some phase compares against:
  - an MSHR's free_at (phase 1);
  - an in-flight op's finish (phase 2);
  - a resolver's complete + branch_resolve_extra (phase 3);
  - the next attacker access (phase 5);
  - a waiting op's last producer complete + writeback_delay, and an NPEU
    unit's busy_until (phase 6);
  - redirect_at and the due I-fetch replays (phase 7).
After an event-free cycle the clock jumps to the earliest of these, capped
at last_progress + deadlock_after + 1 and at max_cycles so that the
deadlock and max_cycles checks fire on the same cycle as a one-cycle step
would. The skipped cycles get occupancy rows that repeat the idle row. Once
the ROB is drained and nothing is left to fetch, only the attacker script
and I-fetch replays remain: the clock jumps straight to the next of them,
leaves no rows for the cycles between, and counts the jump as progress.

A cycle whose only events are mshr_stall retries changes no state either:
a refused MSHR allocation leaves everything as it was. Every following
cycle repeats the same retries until the same earliest threshold, at the
latest the free_at of an MSHR. So after such a cycle the engine appends,
for each cycle up to that threshold (capped at max_cycles), the same
retries in the same op order as new records and the same occupancy row,
sets last_progress to the last repeated cycle, as the retries would have,
and jumps the clock. A stepped retry is progress, so the deadlock check
cannot fire inside the stretch, and max_cycles fires where it would.

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
  - finishing / cdb_queue: issued ops by finish cycle, then the finished
    ones awaiting the bus by id;
  - unresolved_done: completed branches not yet resolved;
  - shadow: one ShadowState whose frontiers (oldest unresolved branch,
    oldest incomplete load and store, oldest open fence) serve both the
    load shadow rule and the fetch shadow rule;
  - unsafe / ifetch_waiting: ROB ops still awaiting their safe transition
    or their deferred I-access. Under every shadow rule an op is safe only
    if every older op is, so each cycle's transitions pop a prefix.
A squash truncates every view to the ops at or older than the branch.

Event log. Each event is logged as a plain tuple record (cycle, name, op,
extra): op is None for events of no op, and extra is None or a dict of the
fields that six kinds carry (l2access, mshr_stall, mshr_free, delayed,
resolve, ifetch). Records are never mutated, so repeated stall records
share one extra dict. ExecutionTrace keeps them as `records`, which the
engine and the oracle's squash test read. `events` is a view that
builds one TraceEvent per record, each with its own extra dict, on first
read. serialize() renders the records directly, to the same bytes as
joining the view's line_text().
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import islice

from .machine import MachineConfig
from .memhier import CacheImage, Level, MemHier, Requester
from .microprog import AttackScript, MicroOp, MicroProgram, OpKind, SecretDep
from .schemes import (
    MissPolicy,
    SchemeId,
    SchemeSpec,
    ShadowState,
    insert_fences,
    scheme_spec,
)


class SimulationDeadlock(RuntimeError):
    pass


_KIND_CLASS = {
    OpKind.LOAD: "lsu",
    OpKind.STORE_ADDR: "lsu",
    OpKind.ALU: "alu",
    OpKind.NPEU: "npeu",
    OpKind.BRANCH: "alu",
}

NEVER = -1


class OpRec:
    """Runtime record of one op: lifecycle timestamps plus load state."""

    __slots__ = (
        "op",
        "fetch",
        "dispatch",
        "issue",
        "complete",
        "retire",
        "squash",
        "safe",
        "resolved",
        "in_rs",
        "finish",
        "line",
        "delayed",
        "pending_replay",
        "deferred_l1_update",
        "ifetch_pending",
        "npeu_unit",
    )

    def __init__(self, op: MicroOp):
        self.op = op
        self.fetch = NEVER
        self.dispatch = NEVER
        self.issue = NEVER
        self.complete = NEVER
        self.retire = NEVER
        self.squash = NEVER
        self.safe = NEVER
        self.resolved = NEVER
        self.in_rs = False
        self.finish = NEVER  # scheduled execution end, awaiting CDB
        self.line: int | None = None
        self.delayed = False  # protected miss parked until safe
        self.pending_replay = False  # invisibly serviced, visible replay owed
        self.deferred_l1_update: int | None = None
        self.ifetch_pending = False  # protected speculative fetch, replay owed
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

    def line_text(self) -> str:
        return _record_text(self.cycle, self.name, self.op, self.extra)


@dataclass
class ExecutionTrace:
    """Everything observable about one run: the event log, per-op
    timestamps, per-cycle occupancy, the visible-access pattern, and the
    total cycle count (last retirement or squash)."""

    records: list[Record]
    op_times: dict[int, dict[str, int]]
    occupancy: list[tuple[int, int, int, int]]  # cycle, rs, mshr, eu_busy
    pattern: list  # AccessRecord list from the hierarchy
    total_cycles: int
    # Final LLC contents (non-empty sets only), for receiver probes and
    # golden set-state dumps: set index -> ((tag|None, age), ...) per way.
    llc_state: dict[int, tuple[tuple[int | None, int], ...]] = field(default_factory=dict)
    # First cycle at which a load with a secret-dependent address resolved
    # its line; None if none did. Runs that differ only in their secrets
    # agree on everything logged before it, and entirely when it is None.
    secret_read_cycle: int | None = None

    def pattern_keys(self) -> list[tuple[int, str, str]]:
        return [r.key() for r in self.pattern]

    @cached_property
    def events(self) -> list[TraceEvent]:
        """The event log as TraceEvent objects, built on first read; each
        event gets its own extra dict."""
        return [TraceEvent(c, name, op, dict(extra) if extra else {}) for c, name, op, extra in self.records]

    def serialize(self) -> str:
        return "\n".join([_record_text(*r) for r in self.records]) + "\n"

    def occupancy_csv(self) -> str:
        rows = ["cycle,rs_fill,mshr_fill,eu_busy"]
        rows += [f"{c},{r},{m},{e}" for c, r, m, e in self.occupancy]
        return "\n".join(rows) + "\n"

    def times(self, op_id: int, key: str) -> int:
        return self.op_times[op_id][key]


def run(
    program: MicroProgram,
    cfg: MachineConfig,
    scheme: SchemeId | str,
    secrets: dict[str, int] | None = None,
    image: CacheImage | None = None,
    attacker: AttackScript | list[tuple[int, int]] | None = None,
    force_correct_predictions: bool = False,
    max_cycles: int | None = None,
) -> ExecutionTrace:
    """Simulate one program to completion. Pure function of its inputs:
    identical arguments produce an identical trace, bit for bit."""
    cfg.validate()
    program.validate()
    spec = scheme_spec(scheme)
    if spec.fence_model is not None:
        program = insert_fences(program, spec.fence_model)
    engine = _Engine(program, cfg, spec, secrets, image, attacker, force_correct_predictions)
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
        self.program = program
        self.cfg = cfg
        self.spec = spec
        self.secrets = program.secrets_with(secrets)
        self.hier = MemHier(cfg.geometry, cfg.l1d_mshrs, image)
        self.force_correct = force_correct
        self.recs = [OpRec(op) for op in program.ops]
        self.lat_classes: list[str | None] = []  # per op: its EU class, None for a marker
        for op in program.ops:
            klass = None if op.kind is OpKind.NOP else op.lat_class or _KIND_CLASS[op.kind]
            if klass is not None and klass not in cfg.eu:
                raise ValueError(f"op {op.id}: unknown EU class {klass!r}")
            self.lat_classes.append(klass)
        self.consumers: list[list[int]] = [[] for _ in program.ops]
        for op in program.ops:
            for d in op.src_deps:
                self.consumers[d].append(op.id)
        self.rob: deque[int] = deque()
        self.fetch_pos = 0
        self.redirect_at = 0  # earliest cycle the frontend may fetch
        self.cycle = 0
        self.records: list[Record] = []
        self.occupancy: list[tuple[int, int, int, int]] = []
        self.shadow = ShadowState()
        self.last_progress = 0
        # Validation allows exactly one non-pipelined class: one busy list.
        self.npeu_busy_until = [0] * cfg.eu[cfg.npeu_class].count
        self.inflight = 0  # issued, not completed (occupancy reporting)
        self.ifetch_replays: list[tuple[int, int]] = []  # (cycle, op_id)
        if attacker is None:
            self.attacker: list[tuple[int, int]] = []
        elif isinstance(attacker, AttackScript):
            self.attacker = [(attacker.offset_cycle, attacker.line)]
        else:
            self.attacker = sorted(attacker)
        self.attacker_pos = 0
        self.rs_count = 0
        self.last_drain_cycle = 0
        # (join position, branch id): fetch holds at the join while the
        # predicted-taken branch whose region ends there is unresolved.
        self.fetch_holds: list[tuple[int, int]] = []
        # Incremental views of the ROB (see the module docstring).
        self.waiting: dict[int, int] = {}  # op -> its producers not yet complete
        self.wakeups: list[tuple[int, int]] = []  # heap of (ready cycle, op)
        self.ready: list[int] = []  # ascending: un-issued ops whose inputs are ready
        self.finishing: list[tuple[int, int]] = []  # heap of (finish, op), result not yet due
        self.cdb_queue: list[int] = []  # heap of ops whose result is due, awaiting the bus
        self.unresolved_done: list[int] = []  # ascending: completed, unresolved branches
        self.unsafe: deque[int] = deque()  # ROB ops without a safe transition yet
        self.ifetch_waiting: deque[int] = deque()  # ROB ops owing a deferred I-access
        self.secret_read_cycle: int | None = None

    # -- bookkeeping ---------------------------------------------------

    def _event(self, name: str, op: int | None, extra: dict | None = None) -> None:
        self.records.append((self.cycle, name, op, extra))

    def _is_safe(self, op_id: int) -> bool:
        return self.recs[op_id].safe != NEVER

    def _wake(self, op_id: int) -> None:
        """Every producer of op_id has completed: it may issue once the
        last result has been written back."""
        deps = self.recs[op_id].op.src_deps
        at = max((self.recs[d].complete + self.cfg.writeback_delay for d in deps), default=0)
        if at <= self.cycle:
            insort(self.ready, op_id)
        else:
            heappush(self.wakeups, (at, op_id))

    def _completed(self, op_id: int) -> None:
        op = self.recs[op_id].op
        if op.kind is OpKind.BRANCH:
            insort(self.unresolved_done, op_id)
        else:
            self.shadow.settle(op)
        for k in self.consumers[op_id]:
            left = self.waiting.get(k)
            if left is None:
                continue
            if left > 1:
                self.waiting[k] = left - 1
            else:
                del self.waiting[k]
                self._wake(k)

    # -- clock -----------------------------------------------------------

    def run(self, max_cycles: int | None) -> ExecutionTrace:
        n = len(self.program.ops)
        deadlock_after = self.cfg.rob_size * self.cfg.max_latency()
        mshrs = self.hier.mshrs
        recs = self.recs
        while True:
            drained = self.fetch_pos >= n and not self.rob
            if drained and not self.ifetch_replays and self.attacker_pos >= len(self.attacker):
                break
            if max_cycles is not None and self.cycle >= max_cycles:
                raise SimulationDeadlock(f"exceeded max_cycles={max_cycles}")
            if drained:
                # Only scheduled external events left: jump to the next one.
                nxt = self._next_event()
                if nxt > self.cycle:
                    self.cycle = nxt
                    self.last_progress = nxt
            if self.cycle - self.last_progress > deadlock_after:
                raise SimulationDeadlock(self._deadlock_diagnostic())
            n_events = len(self.records)
            cycle = self.cycle
            # Each phase runs only when its trigger holds; otherwise it
            # would change nothing (see the module docstring).
            if mshrs.entries:
                self._phase_mshr_returns()
            if self.cdb_queue or (self.finishing and self.finishing[0][0] <= cycle):
                self._phase_cdb()
            if self.unresolved_done:
                self._phase_resolve_and_squash()
            if self.unsafe or self.ifetch_waiting:
                self._phase_safe_transitions()
            if self.attacker_pos < len(self.attacker) and self.attacker[self.attacker_pos][0] <= cycle:
                self._phase_attacker()
            if self.ready or (self.wakeups and self.wakeups[0][0] <= cycle):
                self._phase_issue()
            if self.ifetch_replays or (self.fetch_pos < n and cycle >= self.redirect_at):
                self._phase_frontend()
            if self.rob and recs[self.rob[0]].complete != NEVER:
                self._phase_retire()
            held = mshrs.occupancy()
            self.occupancy.append((cycle, self.rs_count, held, self.inflight))
            assert self.rs_count <= self.cfg.rs_size
            assert held <= self.cfg.l1d_mshrs
            self.cycle = cycle + 1
            if len(self.records) == n_events:
                if self.rob or self.fetch_pos < n:
                    # Nothing happened, so nothing will until a threshold passes.
                    cap = self.last_progress + deadlock_after + 1
                    if max_cycles is not None:
                        cap = min(cap, max_cycles)
                    nxt = self._next_event()
                    self._idle_until(cap if nxt is None else min(nxt, cap))
                continue
            self.last_progress = cycle
            if self.records[-1][1] == "mshr_stall" and all(
                r[1] == "mshr_stall" for r in islice(self.records, n_events, None)
            ):
                self._repeat_stalls(n_events, max_cycles)
        return self._finish()

    def _next_event(self) -> int | None:
        """Earliest cycle at which some phase's comparison against the clock
        can come out differently; None if no such cycle exists. With the
        ROB drained and nothing left to fetch, only the attacker's script
        and I-fetch replays remain."""
        times = [c for c, _ in self.ifetch_replays]
        if self.attacker_pos < len(self.attacker):
            times.append(self.attacker[self.attacker_pos][0])
        if self.rob or self.fetch_pos < len(self.recs):
            times += [m.free_at for m in self.hier.mshrs.entries]
            if self.finishing:
                times.append(self.finishing[0][0])
            if self.wakeups:
                times.append(self.wakeups[0][0])
            later = [self.redirect_at, *self.npeu_busy_until]
            for i in self.unresolved_done:
                resolver = self.recs[i].op.branch.resolver
                if resolver is not None and self.recs[resolver].complete != NEVER:
                    later.append(self.recs[resolver].complete + self.cfg.branch_resolve_extra)
            times += [t for t in later if t >= self.cycle]
        return min(times, default=None)

    def _idle_until(self, target: int) -> None:
        """Jump the clock to target: the cycles before it, event-free or
        repeated retries, get occupancy rows that repeat the current state."""
        assert target >= self.cycle
        row = (self.rs_count, self.hier.mshrs.occupancy(), self.inflight)
        self.occupancy.extend((c, *row) for c in range(self.cycle, target))
        self.cycle = target

    def _repeat_stalls(self, first: int, max_cycles: int | None) -> None:
        """The cycle just stepped logged only the MSHR retries from
        self.records[first:], which change no state: every cycle before the
        next threshold (at the latest an MSHR's free_at) repeats them."""
        target = self._next_event()  # not None: every MSHR is held
        if max_cycles is not None:
            target = min(target, max_cycles)
        stalls = [(op, extra) for _, _, op, extra in islice(self.records, first, None)]
        for c in range(self.cycle, target):
            self.records.extend([(c, "mshr_stall", op, extra) for op, extra in stalls])
        if target > self.cycle:
            self.last_progress = target - 1
        self._idle_until(target)

    def _deadlock_diagnostic(self) -> str:
        stuck = [
            f"op{i}:{self.recs[i].op.kind.value}"
            f"(issue={self.recs[i].issue},complete={self.recs[i].complete})"
            for i in islice(self.rob, 8)
        ]
        return f"no progress since cycle {self.last_progress}; rob head: {', '.join(stuck)}"

    # -- phases ----------------------------------------------------------

    def _phase_mshr_returns(self) -> None:
        for m in self.hier.mshrs.release_due(self.cycle):
            self._event("mshr_free", None, {"line": m.line})

    def _phase_cdb(self) -> None:
        while self.finishing and self.finishing[0][0] <= self.cycle:
            heappush(self.cdb_queue, heappop(self.finishing)[1])
        for _ in range(min(self.cfg.cdb_width, len(self.cdb_queue))):
            i = heappop(self.cdb_queue)
            self.recs[i].complete = self.cycle
            self.inflight -= 1
            self._event("complete", i)
            self._completed(i)

    def _phase_resolve_and_squash(self) -> None:
        squash_branch: int | None = None
        for i in list(self.unresolved_done):
            r = self.recs[i]
            b = r.op.branch
            if b.resolver is not None:
                res = self.recs[b.resolver]
                if res.complete == NEVER or self.cycle < res.complete + self.cfg.branch_resolve_extra:
                    continue
            r.resolved = self.cycle
            self.unresolved_done.remove(i)
            self.shadow.settle(r.op)
            self._event("resolve", i, {"mispredicted": int(b.mispredicted() and not self.force_correct)})
            if b.mispredicted() and not self.force_correct and squash_branch is None:
                squash_branch = i
        if squash_branch is not None:
            self.squash(squash_branch)

    def squash(self, branch_id: int) -> None:
        """Kill everything younger than the branch and redirect fetch."""
        b = self.recs[branch_id].op.branch
        killed: list[int] = []
        while self.rob and self.rob[-1] > branch_id:
            killed.append(self.rob.pop())
        for i in reversed(killed):
            r = self.recs[i]
            if r.in_rs:
                r.in_rs = False
                self.rs_count -= 1
            if r.finish != NEVER and r.complete == NEVER:
                self.inflight -= 1
            if r.npeu_unit is not None:
                self.npeu_busy_until[r.npeu_unit] = self.cycle
            self.hier.mshrs.drop_waiter(i)
            r.squash = self.cycle
            r.delayed = False
            r.pending_replay = False
            r.deferred_l1_update = None
            r.ifetch_pending = False
            self._event("squash", i)
        self.ifetch_replays = [(c, i) for c, i in self.ifetch_replays if i <= branch_id]
        self.fetch_holds = [(j, b) for j, b in self.fetch_holds if b <= branch_id]
        self.shadow.squash_after(branch_id)
        self.waiting = {i: left for i, left in self.waiting.items() if i <= branch_id}
        self.wakeups = [(t, i) for t, i in self.wakeups if i <= branch_id]
        heapify(self.wakeups)
        self.finishing = [(t, i) for t, i in self.finishing if i <= branch_id]
        heapify(self.finishing)
        self.cdb_queue = [i for i in self.cdb_queue if i <= branch_id]
        heapify(self.cdb_queue)
        for ids in (self.ready, self.unresolved_done):
            del ids[bisect_right(ids, branch_id) :]
        for ids in (self.unsafe, self.ifetch_waiting):
            while ids and ids[-1] > branch_id:
                ids.pop()
        # Correct-path ops fetched down the wrong direction get refetched.
        resume = branch_id + 1 if b.actual_taken else b.join
        for i in range(resume, len(self.recs)):
            if self.recs[i].squash != NEVER:
                self.recs[i] = OpRec(self.recs[i].op)
        self.fetch_pos = resume
        self.redirect_at = self.cycle + 1
        self.last_drain_cycle = self.cycle

    def _phase_safe_transitions(self) -> None:
        # Safety is monotone in age under every rule, so the ops that turn
        # safe this cycle are a prefix of the age-ordered waiting lists.
        while self.unsafe and self.shadow.safe(self.spec.shadow, self.unsafe[0]):
            i = self.unsafe.popleft()
            r = self.recs[i]
            r.safe = self.cycle
            self._event("safe", i)
            if r.deferred_l1_update is not None:
                self.hier.l1_hit_update(r.deferred_l1_update)
                r.deferred_l1_update = None
            if r.pending_replay and r.line is not None:
                self._visible_access(r.line, i)
                r.pending_replay = False
            if r.delayed:
                r.delayed = False  # parked miss: re-executes this cycle
                self._event("reissue", i)
            if r.in_rs and self.spec.rs_hold and r.issue != NEVER:
                r.in_rs = False
                self.rs_count -= 1
        # Deferred I-accesses replay on a refetch-shaped schedule: starting
        # the cycle after the op left its fetch shadow, fetch-width per
        # cycle. They fire in the frontend phase so a replay and an actual
        # post-squash refetch of the same program point land identically.
        idx = 0
        while self.ifetch_waiting and self.shadow.safe(self.spec.fetch_shadow, self.ifetch_waiting[0]):
            op_id = self.ifetch_waiting.popleft()
            self.recs[op_id].ifetch_pending = False
            self.ifetch_replays.append((self.cycle + 1 + idx // self.cfg.fetch_width, op_id))
            idx += 1

    def _phase_attacker(self) -> None:
        while self.attacker_pos < len(self.attacker) and self.attacker[self.attacker_pos][0] <= self.cycle:
            _, line = self.attacker[self.attacker_pos]
            self.attacker_pos += 1
            res = self.hier.llc_access(line, Requester.ATTACKER, visible=True, cycle=self.cycle)
            self._event("l2access", None, {"line": line, "requester": "attacker", "result": res})

    # -- issue -----------------------------------------------------------

    def _earliest_ready_lb(self, op_id: int, memo: dict[int, int]) -> int:
        """Lower bound on when an un-issued op could demand a unit; used by
        the advanced-defense look-ahead. Unknown-latency inputs (parked or
        un-issued loads) bound at next cycle. memo holds the bounds already
        derived in this look-ahead, which keeps a dependence DAG linear."""
        if op_id in memo:
            return memo[op_id]
        r = self.recs[op_id]
        worst = self.cycle
        for d in r.op.src_deps:
            dep = self.recs[d]
            if dep.complete != NEVER:
                t = dep.complete + self.cfg.writeback_delay
            elif dep.finish != NEVER:
                t = dep.finish + self.cfg.writeback_delay
            elif dep.op.kind is OpKind.LOAD:
                t = self.cycle + 1
            else:
                klass = self.lat_classes[d]
                lat = self.cfg.eu[klass].latency if klass else 1
                t = self._earliest_ready_lb(d, memo) + lat + self.cfg.writeback_delay
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
            r = self.recs[i]
            if r.issue != NEVER or r.op.kind is OpKind.NOP:
                continue
            if self.lat_classes[i] != klass:
                continue
            if self._earliest_ready_lb(i, memo) < release:
                return True
        return False

    def _phase_issue(self) -> None:
        while self.wakeups and self.wakeups[0][0] <= self.cycle:
            insort(self.ready, heappop(self.wakeups)[1])
        fence_frontier = self.shadow.oldest_open_fence
        issued = 0
        pipelined_used: dict[str, int] = {}
        for i in list(self.ready):
            if issued >= self.cfg.issue_width:
                break
            if fence_frontier is not None and i > fence_frontier:
                break  # so is every younger candidate
            r = self.recs[i]
            if r.delayed:
                continue
            op = r.op
            klass = self.lat_classes[i]
            eu = self.cfg.eu[klass]
            unit = None
            if eu.pipelined:
                if pipelined_used.get(klass, 0) >= eu.count:
                    continue
            else:
                if self.spec.npeu_lookahead and self._lookahead_blocks(i, klass):
                    continue
                unit = next((u for u, until in enumerate(self.npeu_busy_until) if until <= self.cycle), None)
                if unit is None:
                    continue
            if op.kind is OpKind.LOAD:
                outcome = self._issue_load(i)
                issued += 1  # attempts consume the slot whether or not they land
                if eu.pipelined:
                    pipelined_used[klass] = pipelined_used.get(klass, 0) + 1
                if outcome != "ok":
                    continue
            else:
                self._start(i, eu.latency)
                issued += 1
                if eu.pipelined:
                    pipelined_used[klass] = pipelined_used.get(klass, 0) + 1
                else:
                    self.npeu_busy_until[unit] = self.cycle + eu.latency
                    r.npeu_unit = unit
            r.issue = self.cycle
            self.ready.remove(i)
            if r.in_rs and not (self.spec.rs_hold and not self._is_safe(i)):
                r.in_rs = False
                self.rs_count -= 1
            self._event("issue", i)

    def _start(self, op_id: int, latency: int) -> None:
        """The op executes from this cycle; its result is due after latency."""
        finish = self.recs[op_id].finish = self.cycle + latency
        heappush(self.finishing, (finish, op_id))
        self.inflight += 1

    def _issue_load(self, op_id: int) -> str:
        """Access the D-side for a load at its issue point. Returns "ok",
        "stall" (no MSHR, retry next cycle) or "delayed" (protected miss
        parked until safe)."""
        r = self.recs[op_id]
        line = r.op.resolve_line(self.secrets)
        if self.secret_read_cycle is None and isinstance(r.op.addr, SecretDep):
            self.secret_read_cycle = self.cycle
        r.line = line
        safe = self._is_safe(op_id)
        level = self.hier.service_level(line)
        if level is Level.L1HIT:
            if safe or self.spec.miss_policy is MissPolicy.VISIBLE:
                self.hier.l1_hit_update(line)
            else:
                r.deferred_l1_update = line
            self._start(op_id, self.hier.latency(level))
            return "ok"
        if not safe and self.spec.miss_policy is MissPolicy.DELAY:
            if not r.delayed:
                r.delayed = True
                self._event("delayed", op_id, {"line": line})
            return "delayed"
        lat = self.hier.latency(level)
        mshr = self.hier.mshrs.allocate(line, op_id, free_at=self.cycle + lat)
        if mshr is None:
            self._event("mshr_stall", op_id, {"line": line})
            return "stall"
        invisible = not safe and self.spec.miss_policy is MissPolicy.INVISIBLE
        if invisible:
            self.hier.llc_access(line, Requester.VICTIM, visible=False, cycle=self.cycle, op_id=op_id)
            r.pending_replay = True
        else:
            r.delayed = False
            self._visible_access(line, op_id)
        self._start(op_id, lat)
        return "ok"

    def _visible_access(self, line: int, op_id: int) -> None:
        """Perform the persistent (visible) side of a D-access now: LLC
        replacement update + pattern entry on an L1 miss, or the L1
        promotion when the line already sits in the L1."""
        if self.hier.service_level(line) is Level.L1HIT:
            self.hier.l1_hit_update(line)
            return
        res = self.hier.llc_access(line, Requester.VICTIM, visible=True, cycle=self.cycle, op_id=op_id)
        self.hier.l1_fill(line)
        self._event("l2access", op_id, {"line": line, "requester": "victim", "result": res})

    def _ifetch_access(self, op_id: int) -> None:
        line = self.recs[op_id].op.iline
        assert line is not None
        if self.hier.service_level(line, icache=True) is Level.L1HIT:
            self.hier.l1_hit_update(line, icache=True)
            self._event("ifetch", op_id, {"line": line, "level": "l1i"})
            return
        res = self.hier.llc_access(line, Requester.VICTIM, visible=True, cycle=self.cycle, op_id=op_id)
        self.hier.l1_fill(line, icache=True)
        self._event("l2access", op_id, {"line": line, "requester": "victim", "result": res, "fetch": 1})

    # -- frontend ----------------------------------------------------------

    def _dispatch(self, op: MicroOp) -> None:
        r = self.recs[op.id]
        r.fetch = self.cycle
        r.dispatch = self.cycle
        self.rob.append(op.id)
        self.unsafe.append(op.id)
        if op.kind is OpKind.NOP:
            r.finish = NEVER
            r.complete = self.cycle  # markers complete at dispatch
        else:
            r.in_rs = True
            self.rs_count += 1
            self.shadow.open(op)
            left = sum(1 for d in op.src_deps if self.recs[d].complete == NEVER)
            if left:
                self.waiting[op.id] = left
            else:
                self._wake(op.id)
        self._event("fetch", op.id)
        self._event("dispatch", op.id)

    def _phase_frontend(self) -> None:
        if self.ifetch_replays:
            due = sorted([e for e in self.ifetch_replays if e[0] <= self.cycle], key=lambda e: e[1])
            self.ifetch_replays = [e for e in self.ifetch_replays if e[0] > self.cycle]
            for _, op_id in due:
                self._ifetch_access(op_id)
        if self.cycle < self.redirect_at:
            return
        n = len(self.program.ops)
        width = min(self.cfg.fetch_width, self.cfg.dispatch_width)
        fetched = 0
        while fetched < width and self.fetch_pos < n:
            if self.fetch_holds:
                self.fetch_holds = [(j, b) for j, b in self.fetch_holds if self.recs[b].resolved == NEVER]
                if any(j == self.fetch_pos for j, _ in self.fetch_holds):
                    break  # taken region ended; nothing to fetch until resolution
            op = self.program.ops[self.fetch_pos]
            if len(self.rob) >= self.cfg.rob_size:
                break
            # Dispatch is head-of-line: a full RS stalls fetch wholesale,
            # even for ops (markers) that will not occupy an RS slot.
            if self.rs_count >= self.cfg.rs_size:
                break
            self._dispatch(op)
            if op.iline is not None:
                # Is the fetch covered by an unresolved speculation shadow
                # right now (including ops dispatched earlier this cycle)?
                if self.spec.fetch_shadow is not None and not self.shadow.safe(self.spec.fetch_shadow, op.id):
                    self.recs[op.id].ifetch_pending = True
                    self.ifetch_waiting.append(op.id)
                else:
                    self._ifetch_access(op.id)
            if op.kind is OpKind.BRANCH:
                taken = op.branch.actual_taken if self.force_correct else op.branch.predicted_taken
                self.fetch_pos = op.id + 1 if taken else op.branch.join
                if taken and op.branch.taken_stream_ends:
                    self.fetch_holds.append((op.branch.join, op.id))
            else:
                self.fetch_pos += 1
            fetched += 1

    def _phase_retire(self) -> None:
        retired = 0
        while self.rob and retired < self.cfg.retire_width:
            i = self.rob[0]
            r = self.recs[i]
            if r.complete == NEVER:
                break
            if r.op.kind is OpKind.BRANCH and r.resolved == NEVER:
                break
            if r.delayed or r.pending_replay or r.ifetch_pending:
                break
            self.rob.popleft()
            if self.unsafe and self.unsafe[0] == i:
                self.unsafe.popleft()  # a marker retiring in its dispatch cycle
            if r.in_rs:
                r.in_rs = False
                self.rs_count -= 1
            r.retire = self.cycle
            self.last_drain_cycle = self.cycle
            self._event("retire", i)
            retired += 1

    def _finish(self) -> ExecutionTrace:
        op_times: dict[int, dict[str, int]] = {}
        for r in self.recs:
            op_times[r.op.id] = {
                "fetch": r.fetch,
                "dispatch": r.dispatch,
                "issue": r.issue,
                "complete": r.complete,
                "retire": r.retire,
                "squash": r.squash,
                "safe": r.safe,
                "resolved": r.resolved,
            }
        llc_state: dict[int, tuple[tuple[int | None, int], ...]] = {}
        empty = [None] * self.cfg.geometry.llc_ways
        for idx in sorted(self.hier.llc):
            cset = self.hier.llc[idx]
            if cset.tags != empty:
                llc_state[idx] = cset.state()
        return ExecutionTrace(
            records=self.records,
            op_times=op_times,
            occupancy=self.occupancy,
            pattern=self.hier.pattern,
            total_cycles=self.last_drain_cycle if self.records else 0,
            llc_state=llc_state,
            secret_read_cycle=self.secret_read_cycle,
        )
