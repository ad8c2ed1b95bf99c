"""Invisible-speculation and defense policies.

Each scheme is the set of choices the pipeline reads, one per axis: the
shadow rule deciding when a load stops being speculative, what happens to
a protected load's L1 miss (delayed or serviced invisibly; a protected hit
defers its replacement update whenever the miss is protected), the shadow
rule for speculative instruction fetches (or none, leaving them visible),
fence gating, and the advanced-defense scheduling/deallocation rules.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum

from .microprog import FenceModel, MicroOp, MicroProgram, OpKind


class SchemeId(Enum):
    UNSAFE = "unsafe"
    DOM_SPECTRE = "dom-spectre"
    DOM_NONTSO = "dom-nontso"
    INVISISPEC_SPECTRE = "invisispec-spectre"
    INVISISPEC_FUTURISTIC = "invisispec-futuristic"
    SAFESPEC_WFB = "safespec-wfb"
    MUONTRAP = "muontrap"
    FENCE_SPECTRE = "fence-spectre"
    FENCE_FUTURISTIC = "fence-futuristic"
    NOINTERFERENCE = "nointerference"


class ShadowRule(Enum):
    """When a load counts as safe (non-speculative)."""

    ALWAYS_SAFE = "always"
    # Safe iff no older unresolved branch.
    BRANCH = "branch"
    # Safe iff older branches resolved and older store addresses resolved.
    # Older loads cast no shadow: weaker consistency models permit
    # load-load reordering, which is exactly what the reordering attacks
    # on this scheme class rely on.
    NONTSO = "nontso"
    # Safe iff no older unresolved branch and no older un-completed load
    # (unprotect only at "oldest load in the ROB").
    OLDEST_LOAD = "oldest-load"
    # Safe iff every older squash-capable op resolved: branches resolved
    # and loads completed.
    FUTURISTIC = "futuristic"


class MissPolicy(Enum):
    VISIBLE = "visible"  # no protection: normal fill
    DELAY = "delay"  # park the load, re-execute when safe
    INVISIBLE = "invisible"  # service invisibly now, visible replay when safe


@dataclass(frozen=True)
class SchemeSpec:
    """The choices the engine reads, and nothing else: two schemes with
    equal specs run every program byte-identically.

    A load is protected while ``shadow`` says it is unsafe. Its L1 miss is
    handled by ``miss_policy``; its L1 hit forwards data at once and, unless
    the miss policy is VISIBLE, defers the replacement update until the
    load turns safe.
    """

    shadow: ShadowRule
    miss_policy: MissPolicy
    # Shadow rule that decides when a marked I-fetch may touch the caches;
    # None: fetches are never protected. Fence issue gating does not read it.
    fetch_shadow: ShadowRule | None = None
    fence_model: FenceModel | None = None
    rs_hold: bool = False  # hold RS entries until safe/squash
    npeu_lookahead: bool = False  # look-ahead stall on the non-pipelined EU


_SPECS: dict[SchemeId, SchemeSpec] = {
    SchemeId.UNSAFE: SchemeSpec(ShadowRule.ALWAYS_SAFE, MissPolicy.VISIBLE),
    SchemeId.DOM_SPECTRE: SchemeSpec(ShadowRule.BRANCH, MissPolicy.DELAY),
    SchemeId.DOM_NONTSO: SchemeSpec(ShadowRule.NONTSO, MissPolicy.DELAY),
    SchemeId.INVISISPEC_SPECTRE: SchemeSpec(ShadowRule.BRANCH, MissPolicy.INVISIBLE),
    SchemeId.INVISISPEC_FUTURISTIC: SchemeSpec(ShadowRule.OLDEST_LOAD, MissPolicy.INVISIBLE),
    SchemeId.SAFESPEC_WFB: SchemeSpec(ShadowRule.BRANCH, MissPolicy.INVISIBLE, fetch_shadow=ShadowRule.BRANCH),
    SchemeId.MUONTRAP: SchemeSpec(ShadowRule.OLDEST_LOAD, MissPolicy.INVISIBLE, fetch_shadow=ShadowRule.BRANCH),
    SchemeId.FENCE_SPECTRE: SchemeSpec(
        ShadowRule.BRANCH, MissPolicy.VISIBLE, fetch_shadow=ShadowRule.BRANCH, fence_model=FenceModel.SPECTRE
    ),
    SchemeId.FENCE_FUTURISTIC: SchemeSpec(
        ShadowRule.FUTURISTIC,
        MissPolicy.VISIBLE,
        fetch_shadow=ShadowRule.FUTURISTIC,
        fence_model=FenceModel.FUTURISTIC,
    ),
    SchemeId.NOINTERFERENCE: SchemeSpec(
        ShadowRule.FUTURISTIC,
        MissPolicy.DELAY,
        fetch_shadow=ShadowRule.FUTURISTIC,
        rs_hold=True,
        npeu_lookahead=True,
    ),
}


# Every rule some scheme uses as its fetch shadow, in first-use order. A
# run reports which of them would have held one of its marked fetches
# (ExecutionTrace.fetch_shadowed), whatever its own scheme's fetch shadow.
FETCH_SHADOWS: tuple[ShadowRule, ...] = tuple(
    dict.fromkeys(spec.fetch_shadow for spec in _SPECS.values() if spec.fetch_shadow is not None)
)


def scheme_spec(scheme: SchemeId) -> SchemeSpec:
    return _SPECS[scheme]


def engine_behaviour(scheme: SchemeId, marked_fetch: bool) -> SchemeSpec:
    """The scheme as the engine sees it on a program. Two schemes with
    equal behaviour give byte-identical runs, so a caller may simulate one
    and reuse the result for the other. ``marked_fetch`` false promises a
    program with no marked fetch (no op with an ``iline``): the engine
    never reads ``fetch_shadow`` there, so it is dropped. ``serves``
    extends this from programs to runs: a run whose marked fetches no
    fetch shadow would have held serves both behaviours alike."""
    spec = scheme_spec(scheme)
    return spec if marked_fetch else replace(spec, fetch_shadow=None)


def serves(behaviour: SchemeSpec, other: SchemeSpec, fetch_shadowed: frozenset[ShadowRule]) -> bool:
    """Whether a run under ``behaviour`` whose trace reports
    ``fetch_shadowed`` is byte for byte the run of the same inputs under
    ``other``. Equal behaviours always are. Otherwise they must differ only
    in ``fetch_shadow``, and neither one's fetch shadow may be among the
    rules that would have held a marked fetch of the run (``None`` never
    is). Then no marked fetch was deferred under either, and the engine
    reads ``fetch_shadow`` nowhere else, so both runs take the same path."""
    if behaviour == other:
        return True
    return (
        replace(behaviour, fetch_shadow=None) == replace(other, fetch_shadow=None)
        and behaviour.fetch_shadow not in fetch_shadowed
        and other.fetch_shadow not in fetch_shadowed
    )


class ShadowState:
    """O(1)-per-query shadow predicates over the speculation frontiers.

    Safety of op i under each rule is a comparison against three frontiers:
    the oldest unresolved branch, the oldest un-completed load and the
    oldest un-completed store-address op in the ROB. A fourth, the oldest
    op whose trailing fence is still down, gates issue under the fence
    defenses.

    The engine keeps the frontiers current at the events that move them:
    ``open`` when an op enters the ROB, ``settle`` when a branch resolves
    or another op completes, ``squash_after`` when younger ops are killed.
    Each frontier is the head of an age-ordered list of the open op ids.
    ``fence_points[i]`` says whether a fence follows op i (the program's
    ``tables.fence_points`` for the scheme's fence model).
    """

    __slots__ = ("_branches", "_loads", "_stores", "_fences", "_by_kind", "fence_points")

    def __init__(self, fence_points: tuple[bool, ...]):
        self._branches: list[int] = []
        self._loads: list[int] = []
        self._stores: list[int] = []
        self._fences: list[int] = []
        # The open-id list of each kind of op that casts a shadow.
        self._by_kind = {OpKind.BRANCH: self._branches, OpKind.LOAD: self._loads, OpKind.STORE_ADDR: self._stores}
        self.fence_points = fence_points

    @property
    def oldest_open_fence(self) -> int | None:
        return self._fences[0] if self._fences else None

    def open(self, op: MicroOp) -> None:
        """A non-marker op entered the ROB (ids enter in increasing order)."""
        ids = self._by_kind.get(op.kind)
        if ids is not None:
            ids.append(op.id)
        if self.fence_points[op.id]:
            self._fences.append(op.id)

    def settle(self, op: MicroOp) -> bool:
        """The op no longer casts its shadow: a branch resolved, or another
        op completed. Returns whether a frontier that ``safe`` reads moved,
        which is the only way an op in the ROB can turn safe."""
        ids = self._by_kind.get(op.kind)
        moved = False
        if ids is not None:
            moved = ids[0] == op.id
            ids.remove(op.id)
        if self.fence_points[op.id]:
            self._fences.remove(op.id)
        return moved

    def squash_after(self, op_id: int) -> None:
        """Everything younger than op_id left the ROB."""
        for ids in (self._branches, self._loads, self._stores, self._fences):
            del ids[bisect_right(ids, op_id) :]

    @staticmethod
    def _older(ids: list[int], op_id: int) -> bool:
        """Some op in the age-ordered list is older than op_id."""
        return ids[0] < op_id if ids else False

    def safe(self, rule: ShadowRule, op_id: int) -> bool:
        if rule is ShadowRule.ALWAYS_SAFE:
            return True
        if self._older(self._branches, op_id):
            return False
        if rule is ShadowRule.BRANCH:
            return True
        if rule is ShadowRule.NONTSO:
            return not self._older(self._stores, op_id)
        if rule is ShadowRule.OLDEST_LOAD:
            return not self._older(self._loads, op_id)
        if rule is ShadowRule.FUTURISTIC:
            return not self._older(self._loads, op_id) and not self._older(self._stores, op_id)
        raise AssertionError(rule)


def insert_fences(program: MicroProgram, model: FenceModel) -> MicroProgram:
    """Mark fence points: after every branch (Spectre model) or after every
    squash-capable op, branches and loads here (Futuristic model). A fence
    lets younger ops enter the ROB but blocks their issue until the op
    before the fence is non-speculative. Idempotent. The engine reads the
    same points from ``program.tables`` and runs the unfenced program, so
    a fence scheme never needs this copy."""
    points = program.tables.fence_points[model]
    ops = [
        replace(op, fence_after=True) if fenced and not op.fence_after else op
        for op, fenced in zip(program.ops, points)
    ]
    return replace(program, ops=ops)
