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
from dataclasses import dataclass
from enum import Enum

from .microprog import FenceModel


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


def serves(behaviour: SchemeSpec, other: SchemeSpec, fetch_shadowed: frozenset[ShadowRule]) -> bool:
    """Whether a run under ``behaviour`` whose trace reports
    ``fetch_shadowed`` is byte for byte the run of the same inputs under
    ``other``: the one rule for when a caller may simulate one scheme and
    reuse the result for another. Equal behaviours always are. Otherwise
    they must differ only in ``fetch_shadow``, and neither one's fetch
    shadow may be among the rules that would have held a marked fetch of
    the run (``None`` never is). Then no marked fetch was deferred under
    either, and the engine reads ``fetch_shadow`` nowhere else, so both
    runs take the same path. A program with no marked fetch reports the
    empty set, so there every such pair shares its runs."""
    if behaviour == other:
        return True
    return (
        behaviour.shadow is other.shadow
        and behaviour.miss_policy is other.miss_policy
        and behaviour.fence_model is other.fence_model
        and behaviour.rs_hold == other.rs_hold
        and behaviour.npeu_lookahead == other.npeu_lookahead
        and behaviour.fetch_shadow not in fetch_shadowed
        and other.fetch_shadow not in fetch_shadowed
    )


# ShadowState's per-event reads, bound once: on CPython 3.11 naming an enum
# member through its class, or hashing one, costs about 200 ns ("Enum
# costs" in the pipeline module docstring).
_ALWAYS_SAFE, _BRANCH, _NONTSO = ShadowRule.ALWAYS_SAFE, ShadowRule.BRANCH, ShadowRule.NONTSO
_OLDEST_LOAD, _FUTURISTIC = ShadowRule.OLDEST_LOAD, ShadowRule.FUTURISTIC


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
    The branch list, ``branches``, is public: its completed members are the
    branches the engine's resolution phase may resolve.
    ``frontiers[i]`` indexes the list op i opens, if any, in
    ``(branches, loads, stores)``, and ``fence_points[i]`` says whether a
    fence follows op i: the program's ``tables.frontiers`` and its
    ``tables.fence_points`` for the scheme's fence model.
    """

    __slots__ = ("branches", "_loads", "_stores", "_fences", "_lists", "frontiers", "fence_points")

    def __init__(self, frontiers: tuple[int | None, ...], fence_points: tuple[bool, ...]):
        self.branches: list[int] = []
        self._loads: list[int] = []
        self._stores: list[int] = []
        self._fences: list[int] = []
        self._lists = (self.branches, self._loads, self._stores)
        self.frontiers = frontiers
        self.fence_points = fence_points

    @property
    def oldest_open_fence(self) -> int | None:
        return self._fences[0] if self._fences else None

    def open(self, op_id: int) -> None:
        """A non-marker op entered the ROB (ids enter in increasing order)."""
        frontier = self.frontiers[op_id]
        if frontier is not None:
            self._lists[frontier].append(op_id)
        if self.fence_points[op_id]:
            self._fences.append(op_id)

    def settle(self, op_id: int) -> bool:
        """The op no longer casts its shadow: a branch resolved, or another
        op completed. Returns whether a frontier that ``safe`` reads moved,
        which is the only way an op in the ROB can turn safe."""
        frontier = self.frontiers[op_id]
        moved = False
        if frontier is not None:
            ids = self._lists[frontier]
            moved = ids[0] == op_id
            ids.remove(op_id)
        if self.fence_points[op_id]:
            self._fences.remove(op_id)
        return moved

    def squash_after(self, op_id: int) -> None:
        """Everything younger than op_id left the ROB."""
        for ids in (self.branches, self._loads, self._stores, self._fences):
            del ids[bisect_right(ids, op_id) :]

    def safe(self, rule: ShadowRule, op_id: int) -> bool:
        """No frontier the rule reads holds an op older than op_id. Each
        list is age-ordered, so its head is its oldest op."""
        if rule is _ALWAYS_SAFE:
            return True
        branches = self.branches
        if branches and branches[0] < op_id:
            return False
        if rule is _BRANCH:
            return True
        loads, stores = self._loads, self._stores
        if rule is _NONTSO:
            return not (stores and stores[0] < op_id)
        if rule is _OLDEST_LOAD:
            return not (loads and loads[0] < op_id)
        if rule is _FUTURISTIC:
            return not (loads and loads[0] < op_id) and not (stores and stores[0] < op_id)
        raise AssertionError(rule)

