"""Reconfiguration rules and the step verifier.

Five single-move rules over vertex subsets of a graph.  Two are the
classic token rules: jumping moves one occupied vertex anywhere, sliding
moves it along an edge.  The component rules instead replace one whole
connected component C of the subset by a new connected set C' of the
same size: a component jump places C' anywhere, a component slide
additionally requires C and C' to overlap or touch so the component
never teleports, and the single-vertex slide restricts the slide to
exchanging exactly one vertex.

The component rules only relate subsets with equal component-size
multisets; the token rules relate any subsets differing in one vertex.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import InvalidInstanceError
from .graph import (
    Graph,
    SizeMultiset,
    _clean_subset,
    _component,
    _touch,
    cc_multiset,
)

if TYPE_CHECKING:
    from .chordal import ConflictGraph

__all__ = [
    "Rule",
    "adjacent",
    "Result",
    "VerifyResult",
    "verify_sequence",
]


class Rule(str, Enum):
    TJ = "TJ"   # token jump
    TS = "TS"   # token slide
    CJ = "CJ"   # component jump
    CS = "CS"   # component slide
    CS1 = "CS1"  # single-vertex component slide

    @classmethod
    def parse(cls, name: str) -> "Rule":
        """The rule a name stands for, in any case; a Rule is itself.
        Every public call that takes a rule reads it through here once,
        as the solvers test rules by identity."""
        if not isinstance(name, str):
            raise InvalidInstanceError(f"rule must be a string, got {type(name).__name__}")
        try:
            return cls(name.upper())
        except ValueError:
            raise InvalidInstanceError(
                f"unknown rule {name!r}; expected one of {[r.value for r in cls]}"
            ) from None


def _occupancy(g: Graph, vertices: Iterable[int]) -> bytearray:
    """The path positions of g in order from index 1, with a free guard
    at each end: 1 where the vertex at the position is in vertices."""
    n = g.n
    inside = bytearray(n + 1)  # inside[n] stays 0, read for both guards
    for v in vertices:
        inside[v] = 1
    return bytearray(g._by_position(inside))


def _run_sizes(occ: bytearray) -> SizeMultiset:
    """The component sizes of an occupancy: the lengths of its runs."""
    return SizeMultiset(len(run) for run in occ.split(b"\0") if run)


def _placed(occ: bytearray, moves: Iterable[tuple[int, int, int]]) -> Iterator[tuple]:
    """Each position move (size, src, dst) checked on the occupancy occ
    in O(size) and applied to it, yielded once applied: it stays on the
    path, lifts a whole component (taken positions src .. src + size - 1
    with free ones on either side) and lands on free positions."""
    n = len(occ) - 2
    for mv in moves:
        size, src, dst = mv
        if src < 0 or src + size > n or dst < 0 or dst + size > n:
            raise InvalidInstanceError(f"move {mv} leaves the path")
        if occ[src:src + size + 2] != b"\0" + b"\1" * size + b"\0":
            raise InvalidInstanceError(f"move {mv} does not lift a whole component")
        occ[src + 1:src + size + 1] = bytes(size)
        if 1 in occ[dst + 1:dst + size + 1]:
            raise InvalidInstanceError(f"move {mv} lands on another component")
        occ[dst + 1:dst + size + 1] = b"\1" * size
        yield mv


def _held_component(g: Graph, have: set[int], v: int, track: tuple | None) -> set[int]:
    """The component of v in have: on a path, the run around v's index in
    the occupancy, read off the layout; elsewhere a graph search."""
    if track is None:
        return set(_component(g, have, v, set()))
    occ, at, layout = track
    i = at[v]
    return set(layout[occ.rfind(0, 0, i):occ.find(0, i) - 1])


def _one_move(g: Graph, have: set[int], gone: set[int], new: set[int], rule: Rule,
              track: tuple | None = None) -> bool:
    """Apply a move to the state have, dropping gone (all in have) and
    adding new (none in have), and say whether it is one move under the
    rule.  A component move swaps the component c of the old state that
    loses a vertex for the component c2 of the new one that gains one,
    so it finds c and c2 only; a slide then asks whether they touch.
    On a path, track is (occupancy, vertex -> index, layout), kept in
    step with have, and c and c2 are runs of it."""
    tokens = rule is Rule.TJ or rule is Rule.TS
    c = None if tokens or not gone else _held_component(g, have, next(iter(gone)), track)
    have -= gone
    have |= new
    if track is not None:
        occ, at, _ = track
        for v in gone:
            occ[at[v]] = 0
        for v in new:
            occ[at[v]] = 1
    if tokens:
        return len(gone) == 1 == len(new) and (
            rule is Rule.TJ or not g.adj[next(iter(gone))].isdisjoint(new))
    if not c or not new:
        return False
    c2 = _held_component(g, have, next(iter(new)), track)
    if not (len(c) == len(c2) and gone <= c and new <= c2 and c - gone <= c2 and c2 - new <= c):
        return False
    # a slide must touch, and a single-vertex slide moves one vertex
    return rule is Rule.CJ or (rule is Rule.CS or len(gone) == 1) and _touch(g, c, c2)


def adjacent(g: Graph, u: Iterable[int], w: Iterable[int], rule: Rule | str) -> bool:
    """One-move adjacency between two subsets under the given rule."""
    rule = Rule.parse(rule)
    u, w = set(_clean_subset(g, u)), set(_clean_subset(g, w))
    return _one_move(g, u, u - w, w - u, rule)


@dataclass(frozen=True)
class Result:
    """What every solver answers: is B reachable from A under the rule,
    and by which moves.

    `reachable` is None when the solver could not decide.  `states` is
    the full state sequence from A, `moves` the compressed moves (path
    `CompressedMove`s, or the equal-size solver's (source, target)
    jumps); either is None when it was not built.  `conflicts` is the
    equal-size solver's conflict graph and `space_size` the number of
    states the oracle enumerated.
    """

    rule: Rule
    reachable: bool | None
    states: tuple[tuple[int, ...], ...] | None = None
    moves: tuple | None = None
    reason: str | None = None
    conflicts: ConflictGraph | None = None
    space_size: int | None = None

    @property
    def answer(self) -> str:
        return {True: "yes", False: "no", None: "unknown"}[self.reachable]

    @property
    def distance(self) -> int | None:
        return None if self.states is None else len(self.states) - 1

    @property
    def jumps(self) -> tuple | None:
        return self.moves


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    index: int | None = None
    condition: str | None = None  # "multiset" or "adjacency"; verify adds "endpoints"

    def __bool__(self) -> bool:
        return self.ok


def verify_sequence(
    g: Graph,
    states: Iterable[Collection[int]],
    multiset: SizeMultiset | Iterable[int] | None = None,
    rule: Rule | str = Rule.TJ,
) -> VerifyResult:
    """Check a full state sequence: every state must have the required
    component-size multiset and consecutive states must be one move
    apart.  Each state is made one set, checked for valid vertices on
    it, and compared with the state before; the move between them, what
    one drops and the other adds, is checked as _verify_jumps checks a
    jump.  Only the previous state's set is kept.  Every state is read
    before a verdict, so an invalid vertex anywhere raises.

    Scan order is multiset-of-state before adjacency-to-predecessor, so
    a state that breaks both is reported as a multiset violation at its
    own index; an adjacency violation is reported at the index of the
    first state of the offending pair.
    """
    rule = Rule.parse(rule)
    steps = _state_steps(g, states)
    _, start = next(steps, (None, None))
    if start is None:
        raise InvalidInstanceError("cannot verify an empty sequence")
    try:
        want = None if multiset is None else SizeMultiset(multiset)
    except InvalidInstanceError:
        for _ in steps:  # a bad state is named before a bad multiset
            pass
        raise
    return _verify_jumps(g, start, steps, want, rule)


def _state_steps(g: Graph, states: Iterable[Collection[int]]) -> Iterator[tuple[set, set]]:
    """(gone, new) from each state to the next, the first state coming
    as (empty, its set).  Each state is made one set once, its types
    checked first so no unhashable vertex reaches the set; a repeat
    shrinks the set, and only vertices new to the state need a range
    check.  _clean_subset words a fault."""
    n, prev = g.n, set()
    for s in states:
        if not isinstance(s, Collection):
            s = list(s)  # read once
        if list(map(type, s)).count(int) != len(s):
            _clean_subset(g, s)  # raises, but passes int subclasses
        cur = set(s)
        new = cur - prev
        if len(cur) != len(s) or new and (min(new) < 0 or max(new) >= n):
            _clean_subset(g, s)
        yield prev - cur, new
        prev = cur


def _verify_jumps(g: Graph, start: Iterable[int], jumps: Iterable[tuple],
                  want: SizeMultiset | None, rule: Rule) -> VerifyResult:
    """verify_sequence's checks on the states that (source, target) jumps
    make from a valid start, applied to one set as the replay applies
    them: drop the source vertices held and not targeted, add the valid
    target vertices missing.  want None is the start's multiset.  A
    legal component move keeps the multiset, so whole-state components
    are found only for the start, under TJ and TS, and after a failed
    move; on a path they are the runs of an occupancy kept in step with
    the set, and no graph is searched.  Every jump is read before the
    verdict, so a bad vertex in a later state still raises."""
    tokens = rule is Rule.TJ or rule is Rule.TS
    have = set(start)
    track = None
    if g.path_layout is not None:
        at = [0] * g.n
        for i, v in enumerate(g.path_layout, 1):
            at[v] = i
        track = _occupancy(g, have), at, g.path_layout

    def sizes():
        return cc_multiset(g, have) if track is None else _run_sizes(track[0])

    verdict = VerifyResult(True)
    if want is None:
        want = sizes()
    elif sizes() != want:
        verdict = VerifyResult(False, 0, "multiset")
    for i, (src, dst) in enumerate(jumps, 1):
        if not verdict:
            continue  # the rest is read only for its vertices
        dst = set(dst)
        moved = _one_move(g, have, have.intersection(src) - dst, dst - have, rule, track)
        if (tokens or not moved) and sizes() != want:
            verdict = VerifyResult(False, i, "multiset")
        elif not moved:
            verdict = VerifyResult(False, i - 1, "adjacency")
    return verdict


def _verify_path_moves(g: Graph, a: Iterable[int], b: Iterable[int],
                       moves: Iterable[tuple[int, int, int]], want: SizeMultiset,
                       rule: Rule) -> VerifyResult:
    """verify's check of position moves from a (multiset want) on a path,
    on one occupancy: every move must pass _placed, then the last state
    must be b ("endpoints" at index 0), then the first bad move is
    reported as _verify_jumps reports it.  A placed move lifts a whole
    run onto free positions; as a jump it moves min(d, size) vertices,
    d = |src - dst|, so a token jump needs d or size to be 1 and a token
    slide both, and a component move needs both flanks of its new run
    free, a slide d <= size and a single-vertex slide d == 1."""
    tokens = rule is Rule.TJ or rule is Rule.TS
    occ = _occupancy(g, a)
    verdict = VerifyResult(True)
    for i, (size, src, dst) in enumerate(_placed(occ, moves), 1):
        if not verdict:
            continue  # the rest is read only for its own checks
        d = abs(src - dst)
        if size < 1 or d < 1:
            moved = False
        elif rule is Rule.TJ:
            moved = d == 1 or size == 1
        elif rule is Rule.TS:
            moved = d == 1 == size
        else:
            moved = occ[dst] == occ[dst + size + 1] == 0 and (
                rule is Rule.CJ or d <= size and (rule is Rule.CS or d == 1))
        if (tokens or not moved) and _run_sizes(occ) != want:
            verdict = VerifyResult(False, i, "multiset")
        elif not moved:
            verdict = VerifyResult(False, i - 1, "adjacency")
    if occ != _occupancy(g, b):
        return VerifyResult(False, 0, "endpoints")
    return verdict
