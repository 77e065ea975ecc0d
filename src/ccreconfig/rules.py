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

import re
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


def _runs(occ: bytearray) -> list[tuple[int, int]]:
    """The components of an occupancy's state, left to right, as
    (leftmost path position, size): the runs of occ."""
    return [(m.start() - 1, m.end() - m.start()) for m in re.finditer(rb"\x01+", occ)]


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


def _one_move(g: Graph, have: set[int], gone: set[int], new: set[int], rule: Rule) -> bool:
    """Apply a move to the state have, dropping gone (all in have) and
    adding new (none in have), and say whether it is one move under the
    rule.  A component move swaps the component c of the old state that
    loses a vertex for the component c2 of the new one that gains one,
    so it finds c and c2 only; a slide then asks whether they touch."""
    tokens = rule is Rule.TJ or rule is Rule.TS
    c = None if tokens or not gone else set(_component(g, have, next(iter(gone)), set()))
    have -= gone
    have |= new
    if tokens:
        return len(gone) == 1 == len(new) and (
            rule is Rule.TJ or not g.adj[next(iter(gone))].isdisjoint(new))
    if not c or not new:
        return False
    c2 = set(_component(g, have, next(iter(new)), set()))
    if not (len(c) == len(c2) and gone <= c and new <= c2 and c - gone <= c2 and c2 - new <= c):
        return False
    # a slide must touch, and a single-vertex slide moves one vertex
    return rule is Rule.CJ or (rule is Rule.CS or len(gone) == 1) and _touch(g, c, c2)


def _shift(size: int, d: int, rule: Rule) -> bool:
    """Whether a whole run of size path positions shifted by d onto free
    ones, the multiset kept, is one move: it moves min(d, size)
    vertices, so a token jump needs d or size to be 1 and a token slide
    both; a component slide needs runs that touch (d <= size) and a
    single-vertex slide d == 1."""
    if size < 1 or d < 1:
        return False
    if rule is Rule.TJ:
        return d == 1 or size == 1
    if rule is Rule.TS:
        return d == 1 == size
    return rule is Rule.CJ or d <= size and (rule is Rule.CS or d == 1)


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
    apart.  Each state is read once and its types checked, then made one
    set, checked for valid vertices on it, and compared with the state
    before; the move between them, what one drops and the other adds, is
    checked as _verify_jumps checks a jump.  Only the previous state's
    set is kept.  Every state is read before a verdict, so an invalid
    vertex anywhere raises.

    Scan order is multiset-of-state before adjacency-to-predecessor, so
    a state that breaks both is reported as a multiset violation at its
    own index; an adjacency violation is reported at the index of the
    first state of the offending pair.
    """
    rule = Rule.parse(rule)
    # each state is read once and its types checked before it is made a
    # set: _clean_subset words a fault, and passes int subclasses on
    states = (s if isinstance(s, Collection) else list(s) for s in states)
    steps = _state_steps(g, (s if list(map(type, s)).count(int) == len(s)
                             else _clean_subset(g, s) for s in states))
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
    as (empty, its set), from states whose vertices are ints by type.
    Each state is made one set once; a repeat shrinks the set, and only
    vertices new to the state need a range check.  _clean_subset words
    a fault."""
    n, prev = g.n, set()
    for s in states:
        cur = set(s)
        new = cur - prev
        if len(cur) != len(s) or new and (min(new) < 0 or max(new) >= n):
            _clean_subset(g, s)
        yield prev - cur, new
        prev = cur


def _flip(occ: bytearray, off: list[int], on: list[int], rule: Rule) -> bool:
    """Empty the taken occupancy indices off and fill the free ones on,
    both ascending, and say whether that is one move under the rule: a
    token flips one index each way; a component move empties part of the
    run [l1, r1) around off[0] and fills part of the run [l2, r2) it
    makes around on[0].  off misses the new run and on the old, so with
    runs of one size they are all the min(size, d) indices that a shift
    by d = |l1 - l2| changes."""
    l1, r1 = (occ.rfind(0, 0, off[0]) + 1, occ.find(0, off[0])) if off else (0, 0)
    for p in off:
        occ[p] = 0
    for p in on:
        occ[p] = 1
    if rule is Rule.TJ or rule is Rule.TS:
        return len(off) == 1 == len(on) and _shift(1, abs(off[0] - on[0]), rule)
    if not off or not on:
        return False
    l2, r2 = occ.rfind(0, 0, on[0]) + 1, occ.find(0, on[0])
    size, d = r1 - l1, abs(l1 - l2)
    return (r2 - l2 == size and off[-1] < r1 and on[-1] < r2
            and len(off) == len(on) == min(size, d) and _shift(size, d, rule))


def _verify_jumps(g: Graph, start: Iterable[int], jumps: Iterable[tuple],
                  want: SizeMultiset | None, rule: Rule) -> VerifyResult:
    """verify_sequence's checks on the states that (source, target) jumps
    make from a valid start, applied to one state as the replay applies
    them: drop the source vertices held and not targeted, add the valid
    target vertices missing.  want None is the start's multiset.  A
    legal component move keeps the multiset, so whole-state components
    are found only for the start, under TJ and TS, and after a failed
    move.  On a path host the state is only an occupancy of path
    positions: a jump is mapped to the indices it changes for _flip to
    judge, whole-state components are its runs, and no graph is read.
    Every jump is read before the verdict, so a bad vertex in a later
    state still raises."""
    tokens = rule is Rule.TJ or rule is Rule.TS
    layout = g.path_layout
    if layout is None:
        have = set(start)
    else:
        n, at = g.n, [0] * g.n
        for i, v in enumerate(layout, 1):
            at[v] = i
        occ = _occupancy(g, start)

    def sizes():
        return cc_multiset(g, have) if layout is None else SizeMultiset(s for _, s in _runs(occ))

    verdict = VerifyResult(True)
    if want is None:
        want = sizes()
    elif sizes() != want:
        verdict = VerifyResult(False, 0, "multiset")
    for i, (src, dst) in enumerate(jumps, 1):
        if not verdict:
            continue  # the rest is read only for its vertices
        if layout is None:
            dst = set(dst)
            moved = _one_move(g, have, have.intersection(src) - dst, dst - have, rule)
        else:
            on = set(map(at.__getitem__, dst))
            # sources are not range-checked, and at[-1] is vertex n - 1's index
            off = {at[v] for v in src if 0 <= v < n and occ[at[v]]} - on
            moved = _flip(occ, sorted(off), sorted([p for p in on if not occ[p]]), rule)
        if (tokens or not moved) and sizes() != want:
            verdict = VerifyResult(False, i, "multiset")
        elif not moved:
            verdict = VerifyResult(False, i - 1, "adjacency")
    return verdict


def _verify_path_moves(g: Graph, a: Iterable[int], b: Iterable[int],
                       moves: Iterable[tuple[int, int, int]], rule: Rule) -> VerifyResult:
    """verify's check of position moves from a on a path, on one
    occupancy: every move must pass _placed, then the last state must be
    b ("endpoints" at index 0), then the first bad move is reported as
    _verify_jumps reports it.  A placed move lifts a whole run onto free
    positions, so it keeps the multiset iff it moves nothing (size 0) or
    both flanks of the landed run are free, and _shift judges the rest:
    no move reads the state beyond those two flanks."""
    occ = _occupancy(g, a)
    verdict = VerifyResult(True)
    for i, (size, src, dst) in enumerate(_placed(occ, moves), 1):
        if not verdict:
            continue  # the rest is read only for its own checks
        if size and (occ[dst] or occ[dst + size + 1]):
            verdict = VerifyResult(False, i, "multiset")
        elif not _shift(size, abs(src - dst), rule):
            verdict = VerifyResult(False, i - 1, "adjacency")
    if occ != _occupancy(g, b):
        return VerifyResult(False, 0, "endpoints")
    return verdict
