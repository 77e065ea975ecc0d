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

from dataclasses import dataclass
from enum import Enum
from itertools import pairwise
from typing import TYPE_CHECKING, Collection, Iterable

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


def _one_move(g: Graph, have: set[int], gone: set[int], new: set[int], rule: Rule) -> bool:
    """Apply a move to the state have, dropping gone (all in have) and
    adding new (none in have), and say whether it is one move under the
    rule.  A component move swaps the component c of the old state that
    loses a vertex for the component c2 of the new one that gains one,
    so it searches c and c2 only; a slide then asks whether they touch."""
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
    condition: str | None = None  # "multiset" or "adjacency"

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
    apart.  Every state is checked for valid vertices before anything
    else; then each move, the difference of two consecutive states, is
    checked as _verify_jumps checks a jump, two states held as sets.

    Scan order is multiset-of-state before adjacency-to-predecessor, so
    a state that breaks both is reported as a multiset violation at its
    own index; an adjacency violation is reported at the index of the
    first state of the offending pair.
    """
    rule = Rule.parse(rule)
    states = list(states)
    for s in states:
        _clean_subset(g, s)
    if not states:
        raise InvalidInstanceError("cannot verify an empty sequence")
    want = SizeMultiset(cc_multiset(g, states[0]) if multiset is None else multiset)
    steps = ((u - w, w - u) for u, w in pairwise(map(set, states)))
    return _verify_jumps(g, states[0], steps, want, rule)


def _verify_jumps(g: Graph, start: Iterable[int], jumps: Iterable[tuple], want: SizeMultiset,
                  rule: Rule) -> VerifyResult:
    """verify_sequence's checks on the states that (source, target) jumps
    make from a valid start, applied to one set as the replay applies
    them: drop the source vertices held and not targeted, add the valid
    target vertices missing.  A legal component move keeps the multiset,
    so whole-state components are found only for the start, under TJ and
    TS, and after a failed move."""
    tokens = rule is Rule.TJ or rule is Rule.TS
    have = set(start)
    if cc_multiset(g, have) != want:
        return VerifyResult(False, 0, "multiset")
    for i, (src, dst) in enumerate(jumps, 1):
        dst = set(dst)
        moved = _one_move(g, have, have.intersection(src) - dst, dst - have, rule)
        if (tokens or not moved) and cc_multiset(g, have) != want:
            return VerifyResult(False, i, "multiset")
        if not moved:
            return VerifyResult(False, i - 1, "adjacency")
    return VerifyResult(True)
