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
from typing import TYPE_CHECKING, Iterable, Sequence

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


def _one_move(g: Graph, u: set[int], w: set[int], rule: Rule) -> bool:
    """Whether w is one move from u under the rule; both hold valid
    vertices.  A component move swaps the component c of u that loses a
    vertex for the component c2 of w that gains one, and leaves the rest
    as it is: u - c == w - c2.  Costs two set differences, a search over
    c and c2 only, and one pass over c2's neighbourhoods for a slide:
    c and c2 are connected, so they join iff they touch."""
    gone, new = u - w, w - u
    if rule is Rule.TJ or rule is Rule.TS:
        if len(gone) != 1 or len(new) != 1:
            return False
        return rule is Rule.TJ or not g.adj[next(iter(gone))].isdisjoint(new)
    if not gone or not new:
        return False
    c = set(_component(g, u, next(iter(gone)), set()))
    c2 = set(_component(g, w, next(iter(new)), set()))
    if not (len(c) == len(c2) and gone <= c and new <= c2 and c & w <= c2 and c2 & u <= c):
        return False
    if rule is Rule.CS1 and len(gone) != 1:
        return False
    return rule is Rule.CJ or _touch(g, c, c2)


def adjacent(g: Graph, u: Iterable[int], w: Iterable[int], rule: Rule | str) -> bool:
    """One-move adjacency between two subsets under the given rule."""
    rule = Rule.parse(rule)
    return _one_move(g, set(_clean_subset(g, u)), set(_clean_subset(g, w)), rule)


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
    states: Sequence[Iterable[int]],
    multiset: SizeMultiset | Iterable[int] | None = None,
    rule: Rule | str = Rule.TJ,
) -> VerifyResult:
    """Check a full state sequence: every state must have the required
    component-size multiset and consecutive states must be one move
    apart.

    Every state is checked for valid vertices before anything else.
    Only two consecutive states are held as sets at a time, and each
    move costs O(|U|) set work plus a search over the two components it
    swaps.  Components of a whole state are found only for state 0, for
    every state under TJ and TS, and for a state whose move failed: a
    legal component move keeps the multiset.

    Scan order is multiset-of-state before adjacency-to-predecessor, so
    a state that breaks both is reported as a multiset violation at its
    own index; an adjacency violation is reported at the index of the
    first state of the offending pair.
    """
    rule = Rule.parse(rule)
    states = [_clean_subset(g, s) for s in states]
    if not states:
        raise InvalidInstanceError("cannot verify an empty sequence")
    want = SizeMultiset(cc_multiset(g, states[0]) if multiset is None else multiset)
    return _verify_steps(g, states, want, rule)


def _verify_steps(
    g: Graph, states: Iterable[tuple[int, ...]], want: SizeMultiset, rule: Rule
) -> VerifyResult:
    """verify_sequence's checks on states already cleaned, read one at a
    time, so a replay can be verified as it is made."""
    tokens = rule is Rule.TJ or rule is Rule.TS
    prev: set[int] | None = None
    for i, vs in enumerate(states):
        cur = set(vs)
        moved = prev is not None and _one_move(g, prev, cur, rule)
        if (tokens or not moved) and cc_multiset(g, vs) != want:
            return VerifyResult(False, i, "multiset")
        if prev is not None and not moved:
            return VerifyResult(False, i - 1, "adjacency")
        prev = cur
    return VerifyResult(True)
