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
from typing import Iterable, Sequence

from .errors import InvalidInstanceError
from .graph import Configuration, Graph, SizeMultiset, is_connected_mask

__all__ = [
    "Rule",
    "adjacent",
    "VerifyResult",
    "verify_sequence",
    "ReconfSequence",
]


class Rule(str, Enum):
    TJ = "TJ"   # token jump
    TS = "TS"   # token slide
    CJ = "CJ"   # component jump
    CS = "CS"   # component slide
    CS1 = "CS1"  # single-vertex component slide

    @classmethod
    def parse(cls, name: str) -> "Rule":
        if not isinstance(name, str):
            raise InvalidInstanceError(f"rule must be a string, got {type(name).__name__}")
        try:
            return cls(name.upper())
        except ValueError:
            raise InvalidInstanceError(
                f"unknown rule {name!r}; expected one of {[r.value for r in cls]}"
            ) from None


_COMPONENT_RULES = frozenset({"CJ", "CS", "CS1"})


def _adjacent_core(
    g: Graph,
    u_mask: int,
    u_comps: frozenset[int],
    w_mask: int,
    w_comps: frozenset[int],
    rule: Rule,
) -> bool:
    if u_mask == w_mask:
        return False
    if rule is Rule.TJ or rule is Rule.TS:
        gone = u_mask & ~w_mask
        new = w_mask & ~u_mask
        if gone.bit_count() != 1 or new.bit_count() != 1:
            return False
        if rule is Rule.TS:
            return bool(g.adj_masks[gone.bit_length() - 1] & new)
        return True
    if sorted(c.bit_count() for c in u_comps) != sorted(c.bit_count() for c in w_comps):
        return False
    gone_comps = u_comps - w_comps
    new_comps = w_comps - u_comps
    if len(gone_comps) != 1 or len(new_comps) != 1:
        return False
    c = next(iter(gone_comps))
    c2 = next(iter(new_comps))
    if rule is Rule.CJ:
        return True
    if not is_connected_mask(g, c | c2):
        return False
    if rule is Rule.CS:
        return True
    return (c & ~c2).bit_count() == 1


def _as_config(g: Graph, subset: Configuration | Iterable[int]) -> Configuration:
    if isinstance(subset, Configuration):
        if subset.graph != g:
            raise InvalidInstanceError("configuration belongs to a different graph")
        return subset
    return Configuration(g, subset)


def adjacent(
    g: Graph,
    u: Configuration | Iterable[int],
    w: Configuration | Iterable[int],
    rule: Rule,
) -> bool:
    """One-move adjacency between two subsets under the given rule."""
    uc = _as_config(g, u)
    wc = _as_config(g, w)
    return _adjacent_core(
        g, uc.mask, uc.component_masks, wc.mask, wc.component_masks, rule
    )


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
    rule: Rule = Rule.TJ,
) -> VerifyResult:
    """Check a full state sequence: every state must have the required
    component-size multiset and consecutive states must be one move
    apart.

    Scan order is multiset-of-state before adjacency-to-predecessor, so
    a state that breaks both is reported as a multiset violation at its
    own index; an adjacency violation is reported at the index of the
    first state of the offending pair.
    """
    states = list(states)
    if not states:
        raise InvalidInstanceError("cannot verify an empty sequence")
    configs = [_as_config(g, s) for s in states]
    want = SizeMultiset(configs[0].multiset if multiset is None else multiset)
    prev: Configuration | None = None
    for i, cfg in enumerate(configs):
        if cfg.multiset != want:
            return VerifyResult(False, i, "multiset")
        if prev is not None and not _adjacent_core(
            g, prev.mask, prev.component_masks, cfg.mask, cfg.component_masks, rule
        ):
            return VerifyResult(False, i - 1, "adjacency")
        prev = cfg
    return VerifyResult(True)


@dataclass(frozen=True)
class ReconfSequence:
    """A rule plus the full list of states it steps through."""

    rule: Rule
    states: tuple[tuple[int, ...], ...]
    moves: tuple | None = None

    @property
    def length(self) -> int:
        return len(self.states) - 1
