"""Solver for cographs under component slides.

A cograph decomposes recursively: every induced subgraph with at least
two vertices is either disconnected or has a disconnected complement.
The cotree records that decomposition once per graph (it is cached on
the Graph), and the solver walks it.  A disconnected region (union node)
splits the instance per part.  In a connected region, all edges between two
co-components are present, so any configuration with several components
is trapped inside a single co-component and the instance descends there.
Two single-component configurations are always at slide distance 0, 1,
or 2: one move if their union is connected, otherwise through a ball
grown from a vertex outside their co-component, which is adjacent to
both.  In the one-exchange variant the distance is the number of
vertices to replace, plus one when the union is disconnected.
"""

from __future__ import annotations

from dataclasses import dataclass

from collections import deque
from typing import Iterable

from .errors import (
    InternalContradictionError,
    InvalidInstanceError,
    NotACographError,
)
from .graph import (
    Graph,
    _clean_subset,
    cc_multiset,
    co_components,
    connected_components,
    is_connected_set,
)
from .rules import Rule

__all__ = [
    "CotreeNode",
    "decompose_cograph",
    "is_cograph",
    "cs_distance_one_component",
    "cs1_distance_one_component",
    "CographSolveResult",
    "solve_cograph_cs",
]


@dataclass(frozen=True)
class CotreeNode:
    """Node of the recursive decomposition: a single vertex, a split
    into connected parts, or a split into co-components."""

    kind: str  # "leaf" | "union" | "join"
    vertices: tuple[int, ...]
    children: tuple["CotreeNode", ...] = ()


def _build_cotree(g: Graph) -> CotreeNode | None:
    """Cotree of g by repeated splitting into components and
    co-components, or None if g is not a cograph."""

    def build(region: tuple[int, ...]) -> CotreeNode | None:
        if len(region) == 1:
            return CotreeNode("leaf", region)
        parts = connected_components(g, region)
        kind = "union"
        if len(parts) == 1:
            parts = co_components(g, region)
            kind = "join"
            if len(parts) == 1:
                return None
        children = []
        for part in parts:
            child = build(part)
            if child is None:
                return None
            children.append(child)
        return CotreeNode(kind, region, tuple(children))

    if g.n == 0:
        return CotreeNode("union", ())
    return build(tuple(range(g.n)))


def decompose_cograph(g: Graph) -> CotreeNode | None:
    """Cotree of g, or None if g is not a cograph.  Built on first use
    and cached on the graph."""
    return g.cotree


def is_cograph(g: Graph) -> bool:
    return decompose_cograph(g) is not None


def _bfs_ball(g: Graph, region: frozenset[int], start: int, size: int) -> frozenset[int]:
    """First `size` vertices in breadth-first visit order from start,
    inside the given region."""
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue and len(order) < size:
        v = queue.popleft()
        for u in sorted(g.adj[v]):
            if u in region and u not in seen:
                seen.add(u)
                order.append(u)
                queue.append(u)
                if len(order) == size:
                    break
    if len(order) < size:
        raise InternalContradictionError("region too small for ball")
    return frozenset(order)


def _co_part_of(join: CotreeNode, vertices: frozenset[int]) -> CotreeNode:
    """The child of a join node (a co-component) that holds the vertices."""
    for child in join.children:
        if not vertices.isdisjoint(child.vertices):
            if not vertices.issubset(child.vertices):
                raise InternalContradictionError(
                    "multi-component configuration spans co-components"
                )
            return child
    raise InternalContradictionError("configuration outside every co-component")


def _outside_vertex(join: CotreeNode, vertices: frozenset[int]) -> int:
    """Lowest vertex of the join node outside the co-component holding
    the vertices; it is adjacent to every one of them."""
    home = set(_co_part_of(join, vertices).vertices)
    return min(v for v in join.vertices if v not in home)


def _one_component_states(
    g: Graph,
    join: CotreeNode,
    x: frozenset[int],
    y: frozenset[int],
    variant: Rule,
) -> list[frozenset[int]]:
    """Slide sequence between two connected sets of the same size inside
    the connected region of a join node.  Both sets are connected, so
    they touch iff their union is connected."""
    if x == y:
        return [x]
    if variant is Rule.CS:
        if is_connected_set(g, x | y):
            return [x, y]
        z = _outside_vertex(join, x | y)
        ball = _bfs_ball(g, frozenset(join.vertices), z, len(x))
        return [x, ball, y]

    states = [x]
    cur = x
    if not is_connected_set(g, cur | y):
        z = _outside_vertex(join, cur | y)
        gone = min(cur - y)
        cur = (cur - {gone}) | {z}
        states.append(cur)
    while cur != y:
        nxt = None
        for out in sorted(cur - y):
            for came in sorted(y - cur):
                cand = (cur - {out}) | {came}
                if not is_connected_set(g, cand):
                    continue
                if cand == y or is_connected_set(g, cand | y):
                    nxt = cand
                    break
            if nxt is not None:
                break
        if nxt is None:
            raise InternalContradictionError("no admissible exchange toward target")
        cur = nxt
        states.append(cur)
    return states


def cs_distance_one_component(g: Graph, x: Iterable[int], y: Iterable[int]) -> int:
    """Slide distance between two connected equal-size sets in a
    connected cograph: always 0, 1, or 2."""
    states = _one_component_prepared(g, x, y, Rule.CS)
    return len(states) - 1


def cs1_distance_one_component(g: Graph, x: Iterable[int], y: Iterable[int]) -> int:
    """One-exchange slide distance between two connected equal-size sets
    in a connected cograph."""
    xs, ys = frozenset(_clean_subset(g, x)), frozenset(_clean_subset(g, y))
    _require_one_component_instance(g, xs, ys)
    if xs == ys:
        return 0
    if is_connected_set(g, xs | ys):
        return len(xs - ys)
    return len(xs - ys) + 1


def _require_one_component_instance(
    g: Graph, xs: frozenset[int], ys: frozenset[int]
) -> None:
    if not is_connected_set(g, xs) or not is_connected_set(g, ys):
        raise InvalidInstanceError("both sets must induce a single component")
    if len(xs) != len(ys):
        raise InvalidInstanceError("sets must have the same size")
    if len(connected_components(g, range(g.n))) != 1:
        raise InvalidInstanceError("graph must be connected")
    if not is_cograph(g):
        raise NotACographError("graph contains an induced four-vertex path")


def _one_component_prepared(
    g: Graph, x: Iterable[int], y: Iterable[int], variant: Rule
) -> list[frozenset[int]]:
    xs, ys = frozenset(_clean_subset(g, x)), frozenset(_clean_subset(g, y))
    _require_one_component_instance(g, xs, ys)
    return _one_component_states(g, decompose_cograph(g), xs, ys, variant)


@dataclass(frozen=True)
class CographSolveResult:
    rule: Rule
    reachable: bool
    states: tuple[tuple[int, ...], ...] | None = None
    reason: str | None = None

    @property
    def distance(self) -> int | None:
        if self.states is None:
            return None
        return len(self.states) - 1


def solve_cograph_cs(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    *,
    variant: Rule = Rule.CS,
) -> CographSolveResult:
    """Decide slide reachability on a cograph and build a sequence.

    With variant CS the sequence moves whole components; with variant
    CS1 every move exchanges a single vertex and the sequence is as
    short as possible.
    """
    if variant not in (Rule.CS, Rule.CS1):
        raise InvalidInstanceError(f"variant must be CS or CS1, got {variant}")
    root = decompose_cograph(g)
    if root is None:
        raise NotACographError("graph contains an induced four-vertex path")
    va = frozenset(_clean_subset(g, a))
    vb = frozenset(_clean_subset(g, b))

    failure = None

    def solve(node: CotreeNode, xa: frozenset[int], xb: frozenset[int]):
        nonlocal failure
        if xa == xb:
            return [xa]
        if cc_multiset(g, xa) != cc_multiset(g, xb):
            failure = "multiset-mismatch"
            return None
        if node.kind == "union":
            states = [xa]
            done: frozenset[int] = frozenset()
            todo = xa
            for child in node.children:
                block = frozenset(child.vertices)
                sub = solve(child, xa & block, xb & block)
                if sub is None:
                    return None
                todo = todo - block
                for step in sub[1:]:
                    states.append(done | step | todo)
                done = done | (xb & block)
            return states
        # two distinct sets with one multiset do not fit in a leaf, so
        # this is a join node
        if len(connected_components(g, xa)) == 1:
            return _one_component_states(g, node, xa, xb, variant)
        home = _co_part_of(node, xa)
        if home is not _co_part_of(node, xb):
            failure = "co-component-mismatch"
            return None
        return solve(home, xa, xb)

    states = solve(root, va, vb)
    if states is None:
        return CographSolveResult(variant, False, reason=failure)
    return CographSolveResult(
        variant, True, tuple(tuple(sorted(s)) for s in states)
    )
