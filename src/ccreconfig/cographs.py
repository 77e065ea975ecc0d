"""Solver for cographs under component slides.

A cograph decomposes recursively: every induced subgraph with at least
two vertices is either disconnected or has a disconnected complement.
The cotree records that decomposition once per graph (it is cached on
the Graph), and the solver walks it.  A disconnected region (union node)
splits the instance per part.  In a connected region, all edges between two
co-components are present, so any configuration with several components
is trapped inside a single co-component and the instance descends there.
Two single-component configurations are always at slide distance 0, 1,
or 2: one move if their union is connected, otherwise two, the first
swapping one vertex of the source for a vertex outside their
co-component, which is adjacent to both.  The one-exchange variant
makes the same first move; its distance is the number of vertices to
replace, plus one when the union is disconnected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    InternalContradictionError,
    InvalidInstanceError,
    NotACographError,
)
from .graph import (
    Graph,
    _clean_subset,
    _component,
    _replay_jumps,
    _touch,
    connected_components,
)
from .rules import Result, Rule

__all__ = [
    "CotreeNode",
    "decompose_cograph",
    "is_cograph",
    "solve_cograph_cs",
]


@dataclass(frozen=True, eq=False)
class CotreeNode:
    """Node of the recursive decomposition: a single vertex, a split
    into connected parts, or a split into co-components.  Nodes compare
    and hash by identity, and the repr only counts the children, so none
    of the three recurses down a deep cotree."""

    kind: str  # "leaf" | "union" | "join"
    vertices: tuple[int, ...]
    children: tuple["CotreeNode", ...] = ()

    def __repr__(self) -> str:
        return f"CotreeNode({self.kind!r}, {self.vertices}, {len(self.children)} children)"


def _build_cotree(g: Graph) -> CotreeNode | None:
    """Cotree of g, or None if g is not a cograph.

    Incremental recognition after Corneil, Perl and Stewart ("A linear
    recognition algorithm for cographs", SIAM J. Comput. 14(4), 1985).
    Vertices go in by increasing id, x into the cotree of 0..x-1 in
    O(1 + its neighbours there): a node is full when all its leaves are
    neighbours of x and partial when only some are.  The graph stays a
    cograph iff the partial nodes form one path down from the root on
    which every join node has all other children full and every union
    node all other children empty; x then goes in at the lowest partial
    node.  The whole build is O(n + m) and uses no recursion.
    """
    n = g.n
    if n == 0:
        return CotreeNode("union", ())
    # nodes 0..n-1 are the leaves, node n sits above the root, inner
    # nodes are numbered from n + 1 on
    top = n
    parent = [top] + [-1] * n
    kind = ["leaf"] * n + ["top"]
    children: dict[int, set[int]] = {top: {0}}

    def splice(old: int, k: str, kids) -> int:
        """A new k node over kids takes the place of old."""
        up = parent[old]
        children[up].discard(old)
        w = len(kind)
        kind.append(k)
        parent.append(up)
        children[up].add(w)
        children[w] = set(kids)
        for c in kids:
            parent[c] = w
        return w

    def grow(c: int, k: str, x: int) -> None:
        """Hang x under c if c is a k node, else pair them under one."""
        if kind[c] == k:
            parent[x] = c
            children[c].add(x)
        else:
            splice(c, k, (c, x))

    placed: set[int] = set()
    for x in range(1, n):
        placed.add(x - 1)
        marked = g.adj[x] & placed  # the full leaves
        if len(marked) in (0, x):
            (root,) = children[top]
            grow(root, "join" if marked else "union", x)
            continue
        # touched node -> its full children, counted in bulk for leaves
        full = Counter(map(parent.__getitem__, marked))
        inner: dict[int, list[int]] = {}  # node -> its full inner children
        rising = [w for w, count in full.items() if count == len(children[w])]
        for c in rising:  # grows as nodes turn full
            w = parent[c]
            count = full[w] = full.get(w, 0) + 1
            inner.setdefault(w, []).append(c)
            if count == len(children[w]):
                rising.append(w)
        below: dict[int, int] = {}  # partial node -> its partial children
        for p, count in full.items():
            if count == len(children[p]) or p in below:
                continue
            below[p] = 0
            w = p
            while parent[w] != top:
                w = parent[w]
                wanted = len(children[w]) - 1 if kind[w] == "join" else 0
                seen = below.get(w)
                if full.get(w, 0) != wanted or seen:
                    return None
                below[w] = 1
                if seen is not None:  # an earlier start: walked from here
                    break
        u = next(p for p, count in below.items() if count == 0)
        kids = [*children[u].intersection(marked), *inner.get(u, ())]
        if kind[u] == "join":
            if len(kids) == len(children[u]) - 1:
                (c,) = children[u].difference(kids)
                grow(c, "union", x)
            else:
                # the empty children stay joined in u, beside x under a
                # new union that the full children join
                children[u].difference_update(kids)
                lone = splice(u, "union", (u, x))
                splice(lone, "join", (*kids, lone))
        elif len(kids) == 1:
            grow(kids[0], "join", x)
        else:
            # the full children go under a new union that x joins
            children[u].difference_update(kids)
            grouped = splice(kids[0], "union", kids)
            splice(grouped, "join", (grouped, x))

    # Handing each vertex, in increasing order, to all its ancestors
    # gives sorted vertex tuples, and children ordered by lowest vertex
    # when a node is listed under its parent on its first visit.  The
    # total work is the sum of the node sizes, O(n + m) on a cograph.
    members: dict[int, list[int]] = {w: [] for w in children}
    ordered: dict[int, list[int]] = {w: [] for w in children}
    for v in range(n):
        w = parent[v]
        ordered[w].append(v)
        while w != top:
            got = members[w]
            if not got:
                ordered[parent[w]].append(w)
            got.append(v)
            w = parent[w]
    (root,) = ordered[top]
    order = [root]
    for w in order:  # parents before children
        order.extend(ordered.get(w, ()))
    built: dict[int, CotreeNode] = {}
    for w in reversed(order):
        if w < n:
            built[w] = CotreeNode("leaf", (w,))
        else:
            built[w] = CotreeNode(
                kind[w], tuple(members[w]), tuple(built[c] for c in ordered[w])
            )
    return built[root]


def decompose_cograph(g: Graph) -> CotreeNode | None:
    """Cotree of g, or None if g is not a cograph.  Built on first use
    and cached on the graph."""
    return g.cotree


def is_cograph(g: Graph) -> bool:
    return decompose_cograph(g) is not None


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


def _one_component_states(
    g: Graph,
    join: CotreeNode,
    x: frozenset[int],
    y: frozenset[int],
    variant: Rule,
) -> list[frozenset[int]]:
    """Slide sequence between two distinct connected sets of the same
    size inside the connected region of a join node.  Both sets are
    connected, so they touch iff their union is connected.  When they do
    not, both rules first swap the lowest vertex of x not in y for the
    lowest vertex of the join outside the co-component that holds x and
    y, which is adjacent to both; CS then moves onto y, CS1 exchanges one
    vertex at a time."""
    states = [x]
    if not _touch(g, x, y):
        home = set(_co_part_of(join, x | y).vertices)
        z = min(v for v in join.vertices if v not in home)
        states.append((x - {min(x - y)}) | {z})
    if variant is Rule.CS:
        return states + [y]
    cur = states[-1]
    while cur != y:
        # each exchange brings in a vertex of y, so it touches y
        exchanges = ((cur - {out}) | {came} for out in sorted(cur - y) for came in sorted(y - cur))
        cur = next((cand for cand in exchanges
                    if len(_component(g, cand, next(iter(cand)), set())) == len(cand)), None)
        if cur is None:
            raise InternalContradictionError("no admissible exchange toward target")
        states.append(cur)
    return states


def solve_cograph_cs(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    *,
    variant: Rule = Rule.CS,
) -> Result:
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
    va = _clean_subset(g, a)

    # Depth first over the cotree, children in order, with the components
    # of A and of B in each region, found once: a union node hands each
    # component to the child that holds its first vertex, a join node
    # either moves a single component there or passes both lists down to
    # the co-component that holds them.  Parts not reached yet still hold
    # A and finished parts hold B, so each move changes the current state
    # inside one region.  The lists are ordered by size, then by lowest
    # vertex, and a split keeps that order: two lists hold the same
    # components iff they are equal, and the same sizes iff their lengths
    # are.  Moves aside, a visit costs O(|node| + #children): O(n + m) in
    # all, as the node sizes sum to the vertex depths (see the README).
    jumps: list[tuple[frozenset[int], frozenset[int]]] = []
    pending = [(root, *(sorted(connected_components(g, x), key=len) for x in (va, b)))]
    while pending:
        node, ca, cb = pending.pop()
        if ca == cb:
            continue
        if list(map(len, ca)) != list(map(len, cb)):
            return Result(variant, False, reason="multiset-mismatch")
        if node.kind == "union":
            # the largest child takes what the lookup lacks: a deep part is never copied
            kids = node.children
            big = max(kids, key=lambda kid: len(kid.vertices))
            owner = {v: kid for kid in kids if kid is not big for v in kid.vertices}
            parts: dict[CotreeNode, tuple[list, list]] = {}
            for side, comps in enumerate((ca, cb)):
                for c in comps:
                    parts.setdefault(owner.get(c[0], big), ([], []))[side].append(c)
            pending += ((kid, *parts[kid]) for kid in reversed(kids) if kid in parts)
        # two distinct sets with one multiset do not fit in a leaf, so
        # this is a join node
        elif len(ca) == 1:
            steps = _one_component_states(g, node, frozenset(ca[0]), frozenset(cb[0]), variant)
            jumps += zip(steps, steps[1:])
        else:
            home = _co_part_of(node, frozenset().union(*ca))
            if home is not _co_part_of(node, frozenset().union(*cb)):
                return Result(variant, False, reason="co-component-mismatch")
            pending.append((home, ca, cb))
    return Result(variant, True, _replay_jumps(va, jumps))
