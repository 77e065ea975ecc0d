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

from collections import Counter, deque
from typing import Iterable

from .errors import (
    InternalContradictionError,
    InvalidInstanceError,
    NotACographError,
)
from .graph import (
    Graph,
    _clean_subset,
    _touch,
    cc_multiset,
    is_connected_set,
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
        if _touch(g, x, y):
            return [x, y]
        z = _outside_vertex(join, x | y)
        ball = _bfs_ball(g, frozenset(join.vertices), z, len(x))
        return [x, ball, y]

    states = [x]
    cur = x
    if not _touch(g, cur, y):
        z = _outside_vertex(join, cur | y)
        gone = min(cur - y)
        cur = (cur - {gone}) | {z}
        states.append(cur)
    while cur != y:
        nxt = None
        for out in sorted(cur - y):
            for came in sorted(y - cur):
                # cand holds came, a vertex of y, so it touches y
                cand = (cur - {out}) | {came}
                if is_connected_set(g, cand):
                    nxt = cand
                    break
            if nxt is not None:
                break
        if nxt is None:
            raise InternalContradictionError("no admissible exchange toward target")
        cur = nxt
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
    va = frozenset(_clean_subset(g, a))
    vb = frozenset(_clean_subset(g, b))

    # Depth first over the cotree, children in order: a union node hands
    # each child its own part, a join node either moves a single
    # component there or passes both sets down to the co-component that
    # holds them.  Parts not reached yet still hold A and finished parts
    # hold B, so each step changes the current state inside one region.
    states = [va]
    pending = [(root, va, vb)]
    while pending:
        node, xa, xb = pending.pop()
        while xa != xb:
            sizes = cc_multiset(g, xa)
            if sizes != cc_multiset(g, xb):
                return Result(variant, False, reason="multiset-mismatch")
            if node.kind == "union":
                for child in reversed(node.children):
                    block = frozenset(child.vertices)
                    pending.append((child, xa & block, xb & block))
                break
            # two distinct sets with one multiset do not fit in a leaf, so
            # this is a join node
            if len(sizes) == 1:
                rest = states[-1] - xa
                steps = _one_component_states(g, node, xa, xb, variant)
                states.extend(rest | step for step in steps[1:])
                break
            home = _co_part_of(node, xa)
            if home is not _co_part_of(node, xb):
                return Result(variant, False, reason="co-component-mismatch")
            node = home
    return Result(variant, True, tuple(tuple(sorted(s)) for s in states))
