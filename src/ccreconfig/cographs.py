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
replace, plus one when the union is disconnected.  A set of two or
more vertices is connected iff its lowest cotree node is a join, so the
solver reads connectivity off the cotree instead of searching G.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Iterable, NamedTuple

from .errors import (
    InternalContradictionError,
    InvalidInstanceError,
    NotACographError,
)
from .graph import (
    Graph,
    _clean_subset,
    _replay_jumps,
    _touch,
    connected_components,
)
from .rules import Result, Rule

__all__ = [
    "Cotree",
    "decompose_cograph",
    "is_cograph",
    "solve_cograph_cs",
]


class Cotree(NamedTuple):
    """A cotree, nodes numbered in preorder with children in order of
    their lowest vertex: the nodes below node i are numbered from i up
    to its next sibling.  Node i has kind[i] ("leaf", "union" or "join"),
    children kids[i], parent up[i] (-1 at the root, node 0) and lowest
    vertex low[i] (-1 for an empty graph); vertex v has leaf node
    leaf[v].  A Cotree stands for the subtree at `root`, and `children`
    gives its child subtrees as Cotrees over the same arrays."""

    kind: list[str]
    kids: list[tuple[int, ...]]
    up: list[int]
    low: list[int]
    leaf: list[int]
    root: int = 0

    @property
    def children(self) -> list[Cotree]:
        return [self._replace(root=c) for c in self.kids[self.root]]


def _build_cotree(g: Graph) -> Cotree | None:
    """Cotree of g, numbered, or None if g is not a cograph.

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
        return Cotree(["union"], [()], [-1], [-1], [])
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

    # Each vertex, in increasing order, climbs until it meets a node that
    # an earlier vertex reached: a node gets its lowest vertex, and is
    # listed under its parent, on its first visit, so children come in
    # order of their lowest vertex.  Each node is climbed through once.
    low = list(range(n)) + [-1] * (len(kind) - n)
    ordered: dict[int, list[int]] = {w: [] for w in children}
    for v in range(n):
        w, p = v, parent[v]
        ordered[p].append(v)
        while p != top and low[p] < 0:
            low[p] = v
            w, p = p, parent[p]
            ordered[p].append(w)
    order, stack, rank = [], ordered[top], [-1] * len(kind)
    while stack:  # preorder, children in order
        w = stack.pop()
        rank[w] = len(order)
        order.append(w)
        stack += reversed(ordered.get(w, ()))
    kids = [tuple(rank[c] for c in ordered.get(w, ())) for w in order]
    up = [rank[parent[w]] for w in order]  # the root's parent, top, is unnumbered
    return Cotree([kind[w] for w in order], kids, up, [low[w] for w in order], rank[:n])


def decompose_cograph(g: Graph) -> Cotree | None:
    """Cotree of g, or None if g is not a cograph.  Built on first use
    and cached on the graph."""
    return g._cotree


def is_cograph(g: Graph) -> bool:
    return decompose_cograph(g) is not None


def _child(ct: Cotree, i: int, v: int) -> int:
    """The child of node i that holds vertex v, a vertex below i: the
    last child numbered at most v's leaf."""
    kids = ct.kids[i]
    return kids[bisect_right(kids, ct.leaf[v]) - 1]


def _lowest(ct: Cotree, vertices: Iterable[int]) -> int:
    """The lowest node that holds all the vertices (at least one).  A
    subtree's preorder numbers form a range that starts at its root, so
    that node is the first ancestor of the last leaf numbered at most
    the first leaf."""
    ranks = [ct.leaf[v] for v in vertices]
    first, w = min(ranks), max(ranks)
    up = ct.up
    while w > first:
        w = up[w]
    return w


def _one_component_moves(
    g: Graph, ct: Cotree, j: int, x: tuple[int, ...], y: tuple[int, ...], variant: Rule
) -> list[tuple[Iterable[int], Iterable[int]]]:
    """(source, target) jumps between two distinct connected sets of the
    same size inside the connected region of join node j.  Both sets are
    connected, so they touch iff their union is connected.  When they do
    not, both rules first swap the lowest vertex of x not in y for the
    lowest vertex of j outside the co-component that holds x and y,
    which is adjacent to both; CS then moves onto y, CS1 exchanges one
    vertex at a time, the first admissible (out, came) pair in order
    (one always exists, see the README)."""
    cur, goal = set(x), set(y)
    moves: list[tuple[Iterable[int], Iterable[int]]] = []
    if not _touch(g, cur, y):
        home = _child(ct, j, x[0])
        z = ct.low[next(c for c in ct.kids[j] if c != home)]
        out = min(cur - goal)
        moves.append(((out,), (z,)))
        cur.remove(out)
        cur.add(z)
    if variant is Rule.CS:
        return moves + [(cur, y)]
    outs, cames = sorted(cur - goal), sorted(goal - cur)
    while outs:
        # cur | y is connected, so its lowest node j is a join; count cur
        # per co-component of j until cur | y fits in one of them
        j = _lowest(ct, cur | goal)
        held = Counter(_child(ct, j, v) for v in cur)
        homes = {_child(ct, j, v) for v in goal}
        home = homes.pop() if len(homes) == 1 else None  # y's one co-component

        def admissible(out: int, came: int) -> bool:
            po, pc = _child(ct, j, out), _child(ct, j, came)
            # co-components of j that the candidate meets
            meets = len(held) - (held[po] == 1) + (held[pc] == (pc == po))
            return (len(cur) == 1 or meets > 1
                    or ct.kind[_lowest(ct, (cur - {out}) | {came})] == "join")

        while outs and held[home] < len(cur):
            pair = next(((o, c) for o in outs for c in cames if admissible(o, c)), None)
            if pair is None:
                raise InternalContradictionError("no admissible exchange toward target")
            out, came = pair
            moves.append(((out,), (came,)))
            cur.remove(out)
            cur.add(came)
            outs.remove(out)
            cames.remove(came)
            po = _child(ct, j, out)
            held[po] -= 1
            if not held[po]:
                del held[po]
            held[_child(ct, j, came)] += 1
    return moves


def solve_cograph_cs(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    *,
    variant: Rule | str = Rule.CS,
) -> Result:
    """Decide slide reachability on a cograph and build a sequence.

    With variant CS the sequence moves whole components; with variant
    CS1 every move exchanges a single vertex and the sequence is as
    short as possible.  The variant may be given by name.
    """
    variant = Rule.parse(variant)
    if variant not in (Rule.CS, Rule.CS1):
        raise InvalidInstanceError(f"variant must be CS or CS1, got {variant.value}")
    ct = g._cotree
    if ct is None:
        raise NotACographError("graph contains an induced four-vertex path")
    va = _clean_subset(g, a)

    # Depth first over the cotree, children in order, with the components
    # of A and of B in each region, found once.  Two or more components
    # on a side skip the idle levels to the lowest node holding them all
    # (their first vertices suffice: a component reaching outside that
    # node spans two co-components of a join above it, so it touches the
    # others).  A union node hands each component to the child that
    # holds its first vertex (one bisect over its children); a join
    # there holds A in one co-component and B in another.  A single
    # component moves at the first join.  Parts not reached yet still
    # hold A and finished parts hold B, so each move changes the current
    # state inside one region.  The lists are ordered by size, then by
    # lowest vertex, and a split keeps that order: two lists hold the
    # same components iff they are equal, and the same sizes iff their
    # lengths are.  For the cost of a visit, see the README.
    jumps: list[tuple[Iterable[int], Iterable[int]]] = []
    pending = [(0, *(sorted(connected_components(g, x), key=len) for x in (va, b)))]
    while pending:
        i, ca, cb = pending.pop()
        if ca == cb:
            continue
        if list(map(len, ca)) != list(map(len, cb)):
            return Result(variant, False, reason="multiset-mismatch")
        if len(ca) > 1:
            i = _lowest(ct, [c[0] for c in (*ca, *cb)])
            if ct.kind[i] == "join":
                return Result(variant, False, reason="co-component-mismatch")
        elif ct.kind[i] == "join":
            # two distinct sets with one multiset do not fit in a leaf
            jumps += _one_component_moves(g, ct, i, ca[0], cb[0], variant)
            continue
        parts: dict[int, tuple[list, list]] = {}
        for side, comps in enumerate((ca, cb)):
            for c in comps:
                parts.setdefault(_child(ct, i, c[0]), ([], []))[side].append(c)
        pending += ((kid, *parts[kid]) for kid in sorted(parts, reverse=True))
    return Result(variant, True, _replay_jumps(va, jumps))
