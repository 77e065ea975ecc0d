"""Shared test utilities.

The *_bf functions are deliberately independent reimplementations
(union-find, explicit complements, subset filters) used as ground truth
against the package's algorithms.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

from ccreconfig.cographs import Cotree
from ccreconfig.graph import Graph, co_components, connected_components


def all_edge_sets(n: int):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def all_graphs(n: int):
    for edges in all_edge_sets(n):
        yield Graph(n, edges)


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def threshold_graph(n: int) -> Graph:
    """Alternately add an isolated and a dominating vertex: one cotree
    level per vertex."""
    edges = [(u, v) for v in range(n) if v % 2 for u in range(v)]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if n <= 1 or len(components_bf(g, range(n))) == 1:
            return g


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            return True
        return False


def components_bf(g: Graph, vertices) -> list[tuple[int, ...]]:
    vs = sorted(set(vertices))
    uf = UnionFind(vs)
    inside = set(vs)
    for u, v in g.edges:
        if u in inside and v in inside:
            uf.union(u, v)
    groups: dict[int, list[int]] = {}
    for v in vs:
        groups.setdefault(uf.find(v), []).append(v)
    return sorted((tuple(sorted(b)) for b in groups.values()), key=lambda b: b[0])


def is_connected_bf(g: Graph, vertices) -> bool:
    vs = set(vertices)
    return len(vs) > 0 and len(components_bf(g, vs)) == 1


def adjacent_bf(g: Graph, u, w, rule) -> bool:
    """One-move adjacency read straight off the rule definitions: a
    token move exchanges one vertex (along an edge for TS); a component
    move replaces exactly one component by a new one of the same size
    and keeps every other component (CS: old and new together are
    connected; CS1: and they differ in one vertex)."""
    u, w = set(u), set(w)
    if rule in ("TJ", "TS"):
        gone, new = u - w, w - u
        if len(gone) != 1 or len(new) != 1:
            return False
        (x,), (y,) = gone, new
        return rule == "TJ" or (min(x, y), max(x, y)) in g.edges
    cu, cw = set(components_bf(g, u)), set(components_bf(g, w))
    gone, new = cu - cw, cw - cu
    if len(gone) != 1 or len(new) != 1:
        return False
    (c,), (c2,) = gone, new
    if len(c) != len(c2):
        return False
    if rule == "CJ":
        return True
    if not is_connected_bf(g, set(c) | set(c2)):
        return False
    return rule == "CS" or len(set(c) - set(c2)) == 1


def complement_graph(g: Graph) -> Graph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if v not in g.adj[u]
    ]
    return Graph(g.n, edges)


def connected_k_subsets_bf(g: Graph, k: int) -> set[frozenset[int]]:
    return {
        frozenset(c)
        for c in combinations(range(g.n), k)
        if is_connected_bf(g, c)
    }


def has_induced_long_cycle(g: Graph) -> bool:
    """True iff some induced subgraph is a cycle on >= 4 vertices."""
    for ell in range(4, g.n + 1):
        for sub in combinations(range(g.n), ell):
            inside = set(sub)
            degs = [sum(1 for u in g.adj[v] if u in inside) for v in sub]
            if all(d == 2 for d in degs) and is_connected_bf(g, sub):
                edge_count = sum(degs) // 2
                if edge_count == ell:
                    return True
    return False


def has_induced_p4(g: Graph) -> bool:
    """True iff some four vertices induce a path."""
    for sub in combinations(range(g.n), 4):
        inside = set(sub)
        degs = {v: sum(1 for u in g.adj[v] if u in inside) for v in sub}
        counts = sorted(degs.values())
        if counts == [1, 1, 2, 2] and is_connected_bf(g, sub):
            return True
    return False


class Node(NamedTuple):
    kind: str  # "leaf" | "union" | "join"
    vertices: tuple[int, ...]
    children: tuple["Node", ...] = ()


def naive_cotree(g: Graph) -> Node | None:
    """Cotree by splitting every region afresh into its components or,
    when connected, its co-components; None if some region with two or
    more vertices splits neither way.  Recursive, O(depth * m): the
    reference the linear build is compared against."""

    def build(region: tuple[int, ...]) -> Node | None:
        if len(region) == 1:
            return Node("leaf", region)
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
        return Node(kind, region, tuple(children))

    if g.n == 0:
        return Node("union", ())
    return build(tuple(range(g.n)))


def cotree_vertices(ct: Cotree) -> list[tuple[int, ...]]:
    """Each node's vertices, read off the leaves numbered in its range:
    node i and the size[i] - 1 nodes after it.  No recursion."""
    vertex = {i: v for v, i in enumerate(ct.leaf)}
    size = [1] * len(ct.kind)
    for i in reversed(range(len(ct.kind))):
        size[i] += sum(size[c] for c in ct.kids[i])
    return [tuple(sorted(vertex[k] for k in range(i, i + size[i]) if k in vertex))
            for i in range(len(ct.kind))]
