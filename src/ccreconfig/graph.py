"""Graph core: simple undirected graphs with dense 0-based vertex ids.

Everything downstream (rules, solvers, the brute-force oracle) works on
plain vertex subsets of these graphs.  Two subset representations are
used: sorted tuples of ints for public results and the verifier, and
int bitmasks for the oracle's small-n state search.  Bitmask adjacency
is built lazily so that large sparse graphs (the path and chordal
solvers run at n = 10^5 and up) never pay for it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import InvalidInstanceError, WrongGraphClassError

if TYPE_CHECKING:
    from .cographs import CotreeNode

__all__ = [
    "Graph",
    "MAX_VERTICES",
    "SizeMultiset",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "empty_graph",
    "parse_graph",
    "mask_of",
    "bits_of",
    "vertices_of",
    "connected_components",
    "components_masks",
    "is_connected_set",
    "is_connected_mask",
    "cc_multiset",
    "co_components",
    "is_chordal",
    "connected_k_subsets",
]


# Largest vertex count read from an instance or a graph file.  Checked
# before anything is allocated: a Graph holds two sets per vertex, about
# 465 MB at this size before the first edge.
MAX_VERTICES = 1_000_000


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise InvalidInstanceError(
            f"vertex count {n} exceeds the limit of {MAX_VERTICES}"
        )


class Graph:
    """Immutable undirected graph on vertices 0..n-1.

    Self-loops and duplicate edges are rejected.  Treat instances as
    frozen: all derived structure is shared freely across threads.  The
    class facts the solvers rest on (path order, cotree) are computed on
    first use and cached on the instance.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidInstanceError("vertex count must be non-negative")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInstanceError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InvalidInstanceError(f"self-loop at vertex {u}")
            nbrs = adj[u]
            if v in nbrs:
                raise InvalidInstanceError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            nbrs.add(v)
            adj[v].add(u)
            m += 1
        self.m = m
        self.adj: tuple[frozenset[int], ...] = tuple(map(frozenset, adj))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as (u, v) with u < v, in sorted order.  Derived
        from the adjacency on first use; the solvers read only `adj`."""
        return tuple((u, v) for u, nbrs in enumerate(self.adj) for v in sorted(nbrs) if u < v)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InvalidInstanceError(f"vertex {v} out of range for n={self.n}")

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Neighbor bitmask per vertex.  Only touch this at small n."""
        return tuple(mask_of(s) for s in self.adj)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # The two builders live with their solvers, which import this module.

    @cached_property
    def path_layout(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Vertices in path order and the position of each vertex along
        it, or None when the graph is not a path."""
        from .paths import _walk_path

        try:
            return _walk_path(self)
        except WrongGraphClassError:
            return None

    @cached_property
    def cotree(self) -> CotreeNode | None:
        """Cotree of the graph, or None when it is not a cograph."""
        from .cographs import _build_cotree

        return _build_cotree(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidInstanceError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n: int) -> Graph:
    return Graph(n, [])


# ---------------------------------------------------------------------------
# plain-text graph format: first line "n m", then m lines "u v" with u < v

def parse_graph(text: str) -> Graph:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise InvalidInstanceError("empty graph file")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise InvalidInstanceError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInstanceError(f"line {lineno}: header must be two ints") from None
    if n < 0 or m < 0:
        raise InvalidInstanceError(f"line {lineno}: negative counts in header")
    _check_vertex_count(n)
    if len(rows) - 1 != m:
        raise InvalidInstanceError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInstanceError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InvalidInstanceError(f"line {lineno}: edge line must be two ints") from None
        if u >= v:
            raise InvalidInstanceError(f"line {lineno}: edges must satisfy u < v")
        edges.append((u, v))
    try:
        return Graph(n, edges)
    except InvalidInstanceError as exc:
        raise InvalidInstanceError(f"bad edge list: {exc}") from None


# ---------------------------------------------------------------------------
# subsets: masks and vertex tuples

def mask_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def bits_of(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertices_of(mask: int) -> tuple[int, ...]:
    return tuple(bits_of(mask))


def _clean_subset(g: Graph, vertices: Iterable[int]) -> tuple[int, ...]:
    vs = sorted(vertices)
    if vs and not (set(map(type, vs)) == {int} and 0 <= vs[0] and vs[-1] < g.n
                   and len(set(vs)) == len(vs)):
        # the slow pass words the error, and passes int subclasses
        prev = None
        for v in vs:
            if isinstance(v, bool) or not isinstance(v, int):
                raise InvalidInstanceError(f"vertex ids must be ints, got {v!r}")
            g._check_vertex(v)
            if v == prev:
                raise InvalidInstanceError(f"duplicate vertex {v} in subset")
            prev = v
    return tuple(vs)


def _replay_jumps(
    start: Iterable[int], jumps: Iterable[tuple[Iterable[int], Iterable[int]]]
) -> tuple[tuple[int, ...], ...]:
    """States after each (source, target) jump from start, a sorted subset
    without repeats, applied as plain set updates (legality is for the
    verifier).  The state stays one sorted list, edited by slices at
    bisected indices: O(s log k) steps for s moved vertices, no sort."""
    cur, have = list(start), set(start)
    states = [tuple(cur)]
    for src, dst in jumps:
        dst = set(dst)
        gone, new = have.intersection(src) - dst, dst - have
        have ^= gone | new  # gone lies in have, new outside it
        merged, last = [], 0
        # (index in cur, whether to drop the vertex there or add v before it, v)
        for i, drop, v in sorted((bisect_left(cur, v), v in gone, v) for v in gone | new):
            merged += cur[last:i]
            if not drop:
                merged.append(v)
            last = i + drop
        cur = merged + cur[last:]
        states.append(tuple(cur))
    return tuple(states)


def _component(g: Graph, inside: set[int], s: int, seen: set[int]) -> list[int]:
    """Breadth-first component of s in G[inside]; marks it in seen."""
    seen.add(s)
    comp = [s]
    for v in comp:
        # the intersection probes the smaller set by stored hash, so a
        # high-degree vertex next to a small subset costs little
        for u in g.adj[v] & inside:
            if u not in seen:
                seen.add(u)
                comp.append(u)
    return comp


def connected_components(g: Graph, vertices: Iterable[int]) -> list[tuple[int, ...]]:
    """Components of G[vertices]: each block sorted, blocks ordered by
    lowest vertex."""
    vs = _clean_subset(g, vertices)
    inside = set(vs)
    seen: set[int] = set()
    return [tuple(sorted(_component(g, inside, s, seen))) for s in vs if s not in seen]


def is_connected_set(g: Graph, vertices: Iterable[int]) -> bool:
    vs = _clean_subset(g, vertices)
    return bool(vs) and len(_component(g, set(vs), vs[0], set())) == len(vs)


def _component_mask(g: Graph, mask: int, comp: int) -> int:
    """Grow the seed bits comp to their whole component inside mask."""
    adj = g.adj_masks
    frontier = comp
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & mask & ~comp
        comp |= frontier
    return comp


def components_masks(g: Graph, mask: int) -> list[int]:
    """Bitmask variant of connected_components, ordered by lowest bit."""
    comps = []
    while mask:
        comp = _component_mask(g, mask, mask & -mask)
        comps.append(comp)
        mask &= ~comp
    return comps


def is_connected_mask(g: Graph, mask: int) -> bool:
    return mask != 0 and _component_mask(g, mask, mask & -mask) == mask


class SizeMultiset(tuple):
    """Multiset of component sizes, kept as a sorted tuple of ints >= 1."""

    def __new__(cls, sizes: Iterable[int] = ()) -> "SizeMultiset":
        vals = sorted(int(s) for s in sizes)
        if vals and vals[0] < 1:
            raise InvalidInstanceError("component sizes must be >= 1")
        return super().__new__(cls, vals)

    @property
    def total(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"SizeMultiset({list(self)})"


def cc_multiset(g: Graph, vertices: Iterable[int]) -> SizeMultiset:
    """Multiset of component sizes of G[vertices] (m(U) in the docs)."""
    return SizeMultiset(len(c) for c in connected_components(g, vertices))


def co_components(g: Graph, subset: Iterable[int] | None = None) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components of the complement of
    G[subset] (the whole graph when subset is None).

    Runs on the original adjacency without materializing the complement;
    kept-in-remaining work is charged to real edges, so the sweep is
    near-linear.
    """
    vs = _clean_subset(g, range(g.n) if subset is None else subset)
    remaining = set(vs)
    blocks = []
    for s in vs:
        if s not in remaining:
            continue
        remaining.discard(s)
        comp = [s]
        queue = deque((s,))
        while queue:
            v = queue.popleft()
            adjv = g.adj[v]
            taken = [u for u in remaining if u not in adjv]
            if taken:
                remaining.difference_update(taken)
                comp.extend(taken)
                queue.extend(taken)
        blocks.append(tuple(sorted(comp)))
    return blocks


def is_chordal(g: Graph) -> bool:
    """Chordality via maximum cardinality search plus the linear perfect
    elimination check (reverse MCS order is a PEO iff the graph is
    chordal)."""
    n = g.n
    if n <= 2:
        return True
    weight = [0] * n
    selected = [False] * n
    # bucket[w] holds candidates of weight w, with stale entries skipped
    buckets: list[list[int]] = [[] for _ in range(n + 1)]
    buckets[0] = list(range(n - 1, -1, -1))
    maxw = 0
    order = []
    for _ in range(n):
        v = -1
        while True:
            while maxw > 0 and not buckets[maxw]:
                maxw -= 1
            cand = buckets[maxw].pop()
            if not selected[cand] and weight[cand] == maxw:
                v = cand
                break
        selected[v] = True
        order.append(v)
        for u in g.adj[v]:
            if not selected[u]:
                weight[u] += 1
                buckets[weight[u]].append(u)
                if weight[u] > maxw:
                    maxw = weight[u]
    pos = [0] * n
    for i, v in enumerate(reversed(order)):
        pos[v] = i
    for v in range(n):
        later = [u for u in g.adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=pos.__getitem__)
        padj = g.adj[parent]
        for u in later:
            if u != parent and u not in padj:
                return False
    return True


def connected_k_subsets(g: Graph, k: int) -> list[int]:
    """All connected k-vertex subsets of G, as bitmasks in canonical
    subset order.

    Uses the rooted extension scheme that emits every subset exactly
    once: grow only with vertices above the root, and never re-offer a
    candidate that an earlier branch already consumed.
    """
    if k < 1 or k > g.n:
        return []
    adj = g.adj_masks
    out: list[int] = []

    def extend(sub: int, ext: int, closed: int, need: int, above: int) -> None:
        if need == 0:
            out.append(sub)
            return
        while ext:
            wbit = ext & -ext
            ext ^= wbit
            w = wbit.bit_length() - 1
            grown = adj[w] & above & ~closed
            extend(sub | wbit, ext | grown, closed | wbit | adj[w], need - 1, above)

    for root in range(g.n):
        rbit = 1 << root
        above = g.full_mask & ~((rbit << 1) - 1)
        if k == 1:
            out.append(rbit)
            continue
        extend(rbit, adj[root] & above, rbit | adj[root], k - 1, above)
    out.sort(key=vertices_of)
    return out
