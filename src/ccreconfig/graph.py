"""Graph core: simple undirected graphs with dense 0-based vertex ids.

Everything downstream (rules, solvers, the brute-force oracle) works on
plain vertex subsets of these graphs, kept as sorted tuples of ints (and
as sets inside a computation).  The oracle's bitmask states live in
oracle.py, which builds its own neighbour masks for each small search.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections import deque
from functools import cached_property
from itertools import islice, repeat
from operator import itemgetter, lt
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import InvalidInstanceError

if TYPE_CHECKING:
    from .cographs import Cotree
    from .oracle import StateSpace

__all__ = [
    "Graph",
    "MAX_VERTICES",
    "SizeMultiset",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "empty_graph",
    "parse_graph",
    "connected_components",
    "cc_multiset",
    "co_components",
    "is_chordal",
]


# Largest vertex count of a Graph, checked before anything is allocated:
# a Graph that is not a path holds one set per vertex, a 246 MB peak RSS
# at this size before the first edge.
MAX_VERTICES = 1_000_000


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise InvalidInstanceError(
            f"vertex count {n} exceeds the limit of {MAX_VERTICES}"
        )


class Graph:
    """Immutable undirected graph on vertices 0..n-1.

    Every edge must be a pair of int vertex ids in range; self-loops and
    duplicate edges are rejected.  Treat instances as frozen, `adj` too:
    all derived structure is shared freely across threads.  A graph whose
    edges form a path keeps only its path order, `path_layout`, found
    while the edges are read; its neighbour sets are built from that
    order on first read of `adj`.  Every other graph keeps the very sets
    the constructor validated; its `path_layout` is None unless n <= 1.
    A list or tuple of edges is read in place; any other iterable is read
    into a list first.  The cotree is computed on first use and cached
    on the instance, and so is the oracle's last state space, in one slot
    that a space for another multiset replaces.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidInstanceError(f"vertex count must be an int, got {n!r}")
        if n < 0:
            raise InvalidInstanceError("vertex count must be non-negative")
        _check_vertex_count(n)
        self.n = n
        if type(edges) is not list and type(edges) is not tuple:
            try:
                pairs = iter(edges)
            except TypeError:
                raise InvalidInstanceError(f"edge list {edges!r} cannot be iterated") from None
            edges = list(pairs)
        layout = None
        if n > 1 and len(edges) == n - 1:
            layout = _walk_path(n, edges)
            if layout is False:
                edges = list(map(_pair, edges))
                layout = _walk_path(n, edges) or None
        self.path_layout: tuple[int, ...] | None = layout if n > 1 else tuple(range(n))
        # the oracle's last state space, one slot kept by oracle.py
        self._state_space: StateSpace | None = None
        if layout is not None:
            self.m = n - 1
            return
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InvalidInstanceError(f"edge {e!r} is not a pair of vertices") from None
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                # the slow pass words the error, and passes int subclasses
                if any(isinstance(x, bool) or not isinstance(x, int) for x in (u, v)):
                    raise InvalidInstanceError(f"edge ({u!r}, {v!r}): vertex ids must be ints")
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
        self.adj = adj

    @cached_property
    def adj(self) -> list[set[int]]:
        """Each vertex's neighbour set.  Only a path gets here, on first
        read: the constructor keeps the sets of every other graph."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        order = self.path_layout
        for u, v in zip(order, order[1:]):
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once as (u, v) with u < v, in sorted order.  Derived
        from the path order or the adjacency on first use; the solvers
        read only those."""
        order = self.path_layout
        if order is not None:
            return tuple(sorted((u, v) if u < v else (v, u) for u, v in zip(order, order[1:])))
        return tuple((u, v) for u, nbrs in enumerate(self.adj) for v in sorted(nbrs) if u < v)

    @cached_property
    def _by_position(self) -> itemgetter:
        """Reads a sequence indexed by vertex, of length n + 1, in path
        order, with its item n before and after: a path's occupancy.
        Built once, since a getter made per read copies the layout into
        two fresh n-long arrays, and a loop of solves then has the heap
        return and fault in those pages on every call.  Its ints are made
        here, one after another in path order: the layout holds the
        input's, placed wherever the input put them, and reading them
        all in path order missed the cache: path-200k's library solves
        ran up to 15 % slower."""
        n = self.n
        return itemgetter(n, *array("q", self.path_layout), n)

    @cached_property
    def _cotree(self) -> Cotree | None:
        """The cotree, or None when the graph is not a cograph.  Its
        builder lives with the cograph solvers, which import this module."""
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


def _pair(e):
    """An edge unpacked once, as a tuple; what does not unpack to a pair
    is kept for the set build to name."""
    try:
        u, v = e
    except (TypeError, ValueError):
        return e
    return u, v


def _walk_path(n: int, edges: list | tuple) -> tuple[int, ...] | None | bool:
    """The vertices in path order from the endpoint with the smaller id
    when the n - 1 edges, n >= 2, form a simple path; None otherwise, a
    malformed edge included; False, before reading it, at the first edge
    that is neither a list nor a tuple.  One pass counts each vertex's
    degree in a byte, XORs the indices of its edges into an array, and
    stops at the first vertex of degree 3.  With every degree at most 2
    and 2(n - 1) in all, a vertex of degree 1 means exactly two and none
    of degree 0, and each component is a path or a cycle (a duplicate
    edge or a self-loop is one): a walk from one endpoint, leaving each
    vertex by the edge it did not come in by, follows its path to the
    other, and the edges form a simple path iff it covers all n vertices.
    It reads each far end from the caller's list, so the layout holds the
    input's ints: about 26 bytes a vertex in all, the layout's 8 included."""
    # degrees count from 253: a third edge at a vertex overflows its byte
    deg = bytearray(b"\xfd") * n
    link = memoryview(bytearray(8 * n)).cast("q")
    exact = True
    try:
        for i, e in enumerate(edges):
            # An edge of another type may be a one-shot iterator, which
            # the caller unpacks once (`_pair`) for this walk and the set
            # build; an int subclass such as an IntEnum id walks as its
            # int.  Anything else the set build words.
            if type(e) is not list and type(e) is not tuple:
                return False
            u, v = e
            if type(u) is not int or type(v) is not int or u < 0 or v < 0:
                if not all(isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n
                           for x in (u, v)):
                    return None
                exact = False
            deg[u] += 1
            deg[v] += 1
            link[u] ^= i
            link[v] ^= i
        start = deg.index(254)  # degree 1
        end = deg.index(254, start + 1)
        # the step past `end` reads edge n - 1, one past the list: an
        # IndexError when the walk gets there before covering all n vertices
        link[end] ^= n - 1
        order, cur, i = [start], start, 0  # edge 0 XORs away at the start
        for _ in repeat(None, n - 1):
            i ^= link[cur]
            u, v = edges[i]
            cur = v if u == cur else u
            order.append(cur)
    except (ValueError, IndexError):  # degree 3, id >= n, not a pair, no end, ended early
        return None
    return tuple(order) if exact else tuple(map(int, order))


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
# subsets

def _clean_subset(g: Graph, vertices: Iterable[int]) -> tuple[int, ...]:
    vs = list(vertices)
    try:
        vs.sort()
    except TypeError:
        pass  # an unorderable mix holds a type other than int: the slow pass words it
    # sorted ints hold no duplicate iff they ascend strictly; a set to
    # count them would be a fresh table of several MB per large subset
    if vs and not (set(map(type, vs)) == {int} and 0 <= vs[0] and vs[-1] < g.n
                   and all(map(lt, vs, islice(vs, 1, None)))):
        # the slow pass words the error, and passes int subclasses
        prev = None
        for v in vs:
            if isinstance(v, bool) or not isinstance(v, int):
                raise InvalidInstanceError(f"vertex ids must be ints, got {v!r}")
            if not (0 <= v < g.n):
                raise InvalidInstanceError(f"vertex {v} out of range for n={g.n}")
            if v == prev:
                raise InvalidInstanceError(f"duplicate vertex {v} in subset")
            prev = v
    return tuple(vs)


# A jump changing at most this many vertices edits the sorted list in place
# (a bisect and a tail memmove per vertex); a larger one merges slices.  On 20
# scattered jumps per case, in-place/merge time was 0.18-0.48 up to 32 changed
# vertices in 500-100 000-vertex states, 0.62-1.52 for 64-256 at 20 000-100 000.
_EDIT_IN_PLACE_MAX = 32


def _replay_jumps(
    start: Iterable[int], jumps: Iterable[tuple[Iterable[int], Iterable[int]]]
) -> Iterator[tuple[int, ...]]:
    """Start, a sorted subset without repeats, then the state after each
    (source, target) jump, applied as plain set updates (legality is for
    the verifier), made one at a time as the caller reads them.  The
    state stays one sorted list, edited in place or merged by slices (see
    _EDIT_IN_PLACE_MAX); each state is one tuple copy of it."""
    cur, have = list(start), set(start)
    yield tuple(cur)
    for src, dst in jumps:
        dst = set(dst)
        gone, new = have.intersection(src) - dst, dst - have
        have ^= gone | new  # gone lies in have, new outside it
        if len(gone) + len(new) <= _EDIT_IN_PLACE_MAX:
            for v in gone:
                del cur[bisect_left(cur, v)]
            for v in new:
                insort(cur, v)
        else:
            merged, last = [], 0
            # (index in cur, whether to drop the vertex there or add v before it, v)
            for i, drop, v in sorted((bisect_left(cur, v), v in gone, v) for v in gone | new):
                merged += cur[last:i]
                if not drop:
                    merged.append(v)
                last = i + drop
            cur = merged + cur[last:]
        yield tuple(cur)


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


def _touch(g: Graph, x: set[int] | frozenset[int], y: Iterable[int]) -> bool:
    """Whether the vertices y share a vertex or an edge with the set x.
    For two connected sets this is exactly "their union is connected"."""
    adj = g.adj
    return any(v in x or not adj[v].isdisjoint(x) for v in y)


class SizeMultiset(tuple):
    """Multiset of component sizes, kept as a sorted tuple of ints >= 1."""

    def __new__(cls, sizes: Iterable[int] = ()) -> "SizeMultiset":
        vals = list(sizes)
        for s in vals:
            if isinstance(s, bool) or not isinstance(s, int):
                raise InvalidInstanceError(f"component sizes must be ints, got {s!r}")
        vals.sort()
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

