"""Seeded random instances for the solvers and the command line.

Every generator takes a random.Random so runs are reproducible from a
seed.  Path instances place the same component-size multiset twice.
Cographs come from random decomposition trees.  Chordal graphs grow by
attaching each new vertex to up to three vertices of a clique of the
graph built so far, which leaves a perfect elimination order by
construction.
"""

from __future__ import annotations

import random

from .errors import InvalidInstanceError
from .graph import Graph, cc_multiset, path_graph

__all__ = [
    "MAX_EDGES",
    "gen_path_instance",
    "gen_cograph_instance",
    "gen_chordal_instance",
    "random_cotree_graph",
    "random_chordal_graph",
    "sample_spread_components",
]


# Most edges random_cotree_graph builds.  A Graph keeps about 180-250 bytes
# per edge under tracemalloc (n = 500-2 000, the ints included), so about
# 0.5 GB at this limit; `gen --kind cograph --n 2000` (1 998 708 edges)
# peaks at 660 MB RSS.
MAX_EDGES = 2_000_000


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random positive integers of given count summing to total."""
    if parts == 0:
        return []
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _place_profile(rng: random.Random, n: int, sizes: list[int]) -> tuple[int, ...]:
    """Vertex set of a path configuration with the given left-to-right
    component sizes, gaps chosen uniformly."""
    k = len(sizes)
    if k == 0:
        return ()
    # distribute the slack over k+1 gaps; only inner gaps get a
    # mandatory extra slot
    slack = n - sum(sizes) - (k - 1)
    cuts = sorted(rng.sample(range(slack + k), k))
    gaps = [b - a - 1 for a, b in zip([-1] + cuts, cuts + [slack + k])]
    out = []
    pos = gaps[0]
    for size, gap in zip(sizes, gaps[1:]):
        out.extend(range(pos, pos + size))
        pos += size + 1 + gap
    return tuple(out)


def gen_path_instance(
    rng: random.Random, n: int, *, parts: int | None = None
) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Path graph plus two placements of one component-size multiset."""
    if n < 1:
        raise InvalidInstanceError("need at least one vertex")
    k = parts if parts is not None else rng.randint(1, (n + 1) // 2)
    if k < 0:
        raise InvalidInstanceError("number of components must be non-negative")
    if k * 2 - 1 > n:
        raise InvalidInstanceError(f"cannot fit {k} components on {n} vertices")
    occupied = rng.randint(k, n - (k - 1))
    sizes = _composition(rng, occupied, k)
    sizes_a = sizes[:]
    rng.shuffle(sizes_a)
    sizes_b = sizes[:]
    rng.shuffle(sizes_b)
    return (
        path_graph(n),
        _place_profile(rng, n, sizes_a),
        _place_profile(rng, n, sizes_b),
    )


def random_cotree_graph(rng: random.Random, n: int, *, connected: bool = True) -> Graph:
    """Cograph sampled from a random decomposition tree.  Raises
    InvalidInstanceError instead of building more than MAX_EDGES edges."""
    edges: list[tuple[int, int]] = []

    def build(lo: int, hi: int, join: bool) -> None:
        size = hi - lo
        if size <= 1:
            return
        parts = _composition(rng, size, rng.randint(2, size))
        bounds = [lo]
        for p in parts:
            bounds.append(bounds[-1] + p)
        if join:
            # a join links every pair of vertices in different parts
            if len(edges) + (size * size - sum(p * p for p in parts)) // 2 > MAX_EDGES:
                raise InvalidInstanceError(f"cograph would have over {MAX_EDGES} edges")
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    for u in range(bounds[i], bounds[i + 1]):
                        for w in range(bounds[j], bounds[j + 1]):
                            edges.append((u, w))
        for i in range(len(parts)):
            build(bounds[i], bounds[i + 1], not join)

    build(0, n, connected or rng.random() < 0.5)
    return Graph(n, edges)


def _same_multiset_pair(
    rng: random.Random, g: Graph
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    size = rng.randint(1, max(1, g.n // 2))
    a = tuple(sorted(rng.sample(range(g.n), size)))
    target = cc_multiset(g, a)
    for _ in range(300):
        b = tuple(sorted(rng.sample(range(g.n), size)))
        if cc_multiset(g, b) == target:
            return a, b
    return a, a


def gen_cograph_instance(
    rng: random.Random, n: int, *, connected: bool = True
) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Cograph plus two subsets with the same component-size multiset.
    Falls back to a trivial pair when 300 samples all miss."""
    if n < 1:
        raise InvalidInstanceError("need at least one vertex")
    g = random_cotree_graph(rng, n, connected=connected)
    a, b = _same_multiset_pair(rng, g)
    return g, a, b


def random_chordal_graph(rng: random.Random, n: int) -> Graph:
    """Connected chordal graph: each vertex joins one to three vertices of
    a clique of the part built before it."""
    if n < 1:
        raise InvalidInstanceError("need at least one vertex")
    # The draws are rng.randrange(len(cliques)), rng.randint(1, min(len(base),
    # 3)) and rng.sample(base, take), spelled out as the getrandbits rejection
    # sampling that each of them is on CPython 3.10-3.13: the same graph and
    # the same rng state after it, without the calls' argument handling.
    bits = rng.getrandbits

    def below(m: int) -> int:  # rng._randbelow(m)
        k = m.bit_length()
        r = bits(k)
        while r >= m:
            r = bits(k)
        return r

    edges = []
    cliques = [(0,)]
    for v in range(1, n):
        base = cliques[below(v)]
        size = len(base)
        take = 1 + below(min(size, 3))
        pool = list(base)
        anchors = []
        for i in range(size - 1, size - 1 - take, -1):
            j = below(i + 1)
            anchors.append(pool[j])
            pool[j] = pool[i]
        edges.extend((u, v) for u in anchors)
        anchors.sort()
        anchors.append(v)
        cliques.append(tuple(anchors))
    return Graph(n, edges)


def sample_spread_components(
    rng: random.Random, g: Graph, size: int, count: int, *, tries: int = 200
) -> tuple[int, ...]:
    """Vertex set with exactly `count` components of exactly `size`
    vertices, sampled by growing components from random free starts.

    A start whose free territory is too small is skipped, not the whole
    attempt: territory only shrinks, so it can never serve later.  Each
    attempt is one pass over a fresh random order of the vertices."""
    for _ in range(tries):
        starts = list(range(g.n))
        rng.shuffle(starts)
        taken: list[int] = []
        blocked: set[int] = set()
        for start in starts:
            if len(taken) == size * count:
                break
            if start in blocked:
                continue
            comp = _grow_component(rng, g, size, blocked, start)
            if comp is None:
                continue
            taken.extend(comp)
            blocked |= comp
            for v in comp:
                blocked |= g.adj[v]
        if len(taken) == size * count:
            return tuple(sorted(taken))
    raise InvalidInstanceError(
        f"could not place {count} far-apart components of size {size}"
    )


def _grow_component(
    rng: random.Random, g: Graph, size: int, blocked: set[int], start: int
) -> set[int] | None:
    """Random connected set of `size` free vertices around `start`, or
    None when the free territory of `start` is smaller than that."""
    comp = {start}
    frontier = [u for u in sorted(g.adj[start]) if u not in blocked]
    while len(comp) < size:
        frontier = [u for u in frontier if u not in comp and u not in blocked]
        if not frontier:
            return None
        pick = rng.choice(frontier)
        comp.add(pick)
        frontier.extend(sorted(g.adj[pick]))
    return comp


def gen_chordal_instance(
    rng: random.Random,
    n: int,
    *,
    size: int | None = None,
    count: int | None = None,
) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Chordal graph plus two configurations whose components all have
    one common size.  Shrinks the instance when placement keeps failing."""
    if (size is not None and size < 1) or (count is not None and count < 0):
        raise InvalidInstanceError("component size must be positive and count non-negative")
    g = random_chordal_graph(rng, n)
    s = size if size is not None else rng.randint(1, 3)
    k = count if count is not None else rng.randint(1, 3)
    while True:
        try:
            a = sample_spread_components(rng, g, s, k)
            b = sample_spread_components(rng, g, s, k)
            return g, a, b
        except InvalidInstanceError:
            # shrink only dimensions the caller left open
            if count is None and k > 1:
                k -= 1
            elif size is None and s > 1:
                s -= 1
            else:
                raise
