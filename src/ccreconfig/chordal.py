"""Jump solver for configurations whose components all share one size.

The obstruction structure is a bipartite conflict graph: one node per
component that appears only in the start configuration, one per
component that appears only in the target, and an edge whenever the two
components touch (share a vertex or an edge of the host graph).  A
target component whose conflicts are all gone can be materialized by a
single jump.  When the conflict graph is a forest, peeling it leaf by
leaf schedules one jump per target component, which is optimal.  On a
chordal host graph the conflict graph has no even holes, and since it
is bipartite that makes it a forest, so the answer there is always yes.
For other hosts a cyclic conflict graph leaves the instance undecided.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .errors import InternalContradictionError, UnequalSizesError
from .graph import Graph, _clean_subset, _replay_jumps, connected_components
from .rules import Result, Rule

__all__ = [
    "ConflictGraph",
    "build_conflict_graph",
    "solve_equal_size_cj",
]


@dataclass(frozen=True)
class ConflictGraph:
    """Touching relation between start-only and target-only components."""

    a_only: tuple[tuple[int, ...], ...]
    b_only: tuple[tuple[int, ...], ...]
    common: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]  # (a index, b index)

    def is_forest(self) -> bool:
        parent = list(range(len(self.a_only) + len(self.b_only)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ai, bi in self.edges:
            ra, rb = find(ai), find(len(self.a_only) + bi)
            if ra == rb:
                return False
            parent[ra] = rb
        return True


def _touching(
    g: Graph, owner_x: dict[int, int], owner_y: dict[int, int]
) -> set[tuple[int, int]]:
    """(x index, y index) for every pair of components that share a
    vertex or an edge, found from the neighbourhoods of x's vertices."""
    ys = set(owner_y)
    out = set()
    for v, i in owner_x.items():
        if v in ys:
            out.add((i, owner_y[v]))
        for u in g.adj[v] & ys:
            out.add((i, owner_y[u]))
    return out


def build_conflict_graph(
    g: Graph, a: Iterable[int], b: Iterable[int]
) -> ConflictGraph:
    comps_a = connected_components(g, a)
    comps_b = connected_components(g, b)
    set_b = set(comps_b)
    common = tuple(c for c in comps_a if c in set_b)
    common_set = set(common)
    a_only = tuple(c for c in comps_a if c not in common_set)
    b_only = tuple(c for c in comps_b if c not in common_set)

    a_owner = {v: i for i, comp in enumerate(a_only) for v in comp}
    b_owner = {v: i for i, comp in enumerate(b_only) for v in comp}
    # read the neighbourhoods of whichever side has less adjacency
    vol_a = sum(len(g.adj[v]) for v in a_owner)
    vol_b = sum(len(g.adj[v]) for v in b_owner)
    if vol_a <= vol_b:
        edges = _touching(g, a_owner, b_owner)
    else:
        edges = {(i, j) for j, i in _touching(g, b_owner, a_owner)}
    return ConflictGraph(a_only, b_only, common, tuple(sorted(edges)))


def _peel_order(cg: ConflictGraph) -> list[tuple[int, int]]:
    """(a index, b index) jump schedule obtained by repeatedly serving
    the lowest-numbered target component with at most one live conflict."""
    na, nb = len(cg.a_only), len(cg.b_only)
    a_nbrs: list[list[int]] = [[] for _ in range(na)]
    b_nbrs: list[list[int]] = [[] for _ in range(nb)]
    for ai, bi in cg.edges:
        a_nbrs[ai].append(bi)
        b_nbrs[bi].append(ai)
    deg = [len(nbrs) for nbrs in b_nbrs]
    alive_a = [True] * na
    alive_b = [True] * nb
    ready = [bi for bi in range(nb) if deg[bi] <= 1]
    heapq.heapify(ready)
    spare = list(range(na))
    heapq.heapify(spare)
    order = []
    while len(order) < nb:
        while ready and not alive_b[ready[0]]:
            heapq.heappop(ready)
        if not ready:
            raise InternalContradictionError("peeling stalled on a forest")
        bi = heapq.heappop(ready)
        if deg[bi] == 1:
            ai = next(x for x in b_nbrs[bi] if alive_a[x])
        else:
            while not alive_a[spare[0]]:
                heapq.heappop(spare)
            ai = spare[0]
        alive_a[ai] = False
        alive_b[bi] = False
        order.append((ai, bi))
        for bj in a_nbrs[ai]:
            if alive_b[bj]:
                deg[bj] -= 1
                if deg[bj] <= 1:
                    heapq.heappush(ready, bj)
    return order


def solve_equal_size_cj(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    *,
    want_states: bool = True,
) -> Result:
    """Jump reconfiguration when every component of both configurations
    has the same size.  Decides yes (with an optimal schedule of
    (source, target) jumps) when the conflict graph is a forest; leaves
    the instance undecided otherwise."""
    va = _clean_subset(g, a)
    vb = _clean_subset(g, b)
    cg = build_conflict_graph(g, va, vb)
    sizes = {len(c) for c in cg.a_only + cg.b_only + cg.common}
    if len(sizes) > 1:
        raise UnequalSizesError(f"component sizes differ: {sorted(sizes)}")
    if len(cg.a_only) != len(cg.b_only):
        return Result(Rule.CJ, False, reason="multiset-mismatch", conflicts=cg)
    if not cg.is_forest():
        return Result(Rule.CJ, None, reason="conflict-cycle", conflicts=cg)
    jumps = tuple(
        (cg.a_only[ai], cg.b_only[bi]) for ai, bi in _peel_order(cg)
    )
    states = _replay_jumps(va, jumps) if want_states else None
    return Result(Rule.CJ, True, states, jumps, conflicts=cg)

