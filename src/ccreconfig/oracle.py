"""Brute-force ground truth at desk scale.

Enumerates every subset whose component-size multiset equals the target
(placing components largest-first behind a no-touch frontier), then runs
plain breadth-first search over single moves.  Everything is
deterministic: states live in canonical subset order, neighbor lists are
sorted, and shortest paths follow first-discovery parents.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InternalContradictionError, StateSpaceTooLargeError
from .graph import (
    Graph,
    SizeMultiset,
    _clean_subset,
    bits_of,
    cc_multiset,
    components_masks,
    connected_k_subsets,
    mask_of,
    vertices_of,
)
from .rules import Result, Rule

__all__ = [
    "DEFAULT_STATE_CAP",
    "StateSpace",
    "enumerate_states",
    "oracle_solve",
    "ReconfigGraph",
    "build_reconfig_graph",
    "export_dot",
    "reachability_partition",
    "bfs_distances",
]

DEFAULT_STATE_CAP = 2_000_000


@dataclass
class StateSpace:
    """All valid states for one (graph, multiset) pair."""

    graph: Graph
    multiset: SizeMultiset
    states: tuple[int, ...]
    index: dict[int, int]
    pools: dict[int, list[tuple[int, int]]]  # size -> [(comp mask, closed nbhd)]

    def __len__(self) -> int:
        return len(self.states)

    def state_vertices(self, i: int) -> tuple[int, ...]:
        return vertices_of(self.states[i])


def _closed_neighborhood(g: Graph, mask: int) -> int:
    out = mask
    adj = g.adj_masks
    for v in bits_of(mask):
        out |= adj[v]
    return out


def enumerate_states(
    g: Graph,
    multiset: SizeMultiset | Iterable[int],
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> StateSpace:
    """Every subset of G whose component sizes realize the multiset."""
    target = SizeMultiset(multiset)
    sizes_desc = sorted(Counter(target).items(), reverse=True)
    order: list[int] = []
    for size, count in sizes_desc:
        order.extend([size] * count)
    pools = {
        size: [
            (cmask, _closed_neighborhood(g, cmask))
            for cmask in connected_k_subsets(g, size)
        ]
        for size, _ in sizes_desc
    }
    found: list[int] = []

    def place(oi: int, min_idx: int, forbidden: int, acc: int) -> None:
        if oi == len(order):
            found.append(acc)
            if len(found) > state_cap:
                raise StateSpaceTooLargeError(state_cap)
            return
        size = order[oi]
        pool = pools[size]
        # equal-size components are placed with increasing pool index so
        # each state is produced exactly once
        start = min_idx if oi > 0 and order[oi - 1] == size else 0
        for idx in range(start, len(pool)):
            cmask, closed = pool[idx]
            if cmask & forbidden:
                continue
            place(oi + 1, idx + 1, forbidden | closed, acc | cmask)

    if target.total <= g.n:
        place(0, 0, 0, 0)
    found.sort(key=vertices_of)
    index = {mask: i for i, mask in enumerate(found)}
    return StateSpace(
        graph=g,
        multiset=target,
        states=tuple(found),
        index=index,
        pools=pools,
    )


def neighbors(space: StateSpace, i: int, rule: Rule) -> list[int]:
    """Indices of states one move away from state i, ascending."""
    g = space.graph
    u = space.states[i]
    index = space.index
    out: set[int] = set()
    if rule is Rule.TJ or rule is Rule.TS:
        adj = g.adj_masks
        free = g.full_mask & ~u
        for a in bits_of(u):
            targets = (adj[a] & free) if rule is Rule.TS else free
            stripped = u ^ (1 << a)
            for b in bits_of(targets):
                j = index.get(stripped | (1 << b))
                if j is not None:
                    out.add(j)
    else:
        for c in components_masks(g, u):
            rest = u & ~c
            blocked = _closed_neighborhood(g, rest)
            for cmask, closed in space.pools[c.bit_count()]:
                if cmask == c or cmask & blocked:
                    continue
                if rule is Rule.CS1 and (c & ~cmask).bit_count() != 1:
                    continue
                # both are connected, so they join iff c meets N[cmask]
                if rule is not Rule.CJ and not c & closed:
                    continue
                j = index.get(rest | cmask)
                if j is None:
                    raise InternalContradictionError(
                        "generated a component move that left the state space"
                    )
                out.add(j)
    return sorted(out)


def _search(space: StateSpace, src: int, rule: Rule) -> Iterator[tuple[int, int]]:
    """Breadth-first search from state src: every other state it reaches,
    with the state it was first reached from, in discovery order.  Moves
    are reversible, so the states reached are src's whole class."""
    seen = {src}
    queue = deque((src,))
    while queue:
        cur = queue.popleft()
        for j in neighbors(space, cur, rule):
            if j not in seen:
                seen.add(j)
                queue.append(j)
                yield j, cur


def oracle_solve(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    rule: Rule,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Result:
    """Exhaustive reachability with a shortest witness sequence; the
    result's space_size counts the states enumerated."""
    va, vb = _clean_subset(g, a), _clean_subset(g, b)
    ma = cc_multiset(g, va)
    if ma != cc_multiset(g, vb):
        return Result(rule, False, reason="multiset-mismatch", space_size=0)
    if va == vb:
        return Result(rule, True, (va,), space_size=1)
    space = enumerate_states(g, ma, state_cap=state_cap)
    try:
        src = space.index[mask_of(va)]
        dst = space.index[mask_of(vb)]
    except KeyError:
        raise InternalContradictionError("endpoint missing from its own state space")
    parent = {src: -1}
    for j, p in _search(space, src, rule):
        parent[j] = p
        if j == dst:
            break
    else:
        return Result(rule, False, reason="search-exhausted", space_size=len(space))
    chain = [dst]
    while chain[-1] != src:
        chain.append(parent[chain[-1]])
    chain.reverse()
    states = tuple(space.state_vertices(i) for i in chain)
    return Result(rule, True, states, space_size=len(space))


@dataclass(frozen=True)
class ReconfigGraph:
    """Materialized reconfiguration graph for one rule."""

    space: StateSpace
    rule: Rule
    edges: tuple[tuple[int, int], ...]


def build_reconfig_graph(
    g: Graph,
    multiset: SizeMultiset | Iterable[int],
    rule: Rule,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ReconfigGraph:
    space = enumerate_states(g, multiset, state_cap=state_cap)
    edges = tuple(
        (i, j) for i in range(len(space)) for j in neighbors(space, i, rule) if j > i
    )
    return ReconfigGraph(space, rule, edges)


def export_dot(rg: ReconfigGraph) -> str:
    """Graphviz text for a reconfiguration graph; nodes are labeled with
    their vertex sets."""
    if not rg.space.states:
        return "graph {}\n"
    lines = ["graph {"]
    for i in range(len(rg.space)):
        label = "{" + ",".join(map(str, rg.space.state_vertices(i))) + "}"
        lines.append(f'  {i} [label="{label}"];')
    for i, j in rg.edges:
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reachability_partition(space: StateSpace, rule: Rule) -> list[int]:
    """Connected-component label per state of the reconfiguration graph;
    labels are the smallest state index in each class."""
    labels = [-1] * len(space)
    for start in range(len(space)):
        if labels[start] == -1:
            labels[start] = start
            for j, _ in _search(space, start, rule):
                labels[j] = start
    return labels


def bfs_distances(space: StateSpace, src: int, rule: Rule) -> list[int | None]:
    """Move counts from one state to every state, None when unreachable."""
    dist: list[int | None] = [None] * len(space)
    dist[src] = 0
    for j, p in _search(space, src, rule):
        dist[j] = dist[p] + 1
    return dist
