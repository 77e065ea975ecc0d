"""Brute-force ground truth at desk scale.

Enumerates every subset whose component-size multiset equals the target
(placing components largest-first behind a no-touch frontier), then runs
plain breadth-first search over single moves.  The search works on int
bitmasks (bit v for vertex v), with the neighbour masks of each vertex
built per state space; the rest of the package uses sorted tuples.  A
graph keeps the last state space searched, so a solve and an export on
one graph enumerate once.
Everything is deterministic: states live in canonical subset order,
neighbor lists are sorted, and shortest paths follow first-discovery
parents.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator

from .errors import (
    InternalContradictionError,
    ReconfigGraphTooLargeError,
    StateSpaceTooLargeError,
)
from .graph import Graph, SizeMultiset, _clean_subset, cc_multiset
from .rules import Result, Rule

__all__ = [
    "DEFAULT_STATE_CAP",
    "MAX_EXPORT_EDGES",
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

# Search frames enumerate_states may push per state of its cap, plus one:
# its walks can outgrow the states they find by far (whether a placement
# completes is NP-hard to decide).
WORK_PER_STATE = 64

# Most edges build_reconfig_graph lists.  Listing the edges and writing
# their DOT text peaks at 230-260 bytes per edge under tracemalloc (path
# hosts of 32-36 vertices, 57 540-764 340 edges), so about 250 MB at this
# limit beside the state space.
MAX_EXPORT_EDGES = 1_000_000


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


def _closed_neighborhood(adj: tuple[int, ...], mask: int) -> int:
    out = mask
    for v in bits_of(mask):
        out |= adj[v]
    return out


def components_masks(adj: tuple[int, ...], mask: int) -> list[int]:
    """Components of the subset mask, as masks ordered by lowest bit;
    adj holds each vertex's neighbour mask."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask &= ~comp
    return comps


def _connected_subsets(g: Graph, k: int, budget: float) -> tuple[list[int], float]:
    """All connected k-vertex subsets of G, as bitmasks in canonical
    subset order, and the budget left after its pushes (< 0: cut short).

    Uses the rooted extension scheme that emits every subset exactly
    once: grow only with vertices above the root, and never re-offer a
    candidate that an earlier branch already consumed.
    """
    if k > g.n:
        return [], budget
    adj = tuple(map(mask_of, g.adj))
    full = (1 << g.n) - 1
    out: list[int] = []
    for root in range(g.n):
        rbit = 1 << root
        above = full & ~((rbit << 1) - 1)
        # (subset, offered candidates, subset and its neighbours, vertices to add)
        stack = [(rbit, adj[root] & above, rbit | adj[root], k - 1)]
        while stack:
            sub, ext, closed, need = stack.pop()
            if need == 0:
                out.append(sub)
                continue
            budget -= ext.bit_count()  # one frame per candidate
            if budget < 0:
                return out, budget
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                nbrs = adj[wbit.bit_length() - 1]
                grown = ext | nbrs & above & ~closed
                stack.append((sub | wbit, grown, closed | wbit | nbrs, need - 1))
    out.sort(key=_canonical, reverse=True)
    return out, budget


def _canonical(mask: int) -> str:
    """Sort key for masks with equal bit counts: sorted-tuple order is
    the descending order of the bit-reversed mask, so sort on this with
    reverse=True.  The string is the mask's bits from vertex 0 up; its
    last character is always 1, so unequal lengths compare as if padded
    with zeros."""
    return format(mask, "b")[::-1]


@dataclass
class StateSpace:
    """All valid states for one (graph, multiset) pair."""

    multiset: SizeMultiset
    states: tuple[int, ...]
    index: dict[int, int]
    pools: dict[int, list[tuple[int, int]]]  # size -> [(comp mask, closed nbhd)]
    adj: tuple[int, ...]  # neighbour mask per vertex
    # rule -> source component -> pool entries it may slide onto; filled
    # by neighbors() on first use
    _slides: dict[Rule, dict[int, list[tuple[int, int]]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.states)

    def state_vertices(self, i: int) -> tuple[int, ...]:
        return vertices_of(self.states[i])

    @cached_property
    def _vertex_bits(self) -> tuple[list[int], list[list[int]]]:
        """Every vertex's bit, and per vertex the bits of its neighbours."""
        bits = [1 << v for v in range(len(self.adj))]
        return bits, [[1 << w for w in bits_of(m)] for m in self.adj]


def enumerate_states(
    g: Graph,
    multiset: SizeMultiset | Iterable[int],
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> StateSpace:
    """Every subset of G whose component sizes realize the multiset.

    Components are placed largest first, equal sizes in increasing pool
    order, so each state is produced once.  Each placement keeps the pool
    entries that miss the closed neighbourhoods placed so far, and is cut
    when fewer are left than components of that size remain to place; at
    the last component every entry left completes a state.  Past state_cap
    states, or WORK_PER_STATE * (state_cap + 1) frames of all walks, it raises.
    """
    target = SizeMultiset(multiset)
    sizes_desc = sorted(Counter(target).items(), reverse=True)
    adj = tuple(map(mask_of, g.adj))
    work = WORK_PER_STATE * (state_cap + 1)
    overrun = StateSpaceTooLargeError(state_cap, work)
    pools = {}
    for size, _ in sizes_desc:
        masks, work = _connected_subsets(g, size, work)
        if work < 0:
            raise overrun
        pools[size] = [(cmask, _closed_neighborhood(adj, cmask)) for cmask in masks]
    # per component to place: its size, and how many components of that
    # size are still to place, itself included; first comes the empty
    # placement the walk starts from, of size 0
    order = [(0, 1)] + [(size, need) for size, count in sizes_desc for need in range(count, 0, -1)]
    last = len(order) - 1
    found = [] if last else [0]
    # Depth first, one frame per placed component: the entries it may
    # take, the indices of those not yet tried, and the closed
    # neighbourhoods and state of the components placed before it.
    frames = [([(0, 0)], iter((0,)), 0, 0)] if last and target.total <= g.n else []
    while frames:
        avail, untried, forbidden, acc = frames[-1]
        i = next(untried, None)
        if i is None:
            frames.pop()
            continue
        cmask, closed = avail[i]
        oi = len(frames)
        size, need = order[oi]
        if size == order[oi - 1][0]:
            # equal sizes go in pool order: only later entries, which
            # already miss `forbidden`
            nxt = [e for e in avail[i + 1:] if not e[0] & closed]
        else:
            blocked = forbidden | closed
            nxt = [e for e in pools[size] if not e[0] & blocked]
        if len(nxt) < need:
            continue
        acc |= cmask
        if oi == last:
            found.extend([acc | e[0] for e in nxt])
            if len(found) > state_cap:
                raise StateSpaceTooLargeError(state_cap)
        else:
            work -= 1
            if work < 0:
                raise overrun
            frames.append((nxt, iter(range(len(nxt) - need + 1)), forbidden | closed, acc))
    found.sort(key=_canonical, reverse=True)
    index = {mask: i for i, mask in enumerate(found)}
    return StateSpace(
        multiset=target,
        states=tuple(found),
        index=index,
        pools=pools,
        adj=adj,
    )


def neighbors(space: StateSpace, i: int, rule: Rule | str) -> list[int]:
    """Indices of states one move away from state i, ascending."""
    return _neighbors(space, i, Rule.parse(rule))


def _neighbors(space: StateSpace, i: int, rule: Rule) -> list[int]:
    u = space.states[i]
    index = space.index
    out: set[int | None] = set()
    if rule is Rule.TJ or rule is Rule.TS:
        every, near = space._vertex_bits
        # a token at bit a moves to a free bit b: any one, or a neighbour
        targets = repeat(every) if rule is Rule.TJ else near
        out.update([
            index.get((u ^ a) | b)
            for a, bs in zip(every, targets) if a & u
            for b in bs if not b & u
        ])
        out.discard(None)
        return sorted(out)
    pools = space.pools
    slides = space._slides.setdefault(rule, {})
    for c in components_masks(space.adj, u):
        # CJ may jump onto any entry; a slide needs one that c touches
        targets = pools[c.bit_count()] if rule is Rule.CJ else slides.get(c)
        if targets is None:
            # both are connected, so they join iff c meets N[t]
            targets = slides[c] = [
                (t, closed) for t, closed in pools[c.bit_count()]
                if c & closed and t != c and (rule is Rule.CS or (c & ~t).bit_count() == 1)
            ]
        rest = u ^ c
        # t misses N[rest] iff N[t] misses rest
        try:
            out.update([index[rest | t] for t, closed in targets if not closed & rest])
        except KeyError:
            raise InternalContradictionError(
                "generated a component move that left the state space"
            ) from None
    out.discard(i)  # CJ's pool holds c itself
    return sorted(out)


def _graph_space(g: Graph, multiset: SizeMultiset, state_cap: int) -> StateSpace:
    """The state space of G for the multiset, kept in the graph's one
    slot: a space for another multiset is replaced, and a kept space
    larger than state_cap raises, as enumerating it afresh would."""
    space = g._state_space
    if space is None or space.multiset != multiset:
        space = g._state_space = enumerate_states(g, multiset, state_cap=state_cap)
    elif len(space) > state_cap:
        raise StateSpaceTooLargeError(state_cap)
    return space


def _search(space: StateSpace, src: int, rule: Rule) -> Iterator[tuple[int, int]]:
    """Breadth-first search from state src: every other state it reaches,
    with the state it was first reached from, in discovery order.  Moves
    are reversible, so the states reached are src's whole class.  The
    rule is a Rule: callers parse it once."""
    seen = {src}
    queue = deque((src,))
    while queue:
        cur = queue.popleft()
        for j in _neighbors(space, cur, rule):
            if j not in seen:
                seen.add(j)
                queue.append(j)
                yield j, cur


def oracle_solve(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    rule: Rule | str,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Result:
    """Exhaustive reachability with a shortest witness sequence; the
    result's space_size counts the states enumerated.

    The graph keeps the last state space searched, one slot keyed by
    multiset and bounded by state_cap: a later call for the same
    multiset reuses it, and raises StateSpaceTooLargeError when it holds
    more than that call's state_cap states."""
    rule = Rule.parse(rule)
    va, vb = _clean_subset(g, a), _clean_subset(g, b)
    ma = cc_multiset(g, va)
    if ma != cc_multiset(g, vb):
        return Result(rule, False, reason="multiset-mismatch", space_size=0)
    if va == vb:
        return Result(rule, True, (va,), space_size=1)
    space = _graph_space(g, ma, state_cap)
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
    rule: Rule | str,
    *,
    state_cap: int = DEFAULT_STATE_CAP,
) -> ReconfigGraph:
    """The reconfiguration graph of the state space.  Raises
    ReconfigGraphTooLargeError as soon as it holds more than MAX_EXPORT_EDGES
    edges."""
    rule = Rule.parse(rule)
    space = _graph_space(g, SizeMultiset(multiset), state_cap)
    edges: list[tuple[int, int]] = []
    for i in range(len(space)):
        edges += [(i, j) for j in _neighbors(space, i, rule) if j > i]
        if len(edges) > MAX_EXPORT_EDGES:
            raise ReconfigGraphTooLargeError(MAX_EXPORT_EDGES)
    return ReconfigGraph(space, rule, tuple(edges))


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


def reachability_partition(space: StateSpace, rule: Rule | str) -> list[int]:
    """Connected-component label per state of the reconfiguration graph;
    labels are the smallest state index in each class."""
    rule = Rule.parse(rule)
    labels = [-1] * len(space)
    for start in range(len(space)):
        if labels[start] == -1:
            labels[start] = start
            for j, _ in _search(space, start, rule):
                labels[j] = start
    return labels


def bfs_distances(space: StateSpace, src: int, rule: Rule | str) -> list[int | None]:
    """Move counts from one state to every state, None when unreachable."""
    rule = Rule.parse(rule)
    dist: list[int | None] = [None] * len(space)
    dist[src] = 0
    for j, p in _search(space, src, rule):
        dist[j] = dist[p] + 1
    return dist
