"""Solvers for path graphs.

On a path, a subset is described by its left-to-right sequence of
component sizes.  Component slides cannot reorder that sequence, so the
slide question is pure profile equality.  Component jumps can reorder it
by parking a component in the free space at the right end: an adjacent
out-of-order pair (x, y) is swapped in three jumps (smaller one out to
the buffer, larger one across, smaller one back), which is possible
exactly when min(x, y) fits in the buffer.  So a CJ instance is feasible
exactly when the components larger than the buffer keep their relative
order.  Both solvers work in position space along the path and emit
compressed moves: (size, leftmost position before, leftmost position
after).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import InvalidInstanceError, WrongGraphClassError
from .graph import Graph, _clean_subset, _replay_jumps
from .rules import Result, Rule, _occupancy, _placed, _runs

__all__ = [
    "path_order",
    "is_path_graph",
    "CompressedMove",
    "solve_path_cs",
    "solve_path_cj",
    "expand_moves",
]


def path_order(g: Graph) -> tuple[int, ...]:
    """Vertices in order along the path, starting from the endpoint with
    the smaller id: the layout the constructor found.  Raises if the
    graph is not a path, with the first reason its degrees give."""
    if g.path_layout is not None:
        return g.path_layout
    # only a graph that is not a path gets here, and it keeps its sets
    n = g.n
    if g.m != n - 1:
        raise WrongGraphClassError(f"not a path: {g.m} edges for {n} vertices")
    degs = list(map(len, g.adj))
    if max(degs) > 2:
        v = next(v for v, d in enumerate(degs) if d > 2)
        raise WrongGraphClassError(f"not a path: vertex {v} has degree {degs[v]}")
    if degs.count(1) != 2:
        raise WrongGraphClassError("not a path: endpoint count is not 2")
    # n - 1 edges, two endpoints, the rest of degree 2: a path plus cycles
    raise WrongGraphClassError("not a path: walk ended early")


def is_path_graph(g: Graph) -> bool:
    return g.path_layout is not None


def _tagged(profile: Iterable[int]) -> list[tuple[int, int]]:
    """Profile entries tagged with their occurrence number, so equal
    sizes become distinguishable: (size, 1), (size, 2), ..."""
    seen: dict[int, int] = {}
    entries = []
    for size in profile:
        seen[size] = seen.get(size, 0) + 1
        entries.append((size, seen[size]))
    return entries


class CompressedMove(NamedTuple):
    """One component move in position space; it compares equal to the
    plain tuple (size, src, dst)."""

    size: int
    src: int
    dst: int

    def to_json(self) -> dict:
        return {"size": self.size, "from": self.src, "to": self.dst}

    @classmethod
    def from_json(cls, obj: dict) -> "CompressedMove":
        fields = [obj.get(k) for k in ("size", "from", "to")] if isinstance(obj, dict) else [None]
        if any(type(v) is not int for v in fields):
            raise InvalidInstanceError(f"bad compressed move: {obj!r}")
        return cls(*fields)

    def inverse(self) -> "CompressedMove":
        return CompressedMove(self.size, self.dst, self.src)


def _pack_left_jumps(runs: list[tuple[int, int]]) -> list[CompressedMove]:
    moves = []
    offset = 0
    for start, size in runs:
        if start != offset:
            moves.append(CompressedMove(size, start, offset))
        offset += size + 1
    return moves


def solve_path_cs(
    g: Graph, a: Iterable[int], b: Iterable[int], *, want_moves: bool = True
) -> Result:
    """Component slides on a path: feasible iff the two profiles are
    literally equal; the witness is a shortest one."""
    path_order(g)  # raises if g is not a path
    return _solve_cs(*(_runs(_occupancy(g, _clean_subset(g, s))) for s in (a, b)), want_moves)


def _solve_cs(
    runs_a: list[tuple[int, int]], runs_b: list[tuple[int, int]], want_moves: bool = True
) -> Result:
    """A slide moves one component by at most its own size and never
    past another, so the i-th component of A needs at least
    ceil(|a_i - b_i| / s_i) moves to reach its slot in B.  The witness
    meets that bound: each component slides straight to its slot in hops
    of its own size, first those moving right, rightmost first, then
    those moving left, leftmost first.  A moving component then only
    ever has settled or unmoved components beside it, none of which
    reaches into its stretch of the path."""
    profile_a = [s for _, s in runs_a]
    profile_b = [s for _, s in runs_b]
    if sorted(profile_a) != sorted(profile_b):
        return Result(Rule.CS, False, reason="multiset-mismatch")
    if profile_a != profile_b:
        return Result(Rule.CS, False, reason="profile-mismatch")
    if not want_moves:
        return Result(Rule.CS, True)
    pairs = [(start, size, dst) for (start, size), (dst, _) in zip(runs_a, runs_b)]
    moves = []
    for start, size, dst in reversed(pairs):
        while start < dst:
            hop = min(start + size, dst)
            moves.append(CompressedMove(size, start, hop))
            start = hop
    for start, size, dst in pairs:
        while start > dst:
            hop = max(start - size, dst)
            moves.append(CompressedMove(size, start, hop))
            start = hop
    return Result(Rule.CS, True, moves=tuple(moves))


def solve_path_cj(
    g: Graph, a: Iterable[int], b: Iterable[int], *, want_moves: bool = True
) -> Result:
    """Component jumps on a path: sort the profile by bubble sort, three
    jumps per swapped pair, using the right buffer as parking space."""
    path_order(g)  # raises if g is not a path
    return _solve_cj(g.n, *(_runs(_occupancy(g, _clean_subset(g, s))) for s in (a, b)), want_moves)


def _solve_cj(
    n: int, runs_a: list[tuple[int, int]], runs_b: list[tuple[int, int]],
    want_moves: bool = True,
) -> Result:
    profile_a = [s for _, s in runs_a]
    profile_b = [s for _, s in runs_b]
    if sorted(profile_a) != sorted(profile_b):
        return Result(Rule.CJ, False, reason="multiset-mismatch")
    occupied = sum(profile_a)
    k = len(runs_a)
    # equal sizes never need to pass each other, so a pair that cannot
    # swap exists iff the sizes above the buffer appear in another order
    # the buffer: free positions once A is packed left with a gap after
    # each component
    free = n - occupied - k
    if [s for s in profile_a if s > free] != [s for s in profile_b if s > free]:
        return Result(Rule.CJ, False, reason="buffer-exceeded")
    if not want_moves:
        return Result(Rule.CJ, True)
    if runs_a == runs_b:
        return Result(Rule.CJ, True, moves=())
    moves = _pack_left_jumps(runs_a)
    tail = occupied + k  # one past the gap after the packed block
    # each component as its rank in B, so the order is sorted when the
    # ranks ascend; a pass ends at the last swap of the one before, as
    # everything past it is in place
    want_rank = {e: i for i, e in enumerate(_tagged(profile_b))}
    cur = [want_rank[e] for e in _tagged(profile_a)]
    end = len(cur) - 1
    while end > 0:
        la = last = 0  # la: leftmost position of cur[j] in the packed block
        for j in range(end):
            x, y = cur[j], cur[j + 1]
            if x > y:
                sl, sr = profile_b[x], profile_b[y]
                if sl < sr:
                    small_size, small_from, small_to = sl, la, la + sr + 1
                    big_size, big_from, big_to = sr, la + sl + 1, la
                else:
                    small_size, small_from, small_to = sr, la + sl + 1, la
                    big_size, big_from, big_to = sl, la, la + sr + 1
                moves.append(CompressedMove(small_size, small_from, tail))
                moves.append(CompressedMove(big_size, big_from, big_to))
                moves.append(CompressedMove(small_size, tail, small_to))
                cur[j], cur[j + 1] = y, x
                last = j
            la += profile_b[cur[j]] + 1
        end = last
    moves.extend(mv.inverse() for mv in reversed(_pack_left_jumps(runs_b)))
    return Result(Rule.CJ, True, moves=tuple(moves))


def _vertex_jumps(
    g: Graph, va: tuple[int, ...], moves: Iterable[CompressedMove]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The compressed moves from the cleaned subset va as (source, target)
    vertex jumps, each checked on a position occupancy in O(size) first,
    so a bad move raises before any state is made."""
    order = path_order(g)
    return [(order[src:src + size], order[dst:dst + size])
            for size, src, dst in _placed(_occupancy(g, va), moves)]


def expand_moves(
    g: Graph, a: Iterable[int], moves: Iterable[CompressedMove], rule: Rule | str
) -> Result:
    """Replay compressed moves into the full state sequence (vertex ids,
    not positions), returned with the moves.  Each move is checked on a
    position occupancy in O(size), then replayed as a vertex jump."""
    rule = Rule.parse(rule)
    moves = tuple(moves)
    va = _clean_subset(g, a)
    return Result(rule, True, tuple(_replay_jumps(va, _vertex_jumps(g, va, moves))), moves)
