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

from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidInstanceError, WrongGraphClassError
from .graph import Graph, _clean_subset, _replay_jumps
from .rules import Result, Rule

__all__ = [
    "path_order",
    "is_path_graph",
    "CompressedMove",
    "solve_path_cs",
    "solve_path_cj",
    "expand_moves",
]


def _walk_path(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Path order from the endpoint with the smaller id, and the position
    of each vertex in it.  Raises if the graph is not a path."""
    n, adj = g.n, g.adj
    if n <= 1:
        return tuple(range(n)), tuple(range(n))
    if g.m != n - 1:
        raise WrongGraphClassError(f"not a path: {g.m} edges for {n} vertices")
    degs = list(map(len, adj))
    if max(degs) > 2:
        v = next(v for v, d in enumerate(degs) if d > 2)
        raise WrongGraphClassError(f"not a path: vertex {v} has degree {degs[v]}")
    if degs.count(1) != 2:
        raise WrongGraphClassError("not a path: endpoint count is not 2")
    # every other vertex has degree 2: a path, plus cycles if the walk
    # ends early.  A step goes to sum(adj[cur]) - prev (prev 0 at start).
    start = degs.index(1)
    end = degs.index(1, start + 1)
    order, prev, cur = [], 0, start
    while cur != end:
        order.append(cur)
        prev, cur = cur, sum(adj[cur]) - prev
    order.append(end)
    if len(order) != n:
        raise WrongGraphClassError("not a path: walk ended early")
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    return tuple(order), tuple(pos)


def path_order(g: Graph) -> tuple[int, ...]:
    """Vertices in order along the path, starting from the endpoint with
    the smaller id.  Raises if the graph is not a path."""
    if g.path_layout is None:
        _walk_path(g)  # raises with the reason the graph is not a path
    return g.path_layout[0]


def is_path_graph(g: Graph) -> bool:
    return g.path_layout is not None


def _positions(g: Graph, subset: Iterable[int]) -> list[int]:
    path_order(g)  # raises if g is not a path
    return _sorted_positions(g, _clean_subset(g, subset))


def _sorted_positions(g: Graph, vertices: Iterable[int]) -> list[int]:
    """Path positions of already cleaned vertices, ascending; g must be
    a path."""
    return sorted(map(g.path_layout[1].__getitem__, vertices))


def _runs(positions: Iterable[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive ascending positions as (start, size):
    on a path these are the components of the subset."""
    runs = []
    start = prev = None
    for p in positions:
        if p - 1 != prev:
            if start is not None:
                runs.append((start, prev - start + 1))
            start = p
        prev = p
    if start is not None:
        runs.append((start, prev - start + 1))
    return runs


def _tagged(profile: Iterable[int]) -> list[tuple[int, int]]:
    """Profile entries tagged with their occurrence number, so equal
    sizes become distinguishable: (size, 1), (size, 2), ..."""
    seen: dict[int, int] = {}
    entries = []
    for size in profile:
        seen[size] = seen.get(size, 0) + 1
        entries.append((size, seen[size]))
    return entries


@dataclass(frozen=True)
class CompressedMove:
    """One component move in position space."""

    size: int
    src: int
    dst: int

    def to_json(self) -> dict:
        return {"size": self.size, "from": self.src, "to": self.dst}

    @classmethod
    def from_json(cls, obj: dict) -> "CompressedMove":
        try:
            fields = obj["size"], obj["from"], obj["to"]
        except (KeyError, TypeError):
            raise InvalidInstanceError(f"bad compressed move: {obj!r}") from None
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
    return _solve_cs(_runs(_positions(g, a)), _runs(_positions(g, b)), want_moves)


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
    return _solve_cj(g.n, _runs(_positions(g, a)), _runs(_positions(g, b)), want_moves)


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
    cur = _tagged(profile_a)
    want_rank = {e: i for i, e in enumerate(_tagged(profile_b))}
    swapped = True
    while swapped:
        swapped = False
        la = 0  # leftmost position of cur[j] in the packed block
        for j in range(len(cur) - 1):
            if want_rank[cur[j]] > want_rank[cur[j + 1]]:
                sl, sr = cur[j][0], cur[j + 1][0]
                if sl < sr:
                    small_size, small_from, small_to = sl, la, la + sr + 1
                    big_size, big_from, big_to = sr, la + sl + 1, la
                else:
                    small_size, small_from, small_to = sr, la + sl + 1, la
                    big_size, big_from, big_to = sl, la, la + sr + 1
                moves.append(CompressedMove(small_size, small_from, tail))
                moves.append(CompressedMove(big_size, big_from, big_to))
                moves.append(CompressedMove(small_size, tail, small_to))
                cur[j], cur[j + 1] = cur[j + 1], cur[j]
                swapped = True
            la += cur[j][0] + 1
    moves.extend(mv.inverse() for mv in reversed(_pack_left_jumps(runs_b)))
    return Result(Rule.CJ, True, moves=tuple(moves))


def expand_moves(
    g: Graph, a: Iterable[int], moves: Iterable[CompressedMove], rule: Rule
) -> Result:
    """Replay compressed moves into the full state sequence (vertex ids,
    not positions), returned with the moves.  Each move is checked on a
    position occupancy in O(size), then replayed as a vertex jump."""
    moves = tuple(moves)
    order = path_order(g)
    va = _clean_subset(g, a)
    n = len(order)
    occ = bytearray(n + 2)  # occ[p + 1] is 1 if position p is taken
    for p in _sorted_positions(g, va):
        occ[p + 1] = 1
    jumps = []
    for mv in moves:
        size, src, dst = mv.size, mv.src, mv.dst
        if src < 0 or src + size > n or dst < 0 or dst + size > n:
            raise InvalidInstanceError(f"move {mv} leaves the path")
        # taken positions src .. src + size - 1, free ones on either side
        if occ[src:src + size + 2] != b"\0" + b"\1" * size + b"\0":
            raise InvalidInstanceError(f"move {mv} does not lift a whole component")
        occ[src + 1:src + size + 1] = bytes(size)
        if 1 in occ[dst + 1:dst + size + 1]:
            raise InvalidInstanceError(f"move {mv} lands on another component")
        occ[dst + 1:dst + size + 1] = b"\1" * size
        jumps.append((order[src:src + size], order[dst:dst + size]))
    return Result(rule, True, _replay_jumps(va, jumps), moves)
