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
from typing import Iterable, Sequence

from .errors import InvalidInstanceError, WrongGraphClassError
from .graph import Graph, SizeMultiset, _clean_subset
from .rules import ReconfSequence, Rule

__all__ = [
    "path_order",
    "is_path_graph",
    "size_profile",
    "buffer",
    "CompressedMove",
    "PathSolveResult",
    "solve_path_cs",
    "solve_path_cj",
    "expand_moves",
]


def _walk_path(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Path order from the endpoint with the smaller id, and the position
    of each vertex in it.  Raises if the graph is not a path."""
    n = g.n
    if n <= 1:
        return tuple(range(n)), tuple(range(n))
    if g.m != n - 1:
        raise WrongGraphClassError(f"not a path: {g.m} edges for {n} vertices")
    ends = []
    for v in range(n):
        d = len(g.adj[v])
        if d > 2:
            raise WrongGraphClassError(f"not a path: vertex {v} has degree {d}")
        if d == 1:
            ends.append(v)
    if len(ends) != 2:
        raise WrongGraphClassError("not a path: endpoint count is not 2")
    order = [min(ends)]
    prev = -1
    while len(order) < n:
        cur = order[-1]
        nxt = [u for u in g.adj[cur] if u != prev]
        if not nxt:
            raise WrongGraphClassError("not a path: walk ended early")
        prev = cur
        order.append(nxt[0])
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


def _positions(g: Graph, subset: Iterable[int]) -> tuple[tuple[int, ...], list[int]]:
    order = path_order(g)
    pos = g.path_layout[1]
    return order, sorted(pos[v] for v in _clean_subset(g, subset))


def _runs(positions: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive positions as (start, size)."""
    runs = []
    i = 0
    while i < len(positions):
        j = i
        while j + 1 < len(positions) and positions[j + 1] == positions[j] + 1:
            j += 1
        runs.append((positions[i], j - i + 1))
        i = j + 1
    return runs


def size_profile(g: Graph, subset: Iterable[int]) -> list[int]:
    """Component sizes from left to right along the path."""
    _, positions = _positions(g, subset)
    return [size for _, size in _runs(positions)]


def _tagged(profile: Iterable[int]) -> list[tuple[int, int]]:
    """Profile entries tagged with their occurrence number, so equal
    sizes become distinguishable: (size, 1), (size, 2), ..."""
    seen: dict[int, int] = {}
    entries = []
    for size in profile:
        seen[size] = seen.get(size, 0) + 1
        entries.append((size, seen[size]))
    return entries


def buffer(n: int, subset: Sequence[int], k: int) -> int:
    """Free positions at the right end once the subset is packed to the
    left with k components and one gap after the last of them."""
    return n - len(subset) - k


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


@dataclass(frozen=True)
class PathSolveResult:
    rule: Rule
    reachable: bool
    moves: tuple[CompressedMove, ...] | None = None
    reason: str | None = None


def _pack_left_slides(runs: list[tuple[int, int]]) -> list[CompressedMove]:
    """Slide every component to its leftmost packed slot, keeping each
    hop within the component's own length so old and new positions stay
    connected."""
    moves = []
    offset = 0
    for start, size in runs:
        left = start
        while left > offset:
            step = min(size, left - offset)
            moves.append(CompressedMove(size, left, left - step))
            left -= step
        offset = left + size + 1
    return moves


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
) -> PathSolveResult:
    """Component slides on a path: feasible iff the two profiles are
    literally equal; the witness packs A to the left and unpacks into B."""
    _, pos_a = _positions(g, a)
    _, pos_b = _positions(g, b)
    runs_a, runs_b = _runs(pos_a), _runs(pos_b)
    profile_a = [s for _, s in runs_a]
    profile_b = [s for _, s in runs_b]
    if sorted(profile_a) != sorted(profile_b):
        return PathSolveResult(Rule.CS, False, reason="multiset-mismatch")
    if profile_a != profile_b:
        return PathSolveResult(Rule.CS, False, reason="profile-mismatch")
    if not want_moves:
        return PathSolveResult(Rule.CS, True)
    if pos_a == pos_b:
        return PathSolveResult(Rule.CS, True, ())
    forward = _pack_left_slides(runs_a)
    backward = [mv.inverse() for mv in reversed(_pack_left_slides(runs_b))]
    return PathSolveResult(Rule.CS, True, tuple(forward + backward))


def solve_path_cj(
    g: Graph, a: Iterable[int], b: Iterable[int], *, want_moves: bool = True
) -> PathSolveResult:
    """Component jumps on a path: sort the profile by bubble sort, three
    jumps per swapped pair, using the right buffer as parking space."""
    order, pos_a = _positions(g, a)
    _, pos_b = _positions(g, b)
    runs_a, runs_b = _runs(pos_a), _runs(pos_b)
    profile_a = [s for _, s in runs_a]
    profile_b = [s for _, s in runs_b]
    if sorted(profile_a) != sorted(profile_b):
        return PathSolveResult(Rule.CJ, False, reason="multiset-mismatch")
    # equal sizes never need to pass each other, so a pair that cannot
    # swap exists iff the sizes above the buffer appear in another order
    free = buffer(len(order), pos_a, len(runs_a))
    if [s for s in profile_a if s > free] != [s for s in profile_b if s > free]:
        return PathSolveResult(Rule.CJ, False, reason="buffer-exceeded")
    if not want_moves:
        return PathSolveResult(Rule.CJ, True)
    if pos_a == pos_b:
        return PathSolveResult(Rule.CJ, True, ())
    moves = _pack_left_jumps(runs_a)
    occupied = len(pos_a)
    k = len(runs_a)
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
    return PathSolveResult(Rule.CJ, True, tuple(moves))


def expand_moves(
    g: Graph, a: Iterable[int], moves: Iterable[CompressedMove], rule: Rule
) -> ReconfSequence:
    """Replay compressed moves into the full state sequence (vertex ids,
    not positions)."""
    order, pos_a = _positions(g, a)
    n = len(order)
    current = set(pos_a)

    def snapshot() -> tuple[int, ...]:
        return tuple(sorted(order[p] for p in current))

    states = [snapshot()]
    for mv in moves:
        if mv.src < 0 or mv.src + mv.size > n or mv.dst < 0 or mv.dst + mv.size > n:
            raise InvalidInstanceError(f"move {mv} leaves the path")
        seg = set(range(mv.src, mv.src + mv.size))
        if not seg <= current or (mv.src - 1) in current or (mv.src + mv.size) in current:
            raise InvalidInstanceError(f"move {mv} does not lift a whole component")
        rest = current - seg
        new_seg = set(range(mv.dst, mv.dst + mv.size))
        if new_seg & rest:
            raise InvalidInstanceError(f"move {mv} lands on another component")
        current = rest | new_seg
        states.append(snapshot())
    return ReconfSequence(rule, tuple(states), tuple(moves))
