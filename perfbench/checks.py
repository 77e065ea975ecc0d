"""Output checks that share no code with the program.

Adjacency is rebuilt from each instance's edge list with plain Python
sets; moves are checked straight from the rule definitions.  Every check
raises ``CheckError`` with a one-line reason on the first problem.
"""

from __future__ import annotations

import itertools
from collections import deque


class CheckError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Host:
    """Undirected graph as a list of neighbour sets."""

    def __init__(self, n: int, edges):
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def component_of(self, start, inside) -> frozenset[int]:
        seen = {start}
        stack = [start]
        adj = self.adj
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in inside and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return frozenset(seen)

    def components(self, vertices) -> list[frozenset[int]]:
        inside = set(vertices)
        out = []
        while inside:
            comp = self.component_of(next(iter(inside)), inside)
            inside -= comp
            out.append(comp)
        return out

    def connected(self, vertices) -> bool:
        vs = set(vertices)
        return bool(vs) and len(self.component_of(next(iter(vs)), vs)) == len(vs)

    def multiset(self, vertices) -> list[int]:
        return sorted(len(c) for c in self.components(vertices))


# ---------------------------------------------------------------------------
# single moves, from the definitions


def component_move(host: Host, u: set[int], w: set[int]) -> tuple[frozenset, frozenset]:
    """The (C, C') of a component move from u to w: C a component of
    G[u], C' a component of G[w], w = (u - C) | C' and |C| = |C'|."""
    gone, came = u - w, w - u
    require(bool(gone) and len(gone) == len(came), "states differ in size or are equal")
    c = host.component_of(next(iter(gone)), u)
    c2 = host.component_of(next(iter(came)), w)
    require(gone <= c and came <= c2, "more than one component changed")
    require(len(c) == len(c2), f"component of size {len(c)} replaced by one of size {len(c2)}")
    require(u - c == w - c2, "vertices outside the moved component changed")
    return c, c2


def check_move(host: Host, u: set[int], w: set[int], rule: str) -> None:
    if rule in ("TJ", "TS"):
        gone, came = u - w, w - u
        require(len(gone) == 1 and len(came) == 1, "token move must exchange one vertex")
        if rule == "TS":
            require(next(iter(came)) in host.adj[next(iter(gone))], "token slid along a non-edge")
        require(host.multiset(u) == host.multiset(w), "token move changed the multiset")
        return
    c, c2 = component_move(host, u, w)
    if rule in ("CS", "CS1"):
        require(host.connected(c | c2), "slid component and its image do not touch")
    if rule == "CS1":
        require(len(c - c2) == 1, "CS1 move exchanges more than one vertex")


def check_states(host: Host, states, a, b, rule: str) -> int:
    """Replay a full state sequence from a to b; returns its length."""
    require(len(states) >= 1, "empty state sequence")
    require(sorted(states[0]) == sorted(a) and sorted(states[-1]) == sorted(b),
            "endpoints differ from A and B")
    prev = set(states[0])
    require(len(prev) == len(states[0]), "repeated vertex in a state")
    for i, s in enumerate(states[1:], 1):
        cur = set(s)
        require(len(cur) == len(s), f"repeated vertex in state {i}")
        try:
            check_move(host, prev, cur, rule)
        except CheckError as exc:
            raise CheckError(f"step {i - 1}->{i}: {exc}") from None
        prev = cur
    return len(states) - 1


def check_jumps(host: Host, a, b, jumps, size: int) -> None:
    """Replay explicit (source, target) component jumps from a to b."""
    cur = set(a)
    for i, (src, dst) in enumerate(jumps):
        src, dst = set(src), set(dst)
        require(len(src) == size and len(dst) == size, f"jump {i}: wrong component size")
        require(src <= cur and host.component_of(next(iter(src)), cur) == src,
                f"jump {i}: source is not a component")
        rest = cur - src
        require(host.connected(dst) and not dst & rest,
                f"jump {i}: target not a free connected set")
        require(all(not (host.adj[v] & rest) for v in dst),
                f"jump {i}: target touches another component")
        cur = rest | dst
    require(cur == set(b), "jumps do not end at B")


def displaced(host: Host, a, b) -> int:
    """Components of A that are not components of B."""
    return len(set(host.components(a)) - set(host.components(b)))


# ---------------------------------------------------------------------------
# paths, in position space


def path_positions(host: Host) -> list[int]:
    """Position of each vertex along the path, counted from the endpoint
    with the smaller id (the program's orientation)."""
    n = host.n
    ends = [v for v in range(n) if len(host.adj[v]) <= 1]
    require(len(ends) == 2 or n == 1, "not a path")
    pos = [-1] * n
    prev, cur = -1, min(ends)
    for i in range(n):
        pos[cur] = i
        nxt = [u for u in host.adj[cur] if u != prev]
        prev, cur = cur, (nxt[0] if nxt else -1)
    require(min(pos) == 0, "not a path")
    return pos


def runs(positions) -> list[tuple[int, int]]:
    """(start, size) of each maximal run of consecutive positions."""
    out = []
    ps = sorted(positions)
    i = 0
    while i < len(ps):
        j = i
        while j + 1 < len(ps) and ps[j + 1] == ps[j] + 1:
            j += 1
        out.append((ps[i], j - i + 1))
        i = j + 1
    return out


def path_answer(n: int, runs_a, runs_b, rule: str) -> bool:
    """CS: the profiles are equal.  CJ: the entries larger than the
    buffer come in the same order in both profiles, i.e. no inverted
    pair has both sizes above the buffer."""
    prof_a = [s for _, s in runs_a]
    prof_b = [s for _, s in runs_b]
    if sorted(prof_a) != sorted(prof_b):
        return False
    if rule == "CS":
        return prof_a == prof_b
    buf = n - sum(prof_a) - len(prof_a)
    return [s for s in prof_a if s > buf] == [s for s in prof_b if s > buf]


def replay_path_moves(n: int, occ_a, occ_b, moves, rule: str) -> None:
    """Replay compressed (size, from, to) moves on an occupancy array."""
    occ = bytearray(n + 2)  # one free sentinel cell at each end
    for p in occ_a:
        occ[p + 1] = 1
    for i, mv in enumerate(moves):
        size, src, dst = mv["size"], mv["from"] + 1, mv["to"] + 1
        require(size >= 1 and 1 <= src and src + size <= n + 1 and 1 <= dst and dst + size <= n + 1,
                f"move {i} leaves the path")
        require(occ.find(0, src, src + size) == -1 and not occ[src - 1] and not occ[src + size],
                f"move {i} does not lift a whole component")
        occ[src:src + size] = bytes(size)
        require(occ.find(1, dst - 1, dst + size + 1) == -1,
                f"move {i} lands on or next to a component")
        occ[dst:dst + size] = b"\x01" * size
        if rule == "CS":
            require(abs(src - dst) <= size, f"move {i} is a jump, not a slide")
    want = bytearray(n + 2)
    for p in occ_b:
        want[p + 1] = 1
    require(occ == want, "moves do not end at B")


# ---------------------------------------------------------------------------
# exhaustive search for desk-scale instances


def connected_subsets(host: Host, k: int) -> list[frozenset[int]]:
    return [
        frozenset(c) for c in itertools.combinations(range(host.n), k) if host.connected(c)
    ]


def brute_force(host: Host, a, b, rule: str) -> int | None:
    """Shortest move count from a to b by breadth-first search, with each
    neighbour generated straight from the rule; None if unreachable."""
    start, goal = frozenset(a), frozenset(b)
    want = host.multiset(start)
    if host.multiset(goal) != want:
        return None
    pools: dict[int, list[frozenset[int]]] = {}
    vertices = frozenset(range(host.n))

    def neighbours(u: frozenset[int]):
        if rule in ("TJ", "TS"):
            for x in u:
                targets = host.adj[x] if rule == "TS" else vertices
                for y in targets - u:
                    w = (u - {x}) | {y}
                    if host.multiset(w) == want:
                        yield w
            return
        for c in host.components(u):
            rest = u - c
            near = set(rest)
            for v in rest:
                near |= host.adj[v]
            pool = pools.get(len(c))
            if pool is None:
                pool = pools[len(c)] = connected_subsets(host, len(c))
            for c2 in pool:
                if c2 == c or c2 & near:
                    continue
                if rule != "CJ" and not host.connected(c | c2):
                    continue
                if rule == "CS1" and len(c - c2) != 1:
                    continue
                yield rest | c2

    dist = {start: 0}
    queue = deque((start,))
    while queue:
        u = queue.popleft()
        if u == goal:
            return dist[u]
        for w in neighbours(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return None
