"""Seeded instances for the benchmark workloads.

Every function here takes a ``random.Random`` and returns plain data: the
vertex count, an edge list, the two vertex lists A and B and the rule.
The program only ever sees these as JSON instance files or as ``Graph``
objects built from the same edge list.  Where the answer is known by
construction it is recorded in ``expect``; the independent
checks in ``checks.py`` recompute it from the edge list anyway.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from checks import Host


@dataclass
class Instance:
    name: str
    n: int
    edges: list[tuple[int, int]]
    a: list[int]
    b: list[int]
    rule: str
    expect: str | None = None  # "yes" / "no" when known by construction
    meta: dict = field(default_factory=dict)


def composition(rng: random.Random, total: int, parts: int, minimum: int = 1) -> list[int]:
    """`parts` integers, each at least `minimum`, summing to `total`."""
    extra = total - parts * minimum
    if extra < 0:
        raise ValueError(f"cannot split {total} into {parts} parts of at least {minimum}")
    cuts = sorted(rng.randrange(extra + 1) for _ in range(parts - 1))
    return [minimum + hi - lo for lo, hi in zip([0] + cuts, cuts + [extra])]


# ---------------------------------------------------------------------------
# paths: profiles with a controlled buffer


def place_profile(rng: random.Random, n: int, sizes: list[int]) -> list[int]:
    """Occupied positions of components with these left-to-right sizes,
    with the slack spread over the gaps at random."""
    k = len(sizes)
    slack = n - sum(sizes) - (k - 1)
    if slack < 0:
        raise ValueError("profile does not fit")
    cuts = sorted(rng.randrange(slack + 1) for _ in range(k))
    gaps = [hi - lo for lo, hi in zip([0] + cuts, cuts)]
    out: list[int] = []
    pos = 0
    for i, (size, gap) in enumerate(zip(sizes, gaps)):
        pos += gap + (1 if i else 0)
        out.extend(range(pos, pos + size))
        pos += size
    return out


def buffered_profiles(
    rng: random.Random, n: int, k: int, small: int, buf: int, *, blocked: bool
) -> tuple[list[int], list[int]]:
    """Two orderings of one size multiset whose packed buffer is `buf`.

    `small` entries fit the buffer (size <= buf), the rest do not.  The
    second ordering reshuffles the small entries and keeps the large
    ones in order, so jumps can sort it; with `blocked` two large
    entries of different sizes are also swapped, an inversion no jump
    sequence can undo.
    """
    smalls = [rng.randint(1, buf) for _ in range(small)]
    large_total = n - k - buf - sum(smalls)
    larges = composition(rng, large_total, k - small, minimum=buf + 1)
    if blocked and len(set(larges)) < 2:
        raise ValueError("blocked profile needs two large sizes")

    def mix(order_small, order_large):
        slots = set(rng.sample(range(k), small))
        it_s, it_l = iter(order_small), iter(order_large)
        return [next(it_s) if i in slots else next(it_l) for i in range(k)]

    prof_a = mix(smalls, larges)
    shuffled = smalls[:]
    rng.shuffle(shuffled)
    larges_b = larges[:]
    if blocked:
        while True:
            i, j = sorted(rng.sample(range(len(larges_b)), 2))
            if larges_b[i] != larges_b[j]:
                larges_b[i], larges_b[j] = larges_b[j], larges_b[i]
                break
    return prof_a, mix(shuffled, larges_b)


def path_instances(rng: random.Random, n: int) -> list[Instance]:
    """CS yes/no and CJ yes/no on one path whose vertex ids are shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[i + 1]) for i in range(n - 1)]

    def inst(name, rule, prof_a, prof_b, expect):
        a = sorted(order[p] for p in place_profile(rng, n, prof_a))
        b = sorted(order[p] for p in place_profile(rng, n, prof_b))
        return Instance(name, n, edges, a, b, rule, expect)

    # a minimum size bounds the slide hops per component, and with it
    # the witness length
    cs_sizes = composition(rng, n // 4, 60, minimum=n // 500)
    no_sizes = composition(rng, n // 2, 200, minimum=n // 2000)
    i = next(i for i in range(len(no_sizes) - 1) if no_sizes[i] != no_sizes[i + 1])
    swapped = no_sizes[:]
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    return [
        inst("cs-yes", "CS", cs_sizes, cs_sizes, "yes"),
        inst("cs-no", "CS", no_sizes, swapped, "no"),
        inst("cj-yes", "CJ", *buffered_profiles(rng, n, 300, 150, 100, blocked=False), "yes"),
        inst("cj-no", "CJ", *buffered_profiles(rng, n, 800, 400, 100, blocked=True), "no"),
    ]


# ---------------------------------------------------------------------------
# equal-size components spread over a host graph


def grow_connected(
    rng: random.Random, adj, start: int, size: int, allowed
) -> list[int] | None:
    """Random connected set of `size` vertices containing `start`, using
    only vertices for which allowed(v) holds; None at a dead end."""
    comp = [start]
    inside = {start}
    frontier = [u for u in adj[start] if allowed(u)]
    while len(comp) < size:
        while frontier:
            u = frontier.pop(rng.randrange(len(frontier)))
            if u not in inside:
                break
        else:
            return None
        comp.append(u)
        inside.add(u)
        frontier.extend(w for w in adj[u] if w not in inside and allowed(w))
    return comp


def spread_components(
    rng: random.Random, host: Host, sizes: list[int], *, restarts: int = 50
) -> list[int]:
    """Greedy placement of pairwise non-touching connected sets with the
    given sizes: draw a free start, grow it, and on a dead end draw the
    next start.  Starts over (at most `restarts` times) when a size
    finds no room."""
    n, adj = host.n, host.adj
    for _ in range(restarts):
        blocked = bytearray(n)
        seated: list[int] = []
        for size in sizes:
            for _ in range(200):
                v = rng.randrange(n)
                if blocked[v]:
                    continue
                comp = grow_connected(rng, adj, v, size, lambda u: not blocked[u])
                if comp is not None:
                    break
            else:
                break
            seated.extend(comp)
            for u in comp:
                blocked[u] = 1
                for w in adj[u]:
                    blocked[w] = 1
        else:
            return sorted(seated)
    raise ValueError(f"cannot seat components of sizes {sorted(set(sizes))}")


def chordal_pair(
    rng: random.Random, name: str, edges, host: Host, size: int, count: int
) -> Instance:
    a = spread_components(rng, host, [size] * count)
    b = spread_components(rng, host, [size] * count)
    return Instance(name, host.n, edges, a, b, "CJ", "yes", {"size": size, "count": count})


# ---------------------------------------------------------------------------
# cographs


def threshold_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Threshold graph built by alternately adding an isolated and a
    dominating vertex, so the cotree gains one level per vertex; vertex
    ids are shuffled.  Connected when n is even."""
    label = list(range(n))
    rng.shuffle(label)
    return [
        (label[j], label[i]) for i in range(1, n, 2) for j in range(i)
    ]


def random_cs_walk(rng: random.Random, host: Host, start: list[int], steps: int) -> list[int]:
    """End of a random walk of component slides from `start`, each move
    made straight from the rule: a component C is replaced by a
    connected C' of the same size with C | C' connected and C' not
    touching the rest."""
    adj = host.adj
    cur = set(start)
    for _ in range(steps):
        # sorted, so that the choice does not depend on set order
        comps = sorted(sorted(c) for c in host.components(cur))
        comp = set(rng.choice(comps))
        rest = cur - comp
        near_rest = set(rest)
        for v in rest:
            near_rest |= adj[v]
        seeds = set(comp)
        for v in comp:
            seeds |= adj[v]
        seeds = sorted(seeds - near_rest)
        if not seeds:
            continue
        new = grow_connected(
            rng, adj, rng.choice(seeds), len(comp), lambda u: u not in near_rest
        )
        if new is None or set(new) == comp:
            continue
        cur = rest | set(new)
    return sorted(cur)


def independent_set(rng: random.Random, host: Host, cap: int) -> list[int]:
    """Up to `cap` pairwise non-adjacent vertices, scanned in random order."""
    n, adj = host.n, host.adj
    chosen: list[int] = []
    near: set[int] = set()
    for v in rng.sample(range(n), n):
        if v not in near:
            chosen.append(v)
            near.add(v)
            near |= adj[v]
            if len(chosen) == cap:
                break
    return sorted(chosen)


def cograph_pairs(
    rng: random.Random, name: str, n: int, edges, rule_sizes: dict, *, multi: bool = True
) -> list[Instance]:
    """A single-component pair (always reachable on a connected
    cograph) and, with `multi`, a multi-component pair whose B is
    reached from A by a random walk of slides, so both are
    yes-instances by construction."""
    host = Host(n, edges)
    adj = host.adj
    size = rule_sizes["single"]
    for _ in range(100):
        a = grow_connected(rng, adj, rng.randrange(n), size, lambda u: True)
        b = grow_connected(rng, adj, rng.randrange(n), size, lambda u: True)
        if a and b and sorted(a) != sorted(b):
            break
    else:
        raise ValueError(f"{name}: no pair of connected {size}-sets")
    out = []
    for rule in ("CS", "CS1"):
        out.append(Instance(f"{name}-one-{rule}", n, edges, sorted(a), sorted(b), rule, "yes"))
    if not multi:
        return out
    for _ in range(100):
        multi_a = independent_set(rng, host, rule_sizes["singletons"])
        walk_b = random_cs_walk(rng, host, multi_a, rule_sizes["walk"])
        if len(multi_a) >= 2 and walk_b != multi_a:
            break
    else:
        raise ValueError(f"{name}: no multi-component pair")
    for rule in ("CS", "CS1"):
        out.append(Instance(f"{name}-multi-{rule}", n, edges, multi_a, walk_b, rule, "yes"))
    return out


# ---------------------------------------------------------------------------
# desk-scale graphs for the oracle


def grid_edges(rng: random.Random, rows: int, cols: int) -> list[tuple[int, int]]:
    """rows x cols grid with shuffled vertex ids: a fixed shape, so the
    size of the state space does not depend on the seed."""
    label = list(range(rows * cols))
    rng.shuffle(label)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((label[v], label[v + 1]))
            if r + 1 < rows:
                edges.append((label[v], label[v + cols]))
    return edges
