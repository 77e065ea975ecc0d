import itertools
import random

import pytest

from ccreconfig import (
    Graph,
    InvalidInstanceError,
    NotACographError,
    Rule,
    bfs_distances,
    cc_multiset,
    complete_graph,
    cycle_graph,
    decompose_cograph,
    is_cograph,
    path_graph,
    reachability_partition,
    solve_cograph_cs,
    verify_sequence,
)
from ccreconfig import cographs, graph
from ccreconfig.generators import random_cotree_graph
from ccreconfig.oracle import enumerate_states

from helpers import all_graphs, has_induced_p4, naive_cotree, random_graph, threshold_graph

TWO_TRIANGLES = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
# two disjoint edges joined to everything across, plus a fifth vertex
# attached to all of them
PINNED = Graph(5, [(0, 1), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])


def test_decompose_shapes():
    assert decompose_cograph(path_graph(4)) is None
    root = decompose_cograph(path_graph(3))
    assert root.kind == "join"
    assert root.vertices == (0, 1, 2)
    kinds = {child.vertices: child.kind for child in root.children}
    assert kinds == {(0, 2): "union", (1,): "leaf"}
    k4 = decompose_cograph(complete_graph(4))
    assert k4.kind == "join"
    assert all(c.kind == "leaf" for c in k4.children)


def test_is_cograph_examples():
    assert is_cograph(complete_graph(5))
    assert is_cograph(cycle_graph(4))
    assert is_cograph(Graph(3, []))
    assert not is_cograph(path_graph(4))
    assert not is_cograph(cycle_graph(5))
    assert not is_cograph(path_graph(6))


def test_is_cograph_matches_induced_path_search():
    for g in all_graphs(4):
        assert is_cograph(g) == (not has_induced_p4(g))
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng, rng.randint(5, 7), rng.choice([0.2, 0.5, 0.8]))
        assert is_cograph(g) == (not has_induced_p4(g))


def assert_same_cotree(got, want):
    """Walk both trees side by side without recursion: the same kind,
    vertices and child order at every node."""
    assert (got is None) == (want is None)
    pairs = [(got, want)] if got is not None else []
    for x, y in pairs:
        assert (x.kind, x.vertices, len(x.children)) == (y.kind, y.vertices, len(y.children))
        pairs.extend(zip(x.children, y.children))


def test_cotree_matches_naive_build():
    rng = random.Random(5)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [
        random_graph(rng, rng.randint(6, 9), rng.choice([0.2, 0.5, 0.8]))
        for _ in range(300)
    ]
    for g in graphs:
        got = decompose_cograph(g)
        assert (got is None) == has_induced_p4(g)
        assert_same_cotree(got, naive_cotree(g))
    for _ in range(200):
        n = rng.randint(1, 60)
        g = random_cotree_graph(rng, n, connected=rng.random() < 0.5)
        relabel = rng.sample(range(n), n)
        h = Graph(n, [(relabel[u], relabel[v]) for u, v in g.edges])
        got = decompose_cograph(h)
        assert got is not None
        assert_same_cotree(got, naive_cotree(h))


def test_one_component_cs_distances():
    assert solve_cograph_cs(complete_graph(4), [0, 1], [2, 3]).distance == 1
    assert solve_cograph_cs(complete_graph(4), [0, 1], [0, 1]).distance == 0
    assert solve_cograph_cs(PINNED, [0, 1], [2, 3]).distance == 2


def test_cs_middle_state_is_the_cs1_first_step():
    # {0, 1} and {2, 3} do not touch: both rules first swap 0 for 4
    res = solve_cograph_cs(PINNED, [0, 1], [2, 3])
    assert res.states == ((0, 1), (1, 4), (2, 3))
    assert solve_cograph_cs(PINNED, [0, 1], [2, 3], variant=Rule.CS1).states[1] == (1, 4)


@pytest.mark.parametrize("variant", [Rule.CS, Rule.CS1])
def test_components_are_found_once_per_solve(monkeypatch, variant):
    calls = []
    find = graph.connected_components

    def counted(g, vertices):
        calls.append(vertices)
        return find(g, vertices)

    monkeypatch.setattr(graph, "connected_components", counted)
    monkeypatch.setattr(cographs, "connected_components", counted, raising=False)
    g = threshold_graph(40)  # one cotree level per vertex
    # independent singletons that differ at the bottom of the cotree
    res = solve_cograph_cs(g, [0, 2, 20, 38], [1, 2, 20, 38], variant=variant)
    assert len(calls) == 2
    assert res.reachable and verify_sequence(g, res.states, rule=variant)


def _connected_set(rng, g, size):
    """A random connected set of the given size, grown from a random vertex."""
    got = [rng.randrange(g.n)]
    while len(got) < size:
        near = sorted(set().union(*(g.adj[v] for v in got)).difference(got))
        got.append(rng.choice(near))
    return sorted(got)


@pytest.mark.parametrize("host", ["threshold", "cotree"])
def test_cs1_exchanges_search_nothing(monkeypatch, host):
    if host == "threshold":
        g = threshold_graph(1600)  # one cotree level per vertex
    else:
        g = random_cotree_graph(random.Random(20250512), 1000)
    rng = random.Random(8)
    searches = []
    search = graph._component

    def counted(g, inside, s, seen):
        searches.append(s)
        return search(g, inside, s, seen)

    monkeypatch.setattr(graph, "_component", counted)
    monkeypatch.setattr(cographs, "_component", counted, raising=False)
    for size in (2, 5, 12, 30, 30, 60):
        a, b = _connected_set(rng, g, size), _connected_set(rng, g, size)
        searches.clear()
        res = solve_cograph_cs(g, a, b, variant=Rule.CS1)
        # one search for A's component and one for B's, none per exchange
        assert len(searches) == 2
        assert res.states[0] == tuple(a) and res.states[-1] == tuple(b)
        assert res.distance - len(set(a) - set(b)) in (0, 1)
    monkeypatch.undo()
    assert verify_sequence(g, res.states, rule=Rule.CS1)


def test_one_component_cs1_distances():
    assert solve_cograph_cs(complete_graph(4), [0, 1], [2, 3], variant=Rule.CS1).distance == 2
    assert solve_cograph_cs(PINNED, [0, 1], [2, 3], variant=Rule.CS1).distance == 3
    assert solve_cograph_cs(PINNED, [0, 1], [1, 4], variant=Rule.CS1).distance == 1
    assert solve_cograph_cs(PINNED, [2, 3], [2, 3], variant=Rule.CS1).distance == 0


def test_solver_rejects_non_cograph():
    with pytest.raises(NotACographError):
        solve_cograph_cs(path_graph(4), [0], [3])
    with pytest.raises(InvalidInstanceError):
        solve_cograph_cs(complete_graph(3), [0], [1], variant=Rule.TJ)


def test_solver_same_triangle():
    res = solve_cograph_cs(TWO_TRIANGLES, [0, 1], [1, 2])
    assert res.reachable
    assert res.distance == 1
    assert verify_sequence(TWO_TRIANGLES, res.states, rule=Rule.CS)


def test_solver_parts_cannot_trade():
    res = solve_cograph_cs(TWO_TRIANGLES, [0, 1], [3, 4])
    assert not res.reachable
    assert res.reason == "multiset-mismatch"


def test_solver_co_component_confinement():
    g = Graph(
        8,
        [(0, 1), (2, 3), (4, 5), (6, 7)]
        + [(u, w) for u in (0, 1, 2, 3) for w in (4, 5, 6, 7)],
    )
    res = solve_cograph_cs(g, [0, 2], [4, 6])
    assert not res.reachable
    assert res.reason == "co-component-mismatch"
    res = solve_cograph_cs(g, [0, 2], [1, 3])
    assert res.reachable
    assert verify_sequence(g, res.states, rule=Rule.CS)


def test_solver_trivial():
    res = solve_cograph_cs(TWO_TRIANGLES, [0, 4], [0, 4], variant=Rule.CS1)
    assert res.reachable
    assert res.states == ((0, 4),)
    assert res.distance == 0


def _cograph_pool(seed, count):
    pool = [g for g in all_graphs(4) if is_cograph(g)]
    rng = random.Random(seed)
    while len(pool) < count:
        g = random_graph(rng, rng.randint(5, 7), rng.choice([0.3, 0.5, 0.7]))
        if is_cograph(g):
            pool.append(g)
    return pool


@pytest.mark.parametrize("variant", [Rule.CS, Rule.CS1])
def test_solver_matches_oracle(variant):
    for g in _cograph_pool(11, 50):
        by_multiset = {}
        for size in range(g.n + 1):
            for sub in itertools.combinations(range(g.n), size):
                by_multiset.setdefault(cc_multiset(g, sub), []).append(sub)
        for multiset, subs in by_multiset.items():
            if len(subs) < 2:
                continue
            space = enumerate_states(g, multiset)
            labels = reachability_partition(space, variant)
            for a, b in itertools.islice(itertools.combinations(subs, 2), 50):
                ia = space.index[sum(1 << v for v in a)]
                ib = space.index[sum(1 << v for v in b)]
                res = solve_cograph_cs(g, a, b, variant=variant)
                assert res.reachable == (labels[ia] == labels[ib]), (g.edges, a, b)
                if res.reachable:
                    assert res.states[0] == a and res.states[-1] == b
                    assert verify_sequence(g, res.states, multiset, rule=variant)
                    if variant is Rule.CS1:
                        assert res.distance == bfs_distances(space, ia, variant)[ib]


def test_one_component_distance_is_exact():
    for g in _cograph_pool(13, 30):
        if g.n < 2 or len(cc_multiset(g, range(g.n))) != 1:
            continue
        for s in (1, 2, 3):
            sets = [
                sub
                for sub in itertools.combinations(range(g.n), s)
                if len(cc_multiset(g, sub)) == 1
            ]
            if len(sets) < 2:
                continue
            space = enumerate_states(g, (s,))
            for x in sets[:12]:
                ix = space.index[sum(1 << v for v in x)]
                d_cs = bfs_distances(space, ix, Rule.CS)
                d_cs1 = bfs_distances(space, ix, Rule.CS1)
                for y in sets[:12]:
                    if x >= y:
                        continue
                    iy = space.index[sum(1 << v for v in y)]
                    assert solve_cograph_cs(g, x, y).distance == d_cs[iy]
                    assert solve_cograph_cs(g, x, y, variant=Rule.CS1).distance == d_cs1[iy]
                    assert d_cs[iy] in (1, 2)


def test_solver_deterministic():
    res1 = solve_cograph_cs(PINNED, [0, 1], [2, 3], variant=Rule.CS1)
    res2 = solve_cograph_cs(PINNED, [0, 1], [2, 3], variant=Rule.CS1)
    assert res1.states == res2.states
