import random

import pytest

from ccreconfig import generators
from ccreconfig import (
    InvalidInstanceError,
    cc_multiset,
    complete_graph,
    connected_components,
    is_chordal,
    is_cograph,
    is_path_graph,
    path_graph,
)
from ccreconfig.generators import (
    gen_chordal_instance,
    gen_cograph_instance,
    gen_path_instance,
    random_chordal_graph,
    random_cotree_graph,
    sample_spread_components,
)


def test_path_instances_share_multiset():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 12)
        g, a, b = gen_path_instance(rng, n)
        assert is_path_graph(g) and g.n == n
        assert cc_multiset(g, a) == cc_multiset(g, b)
        assert len(a) >= 1


def test_path_instance_part_count():
    rng = random.Random(4)
    for _ in range(50):
        g, a, b = gen_path_instance(rng, 11, parts=3)
        assert len(connected_components(g, a)) == 3
        assert len(connected_components(g, b)) == 3
    with pytest.raises(InvalidInstanceError):
        gen_path_instance(rng, 4, parts=3)


def test_cotree_graphs_are_cographs():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = random_cotree_graph(rng, n)
        assert is_cograph(g)
        assert len(connected_components(g, range(n))) == 1


def test_cograph_instances():
    rng = random.Random(6)
    for _ in range(150):
        g, a, b = gen_cograph_instance(rng, rng.randint(2, 8))
        assert is_cograph(g)
        assert cc_multiset(g, a) == cc_multiset(g, b)


def test_chordal_graphs():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 30)
        g = random_chordal_graph(rng, n)
        assert is_chordal(g)
        assert len(connected_components(g, range(n))) == 1


def test_spread_components():
    rng = random.Random(8)
    picked = sample_spread_components(rng, path_graph(12), 2, 3)
    assert cc_multiset(path_graph(12), picked) == (2, 2, 2)
    with pytest.raises(InvalidInstanceError):
        sample_spread_components(rng, complete_graph(4), 1, 2, tries=30)


def test_chordal_instances_equal_sizes():
    rng = random.Random(9)
    for _ in range(100):
        g, a, b = gen_chordal_instance(rng, rng.randint(6, 14))
        ma, mb = cc_multiset(g, a), cc_multiset(g, b)
        assert ma == mb
        assert len(set(ma)) == 1


def test_generators_deterministic():
    one = gen_chordal_instance(random.Random(42), 12)
    two = gen_chordal_instance(random.Random(42), 12)
    assert one[0].edges == two[0].edges and one[1:] == two[1:]
    pa = gen_path_instance(random.Random(42), 9)
    pb = gen_path_instance(random.Random(42), 9)
    assert pa[1:] == pb[1:]


def test_cotree_graph_edge_limit_is_exact(monkeypatch):
    """The limit counts a join's edges before building them, so a graph
    with exactly MAX_EDGES edges is built, unchanged, and one more raises."""
    g = random_cotree_graph(random.Random(5), 30)
    monkeypatch.setattr(generators, "MAX_EDGES", g.m)
    assert random_cotree_graph(random.Random(5), 30).edges == g.edges
    monkeypatch.setattr(generators, "MAX_EDGES", g.m - 1)
    with pytest.raises(InvalidInstanceError, match=f"over {g.m - 1} edges"):
        random_cotree_graph(random.Random(5), 30)


def _chordal_edges_by_library_calls(rng, n):
    """random_chordal_graph's edge list as written with the random module's
    own calls, the reference for its spelled-out draws."""
    edges = []
    cliques = [(0,)]
    for v in range(1, n):
        base = cliques[rng.randrange(len(cliques))]
        take = rng.randint(1, min(len(base), 3))
        anchors = rng.sample(base, take)
        edges.extend((u, v) for u in anchors)
        cliques.append(tuple(sorted(anchors)) + (v,))
    return edges


def test_chordal_draws_match_the_library_calls(monkeypatch):
    """The same edges in the same order, and the generator left in the
    same state, as randrange, randint and sample would give."""
    built = []
    monkeypatch.setattr(generators, "Graph", lambda n, edges: built.append(list(edges)))
    for seed in range(12):
        for n in (1, 2, 3, 4, 7, 60, 2000):
            want_rng, got_rng = random.Random(seed), random.Random(seed)
            want = _chordal_edges_by_library_calls(want_rng, n)
            random_chordal_graph(got_rng, n)
            assert built.pop() == want, (seed, n)
            assert got_rng.getstate() == want_rng.getstate(), (seed, n)
