from __future__ import annotations

import enum
import random

import pytest

import helpers
from ccreconfig.errors import InvalidInstanceError
from ccreconfig.graph import (
    Graph,
    SizeMultiset,
    _clean_subset,
    _replay_jumps,
    cc_multiset,
    co_components,
    complete_graph,
    connected_components,
    connected_k_subsets,
    cycle_graph,
    empty_graph,
    is_chordal,
    is_connected_set,
    mask_of,
    parse_graph,
    path_graph,
    vertices_of,
)


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.has_edge(1, 0) and g.has_edge(1, 2)
    assert not g.has_edge(0, 3)
    assert g.degree(1) == 2


def test_graph_rejects_bad_edges():
    with pytest.raises(InvalidInstanceError):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidInstanceError):
        Graph(3, [(0, 3)])
    with pytest.raises(InvalidInstanceError, match=r"duplicate edge \(0, 2\)"):
        Graph(3, [(0, 2), (2, 0)])
    with pytest.raises(InvalidInstanceError, match=r"duplicate edge \(0, 2\)"):
        Graph(3, [(2, 0), (0, 2)])
    with pytest.raises(InvalidInstanceError):
        Graph(-1)


def test_edges_and_m_match_the_normalised_input():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(0, 25)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        rng.shuffle(given)
        g = Graph(n, given)
        # what Graph stored before edges were derived from adj
        assert g.edges == tuple(sorted((min(e), max(e)) for e in given))
        assert g.m == len(given)
        same = Graph(n, pairs)
        assert g == same and hash(g) == hash(same)


def test_parse_graph_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert parse_graph("5 3\n0 1\n1 2\n3 4\n") == g
    text = "# a comment\n3 2\n0 1\n\n1 2\n"
    assert parse_graph(text) == path_graph(3)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 2\n0 1\n",
        "3 1\n0 1\n1 2\n",
        "3 1\n1 0\n",
        "3 1\n1 1\n",
        "3 1\n0 5\n",
        "3 2\n0 1\n0 1\n",
        "x y\n",
        "3 1\n0 one\n",
    ],
)
def test_parse_graph_rejects(text):
    with pytest.raises(InvalidInstanceError):
        parse_graph(text)


def test_mask_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert vertices_of(0b101001) == (0, 3, 5)
    assert vertices_of(0) == ()


def test_connected_components_on_path():
    g = path_graph(5)
    assert connected_components(g, [0, 1, 3]) == [(0, 1), (3,)]
    assert connected_components(g, []) == []
    assert connected_components(g, [4, 2, 0]) == [(0,), (2,), (4,)]
    assert cc_multiset(g, [0, 1, 3]) == SizeMultiset([2, 1])
    assert cc_multiset(g, []) == SizeMultiset()


def test_subset_validation():
    g = path_graph(3)
    with pytest.raises(InvalidInstanceError):
        connected_components(g, [0, 0])
    with pytest.raises(InvalidInstanceError):
        connected_components(g, [5])
    with pytest.raises(InvalidInstanceError):
        connected_components(g, [1.5])


def test_clean_subset_words_each_fault():
    g = path_graph(3)
    for bad, message in (
        ([0, True], "vertex ids must be ints, got True"),
        ([1.5, 0], "vertex ids must be ints, got 1.5"),
        ([2, -1], "vertex -1 out of range for n=3"),
        ([3, 0], "vertex 3 out of range for n=3"),
        ([2, 1, 1], "duplicate vertex 1 in subset"),
    ):
        with pytest.raises(InvalidInstanceError) as info:
            _clean_subset(g, bad)
        assert str(info.value) == message
    assert _clean_subset(g, [2, 0]) == (0, 2)
    assert _clean_subset(g, []) == ()

    class Vertex(enum.IntEnum):
        LEFT = 0
        RIGHT = 2

    assert _clean_subset(g, [Vertex.RIGHT, 1, Vertex.LEFT]) == (0, 1, 2)


def test_replay_jumps_matches_set_updates():
    """Jumps are plain set updates, also when a source vertex is absent,
    a vertex repeats, or a target overlaps the state."""
    rng = random.Random(20251019)
    for _ in range(300):
        n = rng.randint(1, 12)
        state = set(rng.sample(range(n), rng.randint(0, n)))
        start = tuple(sorted(state))
        jumps, want = [], [start]
        for _ in range(rng.randint(0, 6)):
            src = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
            dst = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
            jumps.append((src, dst))
            state.difference_update(src)
            state.update(dst)
            want.append(tuple(sorted(state)))
        assert _replay_jumps(start, jumps) == tuple(want)


def test_size_multiset():
    assert SizeMultiset([2, 1, 2]) == (1, 2, 2)
    assert SizeMultiset([3]).total == 3
    assert SizeMultiset() == ()
    with pytest.raises(InvalidInstanceError):
        SizeMultiset([0])


def test_components_match_union_find_exhaustively():
    for n in range(0, 5):
        for g in helpers.all_graphs(n):
            for mask in range(1 << n):
                vs = vertices_of(mask)
                got = connected_components(g, vs)
                assert got == helpers.components_bf(g, vs)
                assert cc_multiset(g, vs) == tuple(sorted(len(c) for c in got))


def test_components_partition_subset():
    rng = random.Random(11)
    for _ in range(300):
        g = helpers.random_graph(rng, rng.randint(1, 9))
        vs = [v for v in range(g.n) if rng.random() < 0.5]
        blocks = connected_components(g, vs)
        flat = sorted(v for b in blocks for v in b)
        assert flat == sorted(vs)
        mins = [b[0] for b in blocks]
        assert mins == sorted(mins)
        for b in blocks:
            assert is_connected_set(g, b)


def test_co_components_examples():
    assert co_components(complete_graph(3)) == [(0,), (1,), (2,)]
    assert co_components(empty_graph(3)) == [(0, 1, 2)]
    assert co_components(path_graph(3)) == [(0, 2), (1,)]
    g = path_graph(5)
    assert co_components(g, [0, 1, 2]) == [(0, 2), (1,)]


def test_co_components_match_complement_components():
    for n in range(0, 5):
        for g in helpers.all_graphs(n):
            comp = helpers.complement_graph(g)
            assert co_components(g) == connected_components(comp, range(n))
    rng = random.Random(13)
    for _ in range(200):
        g = helpers.random_graph(rng, rng.randint(1, 9))
        comp = helpers.complement_graph(g)
        assert co_components(g) == connected_components(comp, range(g.n))


def test_co_components_cross_pairs_adjacent():
    rng = random.Random(17)
    for _ in range(150):
        g = helpers.random_graph(rng, rng.randint(1, 8))
        blocks = co_components(g)
        flat = sorted(v for b in blocks for v in b)
        assert flat == list(range(g.n))
        for i, bi in enumerate(blocks):
            for bj in blocks[i + 1 :]:
                for u in bi:
                    for v in bj:
                        assert g.has_edge(u, v)


def test_is_chordal_examples():
    assert is_chordal(path_graph(6))
    assert is_chordal(complete_graph(5))
    assert is_chordal(empty_graph(4))
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(5))
    assert is_chordal(cycle_graph(3))
    chorded = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert is_chordal(chorded)


def test_is_chordal_matches_hole_search():
    for n in range(0, 5):
        for g in helpers.all_graphs(n):
            assert is_chordal(g) == (not helpers.has_induced_long_cycle(g))
    rng = random.Random(23)
    for n in (6, 7):
        for _ in range(500):
            g = helpers.random_graph(rng, n, rng.uniform(0.2, 0.8))
            assert is_chordal(g) == (not helpers.has_induced_long_cycle(g))


def test_connected_k_subsets_match_filtered_combinations():
    rng = random.Random(29)
    for _ in range(120):
        g = helpers.random_graph(rng, rng.randint(1, 8))
        for k in range(1, g.n + 1):
            got = connected_k_subsets(g, k)
            assert len(got) == len(set(got))
            as_sets = {frozenset(vertices_of(m)) for m in got}
            assert as_sets == helpers.connected_k_subsets_bf(g, k)
            keys = [vertices_of(m) for m in got]
            assert keys == sorted(keys)


def test_connected_k_subsets_within_mask():
    g = path_graph(6)
    assert connected_k_subsets(g, 0) == []
    assert connected_k_subsets(g, 7) == []
