from __future__ import annotations

import enum
import json
import random
import re
import time
import tracemalloc

import pytest

import ccreconfig as cc
import helpers
from ccreconfig.errors import InvalidInstanceError
from ccreconfig.graph import (
    MAX_VERTICES,
    Graph,
    SizeMultiset,
    _clean_subset,
    _EDIT_IN_PLACE_MAX,
    _replay_jumps,
    _touch,
    cc_multiset,
    co_components,
    complete_graph,
    connected_components,
    cycle_graph,
    empty_graph,
    is_chordal,
    parse_graph,
    path_graph,
)
from ccreconfig.oracle import enumerate_states, mask_of, vertices_of


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert 0 in g.adj[1] and 2 in g.adj[1]
    assert 3 not in g.adj[0]
    assert len(g.adj[1]) == 2


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


@pytest.mark.parametrize(
    "edges, words",
    [
        ([(0, True)], r"edge \(0, True\): vertex ids must be ints"),
        ([(0, 1.0)], r"edge \(0, 1.0\): vertex ids must be ints"),
        ([("0", 1)], r"edge \('0', 1\): vertex ids must be ints"),
        ([(0, None)], r"edge \(0, None\): vertex ids must be ints"),
        ([(0, 1), (0, 1, 2)], r"edge \(0, 1, 2\) is not a pair of vertices"),
        ([(0, 1), 2], r"edge 2 is not a pair of vertices"),
        (5, r"edge list 5 cannot be iterated"),
        (None, r"edge list None cannot be iterated"),
    ],
    ids=["bool", "float", "str", "none", "triple", "not-a-pair", "int-list", "none-list"],
)
def test_graph_names_an_edge_of_the_wrong_kind(edges, words):
    with pytest.raises(InvalidInstanceError, match=words):
        Graph(3, edges)


def test_graph_takes_any_pair_of_int_ids():
    class Id(enum.IntEnum):
        A = 0
        B = 2

    assert Graph(3, [[0, 1], iter((1, 2))]).edges == ((0, 1), (1, 2))
    assert 2 in Graph(3, [(Id.A, Id.B)]).adj[0]


class OneShot(tuple):
    """An edge given as a one-shot iterator over these values."""


Id = enum.IntEnum("Id", [(f"V{i}", i) for i in range(41)])


def _edge_lists(rng):
    """Seeded edge lists, as (n, items); a OneShot item stands for an
    iterator made afresh for each build."""
    def path(n):
        order = rng.sample(range(n), n)
        pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in zip(order, order[1:])]
        rng.shuffle(pairs)
        return [list(e) if rng.random() < 0.5 else e for e in pairs]

    for n in range(41):
        for _ in range(12):
            yield n, path(n)
    for _ in range(200):
        n = rng.randint(2, 40)
        yield n, [(Id(u), Id(v)) if rng.random() < 0.7 else (u, Id(v)) for u, v in path(n)]
    for _ in range(150):
        n = rng.randint(2, 40)
        ids = rng.sample(range(n), n)
        yield n, [(ids[rng.randrange(v)], ids[v]) for v in range(1, n)]  # a random tree
        hub = rng.randrange(n)
        yield n, [(hub, v) if rng.random() < 0.5 else (v, hub) for v in range(n) if v != hub]
        if n >= 4:
            ids = rng.sample(range(n), n)
            edges = [(ids[i], ids[i + 1]) for i in range(n - 4)]
            edges += [(ids[-3], ids[-2]), (ids[-2], ids[-1]), (ids[-1], ids[-3])]
            rng.shuffle(edges)
            yield n, edges  # a path beside a triangle
            # a cycle and a lone vertex
            yield n, [(ids[i], ids[(i + 1) % (n - 1)]) for i in range(n - 1)]
        if n >= 3:
            edges = path(n - 1)
            u, v = rng.choice(edges)
            edges.insert(rng.randrange(len(edges) + 1), (u, v) if rng.random() < 0.5 else (v, u))
            yield n, edges  # a path with one edge twice, and a lone vertex
            yield n, path(n)[1:]  # two paths
    bad = [lambda n: (1, 1), lambda n: (0, n), lambda n: (-1, 0), lambda n: (0, True),
           lambda n: (0, 1.0), lambda n: ("0", 1), lambda n: (0, None), lambda n: None,
           lambda n: (0, 1, 2), lambda n: 2, lambda n: OneShot((0, 1, 2)),
           lambda n: OneShot((0,)), lambda n: OneShot((n - 1, n - 1))]
    for _ in range(35):
        n = rng.randint(3, 40)
        for make in bad:
            for at in (0, (n - 1) // 2, n - 2):
                edges = path(n)
                edges[at] = make(n)  # n - 1 edges, one malformed
                yield n, edges
                edges = path(n)
                edges.insert(at, make(n))
                yield n, edges
    for _ in range(100):
        n = rng.randint(2, 40)
        edges = path(n)
        for at in rng.sample(range(n - 1), rng.randint(1, n - 1)):
            edges[at] = OneShot(edges[at])
        yield n, edges


def _made(items, kind):
    edges = [iter(e) if isinstance(e, OneShot) else e for e in items]
    return {"list": edges, "tuple": tuple(edges), "iterator": iter(edges)}[kind]


def _outcome(build, n, items, kind):
    try:
        return build(n, _made(items, kind))
    except InvalidInstanceError as exc:
        return re.sub(r" at 0x[0-9a-f]+", "", str(exc))


def test_construction_matches_the_set_build_on_a_seeded_corpus():
    """Graph against helpers.reference_graph, the one-pass set build it
    used for every graph, on shuffled paths, paths with IntEnum ids, n - 1
    edges that are no path, and malformed edges first, in the middle and
    last: the same error, or the same edges, path order and sets."""
    rng = random.Random(2028)
    cases = list(_edge_lists(rng))
    assert len(cases) >= 2000
    seen = set()
    for n, items in cases:
        kind = rng.choice(["list", "list", "tuple", "iterator"])
        ref = _outcome(helpers.reference_graph, n, items, kind)
        g = _outcome(Graph, n, items, kind)
        if isinstance(ref, str):
            assert g == ref, (n, items)
            seen.add("error")
            continue
        try:
            path = cc.path_order(g)
        except cc.WrongGraphClassError as exc:
            path = str(exc)
        assert (g.n, g.m, g.edges, path) == (n, ref.m, ref.edges, ref.path), (n, items)
        assert g.path_layout == (None if isinstance(path, str) else path)
        assert g.adj == ref.adj
        seen.add("path" if g.path_layout is not None else re.sub(r"\d+", "#", path))
    assert len(seen) == 6, seen  # an error, a path and each of the four reasons


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


def test_mixed_type_subsets_are_invalid_at_every_entry_point():
    """A subset that mixes ints with other types cannot be sorted; every
    public call that takes a subset words that as invalid input, also for
    a generator, which is read once."""
    p4, k4 = path_graph(4), complete_graph(4)
    calls = [
        lambda s: cc.connected_components(p4, s),
        lambda s: cc.cc_multiset(p4, s),
        lambda s: cc.co_components(p4, s),
        lambda s: cc.adjacent(p4, s, [1, 2], cc.Rule.CJ),
        lambda s: cc.adjacent(p4, [1, 2], s, cc.Rule.CJ),
        lambda s: cc.verify_sequence(p4, [[1, 2], s]),
        lambda s: cc.oracle_solve(p4, s, [1, 2], cc.Rule.TJ),
        lambda s: cc.oracle_solve(p4, [1, 2], s, cc.Rule.TJ),
        lambda s: cc.solve_path_cs(p4, s, [1, 2]),
        lambda s: cc.solve_path_cj(p4, [1, 2], s),
        lambda s: cc.expand_moves(p4, s, [], cc.Rule.CS),
        lambda s: cc.solve_cograph_cs(k4, s, [1, 2]),
        lambda s: cc.solve_cograph_cs(k4, [1, 2], s, variant=cc.Rule.CS1),
        lambda s: cc.solve_equal_size_cj(p4, s, [1, 2]),
        lambda s: cc.build_conflict_graph(p4, [1, 2], s),
    ]
    for call in calls:
        for bad in ([1, "x"], ["a", 0], [1, None]):
            for given in (bad, (v for v in bad)):
                with pytest.raises(InvalidInstanceError, match="vertex ids must be ints"):
                    call(given)
    assert cc.connected_components(p4, (v for v in (3, 0, 1))) == [(0, 1), (3,)]


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
        assert tuple(_replay_jumps(start, jumps)) == tuple(want)


@pytest.mark.parametrize("changed", [0, _EDIT_IN_PLACE_MAX, _EDIT_IN_PLACE_MAX + 1, 400])
def test_replay_jumps_edits_in_place_and_merges_like_set_updates(changed):
    """Both ways of editing the state (in place up to _EDIT_IN_PLACE_MAX
    changed vertices, a merge beyond) give the plain set updates, with
    absent sources, repeated vertices and targets that overlap the state."""
    rng = random.Random(changed)
    n = 3000
    state = set(rng.sample(range(n), rng.randint(1000, 2000)))
    start = tuple(sorted(state))
    jumps, want = [], [start]
    for _ in range(20):
        gone = rng.sample(sorted(state), rng.choice([changed // 2, changed - changed // 2]))
        new = rng.sample(sorted(set(range(n)) - state), changed - len(gone))
        # padding that changes nothing: absent sources, repeats, kept targets
        src = gone + gone[:2] + new[:3] + rng.sample(sorted(set(range(n)) - state), 3)
        kept = rng.sample(sorted(state - set(gone)), 3)
        dst = new + new[:2] + kept
        jumps.append((src + kept, dst))
        state.difference_update(src + kept)
        state.update(dst)
        want.append(tuple(sorted(state)))
    assert tuple(_replay_jumps(start, jumps)) == tuple(want)


def test_size_multiset():
    assert SizeMultiset([2, 1, 2]) == (1, 2, 2)
    assert SizeMultiset([3]).total == 3
    assert SizeMultiset() == ()
    with pytest.raises(InvalidInstanceError):
        SizeMultiset([0])


def test_size_multiset_takes_ints_only():
    for bad in ([2.9], ["3"], [True], [2, 1.0], [1, None]):
        with pytest.raises(InvalidInstanceError, match="component sizes must be ints"):
            SizeMultiset(bad)
    with pytest.raises(InvalidInstanceError, match="component sizes must be ints"):
        cc.enumerate_states(path_graph(5), [1.7])

    class Size(enum.IntEnum):
        TWO = 2

    assert SizeMultiset(s for s in (Size.TWO, 1)) == (1, 2)


def test_vertex_count_is_checked_before_allocating():
    for bad in (True, 2.0, "3", None):
        with pytest.raises(InvalidInstanceError, match="vertex count must be an int"):
            Graph(bad)
    start = time.perf_counter()
    with pytest.raises(InvalidInstanceError, match=f"exceeds the limit of {MAX_VERTICES}"):
        Graph(MAX_VERTICES + 1)
    assert time.perf_counter() - start < 0.5


def _traced_build(n, edges):
    """The graph, and the bytes it keeps and its build peaked at."""
    tracemalloc.start()
    try:
        g = Graph(n, edges)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return g, kept, peak


def test_graph_build_keeps_the_sets_it_validates():
    """The constructor's neighbour sets are the adjacency: building a graph
    that is not a path peaks near what the graph keeps, with no second
    copy of the sets."""
    n = 20_000
    g, kept, peak = _traced_build(n, [(i, (i + 1) % n) for i in range(n)])
    assert g.m == n and g.path_layout is None
    assert peak <= 1.25 * kept, (peak, kept)


def test_path_build_keeps_only_its_order():
    """A path keeps its order and no neighbour sets: under a quarter of
    what a cycle of the same size keeps, built below the cycle's kept
    size, and the sets are never built by construction or path_order."""
    n = 20_000
    order = random.Random(5).sample(range(n), n)
    _, cycle_kept, _ = _traced_build(n, [(i, (i + 1) % n) for i in range(n)])
    g, kept, peak = _traced_build(n, [[u, v] for u, v in zip(order, order[1:])])
    assert g.m == n - 1
    assert cc.path_order(g) == tuple(order if order[0] < order[-1] else order[::-1])
    assert kept < cycle_kept / 4, (kept, cycle_kept)
    assert peak < cycle_kept, (peak, cycle_kept)
    assert "adj" not in g.__dict__


def test_parsed_path_keeps_only_its_layout_beyond_the_input():
    """A path read from json.loads edge lists keeps its layout tuple and
    nothing more, its items the input's own ints: about 8 bytes a vertex
    (40 when the walk made an int of its own per vertex).  The walk's
    bytes, XOR array and order list peak under 32 bytes a vertex (97
    with lists of neighbour XORs and fresh ints)."""
    n = 50_000
    order = random.Random(7).sample(range(n), n)
    edges = json.loads(json.dumps([[u, v] for u, v in zip(order, order[1:])]))
    g, kept, peak = _traced_build(n, edges)
    assert g.path_layout == tuple(order if order[0] < order[-1] else order[::-1])
    assert kept <= 9 * n, kept / n
    assert peak < 32 * n, peak / n


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
            assert len(connected_components(g, b)) == 1


def test_touch_is_union_connectivity_for_connected_sets():
    """Two connected sets join iff they share a vertex or an edge: every
    pair of non-empty connected subsets of every graph with n <= 5, then
    seeded pairs at n = 6-7."""
    for n in range(1, 6):
        for g in helpers.all_graphs(n):
            connected = {m for m in range(1, 1 << n)
                         if len(connected_components(g, vertices_of(m))) == 1}
            sets = [(m, set(vertices_of(m))) for m in connected]
            for mx, x in sets:
                for my, y in sets:
                    assert _touch(g, x, y) == (mx | my in connected), (g.edges, x, y)
    rng = random.Random(29)
    for _ in range(500):
        g = helpers.random_graph(rng, rng.randint(6, 7), rng.choice([0.2, 0.4]))
        pool = [m for k in (1, 2, 3) for m in enumerate_states(g, [k]).states]
        x, y = (set(vertices_of(rng.choice(pool))) for _ in range(2))
        assert _touch(g, x, y) == (len(connected_components(g, x | y)) == 1), (g.edges, x, y)


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
                        assert v in g.adj[u]


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

