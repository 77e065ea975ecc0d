from __future__ import annotations

import random
from collections import defaultdict
from itertools import combinations

import pytest

import helpers
from ccreconfig import oracle
from ccreconfig.errors import StateSpaceTooLargeError
from ccreconfig.graph import (
    SizeMultiset,
    cc_multiset,
    complete_graph,
    empty_graph,
    path_graph,
)
from ccreconfig.oracle import (
    ReconfigGraph,
    bfs_distances,
    build_reconfig_graph,
    connected_k_subsets,
    enumerate_states,
    export_dot,
    neighbors,
    oracle_solve,
    reachability_partition,
    vertices_of,
)
from ccreconfig.rules import Rule, adjacent, verify_sequence

ALL_RULES = list(Rule)


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


def test_enumerate_states_small_examples():
    space = enumerate_states(path_graph(4), [1, 1])
    assert [space.state_vertices(i) for i in range(len(space))] == [
        (0, 2),
        (0, 3),
        (1, 3),
    ]
    assert space.multiset == (1, 1)
    assert len(enumerate_states(complete_graph(3), [1])) == 3
    assert len(enumerate_states(path_graph(3), [5])) == 0
    empty = enumerate_states(path_graph(3), [])
    assert len(empty) == 1 and empty.state_vertices(0) == ()


def test_enumerate_states_matches_filter_over_all_subsets():
    rng = random.Random(51)
    graphs = [path_graph(6), complete_graph(4), empty_graph(4)]
    graphs += [helpers.random_graph(rng, rng.randint(1, 7)) for _ in range(40)]
    for g in graphs:
        by_multiset = defaultdict(set)
        for mask in range(1 << g.n):
            m = cc_multiset(g, vertices_of(mask))
            by_multiset[m].add(mask)
        seen_multisets = set(by_multiset)
        for m in seen_multisets:
            space = enumerate_states(g, m)
            assert set(space.states) == by_multiset[m]
            keys = [vertices_of(mask) for mask in space.states]
            assert keys == sorted(keys)
        # a multiset nothing realizes
        assert len(enumerate_states(g, [g.n + 1])) == 0


def test_enumerate_states_respects_cap():
    with pytest.raises(StateSpaceTooLargeError):
        enumerate_states(empty_graph(10), [1, 1], state_cap=10)


@pytest.mark.parametrize(
    "g, multiset",
    [
        (path_graph(7), [3]),  # one component: the pool is the state list
        (path_graph(9), [3, 2, 1]),  # one component per size
        (empty_graph(7), [1, 1, 1]),  # each last placement emits several states
    ],
    ids=["one-component", "multi-size", "bulk-last-level"],
)
def test_state_cap_is_exact(g, multiset):
    size = len(enumerate_states(g, multiset))
    assert size > 2
    assert len(enumerate_states(g, multiset, state_cap=size)) == size
    for cap in range(size):
        with pytest.raises(StateSpaceTooLargeError):
            enumerate_states(g, multiset, state_cap=cap)


@pytest.mark.parametrize(
    "g, multiset, cap",
    [
        (path_graph(37), [1] * 18, 1000),  # 190 states behind 524 097 placement frames
        (complete_graph(24), [8], 100),  # one component from a pool of 735 471 subsets
        (complete_graph(28), [9], 100),
    ],
)
def test_state_cap_bounds_the_work(g, multiset, cap):
    bound = oracle.WORK_PER_STATE * (cap + 1)
    with pytest.raises(StateSpaceTooLargeError, match=f"exceeds {bound} frames, the work bound"):
        enumerate_states(g, multiset, state_cap=cap)


def test_graph_keeps_one_state_space(monkeypatch):
    calls = []
    enumerate_plain = enumerate_states

    def counted(g, multiset, **kwargs):
        calls.append(tuple(multiset))
        return enumerate_plain(g, multiset, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_states", counted)
    g = path_graph(7)
    res = oracle_solve(g, [0, 2], [4, 6], Rule.TJ)
    size = res.space_size
    assert res.reachable and size == 15 and calls == [(1, 1)]
    # the kept space answers again, within a cap it fits, and not past one
    assert oracle_solve(g, [0, 2], [3, 6], Rule.TS, state_cap=size).reachable
    rg = build_reconfig_graph(g, [1, 1], Rule.TJ, state_cap=size)
    assert rg.space is g._state_space and rg.space.states == enumerate_plain(g, [1, 1]).states
    with pytest.raises(StateSpaceTooLargeError):
        oracle_solve(g, [0, 2], [4, 6], Rule.TJ, state_cap=size - 1)
    assert calls == [(1, 1)]
    # another multiset replaces it
    assert oracle_solve(g, [0, 1], [4, 5], Rule.CS).reachable
    assert calls == [(1, 1), (2,)]
    assert g._state_space.multiset == (2,)
    oracle_solve(g, [0, 2], [4, 6], Rule.TJ)
    assert calls == [(1, 1), (2,), (1, 1)]


def test_pruned_walk_on_the_path_family():
    # k singletons on a path of 2k + 1 vertices: most partial placements
    # cannot be completed, and the walk cuts them
    for k in range(1, 10):
        g = path_graph(2 * k + 1)
        space = enumerate_states(g, [1] * k)
        brute = [c for c in combinations(range(g.n), k) if cc_multiset(g, c) == (1,) * k]
        assert [space.state_vertices(i) for i in range(len(space))] == brute


def test_neighbors_match_pairwise_adjacency():
    rng = random.Random(53)
    for _ in range(40):
        g = helpers.random_graph(rng, rng.randint(2, 6))
        probe = [v for v in range(g.n) if rng.random() < 0.5]
        space = enumerate_states(g, cc_multiset(g, probe))
        k = len(space)
        if k == 0 or k > 40:
            continue
        verts = [space.state_vertices(i) for i in range(k)]
        for rule in ALL_RULES:
            generated = {
                (i, j) for i in range(k) for j in neighbors(space, i, rule)
            }
            brute = {
                (i, j)
                for i in range(k)
                for j in range(k)
                if i != j and adjacent(g, verts[i], verts[j], rule)
            }
            assert generated == brute, (g.edges, space.multiset, rule)


def test_oracle_solve_token_slide_detour():
    g = path_graph(4)
    res = oracle_solve(g, [0, 2], [1, 3], Rule.TS)
    assert res.reachable and res.distance == 2
    assert res.states == ((0, 2), (0, 3), (1, 3))
    assert verify_sequence(g, res.states, [1, 1], Rule.TS).ok


def test_oracle_solve_component_slide():
    g = path_graph(6)
    res = oracle_solve(g, [0, 1, 3], [2, 3, 5], Rule.CS)
    assert res.reachable
    assert res.states[0] == (0, 1, 3) and res.states[-1] == (2, 3, 5)
    assert verify_sequence(g, res.states, [1, 2], Rule.CS).ok


def test_oracle_solve_trivial_and_mismatch():
    g = path_graph(5)
    same = oracle_solve(g, [2, 1], [1, 2], Rule.CJ)
    assert same.reachable and same.distance == 0 and same.states == ((1, 2),)
    bad = oracle_solve(g, [0, 1], [0], Rule.CJ)
    assert not bad.reachable and bad.reason == "multiset-mismatch"
    assert bad.distance is None


def test_oracle_solve_unreachable():
    g = empty_graph(2)
    jump = oracle_solve(g, [0], [1], Rule.TJ)
    assert jump.reachable and jump.distance == 1
    slide = oracle_solve(g, [0], [1], Rule.TS)
    assert not slide.reachable and slide.reason == "search-exhausted"
    assert slide.space_size == 2


def test_oracle_paths_verify_for_all_rules():
    rng = random.Random(59)
    done = 0
    while done < 30:
        g = helpers.random_connected_graph(rng, rng.randint(2, 6))
        probe = [v for v in range(g.n) if rng.random() < 0.5]
        m = cc_multiset(g, probe)
        space = enumerate_states(g, m)
        if len(space) < 2:
            continue
        a = space.state_vertices(rng.randrange(len(space)))
        b = space.state_vertices(rng.randrange(len(space)))
        rule = rng.choice(ALL_RULES)
        res = oracle_solve(g, a, b, rule)
        if res.reachable:
            assert res.states[0] == tuple(sorted(a))
            assert res.states[-1] == tuple(sorted(b))
            assert verify_sequence(g, res.states, m, rule).ok
            assert res.distance == len(res.states) - 1
        done += 1


def test_export_dot_exact():
    rg = build_reconfig_graph(path_graph(4), [1, 1], Rule.TJ)
    assert rg.edges == ((0, 1), (1, 2))
    assert export_dot(rg) == (
        "graph {\n"
        '  0 [label="{0,2}"];\n'
        '  1 [label="{0,3}"];\n'
        '  2 [label="{1,3}"];\n'
        "  0 -- 1;\n"
        "  1 -- 2;\n"
        "}\n"
    )


def test_export_dot_empty_space():
    rg = build_reconfig_graph(path_graph(3), [3, 3], Rule.TJ)
    assert export_dot(rg) == "graph {}\n"


def test_partition_and_distances_agree_with_solve():
    rng = random.Random(61)
    for _ in range(15):
        g = helpers.random_graph(rng, rng.randint(2, 6))
        probe = [v for v in range(g.n) if rng.random() < 0.4]
        space = enumerate_states(g, cc_multiset(g, probe))
        if not (1 < len(space) <= 30):
            continue
        for rule in (Rule.TJ, Rule.CS):
            labels = reachability_partition(space, rule)
            dist0 = bfs_distances(space, 0, rule)
            for j in range(len(space)):
                res = oracle_solve(
                    g, space.state_vertices(0), space.state_vertices(j), rule
                )
                assert res.reachable == (labels[j] == labels[0])
                assert res.distance == dist0[j]


def test_distances_and_classes_match_plain_bfs():
    """The oracle's one search against a BFS over adjacent_bf, from every
    state, under all five rules."""
    rng = random.Random(71)
    checked = 0
    for _ in range(200):
        g = helpers.random_graph(rng, rng.randint(2, 6))
        probe = [v for v in range(g.n) if rng.random() < 0.5]
        space = enumerate_states(g, cc_multiset(g, probe))
        k = len(space)
        if not (1 < k <= 30):
            continue
        checked += 1
        verts = [space.state_vertices(i) for i in range(k)]
        for rule in ALL_RULES:
            near = [
                [j for j in range(k) if j != i and helpers.adjacent_bf(g, verts[i], verts[j], rule)]
                for i in range(k)
            ]
            labels = reachability_partition(space, rule)
            for src in range(k):
                dist = {src: 0}
                queue = [src]
                for i in queue:
                    for j in near[i]:
                        if j not in dist:
                            dist[j] = dist[i] + 1
                            queue.append(j)
                assert bfs_distances(space, src, rule) == [dist.get(j) for j in range(k)]
                assert labels[src] == min(dist), (g.edges, space.multiset, rule)
    assert checked >= 100
