import itertools
import random

import pytest

from ccreconfig import (
    Graph,
    InternalContradictionError,
    Rule,
    UnequalSizesError,
    bfs_distances,
    build_conflict_graph,
    cycle_graph,
    is_chordal,
    path_graph,
    solve_equal_size_cj,
    verify_sequence,
)
from ccreconfig.oracle import enumerate_states

from helpers import random_graph


def test_conflict_graph_on_path():
    cg = build_conflict_graph(path_graph(7), [0, 1, 3, 4], [2, 3, 5, 6])
    assert cg.a_only == ((0, 1), (3, 4))
    assert cg.b_only == ((2, 3), (5, 6))
    assert cg.common == ()
    assert cg.edges == ((0, 0), (1, 0), (1, 1))
    assert cg.is_forest()


def test_conflict_graph_common_components():
    cg = build_conflict_graph(path_graph(7), [0, 1, 4], [0, 1, 6])
    assert cg.common == ((0, 1),)
    assert cg.a_only == ((4,),)
    assert cg.b_only == ((6,),)
    assert cg.edges == ()


def test_conflict_cycle_reported_unknown():
    res = solve_equal_size_cj(cycle_graph(4), [0, 2], [1, 3])
    assert res.answer == "unknown"
    assert res.reason == "conflict-cycle"
    assert not res.conflicts.is_forest()


def test_unequal_sizes_rejected():
    with pytest.raises(UnequalSizesError):
        solve_equal_size_cj(path_graph(5), [0, 1, 3], [0, 1, 3])
    with pytest.raises(UnequalSizesError):
        solve_equal_size_cj(path_graph(5), [0, 1], [0, 2])


def test_component_count_mismatch():
    res = solve_equal_size_cj(path_graph(7), [0, 1], [0, 1, 3, 4])
    assert res.answer == "no"
    assert res.reason == "multiset-mismatch"


def test_path_schedule_exact():
    res = solve_equal_size_cj(path_graph(7), [0, 1, 3, 4], [2, 3, 5, 6])
    assert res.answer == "yes"
    assert res.jumps == (((3, 4), (5, 6)), ((0, 1), (2, 3)))
    assert res.states == ((0, 1, 3, 4), (0, 1, 5, 6), (2, 3, 5, 6))
    assert verify_sequence(path_graph(7), res.states, rule=Rule.CJ)


def test_schedule_length_is_conflict_count():
    g = path_graph(9)
    res = solve_equal_size_cj(g, [0, 3, 6], [2, 4, 8])
    assert res.answer == "yes"
    assert len(res.jumps) == len(res.conflicts.a_only)
    assert verify_sequence(g, res.states, rule=Rule.CJ)


def test_forest_conflicts_on_non_chordal_host():
    res = solve_equal_size_cj(cycle_graph(5), [0, 2], [0, 3])
    assert res.answer == "yes"
    assert res.jumps == (((2,), (3,)),)
    assert verify_sequence(cycle_graph(5), res.states, rule=Rule.CJ)


def test_trivial_instances():
    res = solve_equal_size_cj(path_graph(4), [], [])
    assert res.answer == "yes" and res.jumps == ()
    res = solve_equal_size_cj(path_graph(4), [0, 1], [0, 1])
    assert res.answer == "yes" and res.jumps == ()
    assert res.states == ((0, 1),)
    res = solve_equal_size_cj(path_graph(4), [0, 1], [2, 3], want_states=False)
    assert res.answer == "yes" and res.states is None


def _chordal_pool(seed, count):
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        g = random_graph(rng, rng.randint(4, 8), rng.choice([0.25, 0.4, 0.6]))
        if is_chordal(g):
            pool.append(g)
    return pool


def test_chordal_always_yes_and_optimal():
    for g in _chordal_pool(5, 40):
        for s in (1, 2, 3):
            for k in (1, 2):
                if s * k > g.n:
                    continue
                space = enumerate_states(g, (s,) * k)
                picks = space.states[:: max(1, len(space) // 6)][:6]
                for ma in picks:
                    ia = space.index[ma]
                    dist = bfs_distances(space, ia, Rule.CJ)
                    for mb in picks:
                        ib = space.index[mb]
                        res = solve_equal_size_cj(
                            g, space.state_vertices(ia), space.state_vertices(ib)
                        )
                        assert res.answer == "yes"
                        assert dist[ib] is not None, (g.edges, ma, mb)
                        assert len(res.jumps) == dist[ib]
                        assert len(res.jumps) == len(res.conflicts.a_only)
                        assert verify_sequence(g, res.states, rule=Rule.CJ)


def test_forest_decision_matches_oracle_on_general_graphs():
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 7), rng.choice([0.3, 0.5]))
        s = rng.choice([1, 2])
        k = rng.choice([1, 2])
        if s * k > g.n:
            continue
        space = enumerate_states(g, (s,) * k)
        if len(space) < 2:
            continue
        ia, ib = rng.sample(range(len(space)), 2)
        res = solve_equal_size_cj(
            g, space.state_vertices(ia), space.state_vertices(ib)
        )
        if res.answer == "yes":
            dist = bfs_distances(space, ia, Rule.CJ)
            assert dist[ib] == len(res.jumps)
            assert verify_sequence(g, res.states, rule=Rule.CJ)
        else:
            assert res.answer == "unknown"
