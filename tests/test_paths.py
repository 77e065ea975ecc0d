import itertools
import math
import random

import pytest

from ccreconfig import (
    CompressedMove,
    bfs_distances,
    Graph,
    InvalidInstanceError,
    Rule,
    SizeMultiset,
    WrongGraphClassError,
    buffer,
    cc_multiset,
    expand_moves,
    is_path_graph,
    oracle_solve,
    path_graph,
    path_order,
    reachability_partition,
    solve_path_cj,
    solve_path_cs,
    verify_sequence,
)
from ccreconfig.graph import connected_components
from ccreconfig.oracle import enumerate_states
from ccreconfig.paths import _runs, _sorted_positions
from ccreconfig.rules import adjacent


def test_path_order_canonical():
    assert path_order(path_graph(5)) == (0, 1, 2, 3, 4)
    assert path_order(Graph(1, [])) == (0,)
    assert path_order(Graph(0, [])) == ()


def test_path_order_relabeled():
    g = Graph(4, [(0, 2), (2, 3), (1, 3)])
    assert path_order(g) == (0, 2, 3, 1)


@pytest.mark.parametrize(
    "g",
    [
        Graph(3, [(0, 1), (1, 2), (0, 2)]),
        Graph(4, [(0, 1), (0, 2), (0, 3)]),
        Graph(4, [(0, 1), (2, 3)]),
        Graph(2, []),
    ],
)
def test_path_order_rejects(g):
    with pytest.raises(WrongGraphClassError):
        path_order(g)
    assert not is_path_graph(g)


def _placed(profile, n):
    """Subset of path_graph(n) with the given profile, packed left."""
    out, pos = [], 0
    for size in profile:
        out.extend(range(pos, pos + size))
        pos += size + 1
    assert pos - 1 <= n
    return out


def _cj_witness_ok(n, profile_a, profile_b):
    g = path_graph(n)
    a, b = _placed(profile_a, n), _placed(profile_b, n)
    res = solve_path_cj(g, a, b)
    if res.reachable:
        k = len(profile_a)
        assert len(res.moves) <= 3 * k * k + 2 * k
        seq = expand_moves(g, a, res.moves, Rule.CJ)
        assert seq.states[-1] == tuple(b)
        assert verify_sequence(g, seq.states, cc_multiset(g, a), rule=Rule.CJ)
    return res


def test_cj_blocks_only_pairs_above_buffer():
    # buffer = n - occupied - k
    assert _cj_witness_ok(7, [1, 3], [3, 1]).reachable  # buffer 1 holds the 1
    assert not _cj_witness_ok(6, [1, 3], [3, 1]).reachable  # buffer 0
    assert not _cj_witness_ok(8, [2, 3], [3, 2]).reachable  # buffer 1 < 2
    assert _cj_witness_ok(9, [2, 3], [3, 2]).reachable  # buffer 2
    assert _cj_witness_ok(6, [2, 2], [2, 2]).reachable  # same order, buffer 0
    assert _cj_witness_ok(6, [1, 3], [2, 2]).reason == "multiset-mismatch"


def test_equal_sizes_never_invert():
    # equal sizes never swap with each other, so only the 1 must pass
    # the 2s, and a buffer of 1 is enough
    assert _cj_witness_ok(12, [2, 1, 2, 2], [2, 2, 1, 2]).reachable
    assert not _cj_witness_ok(11, [2, 1, 2, 2], [2, 2, 1, 2]).reachable


def test_cj_reorders_around_equal_sizes():
    # tagging keeps the three 2s in order while the 3 moves left
    assert _cj_witness_ok(15, [2, 2, 3, 2], [3, 2, 2, 2]).reachable


def _blocked_pair(profile_a, profile_b, free):
    """Some pair of components appears in the other order in profile_b
    (equal sizes matched by occurrence) and neither fits the buffer."""

    def tagged(profile):
        return [(s, profile[:i].count(s)) for i, s in enumerate(profile)]

    ta = tagged(profile_a)
    rank = {e: i for i, e in enumerate(tagged(profile_b))}
    return any(
        rank[x] > rank[y] and min(x[0], y[0]) > free
        for i, x in enumerate(ta)
        for y in ta[i + 1 :]
    )


def test_cj_decision_matches_pairwise_rule():
    for n in range(4, 13):
        for k in range(1, 4):
            for sizes in itertools.product(range(1, 4), repeat=k):
                if sum(sizes) + k - 1 > n:
                    continue
                free = n - sum(sizes) - k
                for perm in set(itertools.permutations(sizes)):
                    res = _cj_witness_ok(n, list(sizes), list(perm))
                    assert res.reachable != _blocked_pair(sizes, perm, free)


def test_buffer():
    assert buffer(7, [0, 2, 3, 4], 2) == 1
    assert buffer(6, [0, 2, 3, 4], 2) == 0
    assert buffer(5, [0, 1, 2, 4], 2) == -1


def test_compressed_move_json():
    mv = CompressedMove(3, 2, 0)
    assert mv.to_json() == {"size": 3, "from": 2, "to": 0}
    assert CompressedMove.from_json(mv.to_json()) == mv
    with pytest.raises(InvalidInstanceError):
        CompressedMove.from_json({"size": 3})


def test_cs_profile_mismatch():
    g = path_graph(5)
    res = solve_path_cs(g, [0, 2, 3], [0, 1, 3])
    assert not res.reachable
    assert res.reason == "profile-mismatch"
    res = solve_path_cs(g, [0, 1], [0, 2])
    assert not res.reachable
    assert res.reason == "multiset-mismatch"


def test_cs_witness_verifies():
    g = path_graph(8)
    a, b = [0, 1, 4, 6], [1, 2, 5, 7]
    res = solve_path_cs(g, a, b)
    assert res.reachable
    seq = expand_moves(g, a, res.moves, Rule.CS)
    assert seq.states[0] == tuple(a)
    assert seq.states[-1] == tuple(b)
    assert verify_sequence(g, seq.states, cc_multiset(g, a), rule=Rule.CS)


def test_cj_buffer_switch():
    a, b = [0, 2, 3, 4], [0, 1, 2, 4]
    roomy = solve_path_cj(path_graph(7), a, b)
    assert roomy.reachable
    seq = expand_moves(path_graph(7), a, roomy.moves, Rule.CJ)
    assert seq.states == (
        (0, 2, 3, 4),
        (2, 3, 4, 6),
        (0, 1, 2, 6),
        (0, 1, 2, 4),
    )
    assert verify_sequence(path_graph(7), seq.states, rule=Rule.CJ)
    tight = solve_path_cj(path_graph(6), a, b)
    assert not tight.reachable
    assert tight.reason == "buffer-exceeded"


def test_decision_only_mode():
    g = path_graph(9)
    a, b = [0, 1, 3, 4, 5], [0, 1, 2, 4, 5]
    assert solve_path_cs(g, a, b, want_moves=False).moves is None
    assert solve_path_cj(g, a, b, want_moves=False).reachable == solve_path_cj(g, a, b).reachable


def test_expand_rejects_bad_moves():
    g = path_graph(6)
    with pytest.raises(InvalidInstanceError):
        expand_moves(g, [0, 1], [CompressedMove(1, 0, 5)], Rule.CJ)
    with pytest.raises(InvalidInstanceError):
        expand_moves(g, [0, 1, 3], [CompressedMove(2, 0, 2)], Rule.CJ)
    with pytest.raises(InvalidInstanceError):
        expand_moves(g, [0, 1], [CompressedMove(2, 0, 5)], Rule.CJ)


def _solver_matches_oracle(n, rule):
    g = path_graph(n)
    solve = solve_path_cs if rule is Rule.CS else solve_path_cj
    by_multiset = {}
    for size in range(n + 1):
        for sub in itertools.combinations(range(n), size):
            by_multiset.setdefault(cc_multiset(g, sub), []).append(sub)
    for multiset, subs in by_multiset.items():
        space = enumerate_states(g, multiset)
        labels = reachability_partition(space, rule)
        for a, b in itertools.combinations(subs, 2):
            res = solve(g, a, b)
            expected = labels[space.index[sum(1 << v for v in a)]] == labels[
                space.index[sum(1 << v for v in b)]
            ]
            assert res.reachable == expected, (n, rule, a, b)
            if res.reachable:
                seq = expand_moves(g, a, res.moves, rule)
                assert seq.states[-1] == tuple(b)
                assert verify_sequence(g, seq.states, multiset, rule=rule)
                if rule is Rule.CJ:
                    k = len(cc_multiset(g, a))
                    assert len(res.moves) <= 3 * k * k + 2 * k


@pytest.mark.parametrize("n", range(1, 8))
def test_cs_matches_oracle(n):
    _solver_matches_oracle(n, Rule.CS)


@pytest.mark.parametrize("n", range(1, 8))
def test_cj_matches_oracle(n):
    _solver_matches_oracle(n, Rule.CJ)


@pytest.mark.parametrize("n", range(1, 8))
def test_cs_witness_is_shortest(n):
    """Every reachable CS pair on the path gets exactly
    sum ceil(|a_i - b_i| / s_i) moves, the oracle's distance."""
    g = path_graph(n)
    by_multiset = {}
    for size in range(n + 1):
        for sub in itertools.combinations(range(n), size):
            by_multiset.setdefault(cc_multiset(g, sub), []).append(sub)
    for multiset, subs in by_multiset.items():
        space = enumerate_states(g, multiset)
        for a in subs:
            dist = bfs_distances(space, space.index[sum(1 << v for v in a)], Rule.CS)
            for b in subs:
                res = solve_path_cs(g, a, b)
                if not res.reachable:
                    continue
                pairs = zip(connected_components(g, a), connected_components(g, b))
                bound = sum(math.ceil(abs(ca[0] - cb[0]) / len(ca)) for ca, cb in pairs)
                assert len(res.moves) == bound == dist[space.index[sum(1 << v for v in b)]]
                seq = expand_moves(g, a, res.moves, Rule.CS)
                assert seq.states[-1] == b
                assert verify_sequence(g, seq.states, multiset, rule=Rule.CS)


def test_moves_are_single_rule_steps():
    g = path_graph(9)
    a, b = [1, 2, 4, 7, 8], [0, 2, 3, 6, 7]
    res = solve_path_cj(g, a, b)
    assert res.reachable
    seq = expand_moves(g, a, res.moves, Rule.CJ)
    for u, w in zip(seq.states, seq.states[1:]):
        assert adjacent(g, u, w, rule=Rule.CJ)


def test_trivial_and_empty_instances():
    g = path_graph(4)
    same = solve_path_cs(g, [1, 2], [1, 2])
    assert same.reachable and same.moves == ()
    empty = solve_path_cj(g, [], [])
    assert empty.reachable and empty.moves == ()


def test_solvers_reject_non_path():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(WrongGraphClassError):
        solve_path_cs(g, [0], [1])


def test_position_runs_are_the_components():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 40)
        order = list(range(n))
        rng.shuffle(order)
        g = Graph(n, list(zip(order, order[1:])))
        sub = sorted(rng.sample(range(n), rng.randint(0, n)))
        runs = _runs(_sorted_positions(g, sub))
        assert SizeMultiset(size for _, size in runs) == cc_multiset(g, sub)
        along = path_order(g)
        blocks = [tuple(sorted(along[start:start + size])) for start, size in runs]
        assert sorted(blocks) == connected_components(g, sub)
