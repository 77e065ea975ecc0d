import itertools
import json
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
from ccreconfig.cli import main
from ccreconfig.graph import connected_components
from ccreconfig.oracle import enumerate_states
from ccreconfig.paths import _pack_left_jumps, _path_runs, _solve_cj, _tagged
from ccreconfig.rules import Result, adjacent


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


@pytest.mark.parametrize(
    "g, reason",
    [
        (Graph(4, [(0, 1), (1, 2)]), "not a path: 2 edges for 4 vertices"),
        (Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)]), "not a path: vertex 1 has degree 3"),
        # the lowest vertex above degree 2 is named, not the highest degree
        (Graph(8, [(1, 0), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6), (4, 7)]),
         "not a path: vertex 1 has degree 3"),
        (Graph(4, [(0, 1), (1, 2), (2, 0)]), "not a path: endpoint count is not 2"),
        # n - 1 edges, degrees at most 2, two endpoints: a path 0-1 and
        # a disjoint triangle, so the walk meets the far endpoint early
        (Graph(5, [(0, 1), (2, 3), (3, 4), (4, 2)]), "not a path: walk ended early"),
    ],
)
def test_path_order_says_why_not_a_path(g, reason):
    with pytest.raises(WrongGraphClassError) as info:
        path_order(g)
    assert str(info.value) == reason


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
    # a size below 0 lifts nothing that is a component
    with pytest.raises(InvalidInstanceError, match="does not lift a whole component"):
        expand_moves(g, [0, 1], [CompressedMove(-1, 4, 0)], Rule.CJ)


def _expand_by_sets(n, a, moves):
    """Reference for expand_moves on path_graph(n), whose positions are
    its vertex ids: the states by position sets, or the message of the
    first bad move."""
    current = set(a)
    states = [tuple(sorted(current))]
    for mv in moves:
        if mv.src < 0 or mv.src + mv.size > n or mv.dst < 0 or mv.dst + mv.size > n:
            return f"move {mv} leaves the path"
        seg = set(range(mv.src, mv.src + mv.size))
        if not seg <= current or (mv.src - 1) in current or (mv.src + mv.size) in current:
            return f"move {mv} does not lift a whole component"
        rest = current - seg
        if rest & set(range(mv.dst, mv.dst + mv.size)):
            return f"move {mv} lands on another component"
        current = rest | set(range(mv.dst, mv.dst + mv.size))
        states.append(tuple(sorted(current)))
    return tuple(states)


def test_expand_matches_position_sets():
    """Moves of real components, of part of one, of nothing (size 0) and
    off the path expand, or fail with the same message, as the set
    replay does."""
    rng = random.Random(20251019)
    for _ in range(400):
        n = rng.randint(1, 12)
        a = sorted(rng.sample(range(n), rng.randint(0, n)))
        moves, state = [], set(a)
        for _ in range(rng.randint(1, 6)):
            runs = _path_runs(path_graph(n), sorted(state))
            if runs and rng.random() < 0.8:
                src, size = rng.choice(runs)
            else:
                src, size = rng.randint(-1, n), rng.randint(0, 3)
            moves.append(CompressedMove(size, src, rng.randint(-1, n)))
            want = _expand_by_sets(n, a, moves)
            if isinstance(want, str):
                break
            state = set(want[-1])
        try:
            got = expand_moves(path_graph(n), a, moves, Rule.CJ).states
        except InvalidInstanceError as exc:
            got = str(exc)
        assert got == want, (n, a, moves)


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
    """On shuffled paths the runs are the components, left to right with
    a gap after each: 300 random subsets, then every n from 0 to 40 with
    the empty, the full and one random subset."""
    rng = random.Random(12)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 40)
        order = list(range(n))
        rng.shuffle(order)
        g = Graph(n, list(zip(order, order[1:])))
        cases.append((g, sorted(rng.sample(range(n), rng.randint(0, n)))))
    for n in range(41):
        order = list(range(n))
        rng.shuffle(order)
        g = Graph(n, list(zip(order, order[1:])))
        cases += [(g, []), (g, list(range(n))), (g, sorted(rng.sample(range(n), rng.randint(0, n))))]
    for g, sub in cases:
        runs = _path_runs(g, sub)
        assert SizeMultiset(size for _, size in runs) == cc_multiset(g, sub)
        along = path_order(g)
        blocks = [tuple(sorted(along[start:start + size])) for start, size in runs]
        assert sorted(blocks) == connected_components(g, sub)
        ends = [start + size for start, size in runs]
        assert all(end < start for end, (start, _) in zip(ends, runs[1:]))
        assert all(size > 0 for _, size in runs) and (not runs or ends[-1] <= g.n)


# (n, edges, A, B, moves as (size, from, to), states): each answers yes
# under CS and CJ alike
TINY_PATHS = [
    (0, [], [], [], [], [[]]),
    (1, [], [], [], [], [[]]),
    (1, [], [0], [0], [], [[0]]),
    (2, [[0, 1]], [0], [1], [(1, 0, 1)], [[0], [1]]),
    (2, [[1, 0]], [1], [0], [(1, 1, 0)], [[1], [0]]),
    (2, [[0, 1]], [0, 1], [0, 1], [], [[0, 1]]),
]


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize("rule", ["CS", "CJ"])
@pytest.mark.parametrize("n, edges, a, b, moves, states", TINY_PATHS)
def test_cli_solves_tiny_paths(tmp_path, capsys, n, edges, a, b, moves, states, rule, compressed):
    """Paths of 0, 1 and 2 vertices go to the path solver and answer
    with the same report as before runs came from the occupancy."""
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps({"graph": {"n": n, "edges": edges}, "A": a, "B": b, "rule": rule}))
    assert main(["solve", str(inst)] + ["--compressed"] * compressed) == 0
    report = json.loads(capsys.readouterr().out)
    report["stats"].pop("seconds")
    want = {
        "answer": "yes",
        "rule": rule,
        "algorithm": "path",
        "stats": {"n": n, "length": len(moves)},
        "moves": [{"size": s, "from": f, "to": t} for s, f, t in moves],
    }
    if not compressed:
        want["states"] = states
    assert report == want
    assert list(report) == ["answer", "rule", "algorithm", "stats"] + ["states"] * (
        not compressed) + ["moves"]


def _cj_by_full_passes(n, runs_a, runs_b):
    """The CJ witness as first written: tagged entries compared through
    their rank in B, bubble passes over the whole profile until one
    makes no swap."""
    profile_a = [s for _, s in runs_a]
    profile_b = [s for _, s in runs_b]
    if sorted(profile_a) != sorted(profile_b):
        return Result(Rule.CJ, False, reason="multiset-mismatch")
    occupied = sum(profile_a)
    k = len(runs_a)
    free = n - occupied - k
    if [s for s in profile_a if s > free] != [s for s in profile_b if s > free]:
        return Result(Rule.CJ, False, reason="buffer-exceeded")
    if runs_a == runs_b:
        return Result(Rule.CJ, True, moves=())
    moves = _pack_left_jumps(runs_a)
    tail = occupied + k
    cur = _tagged(profile_a)
    want_rank = {e: i for i, e in enumerate(_tagged(profile_b))}
    swapped = True
    while swapped:
        swapped = False
        la = 0
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
    return Result(Rule.CJ, True, moves=tuple(moves))


def _random_runs(rng, n, profile):
    """Runs with this left-to-right profile on a path of n vertices, the
    slack spread over the gaps at random."""
    slack = n - sum(profile) - max(len(profile) - 1, 0)
    cuts = sorted(rng.randint(0, slack) for _ in profile)
    runs, packed = [], 0
    for size, cut in zip(profile, cuts):
        runs.append((packed + cut, size))
        packed += size + 1
    return runs


def test_cj_witness_matches_full_passes():
    """Ending each bubble pass at the last swap of the one before leaves
    the answer, the reason and every move as full passes give them."""
    rng = random.Random(2026)
    swaps = 0
    reasons = set()
    for _ in range(2400):
        k = rng.randint(0, 8)
        profile_a = [rng.randint(1, rng.choice([2, 4, 7])) for _ in range(k)]
        profile_b = profile_a[:]
        rng.shuffle(profile_b)
        if k and rng.random() < 0.1:
            profile_b[rng.randrange(k)] += 1
        n = rng.randint(max(sum(profile_a), sum(profile_b)) + k, 60)
        runs_a, runs_b = _random_runs(rng, n, profile_a), _random_runs(rng, n, profile_b)
        for runs in runs_a, runs_b:
            assert all(s + size < t for (s, size), (t, _) in zip(runs, runs[1:]))
            assert not runs or runs[-1][0] + runs[-1][1] <= n
        got = _solve_cj(n, runs_a, runs_b)
        want = _cj_by_full_passes(n, runs_a, runs_b)
        assert (got.reachable, got.reason, got.moves) == (want.reachable, want.reason, want.moves)
        swaps += got.reachable and len(got.moves) > len(runs_a) + len(runs_b)
        reasons.add(got.reason)
    assert swaps > 500 and reasons == {None, "buffer-exceeded", "multiset-mismatch"}
