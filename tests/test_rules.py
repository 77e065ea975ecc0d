from __future__ import annotations

import random
from collections import Counter

import pytest

import helpers
from ccreconfig import (
    complete_graph,
    cycle_graph,
    expand_moves,
    oracle_solve,
    solve_cograph_cs,
    solve_equal_size_cj,
    solve_path_cj,
    solve_path_cs,
)
from ccreconfig.errors import InvalidInstanceError
from ccreconfig.oracle import (
    bfs_distances,
    build_reconfig_graph,
    enumerate_states,
    neighbors,
    reachability_partition,
)
from ccreconfig.paths import CompressedMove
from ccreconfig.graph import (
    cc_multiset,
    path_graph,
)
from ccreconfig.rules import (
    Result,
    Rule,
    adjacent,
    verify_sequence,
)

ALL_RULES = list(Rule)


def test_rule_parse():
    assert Rule.parse("cs1") is Rule.CS1
    assert Rule.parse("TJ") is Rule.TJ
    with pytest.raises(InvalidInstanceError):
        Rule.parse("XX")


def test_token_jump_ignores_components():
    g = path_graph(6)
    u, w = [0, 1, 3, 4], [0, 2, 3, 4]
    assert adjacent(g, u, w, Rule.TJ)
    assert not adjacent(g, u, w, Rule.CJ)  # multisets (2,2) vs (1,3)
    assert not adjacent(g, u, u, Rule.TJ)
    assert not adjacent(g, [0], [2, 3], Rule.TJ)


def test_token_jump_can_split_two_components_at_once():
    # same multiset on both sides, yet two components change identity
    g = path_graph(6)
    u, w = [0, 1, 4], [0, 4, 5]
    assert cc_multiset(g, u) == cc_multiset(g, w) == (1, 2)
    assert adjacent(g, u, w, Rule.TJ)
    assert not adjacent(g, u, w, Rule.CJ)


def test_token_slide_needs_an_edge():
    g = path_graph(4)
    assert adjacent(g, [0, 2], [0, 3], Rule.TS)
    assert adjacent(g, [0, 2], [1, 2], Rule.TS)
    assert adjacent(g, [0, 2], [2, 3], Rule.TJ)
    assert not adjacent(g, [0, 2], [2, 3], Rule.TS)


def test_component_rules_ladder():
    g = path_graph(6)
    # {3} hops one step: every component rule accepts
    assert adjacent(g, [0, 1, 3], [0, 1, 4], Rule.CJ)
    assert adjacent(g, [0, 1, 3], [0, 1, 4], Rule.CS)
    assert adjacent(g, [0, 1, 3], [0, 1, 4], Rule.CS1)
    # {3} jumps far: component jump only
    assert adjacent(g, [0, 1, 3], [0, 1, 5], Rule.CJ)
    assert not adjacent(g, [0, 1, 3], [0, 1, 5], Rule.CS)
    # {0,1} shifts wholesale: slide but not single-vertex slide
    g4 = path_graph(4)
    assert adjacent(g4, [0, 1], [2, 3], Rule.CS)
    assert not adjacent(g4, [0, 1], [2, 3], Rule.CS1)
    # two components change identity: no component rule accepts
    g5 = path_graph(5)
    assert not adjacent(g5, [0, 1, 3], [1, 2, 4], Rule.CJ)


def test_single_vertex_slide_need_not_be_a_token_slide():
    g = path_graph(4)
    assert adjacent(g, [0, 1], [1, 2], Rule.CS1)
    assert not adjacent(g, [0, 1], [1, 2], Rule.TS)


def test_adjacent_matches_rule_definitions_exhaustively():
    for n in range(0, 5):
        subsets = [
            [v for v in range(n) if mask >> v & 1] for mask in range(1 << n)
        ]
        for g in helpers.all_graphs(n):
            for u in subsets:
                for w in subsets:
                    for r in ALL_RULES:
                        assert adjacent(g, u, w, r) == helpers.adjacent_bf(g, u, w, r), (
                            g.edges, u, w, r)


def test_adjacent_matches_rule_definitions_on_random_graphs():
    rng = random.Random(59)
    hits = dict.fromkeys(ALL_RULES, 0)
    for _ in range(1000):
        n = rng.randint(5, 7)
        g = helpers.random_graph(rng, n)
        u = {v for v in range(n) if rng.random() < 0.5}
        # half the probes are one or two vertex swaps away from u
        w = set(u)
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 2)):
                if w and len(w) < n:
                    w.remove(rng.choice(sorted(w)))
                    w.add(rng.choice([v for v in range(n) if v not in w]))
        else:
            w = {v for v in range(n) if rng.random() < 0.5}
        for r in ALL_RULES:
            got = adjacent(g, u, w, r)
            assert got == helpers.adjacent_bf(g, u, w, r), (g.edges, u, w, r)
            hits[r] += got
    assert min(hits.values()) > 10, hits


def _random_same_multiset_pair(rng, g):
    n = g.n
    u = [v for v in range(n) if rng.random() < 0.5]
    m = cc_multiset(g, u)
    for _ in range(40):
        w = [v for v in range(n) if rng.random() < 0.5]
        if cc_multiset(g, w) == m:
            return u, w
    return u, list(u)


def test_single_step_implications():
    rng = random.Random(41)
    checked = 0
    for _ in range(400):
        g = helpers.random_graph(rng, rng.randint(2, 7))
        u, w = _random_same_multiset_pair(rng, g)
        flags = {r: adjacent(g, u, w, r) for r in ALL_RULES}
        for r in ALL_RULES:
            assert flags[r] == adjacent(g, w, u, r)  # symmetry
        if flags[Rule.CS1]:
            assert flags[Rule.CS] and flags[Rule.TJ]
        if flags[Rule.CS]:
            assert flags[Rule.CJ]
        if flags[Rule.TS]:
            assert flags[Rule.TJ]
        checked += sum(flags.values())
    assert checked > 50


def test_verify_sequence_accepts_valid_chain():
    g = path_graph(4)
    res = verify_sequence(g, [[0, 2], [0, 3], [1, 3]], [1, 1], Rule.TS)
    assert res.ok and bool(res)
    assert res.index is None and res.condition is None
    # multiset defaults to the first state's
    assert verify_sequence(g, [[0, 2], [0, 3]], rule=Rule.TJ).ok


def test_verify_sequence_reports_adjacency_violation():
    g = path_graph(3)
    res = verify_sequence(g, [[0], [2]], [1], Rule.CS)
    assert not res.ok
    assert res.index == 0 and res.condition == "adjacency"


def test_verify_sequence_reports_multiset_violation():
    g = path_graph(4)
    res = verify_sequence(g, [[0, 1], [0]], [2], Rule.CJ)
    assert not res.ok
    assert res.index == 1 and res.condition == "multiset"
    # a state failing both checks is blamed on its multiset
    res2 = verify_sequence(g, [[0, 1], [0, 1, 3]], [2], Rule.CJ)
    assert res2.index == 1 and res2.condition == "multiset"


def test_verify_sequence_rejects_empty():
    with pytest.raises(InvalidInstanceError):
        verify_sequence(path_graph(3), [], [1], Rule.TJ)


def _edited(rng, states, n):
    """The states with one of them dropped, two neighbours swapped, or
    one vertex added, removed or replaced in one of them."""
    states = [list(s) for s in states]
    i = rng.randrange(len(states))
    kind = rng.randrange(3)
    if kind == 0 and len(states) > 2:
        del states[i]
    elif kind == 1 and len(states) > 1:
        i = min(i, len(states) - 2)
        states[i], states[i + 1] = states[i + 1], states[i]
    else:
        s, free = states[i], [v for v in range(n) if v not in states[i]]
        if s and (not free or rng.random() < 0.3):
            s.remove(rng.choice(s))
        elif free:
            if s and rng.random() < 0.5:
                s.remove(rng.choice(s))
            s.append(rng.choice(free))
    return states


def _walk(rng, g, a):
    """A random sequence from a: each state drops some vertices of one
    component of the state before and adds one fewer, as many or one
    more others."""
    states = [list(a)]
    for _ in range(rng.randint(1, 4)):
        s = set(states[-1])
        comps = helpers.components_bf(g, s)
        c = rng.choice(comps) if comps else ()
        gone = set(rng.sample(c, rng.randint(min(1, len(c)), len(c))))
        free = [v for v in range(g.n) if v not in s]
        s -= gone
        s |= set(rng.sample(free, min(len(free), max(0, len(gone) + rng.randint(-1, 1)))))
        states.append(sorted(s))
    return states


def test_verify_sequence_matches_the_oracle_reference():
    """verify_sequence against helpers.verify_bf, which reads moves off
    the oracle and components off union-find: on oracle witnesses, the
    same witnesses edited, random sequences of valid states or any
    subsets, and random walks, n <= 7 and all five rules."""
    rng = random.Random(83)
    p7 = path_graph(7)
    # a move that splits the component it leaves, and one that joins the
    # component it makes to another
    cases = [(p7, [[0, 1, 2], [0, 2, 3, 4]], [3], Rule.CJ),
             (p7, [[0, 1, 2, 4], [2, 3, 4]], [1, 3], Rule.CS)]
    for _ in range(3000):
        n = rng.randint(2, 7)
        g = helpers.random_graph(rng, n, rng.choice([0.3, 0.5]))
        rule = rng.choice(ALL_RULES)
        a = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        want = cc_multiset(g, a)
        space = enumerate_states(g, want)
        kind = rng.randrange(4)
        if kind == 3:
            states = _walk(rng, g, a)
        elif kind == 2:
            states = [a] + [space.state_vertices(rng.randrange(len(space))) if rng.random() < 0.7
                             else rng.sample(range(n), rng.randint(0, n))
                             for _ in range(rng.randint(0, 4))]
        else:
            b = space.state_vertices(rng.randrange(len(space)))
            res = oracle_solve(g, a, b, rule=rule)
            states = res.states if res.reachable else [a, b]
            if kind == 1:
                states = _edited(rng, states, n)
        cases.append((g, states, want, rule))
    seen = Counter()
    for g, states, want, rule in cases:
        got = verify_sequence(g, states, want, rule)
        ref = helpers.verify_bf(g, states, want, rule.value)
        assert (None if got else (got.index, got.condition)) == ref, (g.edges, states, rule)
        seen[ref and ref[1], rule] += 1
    assert len(seen) == 3 * len(ALL_RULES) and min(seen.values()) >= 10, seen


def test_verify_single_state_sequence():
    g = path_graph(3)
    assert verify_sequence(g, [[0, 1]], [2], Rule.CS).ok
    assert not verify_sequence(g, [[0, 1]], [1, 1], Rule.CS).ok


def test_result_distance():
    assert Result(Rule.TJ, True, ((0,), (1,))).distance == 1
    assert Result(Rule.TJ, True, ((0,),)).distance == 0
    assert Result(Rule.TJ, False).distance is None


def test_every_entry_point_returns_a_result():
    p7, k4, c8 = path_graph(7), complete_graph(4), cycle_graph(8)
    results = [
        solve_path_cs(p7, [0, 2, 3], [1, 3, 4]),
        solve_path_cs(p7, [0, 2, 3], [0, 1, 3]),
        solve_path_cj(p7, [0, 2, 3, 4], [0, 1, 2, 4]),
        solve_path_cj(path_graph(6), [0, 2, 3, 4], [0, 1, 2, 4]),
        solve_cograph_cs(k4, [0, 1], [2, 3]),
        solve_cograph_cs(k4, [0, 1], [2], variant=Rule.CS1),
        solve_equal_size_cj(p7, [0, 1], [4, 5]),
        solve_equal_size_cj(c8, [0, 1, 4, 5], [2, 3, 6, 7]),
        oracle_solve(p7, [0, 2, 3], [1, 3, 4], Rule.CS),
        oracle_solve(p7, [0, 1], [0, 2], Rule.CS),
        expand_moves(p7, [0], solve_path_cs(p7, [0], [3]).moves, Rule.CS),
    ]
    answers = {None: "unknown", True: "yes", False: "no"}
    for res in results:
        assert type(res) is Result
        assert res.answer == answers[res.reachable]
        assert res.jumps is res.moves
    assert {res.answer for res in results} == {"yes", "no", "unknown"}


def test_every_entry_point_reads_a_rule_name_as_the_rule():
    # the solvers test rules by identity, and "CJ" only equals Rule.CJ
    p6 = path_graph(6)
    assert verify_sequence(p6, [(0,), (5,)], rule="CJ")
    assert oracle_solve(p6, [0], [5], "CJ").distance == 1
    space = enumerate_states(p6, [2])
    start = space.index[0b11]  # {0, 1}
    calls = {
        "adjacent": lambda r: adjacent(p6, [0, 2], [0, 5], r),
        "verify_sequence": lambda r: verify_sequence(p6, [(0, 2), (0, 5)], rule=r),
        "oracle_solve": lambda r: oracle_solve(p6, [0, 2], [3, 5], r),
        "bfs_distances": lambda r: bfs_distances(space, start, r),
        "reachability_partition": lambda r: reachability_partition(space, r),
        "neighbors": lambda r: neighbors(space, start, r),
        "build_reconfig_graph": lambda r: build_reconfig_graph(p6, [2], r).edges,
        "expand_moves": lambda r: expand_moves(p6, [0], [CompressedMove(1, 0, 5)], r),
    }
    for rule in Rule:
        for name, call in calls.items():
            want = call(rule)
            for given in (rule.value, rule.value.lower()):
                got = call(given)
                assert got == want, (name, given)
                if isinstance(got, Result):
                    assert got.rule is rule, (name, given)
            with pytest.raises(InvalidInstanceError):
                call(rule.value + "X")
    k4 = complete_graph(4)
    for variant in (Rule.CS, Rule.CS1):
        res = solve_cograph_cs(k4, [0, 1], [2, 3], variant=variant.value)
        assert res == solve_cograph_cs(k4, [0, 1], [2, 3], variant=variant)
        assert res.rule is variant and res.distance == (1 if variant is Rule.CS else 2)
    with pytest.raises(InvalidInstanceError):
        solve_cograph_cs(k4, [0, 1], [2, 3], variant="XX")
