from __future__ import annotations

import random

import pytest

import helpers
from ccreconfig.errors import InvalidInstanceError
from ccreconfig.graph import (
    Configuration,
    cc_multiset,
    mask_of,
    path_graph,
    touches,
)
from ccreconfig.rules import (
    ReconfSequence,
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


def test_adjacent_rejects_foreign_configuration():
    g = path_graph(4)
    other = path_graph(5)
    with pytest.raises(InvalidInstanceError):
        adjacent(g, Configuration(other, [0]), [1], Rule.TJ)


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


def test_verify_single_state_sequence():
    g = path_graph(3)
    assert verify_sequence(g, [[0, 1]], [2], Rule.CS).ok
    assert not verify_sequence(g, [[0, 1]], [1, 1], Rule.CS).ok


def test_reconf_sequence_length():
    seq = ReconfSequence(Rule.TJ, ((0,), (1,)))
    assert seq.length == 1
