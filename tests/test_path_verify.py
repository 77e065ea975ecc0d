"""Verification on path hosts, where components are runs of a position
occupancy: the library and `verify` against the independent reference
helpers.verify_bf, on relabelled paths so vertex ids are not positions."""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter

import pytest

import ccreconfig
import helpers
from ccreconfig import Graph, Rule, cc_multiset, expand_moves, oracle_solve, verify_sequence
from ccreconfig.cli import main
from ccreconfig.errors import InvalidInstanceError
from ccreconfig.oracle import enumerate_states
from ccreconfig.paths import CompressedMove, path_order, solve_path_cj, solve_path_cs
from ccreconfig.rules import _verify_jumps

ALL_RULES = list(Rule)


def relabelled_path(rng: random.Random, n: int) -> Graph:
    ids = rng.sample(range(n), n)
    return Graph(n, [(ids[p], ids[p + 1]) for p in range(n - 1)])


def verify(inst: str, report: str, *flags: str) -> tuple[int, dict | None, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", inst, report, *flags])
    return code, json.loads(out.getvalue()) if out.getvalue() else None, err.getvalue()


def write(tmp_path, name: str, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def instance(g: Graph, a, b, rule: str) -> dict:
    return {"graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
            "A": sorted(a), "B": sorted(b), "rule": rule}


def unit_shifts(moves) -> list[CompressedMove]:
    """Path CS moves split into shifts by one position, a CS1 witness."""
    return [CompressedMove(size, p, p + step) for size, src, dst in moves
            for step in [1 if dst > src else -1] for p in range(src, dst, step)]


def replayed(a, jumps) -> list[set[int]]:
    """The states that (source, target) jumps make from a, as set updates."""
    have, states = set(a), [set(a)]
    for src, dst in jumps:
        have = have - (set(src) - set(dst)) | set(dst)
        states.append(have)
    return states


# ---------------------------------------------------------------------------
# library: verify_sequence and the jump check on the occupancy

def _edited_states(rng, states, n):
    """The states with one of them dropped, two neighbours swapped, or a
    vertex added, removed or replaced in one of them."""
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
        if s and (not free or rng.random() < 0.4):
            s.remove(rng.choice(s))
        if free:
            s.append(rng.choice(free))
    return states


def _edited_jumps(rng, jumps, n):
    """The jumps with one dropped, two swapped, or a vertex added to or
    removed from one side of one of them."""
    jumps = [[list(src), list(dst)] for src, dst in jumps]
    i = rng.randrange(len(jumps))
    kind = rng.randrange(3)
    if kind == 0:
        del jumps[i]
    elif kind == 1 and len(jumps) > 1:
        i = min(i, len(jumps) - 2)
        jumps[i], jumps[i + 1] = jumps[i + 1], jumps[i]
    else:
        side = jumps[i][rng.randrange(2)]
        if side and rng.random() < 0.5:
            side.remove(rng.choice(side))
        else:
            side.append(rng.randrange(n))
    return jumps


def test_occupancy_verifier_matches_the_oracle_reference():
    """verify_sequence and _verify_jumps on relabelled paths (n <= 9, all
    five rules) against helpers.verify_bf: oracle witnesses, the same
    witnesses with states or jumps dropped, swapped or edited, and a
    wrong multiset now and then."""
    rng = random.Random(2027)
    seen = Counter()
    for _ in range(1500):
        n = rng.randint(2, 9)
        g = relabelled_path(rng, n)
        rule = rng.choice(ALL_RULES)
        a = rng.sample(range(n), rng.randint(1, n - 1))
        want = cc_multiset(g, a)
        space = enumerate_states(g, want)
        b = space.state_vertices(rng.randrange(len(space)))
        res = oracle_solve(g, a, b, rule=rule)
        states = [list(s) for s in res.states] if res.reachable else [sorted(a), list(b)]
        if rng.random() < 0.1:
            want = cc_multiset(g, rng.sample(range(n), rng.randint(1, n)))
        jumps = [(sorted(set(u) - set(w)), sorted(set(w) - set(u)))
                 for u, w in zip(states, states[1:])]
        kind = rng.randrange(3)
        if kind == 1:
            states = _edited_states(rng, states, n)
        elif kind == 2 and jumps:
            jumps = _edited_jumps(rng, jumps, n)
        ref = helpers.verify_bf(g, states, want, rule.value)
        got = verify_sequence(g, states, want, rule)
        assert (None if got else (got.index, got.condition)) == ref, (g.edges, states, rule)
        ref = helpers.verify_bf(g, replayed(states[0], jumps), want, rule.value)
        got = _verify_jumps(g, states[0], jumps, want, rule)
        assert (None if got else (got.index, got.condition)) == ref, (g.edges, jumps, rule)
        seen[ref and ref[1], rule] += 1
    assert len(seen) == 3 * len(ALL_RULES) and min(seen.values()) >= 10, seen


def test_path_host_verify_never_builds_neighbour_sets(tmp_path, monkeypatch):
    """On relabelled paths, which keep only their path order until the
    neighbour sets are read, full states and [source, target] jumps under
    every rule, by the library and in `verify` reports, get the verdicts
    of helpers.verify_bf on a twin graph.  Components are runs of the
    order and two runs touch iff they lie close enough, so the host's
    sets are never built: reading them raises while verify runs."""

    def built(g):
        raise AssertionError("verify built the neighbour sets")

    rng = random.Random(2029)
    seen = Counter()
    for case in range(1200):
        n = rng.randint(2, 9)
        g = relabelled_path(rng, n)
        twin = Graph(n, g.edges)  # the reference and the oracle read its sets
        rule = rng.choice(ALL_RULES)
        a = rng.sample(range(n), rng.randint(1, n - 1))
        want = cc_multiset(twin, a)
        space = enumerate_states(twin, want)
        b = space.state_vertices(rng.randrange(len(space)))
        res = oracle_solve(twin, a, b, rule=rule)
        states = [list(s) for s in res.states] if res.reachable else [sorted(a), list(b)]
        jumps = [(sorted(set(u) - set(w)), sorted(set(w) - set(u)))
                 for u, w in zip(states, states[1:])]
        if rng.random() < 0.5:
            states = _edited_states(rng, states, n)
        if jumps and rng.random() < 0.5:
            jumps = _edited_jumps(rng, jumps, n)
        jumped = replayed(states[0], jumps)
        ref = helpers.verify_bf(twin, states, want, rule.value)
        ref_jumps = helpers.verify_bf(twin, jumped, want, rule.value)
        with monkeypatch.context() as m:
            m.setattr(Graph.adj, "func", built)
            got = verify_sequence(g, states, want, rule)
            got_jumps = _verify_jumps(g, states[0], jumps, want, rule)
        assert (None if got else (got.index, got.condition)) == ref, (g.edges, states, rule)
        assert (None if got_jumps else (got_jumps.index, got_jumps.condition)) == ref_jumps, (
            g.edges, jumps, rule)
        seen[ref and ref[1], rule] += 1
        if case % 10:
            continue
        # the same judgements through verify, where A gives the multiset
        start = cc_multiset(twin, states[0])
        for report, seq in (({"states": states}, states), ({"moves": jumps}, jumped)):
            inst = write(tmp_path, "i.json", instance(g, states[0], seq[-1], rule.value))
            verdict = helpers.verify_bf(twin, seq, start, rule.value)
            with monkeypatch.context() as m:
                m.setattr(Graph.adj, "func", built)
                code, out, err = verify(inst, write(tmp_path, "r.json", report))
            assert (None if code == 0 else (out["index"], out["condition"])) == verdict, (
                g.edges, report, rule, err)
    assert len(seen) == 3 * len(ALL_RULES) and min(seen.values()) >= 10, seen


@pytest.mark.parametrize("later, message", [
    ([True, 4], "vertex ids must be ints, got True"),
    ([1.0, 4], "vertex ids must be ints, got 1.0"),
    ([[1], 4], r"vertex ids must be ints, got \[1\]"),
    ([None, 4], "vertex ids must be ints, got None"),
    ([1, 4, 4], "duplicate vertex 4 in subset"),
    ([1, 4, 6], "vertex 6 out of range for n=6"),
])
def test_a_bad_vertex_in_a_later_state_raises_before_any_verdict(later, message):
    """The first move is illegal, yet a later state with a bad vertex
    still raises.  True and 1.0 equal the vertex 1 of the first state,
    so they are caught by their type, not as new vertices."""
    g = relabelled_path(random.Random(6), 6)
    states = [[1, 4], [0, 5, 2], later]
    assert not verify_sequence(g, states[:2], rule=Rule.CJ)
    for rule in ALL_RULES:
        with pytest.raises(InvalidInstanceError, match=message):
            verify_sequence(g, states, rule=rule)


# ---------------------------------------------------------------------------
# verify: no graph search on a path host

def test_path_host_verify_searches_no_graph(tmp_path, monkeypatch):
    """On a relabelled path, verify reads components off the position
    occupancy: full states, [source, target] jumps and compressed path
    reports, under CJ, CS and CS1, verify and reject as they do with the
    graph search in place."""
    rng = random.Random(11)
    n = 14
    g = relabelled_path(rng, n)
    order = path_order(g)
    a = [order[p] for p in (0, 1, 4, 5, 6, 10)]
    b = [order[p] for p in (1, 2, 6, 7, 8, 12)]
    cases = []
    for rule in ("CJ", "CS", "CS1"):
        inst = write(tmp_path, f"{rule}.json", instance(g, a, b, rule))
        res = solve_path_cs(g, a, b) if rule != "CJ" else solve_path_cj(g, a, b)
        moves = unit_shifts(res.moves) if rule == "CS1" else list(res.moves)
        states = [list(s) for s in expand_moves(g, a, moves, rule).states]
        jumps = [[sorted(set(u) - set(w)), sorted(set(w) - set(u))]
                 for u, w in zip(states, states[1:])]
        stricter = {"CJ": "CS1", "CS": "CS1", "CS1": "TS"}[rule]
        path_moves = [mv.to_json() for mv in moves]
        for report in ({"moves": path_moves}, {"moves": path_moves, "rule": stricter},
                       {"moves": path_moves[:-1]},
                       {"states": states}, {"states": states[:1] + states[2:]},
                       {"moves": jumps}, {"moves": jumps[1:2] + jumps[:1] + jumps[2:]}):
            cases.append((inst, write(tmp_path, f"r{len(cases)}.json", report)))
    before = [verify(inst, report) for inst, report in cases]
    assert {code for code, _, _ in before} == {0, 1}
    assert {out["condition"] for code, out, _ in before if code} == {
        "endpoints", "adjacency", "multiset"}

    def searched(*args):
        raise AssertionError("verify searched the graph")

    monkeypatch.setattr(ccreconfig.graph, "_component", searched)
    monkeypatch.setattr(ccreconfig.rules, "_component", searched)
    assert [verify(inst, report) for inst, report in cases] == before


# ---------------------------------------------------------------------------
# verify: a seeded corpus of compressed path reports

def _occupied_after(occ: bytearray, moves) -> bytearray | None:
    """occ after the moves as plain position updates, or None once a
    move leaves the path."""
    occ = bytearray(occ)
    for mv in moves:
        size, src, dst = mv["size"], mv["from"], mv["to"]
        if min(size, src, dst) < 0 or max(src, dst) + size > len(occ):
            return None
        occ[src:src + size] = bytes(size)
        occ[dst:dst + size] = b"\1" * size
    return occ


def _mutated(rng, moves, occ_a, n):
    """One mutation of a move list: a move sent off the path, a partial
    lift, a landing on or next to a component, a wrong end, a dropped,
    swapped, repeated or null move."""
    moves = [dict(mv) for mv in moves]
    if not moves:
        return [{"size": 1, "from": rng.randrange(n), "to": rng.randrange(n)}]
    i = rng.randrange(len(moves))
    mv = moves[i]
    kind = rng.choice([0, 1, 2, 2, 3, 4, 5, 6, 7])
    if kind == 0:  # off the path
        mv[rng.choice(["from", "to"])] = rng.choice([-1, n - mv["size"] + 1, n])
    elif kind == 1:  # a partial lift
        mv[rng.choice(["from", "size"])] += rng.choice([-1, 1])
    elif kind == 2:  # on or next to a component: somewhere an occupied cell is
        occ = _occupied_after(occ_a, moves[:i]) or bytearray(n)
        near = [p for p in range(n) if occ[p]] or [0]
        mv["to"] = max(0, min(n - mv["size"], rng.choice(near) + rng.choice([-mv["size"], 1])))
    elif kind == 3:  # a wrong end
        moves.append(dict(moves[-1], **{"from": moves[-1]["to"], "to": rng.randrange(n)}))
    elif kind == 4:
        del moves[i]
    elif kind == 5 and len(moves) > 1:
        j = min(i, len(moves) - 2)
        moves[j], moves[j + 1] = moves[j + 1], moves[j]
    elif kind == 6:
        moves.insert(i, dict(mv))
    else:
        mv["to"] = mv["from"]
    return moves


def test_compressed_path_reports_match_the_reference(tmp_path):
    """verify of valid and mutated compressed path reports under CS, CJ
    and CS1, with --rule overrides, against verify_bf on the states the
    moves expand to: exit 3 where expand_moves raises, else the endpoints
    verdict when the last state is not B, else verify_bf's first fault.
    A report that ends off B is verified once more against an instance
    whose B is where it ends, so its first bad move is judged too."""
    rng = random.Random(424242)
    seen = Counter()
    reports = 0
    while reports < 1500:
        n = rng.randint(3, 9)
        g = relabelled_path(rng, n)
        order = path_order(g)
        rule = rng.choice(["CS", "CJ", "CS1"])
        a = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        want = cc_multiset(g, a)
        space = enumerate_states(g, want)
        b = sorted(space.state_vertices(rng.randrange(len(space))))
        res = (solve_path_cj if rule == "CJ" else solve_path_cs)(g, a, b)
        moves = [mv.to_json() for mv in (unit_shifts if rule == "CS1" else list)(res.moves or ())]
        if not moves:
            continue
        occ_a = bytearray(n)
        for v in a:
            occ_a[order.index(v)] = 1
        for variant in [moves] + [_mutated(rng, moves, occ_a, n) for _ in range(4)]:
            flags = ["--rule", rng.choice(ALL_RULES).value] if rng.random() < 0.25 else []
            checked = Rule(flags[1]) if flags else Rule(rule)
            report = write(tmp_path, "r.json", {"rule": rule, "moves": variant})
            try:
                states = expand_moves(g, a, [CompressedMove.from_json(mv) for mv in variant],
                                      checked).states
            except InvalidInstanceError:
                code, outcome, err = verify(write(tmp_path, "i.json", instance(g, a, b, rule)),
                                            report, *flags)
                assert code == 3 and outcome is None and "error" in json.loads(err), variant
                reports += 1
                seen["invalid"] += 1
                continue
            ends = [b] if sorted(states[-1]) == b else [b, sorted(states[-1])]
            for end in ends:
                code, outcome, err = verify(write(tmp_path, "i.json", instance(g, a, end, rule)),
                                            report, *flags)
                reports += 1
                if sorted(states[-1]) != end:
                    want_out = {"ok": False, "rule": checked.value, "index": 0,
                                "condition": "endpoints"}
                else:
                    ref = helpers.verify_bf(g, states, want, checked.value)
                    want_out = ({"ok": True, "rule": checked.value, "length": len(variant)}
                                if ref is None
                                else {"ok": False, "rule": checked.value, "index": ref[0],
                                      "condition": ref[1]})
                assert (code, outcome, err) == (0 if want_out["ok"] else 1, want_out, ""), (
                    g.edges, a, end, variant, flags)
                seen[want_out.get("condition", "ok")] += 1
    assert set(seen) == {"ok", "endpoints", "adjacency", "multiset", "invalid"}, seen
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# verify: what a move reads

@pytest.mark.parametrize("on_path", [True, False], ids=["path", "non-path"])
def test_out_of_range_sources_are_ignored(tmp_path, on_path):
    """A [source, target] jump whose sources hold -1 or n gets the
    verdict of the same jump without them, from _verify_jumps and from
    verify: a source is dropped only while it is held, and no vertex
    outside 0 .. n - 1 ever is.  On a path host the source -1 must not
    stand for vertex n - 1, which the cases often hold."""
    rng = random.Random(2031 + on_path)
    seen = Counter()
    for case in range(400):
        n = rng.randint(3, 9)
        g = relabelled_path(rng, n) if on_path else helpers.random_graph(rng, n)
        rule = rng.choice(ALL_RULES)
        a = sorted(set(rng.sample(range(n), rng.randint(1, n - 2))) | {n - 1})
        want = cc_multiset(g, a)
        space = enumerate_states(g, want)
        b = space.state_vertices(rng.randrange(len(space)))
        res = oracle_solve(g, a, b, rule=rule)
        states = [list(s) for s in res.states] if res.reachable else [a, list(b)]
        jumps = [[sorted(set(u) - set(w)), sorted(set(w) - set(u))]
                 for u, w in zip(states, states[1:])]
        if jumps and rng.random() < 0.5:
            jumps = _edited_jumps(rng, jumps, n)
        if not jumps:
            continue
        bad = [[list(src), dst] for src, dst in jumps]
        for src, _ in rng.sample(bad, rng.randint(1, len(bad))):
            src.insert(rng.randint(0, len(src)), rng.choice([-1, n]))
        ref = helpers.verify_bf(g, replayed(a, jumps), want, rule.value)
        for moves in (jumps, bad):
            got = _verify_jumps(g, a, moves, want, rule)
            assert (None if got else (got.index, got.condition)) == ref, (g.edges, moves, rule)
        seen[ref and ref[1]] += 1
        if case % 8:
            continue
        inst = write(tmp_path, "i.json", instance(g, a, replayed(a, jumps)[-1], rule.value))
        clean, dirty = (verify(inst, write(tmp_path, "r.json", {"moves": moves}))
                        for moves in (jumps, bad))
        assert clean == dirty, (g.edges, bad, rule)
    assert set(seen) == {None, "multiset", "adjacency"}, seen


def test_compressed_token_verify_reads_no_runs_per_move(tmp_path, monkeypatch):
    """A compressed path report keeps the multiset iff each landed run
    has free flanks, so verify reads the runs of A and B as it loads the
    instance and never again, under CS as under TS.  The witness: k
    singletons at 0, 4, 8, ... each slid two positions right, 2k unit
    moves that are token slides as well."""
    n, k = 400, 100
    a = list(range(0, 4 * k, 4))
    g = Graph(n, [(v, v + 1) for v in range(n - 1)])
    inst = write(tmp_path, "i.json", instance(g, a, [v + 2 for v in a], "CS"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", inst, "--compressed"]) == 0
    report = write(tmp_path, "r.json", json.loads(out.getvalue()))
    calls = Counter()
    runs = ccreconfig.rules._runs

    def counted(occ):
        calls["runs"] += 1
        return runs(occ)

    for module in (ccreconfig.rules, ccreconfig.paths, ccreconfig.cli):
        monkeypatch.setattr(module, "_runs", counted)
    for flags, rule in (([], "CS"), (["--rule", "TS"], "TS")):
        calls.clear()
        assert verify(inst, report, *flags) == (0, {"ok": True, "rule": rule, "length": 2 * k}, "")
        assert calls["runs"] == 2, (rule, calls)


def test_a_move_of_nothing_beside_a_run_is_not_a_move(tmp_path):
    """A size-0 move lifts and lands nothing, so it keeps the multiset
    even where its landing spot touches a run: verify reports it as no
    move (adjacency), not as a merge (multiset)."""
    g = relabelled_path(random.Random(7), 6)
    order = path_order(g)
    a = [order[1], order[2]]
    inst = write(tmp_path, "i.json", instance(g, a, a, "CS"))
    for to in (0, 2, 3):
        report = write(tmp_path, "r.json", {"moves": [{"size": 0, "from": 5, "to": to}]})
        assert verify(inst, report) == (
            1, {"ok": False, "rule": "CS", "index": 0, "condition": "adjacency"}, "")
