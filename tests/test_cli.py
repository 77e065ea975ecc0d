import contextlib
import enum
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccreconfig
from ccreconfig import (
    Graph, Rule, cc_multiset, cli, cographs, decompose_cograph, solve_cograph_cs, verify_sequence,
)
from ccreconfig.cli import main
from ccreconfig.generators import gen_chordal_instance, gen_cograph_instance, gen_path_instance
from ccreconfig.graph import MAX_VERTICES

from helpers import cotree_vertices, random_graph, threshold_graph

P7_CJ = {
    "graph": {"n": 7, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]]},
    "A": [0, 2, 3, 4],
    "B": [0, 1, 2, 4],
    "rule": "CJ",
}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def test_solve_path_yes(tmp_path, capsys):
    inst = write(tmp_path, "i.json", P7_CJ)
    code, report, _ = run(capsys, ["solve", inst])
    assert code == 0
    assert report["answer"] == "yes"
    assert report["algorithm"] == "path"
    assert report["stats"]["length"] == 3
    assert report["states"][0] == [0, 2, 3, 4]
    assert report["states"][-1] == [0, 1, 2, 4]


def test_solve_compressed(tmp_path, capsys):
    inst = write(tmp_path, "i.json", P7_CJ)
    code, report, _ = run(capsys, ["solve", inst, "--compressed"])
    assert code == 0
    assert "states" not in report
    assert report["moves"] == [
        {"size": 1, "from": 0, "to": 6},
        {"size": 3, "from": 2, "to": 0},
        {"size": 1, "from": 6, "to": 4},
    ]


def test_solve_path_no(tmp_path, capsys):
    tight = dict(P7_CJ)
    tight["graph"] = {"n": 6, "edges": [[i, i + 1] for i in range(5)]}
    inst = write(tmp_path, "i.json", tight)
    code, report, _ = run(capsys, ["solve", inst])
    assert code == 1
    assert report["answer"] == "no"
    assert report["reason"] == "buffer-exceeded"


def test_implicit_multiset_mismatch(tmp_path, capsys):
    bad = dict(P7_CJ, B=[0, 1, 2, 3])
    inst = write(tmp_path, "i.json", bad)
    code, report, _ = run(capsys, ["solve", inst])
    assert code == 1
    assert report["reason"] == "multiset-mismatch"
    assert report["algorithm"] == "none"


def test_declared_multiset_must_match(tmp_path, capsys):
    bad = dict(P7_CJ, multiset=[2, 2])
    inst = write(tmp_path, "i.json", bad)
    code, report, err = run(capsys, ["solve", inst])
    assert code == 3
    assert report is None
    assert "multiset" in err
    good = dict(P7_CJ, multiset=[1, 3])
    inst = write(tmp_path, "g.json", good)
    code, _, _ = run(capsys, ["solve", inst])
    assert code == 0


def test_auto_dispatch(tmp_path, capsys):
    k4 = {
        "graph": {"n": 4, "edges": [[u, w] for u in range(4) for w in range(u + 1, 4)]},
        "A": [0, 1],
        "B": [2, 3],
        "rule": "CS",
    }
    code, report, _ = run(capsys, ["solve", write(tmp_path, "k4.json", k4)])
    assert code == 0 and report["algorithm"] == "cograph"
    assert report["stats"]["length"] == 1

    spider = {
        "graph": {"n": 5, "edges": [[0, 1], [1, 2], [1, 3], [3, 4]]},
        "A": [0],
        "B": [4],
        "rule": "CJ",
    }
    code, report, _ = run(capsys, ["solve", write(tmp_path, "sp.json", spider)])
    assert code == 0 and report["algorithm"] == "chordal"

    ts = dict(P7_CJ, rule="TS")
    code, report, _ = run(capsys, ["solve", write(tmp_path, "ts.json", ts)])
    assert report["algorithm"] == "oracle"


def _uniform_pairs(rng, g, count):
    """Up to count random pairs of distinct subsets of g whose components
    all have one size, A's multiset equal to B's."""
    groups = {}
    for mask in range(1 << g.n):
        subset = [v for v in range(g.n) if mask >> v & 1]
        ms = cc_multiset(g, subset)
        if len(set(ms)) <= 1:
            groups.setdefault(ms, []).append(subset)
    pairs = [(a, b) for group in groups.values() for a in group for b in group if a < b]
    return rng.sample(pairs, min(count, len(pairs)))


def test_auto_matches_the_oracle_on_equal_size_cj(tmp_path, capsys):
    """Under auto, equal-size CJ goes to the equal-size solver on any
    host and on to the oracle when that leaves it undecided; the answer
    and exit code are the oracle's, and every yes witness verifies."""
    rng = random.Random(11)
    seen = {}  # algorithm -> chordality of the hosts it answered on
    cases = {True: 0, False: 0}
    while min(cases.values()) < 150:
        g = random_graph(rng, rng.randint(3, 6), rng.choice([0.3, 0.5, 0.7]))
        chordal = ccreconfig.is_chordal(g)
        if cases[chordal] >= 150:
            continue
        for a, b in _uniform_pairs(rng, g, 4):
            cases[chordal] += 1
            inst = write(tmp_path, "i.json", {
                "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
                "A": a, "B": b, "rule": "CJ"})
            auto = run(capsys, ["solve", inst])
            oracle = run(capsys, ["solve", inst, "--algorithm", "oracle"])
            assert (auto[0], auto[1]["answer"]) == (oracle[0], oracle[1]["answer"]), (g.edges, a, b)
            seen.setdefault(auto[1]["algorithm"], set()).add(chordal)
            for code, report, _ in (auto, oracle):
                if code == 0:
                    assert verify_sequence(g, report["states"], cc_multiset(g, a), rule=Rule.CJ)
    # a non-chordal host is decided by the equal-size solver when its
    # conflict graph is a forest, and by the oracle when it has a cycle
    assert seen["chordal"] == {True, False} and seen["oracle"] == {False}

    c4 = {"graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
          "A": [0, 2], "B": [1, 3], "rule": "CJ"}
    code, report, _ = run(capsys, ["solve", write(tmp_path, "c4.json", c4)])
    assert report["algorithm"] == "oracle"
    assert (code, report["answer"]) == (1, "no")


def test_rule_flag_overrides(tmp_path, capsys):
    inst = write(tmp_path, "i.json", P7_CJ)
    code, report, _ = run(capsys, ["solve", inst, "--rule", "cs"])
    assert report["rule"] == "CS"
    assert code == 1  # profiles <1,3> vs <3,1> cannot slide past each other


def test_forced_wrong_class(tmp_path, capsys):
    c4 = {
        "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
        "A": [0, 2],
        "B": [1, 3],
        "rule": "CJ",
    }
    inst = write(tmp_path, "c4.json", c4)
    code, _, err = run(capsys, ["solve", inst, "--algorithm", "path"])
    assert code == 3 and "not a path" in err

    code, report, _ = run(capsys, ["solve", inst, "--algorithm", "chordal"])
    assert code == 2
    assert report["answer"] == "unknown"
    assert report["reason"] == "conflict-cycle"

    code, report, _ = run(
        capsys, ["solve", inst, "--algorithm", "chordal", "--fallback", "oracle"]
    )
    assert code == 1
    assert report["algorithm"] == "oracle"

    code, report, _ = run(
        capsys, ["solve", inst, "--algorithm", "path", "--fallback", "oracle"]
    )
    assert code == 1 and report["algorithm"] == "oracle"


def test_verify_round_trip(tmp_path, capsys):
    inst = write(tmp_path, "i.json", P7_CJ)
    code, report, _ = run(capsys, ["solve", inst])
    rep = write(tmp_path, "r.json", report)
    code, outcome, _ = run(capsys, ["verify", inst, rep])
    assert code == 0 and outcome["ok"] is True and outcome["length"] == 3

    report["states"][1] = [1, 4, 5, 6]
    rep = write(tmp_path, "bad.json", report)
    code, outcome, _ = run(capsys, ["verify", inst, rep])
    assert code == 1
    assert outcome == {"ok": False, "index": 0, "condition": "adjacency"}


def test_verify_compressed_and_endpoints(tmp_path, capsys):
    inst = write(tmp_path, "i.json", P7_CJ)
    _, report, _ = run(capsys, ["solve", inst, "--compressed"])
    rep = write(tmp_path, "r.json", report)
    code, outcome, _ = run(capsys, ["verify", inst, rep])
    assert code == 0 and outcome["ok"] is True

    report["moves"] = report["moves"][:-1]
    rep = write(tmp_path, "cut.json", report)
    code, outcome, _ = run(capsys, ["verify", inst, rep])
    assert code == 1 and outcome["condition"] == "endpoints"


def test_every_yes_report_verifies(tmp_path, capsys):
    """Seeded round trip: every yes report of solve, full or compressed,
    under each rule and both algorithms, verifies.  On the first graph,
    a triangle 0-1-2 with the path 2-3-4 attached, the jump solver needs
    no jump and reports an empty move list."""
    rng = random.Random(23)
    graphs = [Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])]
    graphs += [random_graph(rng, rng.randint(1, 7)) for _ in range(60)]
    yes = 0
    for g in graphs:
        if g is graphs[0]:
            a = b = [0, 4]
        else:
            a = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            b = rng.choice([list(s) for s in itertools.combinations(range(g.n), len(a))
                            if cc_multiset(g, s) == cc_multiset(g, a)])
        for rule in Rule:
            inst = write(tmp_path, "i.json", {"graph": {"n": g.n, "edges": g.edges},
                                              "A": a, "B": b, "rule": rule.value})
            for argv in ([], ["--compressed"], ["--algorithm", "oracle"],
                         ["--algorithm", "oracle", "--compressed"]):
                code, report, _ = run(capsys, ["solve", inst, *argv])
                if code != 0:
                    continue
                yes += 1
                code, outcome, err = run(capsys, ["verify", inst,
                                                  write(tmp_path, "r.json", report)])
                assert (code, err) == (0, ""), (g.edges, a, b, rule, argv, report)
                length = report["stats"]["length"]
                assert outcome == {"ok": True, "rule": rule.value, "length": length}
    assert yes > 400


def test_verify_takes_the_rule_from_the_report(tmp_path, capsys):
    bare = {key: value for key, value in P7_CJ.items() if key != "rule"}
    inst = write(tmp_path, "i.json", bare)
    code, report, _ = run(capsys, ["solve", inst, "--rule", "CJ"])
    assert code == 0 and report["rule"] == "CJ"
    code, outcome, _ = run(capsys, ["verify", inst, write(tmp_path, "r.json", report)])
    assert code == 0 and outcome == {"ok": True, "rule": "CJ", "length": 3}
    # --rule still comes first, and a bare state list names no rule
    code, outcome, _ = run(capsys, ["verify", inst, write(tmp_path, "r.json", report),
                                    "--rule", "TJ"])
    assert code == 1 and outcome["ok"] is False
    code, _, err = run(capsys, ["verify", inst, write(tmp_path, "s.json", report["states"])])
    assert code == 3 and "no rule" in json.loads(err)["error"]


def test_verify_multiset_violation(tmp_path, capsys):
    inst = write(tmp_path, "i.json", P7_CJ)
    seq = write(
        tmp_path,
        "s.json",
        {"states": [[0, 2, 3, 4], [0, 2, 3, 4, 5], [0, 1, 2, 4]]},
    )
    code, outcome, _ = run(capsys, ["verify", inst, seq])
    assert code == 1
    assert outcome == {"ok": False, "index": 1, "condition": "multiset"}


def test_oracle_subcommand(tmp_path, capsys):
    ts = {
        "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
        "A": [0, 2],
        "B": [1, 3],
        "rule": "TS",
    }
    inst = write(tmp_path, "ts.json", ts)
    code, report, _ = run(capsys, ["oracle", inst])
    assert code == 0
    assert report["algorithm"] == "oracle"
    assert report["stats"]["distance"] == 2
    assert report["stats"]["space"] == 3


P4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}


@pytest.mark.parametrize(
    "inst, flags",
    [
        ({"graph": P4, "A": [0, 2], "B": [1, 3], "rule": "TJ"}, []),
        ({"graph": P4, "A": [0, 2], "B": [1, 3], "rule": "TS"}, []),
        ({"graph": P4, "A": [0], "B": [3], "rule": "CJ"}, []),
        ({"graph": P4, "A": [0, 1], "B": [2, 3], "rule": "CS"}, []),
        ({"graph": P4, "A": [0, 1], "B": [1, 2], "rule": "CS1"}, []),
        (P7_CJ, ["--state-cap", "3"]),
    ],
)
def test_oracle_subcommand_is_solve_with_the_oracle(tmp_path, capsys, inst, flags):
    path = write(tmp_path, "i.json", inst)
    outcomes = []
    for argv in (["oracle", path], ["solve", path, "--algorithm", "oracle"]):
        code, report, err = run(capsys, argv + flags)
        if report is not None:
            report["stats"].pop("seconds")
        outcomes.append((code, report, err))
    assert outcomes[0] == outcomes[1]


def test_state_cap(tmp_path, capsys):
    inst = write(tmp_path, "i.json", P7_CJ)
    code, _, err = run(capsys, ["oracle", inst, "--state-cap", "3"])
    assert code == 4
    assert "cap" in err


def test_export_dot(tmp_path, capsys):
    ts = {
        "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
        "A": [0, 2],
        "B": [1, 3],
        "rule": "TJ",
    }
    inst = write(tmp_path, "ts.json", ts)
    dot = tmp_path / "out.dot"
    code, _, _ = run(capsys, ["solve", inst, "--export-dot", str(dot)])
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph {")
    assert '[label="{0,2}"]' in text


SQUARE_TAIL_CS = {
    "graph": {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [2, 4], [4, 5]]},
    "A": [0, 1, 4],
    "B": [2, 5, 3],
    "rule": "CS",
}

SQUARE_TAIL_CS_DOT = (
    "graph {\n"
    '  0 [label="{0,1,4}"];\n'
    '  1 [label="{0,1,5}"];\n'
    '  2 [label="{0,2,4}"];\n'
    '  3 [label="{0,3,4}"];\n'
    '  4 [label="{0,3,5}"];\n'
    '  5 [label="{0,4,5}"];\n'
    '  6 [label="{1,2,5}"];\n'
    '  7 [label="{1,4,5}"];\n'
    '  8 [label="{2,3,5}"];\n'
    '  9 [label="{3,4,5}"];\n'
    "  0 -- 1;\n"
    "  0 -- 3;\n"
    "  1 -- 4;\n"
    "  1 -- 6;\n"
    "  1 -- 8;\n"
    "  2 -- 5;\n"
    "  3 -- 4;\n"
    "  4 -- 6;\n"
    "  4 -- 8;\n"
    "  5 -- 7;\n"
    "  5 -- 9;\n"
    "  6 -- 8;\n"
    "}\n"
)


def test_oracle_export_reuses_the_solved_state_space(tmp_path, capsys, monkeypatch):
    calls = []
    enumerate_states = ccreconfig.oracle.enumerate_states

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_states(*args, **kwargs)

    monkeypatch.setattr(ccreconfig.oracle, "enumerate_states", counted)
    inst = write(tmp_path, "i.json", SQUARE_TAIL_CS)
    dot = tmp_path / "space.dot"
    code, report, _ = run(
        capsys, ["solve", inst, "--algorithm", "oracle", "--export-dot", str(dot)])
    assert code == 0 and report["stats"]["space"] == 10
    assert len(calls) == 1
    assert dot.read_text() == SQUARE_TAIL_CS_DOT


def test_export_over_the_cap_still_prints_the_answer(tmp_path, capsys):
    _, inst, _ = run(capsys, ["gen", "--kind", "path", "--n", "60", "--seed", "1"])
    path = write(tmp_path, "i.json", inst)
    dot = tmp_path / "space.dot"
    code, report, err = run(
        capsys, ["solve", path, "--export-dot", str(dot), "--state-cap", "10000"])
    assert code == 4 and report["answer"] == "no"
    assert len(err.splitlines()) == 1 and "cap" in json.loads(err)["error"]


def test_export_stops_at_the_edge_limit(tmp_path, capsys):
    # 930 240 states with about 13 moves each to later states: listing
    # them all took minutes and gigabytes
    _, inst, _ = run(capsys, ["gen", "--kind", "path", "--n", "60", "--seed", "1"])
    path = write(tmp_path, "i.json", inst)
    dot = tmp_path / "space.dot"
    child = subprocess.run(
        [sys.executable, "-m", "ccreconfig.cli", "solve", path, "--export-dot", str(dot)],
        env=child_env(), capture_output=True, text=True, timeout=20,
    )
    assert child.returncode == 4 and json.loads(child.stdout)["answer"] == "no"
    (line,) = child.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error.startswith(f"--export-dot {dot}: ") and "1000000 edges" in error
    assert not dot.exists()


def test_oracle_grows_a_component_longer_than_the_recursion_limit(tmp_path, capsys):
    # one 1 100-vertex component, grown a vertex at a time
    n = 1200
    inst = write(tmp_path, "i.json", {
        "graph": {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]},
        "A": list(range(1100)), "B": list(range(1, 1101)), "rule": "CS"})
    code, report, err = run(capsys, ["solve", inst, "--algorithm", "oracle", "--compressed"])
    assert code == 0 and err == ""
    assert report["answer"] == "yes" and report["algorithm"] == "oracle"
    assert report["stats"]["space"] == 101 and report["stats"]["distance"] == 1


def test_oracle_places_more_components_than_the_recursion_limit(tmp_path, capsys):
    # 1 100 singletons, one on each edge of a perfect matching
    n = 2200
    inst = write(tmp_path, "i.json", {
        "graph": {"n": n, "edges": [[i, i + 1] for i in range(0, n, 2)]},
        "A": list(range(0, n, 2)), "B": list(range(1, n, 2)), "rule": "TJ"})
    code, report, err = run(capsys, ["solve", inst, "--state-cap", "1000"])
    assert code == 4 and report is None
    assert len(err.splitlines()) == 1 and "cap" in json.loads(err)["error"]


def test_gen_kinds(tmp_path, capsys):
    for kind, default_rule in [("path", "CS"), ("cograph", "CS"), ("chordal", "CJ")]:
        code, inst, _ = run(
            capsys, ["gen", "--kind", kind, "--n", "10", "--seed", "5"]
        )
        assert code == 0
        assert inst["rule"] == default_rule
        path = write(tmp_path, f"{kind}.json", inst)
        code, report, _ = run(capsys, ["solve", path])
        assert code in (0, 1)
        assert report["answer"] in ("yes", "no")


def test_gen_chordal_params(capsys):
    code, inst, _ = run(
        capsys,
        ["gen", "--kind", "chordal", "--n", "14", "--seed", "3",
         "--size", "2", "--count", "2"],
    )
    assert code == 0
    assert len(inst["A"]) == 4 and len(inst["B"]) == 4


def test_gen_chordal_places_a_dense_request(capsys):
    # dead-end starts are common here; each must cost only itself
    code, inst, _ = run(
        capsys,
        ["gen", "--kind", "chordal", "--n", "20000", "--seed", "1",
         "--size", "2", "--count", "200"],
    )
    assert code == 0
    g = Graph(inst["graph"]["n"], inst["graph"]["edges"])
    assert cc_multiset(g, inst["A"]) == cc_multiset(g, inst["B"]) == (2,) * 200


def test_bad_inputs(tmp_path, capsys):
    missing = write(tmp_path, "m.json", {"graph": {"n": 3, "edges": []}, "A": [0]})
    code, _, err = run(capsys, ["solve", missing])
    assert code == 3 and "B" in err

    norule = write(
        tmp_path, "nr.json", {"graph": {"n": 3, "edges": []}, "A": [0], "B": [1]}
    )
    code, _, err = run(capsys, ["solve", norule])
    assert code == 3 and "rule" in err

    garbled = tmp_path / "x.json"
    garbled.write_text("{nope")
    code, _, _ = run(capsys, ["solve", str(garbled)])
    assert code == 3

    out_of_range = write(
        tmp_path,
        "oor.json",
        {"graph": {"n": 3, "edges": []}, "A": [7], "B": [1], "rule": "TJ"},
    )
    code, _, _ = run(capsys, ["solve", out_of_range])
    assert code == 3


def child_env() -> dict:
    """Environment for a ccreconfig child that imports the package from
    where this process found it."""
    src = str(Path(ccreconfig.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_pipe_gen_into_solve():
    env = child_env()
    gen = subprocess.run(
        [sys.executable, "-m", "ccreconfig.cli", "gen", "--kind", "path",
         "--n", "12", "--seed", "9"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    solve = subprocess.run(
        [sys.executable, "-m", "ccreconfig.cli", "solve", "-"],
        env=env,
        input=gen.stdout,
        capture_output=True,
        text=True,
    )
    assert solve.returncode in (0, 1)
    report = json.loads(solve.stdout)
    assert report["algorithm"] == "path"


def test_verify_chordal_compressed_jumps(tmp_path, capsys):
    _, inst, _ = run(
        capsys,
        ["gen", "--kind", "chordal", "--n", "60", "--size", "2", "--count", "3",
         "--seed", "4"],
    )
    path = write(tmp_path, "i.json", inst)
    code, report, _ = run(capsys, ["solve", path, "--compressed"])
    assert code == 0 and report["algorithm"] == "chordal"
    jumps = report["moves"]
    assert jumps and all(len(mv) == 2 for mv in jumps)
    code, outcome, _ = run(capsys, ["verify", path, write(tmp_path, "r.json", report)])
    assert code == 0 and outcome == {"ok": True, "rule": "CJ", "length": len(jumps)}

    # a target that is not connected is no legal jump
    src, dst = jumps[0]
    stray = next(v for v in range(inst["graph"]["n"]) if v not in inst["A"] + inst["B"])
    bad = dict(report, moves=[[src, [dst[0], stray]]] + jumps[1:])
    code, outcome, _ = run(capsys, ["verify", path, write(tmp_path, "bad.json", bad)])
    assert code == 1 and outcome["ok"] is False

    for move in ([src], [src, dst, dst], [src, ["x"]], "jump", [src, 3]):
        broken = dict(report, moves=[move] + jumps[1:])
        code, _, err = run(capsys, ["verify", path, write(tmp_path, "m.json", broken)])
        assert code == 3 and "error" in json.loads(err)


def test_verify_replays_jumps_as_set_updates(tmp_path, capsys):
    """Report jumps are replayed as plain set updates whatever they hold:
    an absent source vertex is skipped, a repeat counts once and a target
    already in the state stays once; the verifier then names the first
    bad state."""
    _, inst, _ = run(
        capsys,
        ["gen", "--kind", "chordal", "--n", "60", "--size", "2", "--count", "3",
         "--seed", "4"],
    )
    path = write(tmp_path, "i.json", inst)
    _, report, _ = run(capsys, ["solve", path, "--compressed"])
    (src, dst), (src1, dst1), last = report["moves"]
    assert last[0][0] in inst["A"]
    free = next(v for v in range(inst["graph"]["n"]) if v not in inst["A"] + inst["B"])
    ok = {"ok": True, "rule": "CJ", "length": 3}
    cases = [
        ([[src + [free], dst], [src1, dst1], last], ok),
        ([[src + src, dst + dst[::-1]], [src1, dst1], last], ok),
        ([[src, dst + [last[0][0]]], [src1, dst1], last], ok),
        ([[src, []], [[], dst], [src1, dst1], last],
         {"ok": False, "index": 1, "condition": "multiset"}),
        ([[src, dst + [free]], [src1 + [free], dst1], last],
         {"ok": False, "index": 1, "condition": "multiset"}),
        ([[src + src1, dst + dst1], last], {"ok": False, "index": 0, "condition": "adjacency"}),
    ]
    for moves, want in cases:
        code, outcome, _ = run(capsys, ["verify", path,
                                        write(tmp_path, "r.json", dict(report, moves=moves))])
        assert outcome == want, moves
        assert code == (0 if want["ok"] else 1)


GOOD = {"graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}, "A": [0], "B": [3],
        "rule": "CJ"}


@pytest.mark.parametrize(
    "patch",
    [
        {"graph": {"n": 4, "edges": [[0, 1, 2]]}},
        {"graph": {"n": 4, "edges": "zz"}},
        {"graph": {"n": "x", "edges": []}},
        {"graph": {"n": 3.5, "edges": []}},
        {"graph": {"n": 4, "edges": [[0, True]]}},
        {"A": ["a", 1]},
        {"A": 5},
        {"B": [1.0]},
        {"rule": 5},
        {"multiset": ["q"]},
        {"multiset": [1.0]},
        {"graph_file": 5},
    ],
)
def test_malformed_instance_exits_3(tmp_path, capsys, patch):
    inst = write(tmp_path, "i.json", dict(GOOD, **patch))
    code, report, err = run(capsys, ["solve", inst])
    assert code == 3 and report is None
    assert len(err.strip().splitlines()) == 1 and "error" in json.loads(err)


@pytest.mark.parametrize("raw", [b"[" * 100_000, b"\xff\xfe{}"])
def test_undecodable_json_exits_3(tmp_path, capsys, raw):
    path = tmp_path / "i.json"
    path.write_bytes(raw)
    code, report, err = run(capsys, ["solve", str(path)])
    assert code == 3 and report is None and "cannot read" in json.loads(err)["error"]


def test_huge_vertex_count_exits_3(tmp_path, capsys):
    # rejected before the graph is allocated, not a MemoryError
    inst = tmp_path / "i.json"
    inst.write_text('{"graph": {"n": 100000000, "edges": []}, "A": [], "B": [], "rule": "CS"}')
    graph_file = tmp_path / "g.txt"
    graph_file.write_text("100000000 0\n")
    from_file = write(tmp_path, "f.json", {"graph_file": str(graph_file), "A": [], "B": [],
                                           "rule": "CS"})
    for path in (str(inst), from_file):
        code, report, err = run(capsys, ["solve", path])
        assert code == 3 and report is None
        assert len(err.splitlines()) == 1 and "limit" in json.loads(err)["error"]

    code, report, err = run(capsys, ["gen", "--kind", "path", "--n", str(MAX_VERTICES + 1)])
    assert code == 3 and report is None
    assert len(err.splitlines()) == 1 and "limit" in json.loads(err)["error"]


def test_gen_rejects_negative_parts(capsys):
    code, report, err = run(capsys, ["gen", "--kind", "path", "--n", "10", "--parts", "-3"])
    assert code == 3 and report is None
    assert "non-negative" in json.loads(err)["error"]
    code, report, _ = run(capsys, ["gen", "--kind", "path", "--n", "10", "--parts", "0"])
    assert code == 0 and report["A"] == report["B"] == []


def test_gen_cograph_stops_at_the_edge_limit(capsys):
    # about 2 x 10^8 edges: rejected at the root join, before any is built
    start = time.perf_counter()
    code, report, err = run(capsys, ["gen", "--kind", "cograph", "--n", "20000"])
    assert time.perf_counter() - start < 1.0
    assert code == 3 and report is None
    assert len(err.splitlines()) == 1 and "edges" in json.loads(err)["error"]


@pytest.mark.parametrize("flags", [["--size", "0"], ["--size", "-1"], ["--count", "-1"]])
def test_gen_chordal_rejects_empty_components_and_negative_count(capsys, flags):
    code, report, err = run(capsys, ["gen", "--kind", "chordal", "--n", "10", "--size", "2",
                                     "--count", "2", *flags])
    assert code == 3 and report is None
    assert len(err.splitlines()) == 1 and "component size" in json.loads(err)["error"]
    code, report, _ = run(capsys, ["gen", "--kind", "chordal", "--n", "10", "--count", "0"])
    assert code == 0 and report["A"] == report["B"] == []


@pytest.mark.parametrize(
    "argv",
    [["solve", "x.json", "--algorithm", "foo"], ["solve", "x.json", "--state-cap", "abc"],
     ["solve", "P4_TJ", "--state-cap", "-1"], ["oracle", "P4_TJ", "--state-cap", "-2"],
     ["oracle"], ["verify", "x.json"], ["gen", "--kind", "path"], ["gen", "--n", "x"], []],
)
def test_usage_errors_exit_3_with_one_json_line(tmp_path, capsys, argv):
    inst = write(tmp_path, "i.json", {"graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
                                      "A": [0, 2], "B": [1, 3], "rule": "TJ"})
    with pytest.raises(SystemExit) as exit_info:
        main([inst if arg == "P4_TJ" else arg for arg in argv])
    out = capsys.readouterr()
    assert exit_info.value.code == 3 and out.out == ""
    assert len(out.err.splitlines()) == 1 and "error" in json.loads(out.err)


def test_state_cap_0_is_a_cap_and_help_exits_0(tmp_path, capsys):
    code, _, err = run(capsys, ["oracle", write(tmp_path, "i.json", P7_CJ), "--state-cap", "0"])
    assert code == 4 and "cap of 0 states" in json.loads(err)["error"]
    for argv in (["--help"], ["solve", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0 and capsys.readouterr().out.startswith("usage: ")


DEEP_N = 1600  # cotree levels, above the default recursion limit of 1000


@pytest.fixture(scope="module")
def deep_graph(tmp_path_factory):
    g = threshold_graph(DEEP_N)
    path = tmp_path_factory.mktemp("deep") / "threshold.txt"
    path.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    return g, str(path)


def test_deep_cotree_is_one_level_per_vertex(deep_graph):
    g, _ = deep_graph
    ct = decompose_cograph(g)
    vertices = cotree_vertices(ct)
    i, levels = 0, 0
    while ct.kind[i] != "leaf":
        assert ct.kind[i] == ("union" if levels % 2 else "join")
        assert vertices[i] == tuple(range(DEEP_N - levels))
        i = ct.kids[i][0]  # the part holding vertex 0 lies deeper
        levels += 1
    assert levels == DEEP_N - 1


def test_deep_cotree_repr_and_eq(deep_graph):
    g, _ = deep_graph
    ct = decompose_cograph(g)
    assert repr(ct).startswith("Cotree(kind=['join', 'union', ")
    assert repr(ct).endswith(", root=0)")
    assert ct == ct and ct == decompose_cograph(threshold_graph(DEEP_N))
    assert ct != decompose_cograph(threshold_graph(DEEP_N - 1))
    assert ct.children[0] != ct and ct.children[0].root == 1


# Slide walks whose every move also exchanges a single vertex.  The
# component {0, 1} moves once at the root; the singletons {0} and {2}
# keep A and B apart down to the deepest cotree level.
DEEP_WALKS = {
    "one-component": [[0, 1], [0, 3], [2, 3]],
    "four-components": [[0, 2, 1000, 1598], [1, 2, 1000, 1598]],
}


@pytest.mark.parametrize("rule", ["CS", "CS1"])
@pytest.mark.parametrize("walk", DEEP_WALKS.values(), ids=DEEP_WALKS)
def test_deep_cotree_solve(tmp_path, capsys, deep_graph, rule, walk):
    g, graph_file = deep_graph
    assert verify_sequence(g, walk, rule=Rule(rule))
    inst = write(tmp_path, "i.json", {"graph_file": graph_file, "A": walk[0],
                                      "B": walk[-1], "rule": rule})
    code, report, err = run(capsys, ["solve", inst])
    assert code == 0 and err == ""
    assert report["answer"] == "yes" and report["algorithm"] == "cograph"
    states = report["states"]
    assert states[0] == walk[0] and states[-1] == walk[-1]
    assert verify_sequence(g, states, rule=Rule(rule))


@pytest.mark.parametrize("rule", [Rule.CS, Rule.CS1])
def test_deep_walk_looks_up_a_node_per_split(monkeypatch, deep_graph, rule):
    # the lists jump past the idle levels to the nodes where they split
    g, _ = deep_graph
    looked_up = set()
    child = cographs._child
    monkeypatch.setattr(cographs, "_child", lambda ct, i, v: looked_up.add(i) or child(ct, i, v))
    walk = DEEP_WALKS["four-components"]
    res = solve_cograph_cs(g, walk[0], walk[-1], variant=rule)
    assert res.states == tuple(map(tuple, walk))
    assert 0 < len(looked_up) <= 2 * len(walk[0])  # components of A and of B


@pytest.mark.parametrize(
    "seq",
    [["x"], [[0], [1.7]], {"states": [[0], ["x"]]}, {"states": 5},
     {"moves": [{"size": 1.5, "from": 0, "to": 3}]}, {"moves": 7},
     {"states": [[0], [3]], "rule": 5}],
)
def test_malformed_sequence_exits_3(tmp_path, capsys, seq):
    inst = write(tmp_path, "i.json", GOOD)
    code, report, err = run(capsys, ["verify", inst, write(tmp_path, "s.json", seq)])
    assert code == 3 and report is None and "error" in json.loads(err)


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.floats(allow_nan=False),
    st.text(max_size=3),
)
_jsonish = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_vertices = st.lists(st.integers(-1, 9), max_size=5) | _jsonish
_instances = st.fixed_dictionaries(
    {
        "graph": st.fixed_dictionaries(
            {
                "n": st.integers(-1, 9) | _jsonish,
                "edges": st.lists(st.lists(st.integers(-1, 9), max_size=3), max_size=12)
                | _jsonish,
            }
        )
        | _jsonish,
        "A": _vertices,
        "B": _vertices,
        "rule": st.sampled_from(["TJ", "TS", "CJ", "CS", "CS1", "cs1"]) | _jsonish,
    },
    optional={
        "multiset": st.lists(st.integers(-1, 4), max_size=4) | _jsonish,
        "graph_file": st.sampled_from([5, None, [], "no-such-graph.txt"]),
    },
) | _jsonish


def _main_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    inst=_instances,
    flags=st.sampled_from(
        [[], ["--compressed"], ["--algorithm", "path"], ["--algorithm", "cograph"],
         ["--algorithm", "chordal", "--fallback", "oracle"], ["--algorithm", "oracle"]]
    ),
    seq=st.one_of(_jsonish, st.fixed_dictionaries({"states": _jsonish}),
                  st.fixed_dictionaries({"moves": _jsonish})),
)
def test_arbitrary_input_ends_in_a_documented_exit(inst, flags, seq):
    with tempfile.TemporaryDirectory() as tmp:
        path, seq_path = Path(tmp) / "i.json", Path(tmp) / "s.json"
        path.write_text(json.dumps(inst))
        seq_path.write_text(json.dumps(seq))
        for argv in (["solve", str(path), *flags], ["verify", str(path), str(seq_path)]):
            code, _, err = _main_quietly(argv)
            assert code in (0, 1, 2, 3, 4)
            if err:
                assert len(err.splitlines()) == 1 and "error" in json.loads(err)


def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(tmp_path):
    # a path CJ yes-instance whose report outgrows the pipe buffer
    g, a, b = gen_path_instance(random.Random(2), 3000)
    inst = write(tmp_path, "i.json", {"graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
                                      "A": list(a), "B": list(b), "rule": "CJ"})
    expected, _, _ = _main_quietly(["solve", inst])
    child = subprocess.Popen(
        [sys.executable, "-m", "ccreconfig.cli", "solve", inst],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    child.stdout.close()  # the reader is gone before the report is written
    err = child.stderr.read()
    assert child.wait(timeout=120) == expected == 0
    assert err == b""


def _path_cj_instance(tmp_path):
    """A 3 000-vertex path CJ instance with a 651-move witness of
    states of about 1 500 vertices, a 6 MB full-state report."""
    inst = tmp_path / "i.json"
    inst.write_text(_stdout(["gen", "--kind", "path", "--n", "3000", "--parts", "30",
                             "--seed", "1", "--rule", "CJ"]))
    return str(inst)


def test_reader_closing_mid_report_keeps_the_exit_code_and_prints_no_traceback(tmp_path):
    # the full-state report is streamed as it is replayed
    child = subprocess.Popen(
        [sys.executable, "-m", "ccreconfig.cli", "solve", _path_cj_instance(tmp_path)],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = child.stdout.read(64 * 1024)
    child.stdout.close()  # the reader leaves while the states are written
    err = child.stderr.read()
    assert child.wait(timeout=120) == 0
    assert len(head) == 64 * 1024 and head.startswith(b'{\n  "answer": "yes"')
    assert err == b""


def test_cli_import_leaves_the_generators_to_gen():
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, ccreconfig.cli; print('ccreconfig.generators' in sys.modules)"],
        env=child_env(), capture_output=True, text=True, check=True,
    )
    assert child.stdout == "False\n"


def _traced_peak(argv, out=os.devnull):
    """Exit code and tracemalloc peak in bytes of main(argv), its report
    written to the file out, so the text itself is never held."""
    with open(out, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return code, peak


def test_full_state_solve_holds_one_state_at_a_time(tmp_path):
    """The full states are written as they are replayed, so a full-state
    solve peaks near its --compressed run, not at all states at once
    (3.3 times that when the states were a tuple)."""
    inst = _path_cj_instance(tmp_path)
    code, compressed = _traced_peak(["solve", inst, "--compressed"])
    assert code == 0
    code, full = _traced_peak(["solve", inst])
    assert code == 0
    assert full < 1.5 * compressed, (full, compressed)


def test_compressed_report_verifies_holding_one_state_at_a_time(tmp_path):
    """verify checks a compressed report's moves against one set: path
    moves and [source, target] jumps alike peak near the compressed
    solve that wrote them."""
    path_inst = _path_cj_instance(tmp_path)
    # 1 000 singletons on a 3 000-vertex path, each jumping one vertex on
    jump_inst = write(tmp_path, "j.json", {
        "graph": {"n": 3000, "edges": [[p, p + 1] for p in range(2999)]},
        "A": list(range(0, 3000, 3)), "B": list(range(1, 3000, 3)), "rule": "CJ"})
    for inst, algorithm, moves in ((path_inst, "path", 651), (jump_inst, "chordal", 1000)):
        report = str(tmp_path / "r.json")
        code, solved = _traced_peak(["solve", inst, "--compressed", "--algorithm", algorithm],
                                    report)
        assert code == 0 and json.loads(Path(report).read_text())["algorithm"] == algorithm
        out = str(tmp_path / "v.json")
        code, verified = _traced_peak(["verify", inst, report], out)
        assert code == 0
        assert json.loads(Path(out).read_text()) == {"ok": True, "rule": "CJ", "length": moves}
        assert verified < 1.5 * solved, (algorithm, verified, solved)


def test_full_state_verify_keeps_no_second_copy_of_the_states(tmp_path):
    """Each parsed state is made one set as it is reached and only the
    previous set is kept, so a full-state verify peaks near what reading
    the report and loading the instance take.  The states are singletons
    on a 250-vertex path, whose ids are ints Python shares, so the lists
    are most of the report and a cleaned copy of them all shows (1.3
    times that peak)."""
    a = list(range(0, 240, 3))
    inst = write(tmp_path, "i.json", {
        "graph": {"n": 250, "edges": [[p, p + 1] for p in range(249)]},
        "A": a, "B": a, "rule": "CJ"})
    away = a[1:] + [241]  # the singleton 0 jumps to 241 and back
    report = write(tmp_path, "r.json", {"rule": "CJ", "states": [a, away] * 1000 + [a]})
    tracemalloc.start()
    try:
        held = cli._read_json(report), cli._load_instance(inst, None)
        loaded = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del held
    out = str(tmp_path / "v.json")
    code, verified = _traced_peak(["verify", inst, report], out)
    assert code == 0 and json.loads(Path(out).read_text())["length"] == 2000
    assert verified < 1.1 * loaded, (verified, loaded)


def test_path_instance_loads_at_the_peak_of_its_json(tmp_path):
    """A path instance loads within a tenth of what reading its JSON
    peaks at: the walk makes no int per vertex, and the edge list is
    freed once the Graph is built, before the subsets are cleaned and
    their runs found (1.27 times the read with the list kept, 1.42 with
    a walk of fresh ints as well)."""
    n = 50_000
    order = random.Random(7).sample(range(n), n)
    inst = write(tmp_path, "i.json", {
        "graph": {"n": n, "edges": [[u, v] for u, v in zip(order, order[1:])]},
        "A": sorted(order[p] for p in range(n) if p % 4 < 2),
        "B": sorted(order[p] for p in range(n) if p % 4 in (1, 2)), "rule": "CJ"})
    tracemalloc.start()
    try:
        obj = cli._read_json(inst)
        read = tracemalloc.get_traced_memory()[1]
        del obj
        tracemalloc.reset_peak()
        held = cli._load_instance(inst, None)
        loaded = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held[6] is not None  # the runs of a path
    assert loaded <= 1.1 * read, (loaded, read)


class _Id(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("value, ok", [
    ([], True),
    ([3, 0, 3, 10**30], True),
    ([0, True], False),
    ([1.0], False),
    ([_Id.ONE], False),
    ([1, [2]], False),
    ([1, None], False),
    ((1, 2), False),
    ({1: 2}, False),
])
def test_int_list_takes_a_list_of_exact_ints_only(value, ok):
    if ok:
        assert cli._int_list(value, '"A"') is value
    else:
        with pytest.raises(cli.InvalidInstanceError, match='"A" must be a list of integers'):
            cli._int_list(value, '"A"')


def test_verify_replays_no_states(tmp_path, capsys, monkeypatch):
    """verify applies each move to one set: full-state reports, bare
    state lists, path moves and [source, target] jumps all verify with
    the replay gone."""
    _, chordal, _ = run(capsys, ["gen", "--kind", "chordal", "--n", "60", "--size", "2",
                                 "--count", "3", "--seed", "4"])
    cases = []
    for inst in (write(tmp_path, "p.json", P7_CJ), write(tmp_path, "c.json", chordal)):
        for flags in ([], ["--compressed"]):
            code, report, _ = run(capsys, ["solve", inst, *flags])
            assert code == 0
            cases.append((inst, report))
        cases.append((inst, cases[-2][1]["states"]))  # the full states as a bare list

    def replayed(*args):
        raise AssertionError("verify replayed the states")

    monkeypatch.setattr(cli, "_replay_jumps", replayed)
    monkeypatch.setattr(ccreconfig.graph, "_replay_jumps", replayed)
    for inst, report in cases:
        code, outcome, _ = run(capsys, ["verify", inst, write(tmp_path, "r.json", report)])
        assert code == 0 and outcome["ok"] is True


def test_out_of_memory_exits_4_and_names_compressed(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "_vertex_jumps", exhausted)
    code, report, err = run(capsys, ["solve", write(tmp_path, "i.json", P7_CJ)])
    assert code == 4 and report is None
    assert len(err.splitlines()) == 1 and "--compressed" in json.loads(err)["error"]


def test_out_of_memory_outside_solve_names_no_flag(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    inst = write(tmp_path, "i.json", P7_CJ)
    seq = write(tmp_path, "s.json", [[0, 2, 3, 4], [0, 1, 2, 4]])
    monkeypatch.setattr(cli, "_verify_jumps", exhausted)
    monkeypatch.setattr(cli, "oracle_solve", exhausted)
    for argv in (["verify", inst, seq], ["oracle", inst]):
        code, report, err = run(capsys, argv)
        assert code == 4 and report is None
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "out of memory", argv


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector(tmp_path, capsys, monkeypatch, enabled):
    good = write(tmp_path, "i.json", P7_CJ)
    bad = write(tmp_path, "b.json", {"graph": {"n": 3, "edges": []}, "A": [0]})
    during = []

    def boom(*args):
        during.append(gc.isenabled())
        raise RuntimeError("boom")

    try:
        (gc.enable if enabled else gc.disable)()
        assert run(capsys, ["solve", good])[0] == 0 and gc.isenabled() is enabled
        assert run(capsys, ["solve", bad])[0] == 3 and gc.isenabled() is enabled
        monkeypatch.setattr(cli, "_solve_cj", boom)
        with pytest.raises(RuntimeError):
            main(["solve", good])
        assert gc.isenabled() is enabled
        assert during == [False]
    finally:
        gc.enable()


def test_paused_collector_leaves_no_garbage_that_grows_with_the_input(tmp_path):
    """With the collector off, a solve leaves as much cyclic garbage at
    ten times the size, so pausing it in main() holds no memory in
    proportion to the input."""
    kinds = {
        "path": (lambda rng, n: gen_path_instance(rng, n, parts=5), "CJ", 300),
        "chordal": (lambda rng, n: gen_chordal_instance(rng, n, size=2, count=5), "CJ", 300),
        "cograph": (gen_cograph_instance, "CS", 30),
    }
    for kind, (make, rule, n) in kinds.items():
        found = []
        for size in (n, n, 10 * n):  # the first run warms up
            g, a, b = make(random.Random(1), size)
            inst = write(tmp_path, "i.json", {
                "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
                "A": list(a), "B": list(b), "rule": rule})
            out = io.StringIO()
            gc.collect()
            gc.disable()
            try:
                with contextlib.redirect_stdout(out):
                    code = main(["solve", inst])
                found.append(gc.collect())
            finally:
                gc.enable()
            assert code in (0, 1) and json.loads(out.getvalue())["algorithm"] == kind
        assert found[1] == found[2], kind


def test_shifted_path_cs_answers_in_bounded_memory(tmp_path):
    """Each component of a 200 000-vertex path shifts one vertex right:
    the shortest CS witness is one move per component, and the solve
    must find it within a 2 GB address space."""
    import resource

    n = 200_000
    a = [p for p in range(n - 1) if p % 6 < 3]
    inst = write(tmp_path, "shift.json", {
        "graph": {"n": n, "edges": [[p, p + 1] for p in range(n - 1)]},
        "A": a, "B": [p + 1 for p in a], "rule": "CS"})
    limit = 2 * 1024 ** 3
    child = subprocess.run(
        [sys.executable, "-m", "ccreconfig.cli", "solve", inst, "--compressed"],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert len(report["moves"]) == report["stats"]["length"] == 33_334


def test_full_state_cj_report_verifies_in_bounded_memory(tmp_path):
    """1 000 far-apart single vertices on a 100 000-vertex path each jump
    50 to the right: the chordal solver's full-state report (about
    12 MB) must verify within a 2 GB address space."""
    import resource

    n = 100_000
    a = [100 * i for i in range(1000)]
    inst = write(tmp_path, "jump.json", {
        "graph": {"n": n, "edges": [[p, p + 1] for p in range(n - 1)]},
        "A": a, "B": [p + 50 for p in a], "rule": "CJ"})
    report = tmp_path / "report.json"
    with open(report, "w") as fh:
        solved = subprocess.run(
            [sys.executable, "-m", "ccreconfig.cli", "solve", inst, "--algorithm", "chordal"],
            env=child_env(), stdout=fh, timeout=300,
        )
    assert solved.returncode == 0
    limit = 2 * 1024 ** 3
    child = subprocess.run(
        [sys.executable, "-m", "ccreconfig.cli", "verify", inst, str(report)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"ok": True, "rule": "CJ", "length": 1000}


def _stdout(argv):
    return _main_quietly(argv)[1]


def assert_indent_2(text, what):
    assert text == json.dumps(json.loads(text), indent=2) + "\n", what


def test_reports_are_laid_out_as_json_dumps_indent_2(tmp_path):
    """The report writer streams its output; byte for byte it must be
    what json.dumps(report, indent=2) and a newline give."""
    golden = Path(__file__).parent / "data" / "golden_solve.jsonl"
    for line in golden.read_text().splitlines():
        case = json.loads(line)
        text = _stdout(["solve", write(tmp_path, "i.json", case["instance"]), *case["flags"]])
        assert bool(text) == (case["expect"]["report"] is not None), case["name"]
        if text:
            assert_indent_2(text, case["name"])

    inst = _stdout(["gen", "--kind", "chordal", "--n", "30", "--seed", "2"])
    assert_indent_2(inst, "gen")
    path = write(tmp_path, "i.json", json.loads(inst))
    report = _stdout(["solve", path])
    assert json.loads(report)["states"]
    jumps = _stdout(["solve", path, "--compressed"])
    assert all(len(mv) == 2 for mv in json.loads(jumps)["moves"])
    assert_indent_2(jumps, "chordal jumps")

    path_inst = _stdout(["gen", "--kind", "path", "--n", "40", "--parts", "4", "--seed", "3",
                         "--rule", "CJ"])
    assert_indent_2(path_inst, "gen path")
    moves = _stdout(["solve", write(tmp_path, "p.json", json.loads(path_inst)), "--compressed"])
    assert json.loads(moves)["moves"]
    assert_indent_2(moves, "path moves")
    verified = _stdout(["verify", path, write(tmp_path, "r.json", json.loads(report))])
    assert_indent_2(verified, "verify")

    empty = write(tmp_path, "e.json", {"graph": {"n": 3, "edges": [[0, 1]]},
                                       "A": [], "B": [], "rule": "CJ"})
    text = _stdout(["solve", empty])
    assert json.loads(text)["states"] == [[]]
    assert_indent_2(text, "empty state")


def test_full_state_report_is_written_in_bounded_memory(tmp_path):
    """4 246 full states of a 20 000-vertex path, a 224 MB report, must
    be written within a 600 MB address space: the states go out row by
    row, never as one string."""
    import resource

    inst = tmp_path / "i.json"
    inst.write_text(_stdout(["gen", "--kind", "path", "--n", "20000", "--parts", "80",
                             "--seed", "1", "--rule", "CJ"]))
    report = tmp_path / "report.json"
    limit = 600 * 1024 ** 2
    with open(report, "w") as fh:
        child = subprocess.run(
            [sys.executable, "-m", "ccreconfig.cli", "solve", str(inst)],
            env=child_env(),
            stdout=fh,
            stderr=subprocess.PIPE,
            text=True,
            timeout=300,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
    assert child.returncode == 0, child.stderr
    with open(report) as fh:
        head = fh.read(4096)
        fh.seek(report.stat().st_size - 3)
        assert fh.read() == "\n}\n"
    # stats precede the states, so the head alone holds the length
    top = json.loads(head[:head.index(',\n  "states": [')] + "\n}")
    assert top["answer"] == "yes" and top["stats"]["length"] == 4246
