"""The path order and the cotree are computed once per Graph and read
from the cache by class detection and the solvers alike."""

import json
import random

import pytest

import ccreconfig
from ccreconfig import (
    Graph, Rule, cli, cographs, decompose_cograph, graph, solve_cograph_cs,
)
from ccreconfig.cli import main
from ccreconfig.generators import random_cotree_graph

from helpers import threshold_graph


def counted(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("flags", [[], ["--compressed"], ["--rule", "CS"]])
def test_cli_path_solve_walks_once(tmp_path, capsys, monkeypatch, flags):
    """The path is walked once, as the Graph is built, and a path solve
    never builds its neighbour sets."""
    walks = counted(monkeypatch, graph, "_walk_path")
    sets = counted(monkeypatch, Graph.adj, "func")
    # the multisets come from the path runs, not a component search
    searches = counted(monkeypatch, graph, "connected_components")
    order = [3, 7, 0, 5, 1, 6, 2, 4]  # a relabeled 8-vertex path
    inst = {
        "graph": {"n": 8, "edges": [[u, v] for u, v in zip(order, order[1:])]},
        "A": [3, 0, 5],  # positions 0, 2, 3: profile (1, 2)
        "B": [3, 7, 5],  # positions 0, 1, 3: profile (2, 1)
        "rule": "CJ",
    }
    path = tmp_path / "i.json"
    path.write_text(json.dumps(inst))
    code = main(["solve", str(path), *flags])
    report = json.loads(capsys.readouterr().out)
    assert report["algorithm"] == "path" and code in (0, 1)
    assert len(walks) == 1
    assert searches == [] and sets == []


def test_gen_path_lists_its_edges_without_the_sets(capsys, monkeypatch):
    """gen writes a path's edges from its layout, in the order Graph.edges
    lists them, and never builds its neighbour sets."""
    sets = counted(monkeypatch, Graph.adj, "func")
    assert main(["gen", "--kind", "path", "--n", "300", "--seed", "3"]) == 0
    assert sets == []
    edges = json.loads(capsys.readouterr().out)["graph"]["edges"]
    assert edges == sorted(edges) and all(u < v for u, v in edges)
    assert Graph(300, edges).path_layout is not None


def test_cli_cograph_solve_decomposes_once(tmp_path, capsys, monkeypatch):
    builds = counted(monkeypatch, cographs, "_build_cotree")
    g = threshold_graph(9)
    inst = {
        "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
        "A": [0, 2, 4],
        "B": [0, 2, 6],
        "rule": "CS1",
    }
    path = tmp_path / "i.json"
    path.write_text(json.dumps(inst))
    assert main(["solve", str(path)]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["algorithm"] == "cograph"
    assert len(builds) == 1


def test_cli_cograph_solve_builds_the_cotree_through_decompose_cograph(tmp_path, capsys):
    """A timing wrapper bound in place of decompose_cograph, under every
    name the package gives it, sees the cotree a CLI solve builds."""
    real = cographs.decompose_cograph
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    bound = [(mod, attr) for mod in (ccreconfig, cographs, cli)
             for attr, val in vars(mod).items() if val is real]
    for mod, attr in bound:
        setattr(mod, attr, wrapper)
    try:
        g = threshold_graph(9)
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
                                    "A": [0, 2, 4], "B": [0, 2, 6], "rule": "CS"}))
        assert main(["solve", str(path)]) in (0, 1)
    finally:
        for mod, attr in bound:
            setattr(mod, attr, real)
    assert json.loads(capsys.readouterr().out)["algorithm"] == "cograph"
    assert len(calls) == 1


def _dispatch_calls(tmp_path, capsys, monkeypatch, inst):
    """Solve the instance with auto dispatch; the report's algorithm and
    the calls made to each class check and to the equal-size solver.  The
    path walk runs as the Graph is built, on any n - 1 edges."""
    names = ("_walk_path", "_build_cotree", "is_chordal", "solve_equal_size_cj")
    modules = (graph, cographs, graph, cli)
    calls = {name: counted(monkeypatch, mod, name) for mod, name in zip(modules, names)}
    path = tmp_path / "i.json"
    path.write_text(json.dumps(inst))
    assert main(["solve", str(path)]) in (0, 1)
    algorithm = json.loads(capsys.readouterr().out)["algorithm"]
    return algorithm, {name: len(got) for name, got in calls.items()}


def test_dispatch_runs_only_the_class_checks_it_needs(tmp_path, capsys, monkeypatch):
    # a star is chordal, a cograph and not a path; CJ never asks for a
    # cotree, and equal-size CJ is decided without a chordality test
    star = {"graph": {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}, "A": [1], "B": [2]}
    with monkeypatch.context() as m:
        algorithm, calls = _dispatch_calls(tmp_path, capsys, m, dict(star, rule="CJ"))
    assert algorithm == "chordal"
    assert calls["_walk_path"] == 1 and calls["_build_cotree"] == 0
    assert calls["is_chordal"] == 0 and calls["solve_equal_size_cj"] == 1
    assert not hasattr(cli, "is_chordal")  # no copy the count would miss

    p5 = {"graph": {"n": 5, "edges": [[i, i + 1] for i in range(4)]}, "A": [0, 2], "B": [1, 4]}
    for rule in ("TJ", "TS"):
        with monkeypatch.context() as m:
            algorithm, calls = _dispatch_calls(tmp_path, capsys, m, dict(p5, rule=rule))
        assert algorithm == "oracle"
        assert calls["_walk_path"] == 1  # the walk of construction, none added
        assert calls["_build_cotree"] == calls["is_chordal"] == 0

    g = threshold_graph(9)
    inst = {"graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
            "A": [0, 2, 4], "B": [0, 2, 6], "rule": "CS1"}
    with monkeypatch.context() as m:
        algorithm, calls = _dispatch_calls(tmp_path, capsys, m, inst)
    assert g.m != g.n - 1  # so construction does not walk
    assert algorithm == "cograph" and calls["_walk_path"] == 0


@pytest.mark.parametrize("variant", [Rule.CS, Rule.CS1])
def test_second_cograph_solve_reuses_cotree(monkeypatch, variant):
    rng = random.Random(7)
    for _ in range(20):
        g = random_cotree_graph(rng, 10)
        a = sorted(rng.sample(range(10), 4))
        b = sorted(rng.sample(range(10), 4))
        first = solve_cograph_cs(g, a, b, variant=variant)
        with monkeypatch.context() as m:
            builds = counted(m, cographs, "_build_cotree")
            splits = counted(m, graph, "co_components")
            again = solve_cograph_cs(g, a, b, variant=variant)
        assert again == first
        assert builds == [] and splits == []


def test_caches_hold_none_outside_the_class():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert c4.path_layout is None
    assert c4._cotree is not None
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert p4.path_layout == (0, 1, 2, 3)
    assert p4._cotree is None and decompose_cograph(p4) is None
    assert decompose_cograph(c4) is c4._cotree
