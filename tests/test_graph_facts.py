"""The path order and the cotree are computed once per Graph and read
from the cache by class detection and the solvers alike."""

import json
import random

import pytest

from ccreconfig import Graph, Rule, cographs, decompose_cograph, graph, paths, solve_cograph_cs
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
    walks = counted(monkeypatch, paths, "_walk_path")
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
    assert c4.cotree is not None
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert p4.path_layout == ((0, 1, 2, 3), (0, 1, 2, 3))
    assert p4.cotree is None and decompose_cograph(p4) is None
    assert decompose_cograph(c4) is c4.cotree
