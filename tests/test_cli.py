import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccreconfig
from ccreconfig.cli import main

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


def test_pipe_gen_into_solve():
    # the children import the package from where this process found it
    src = str(Path(ccreconfig.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
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
    return code, err.getvalue()


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
            code, err = _main_quietly(argv)
            assert code in (0, 1, 2, 3, 4)
            if err:
                assert len(err.splitlines()) == 1 and "error" in json.loads(err)
