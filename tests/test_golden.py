"""Golden `solve` reports on a fixed seeded corpus.

Each line of data/golden_solve.jsonl holds one instance, the extra
`solve` flags, and what `ccreconfig solve` printed for it: exit code,
stdout report and stderr, with the timing field `stats.seconds` left
out.  The test replays every line and demands identical output, so any
change to a solver, the dispatch, or the report shape shows up here.
The instances are stored, not regenerated, so the corpus does not move
when the generators change.

Recording a new corpus (only when a report change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from ccreconfig.cli import main

DATA = Path(__file__).parent / "data" / "golden_solve.jsonl"


def run_solve(instance: dict, flags: list[str], tmp: Path) -> dict:
    path = tmp / "instance.json"
    path.write_text(json.dumps(instance))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", str(path), *flags])
    report = json.loads(out.getvalue()) if out.getvalue().strip() else None
    if report is not None:
        report["stats"].pop("seconds", None)
    return {"code": code, "report": report, "err": err.getvalue().strip()}


def test_golden_reports(tmp_path):
    lines = DATA.read_text().splitlines()
    assert len(lines) >= 200
    codes = set()
    for line in lines:
        case = json.loads(line)
        got = run_solve(case["instance"], case["flags"], tmp_path)
        assert got == case["expect"], case["name"]
        codes.add(got["code"])
    assert codes == {0, 1, 2, 3, 4}


# ---------------------------------------------------------------------------
# corpus recording


def _instance(g, a, b, rule, **extra) -> dict:
    return {
        "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
        "A": list(a),
        "B": list(b),
        "rule": rule,
        **extra,
    }


def _relabel(rng: random.Random, g, a, b):
    from ccreconfig import Graph

    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    return h, sorted(perm[v] for v in a), sorted(perm[v] for v in b)


def _random_pair(rng: random.Random, g):
    """Two random subsets of one graph with the same multiset, or any
    pair when sampling keeps missing."""
    from ccreconfig import cc_multiset

    size = rng.randint(1, max(1, g.n // 2))
    a = sorted(rng.sample(range(g.n), size))
    for _ in range(200):
        b = sorted(rng.sample(range(g.n), size))
        if b != a and cc_multiset(g, b) == cc_multiset(g, a):
            return a, b
    return a, sorted(rng.sample(range(g.n), size))


def corpus():
    """(name, instance, flags) triples covering every algorithm, every
    rule, --compressed, --fallback oracle and exit codes 0-4."""
    from ccreconfig import Graph, cycle_graph, path_graph
    from ccreconfig.generators import (
        gen_chordal_instance,
        gen_cograph_instance,
        gen_path_instance,
        random_chordal_graph,
    )

    rng = random.Random(20250512)
    for i in range(44):
        g, a, b = gen_path_instance(rng, rng.randint(5, 18))
        g, a, b = _relabel(rng, g, a, b)
        rule = ("CS", "CJ")[i % 2]
        flags = ["--compressed"] if i % 4 >= 2 else []
        yield f"path-{i}", _instance(g, a, b, rule), flags
    for i in range(8):
        # tight paths: few spare vertices, so CJ often hits the buffer
        k = rng.randint(2, 4)
        n = rng.randint(2 * k + 1, 2 * k + 4)
        g, a, b = gen_path_instance(rng, n, parts=k)
        yield f"path-tight-{i}", _instance(g, a, b, "CJ"), []
    for i in range(40):
        g, a, b = gen_cograph_instance(rng, rng.randint(3, 11), connected=i % 3 != 0)
        rule = ("CS", "CS1")[i % 2]
        flags = ["--compressed"] if i % 6 == 5 else []
        yield f"cograph-{i}", _instance(g, a, b, rule), flags
    for i in range(30):
        g, a, b = gen_chordal_instance(rng, rng.randint(8, 30))
        flags = ["--compressed"] if i % 2 else []
        yield f"chordal-{i}", _instance(g, a, b, "CJ"), flags
    rules = ["TJ", "TS", "CJ", "CS", "CS1"]
    for i in range(40):
        n = rng.randint(4, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        a, b = _random_pair(rng, g)
        flags = [["--algorithm", "oracle"], []][i % 2]
        yield f"oracle-{i}", _instance(g, a, b, rules[i % 5]), flags
    for i in range(10):
        g = random_chordal_graph(rng, rng.randint(6, 9))
        a, b = _random_pair(rng, g)
        yield f"oracle-cap-{i}", _instance(g, a, b, rules[i % 5]), ["--state-cap", "4"]

    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c8 = cycle_graph(8)
    p4 = path_graph(4)
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    special = [
        ("c4-chordal-unknown", _instance(c4, [0, 2], [1, 3], "CJ"), ["--algorithm", "chordal"]),
        ("c8-chordal-unknown", _instance(c8, [0, 1, 4, 5], [2, 3, 6, 7], "CJ"),
         ["--algorithm", "chordal"]),
        ("c8-chordal-unknown-compressed", _instance(c8, [0, 1, 4, 5], [2, 3, 6, 7], "CJ"),
         ["--algorithm", "chordal", "--compressed"]),
        ("c8-chordal-fallback", _instance(c8, [0, 1, 4, 5], [2, 3, 6, 7], "CJ"),
         ["--algorithm", "chordal", "--fallback", "oracle"]),
        ("c4-path-forced", _instance(c4, [0, 2], [1, 3], "CJ"), ["--algorithm", "path"]),
        ("c4-path-fallback", _instance(c4, [0, 2], [1, 3], "CJ"),
         ["--algorithm", "path", "--fallback", "oracle"]),
        ("star-path-forced", _instance(star, [1], [2], "CS"), ["--algorithm", "path"]),
        ("path-rule-ts-forced", _instance(p4, [0], [3], "TS"), ["--algorithm", "path"]),
        ("path-rule-ts-fallback", _instance(p4, [0], [3], "TS"),
         ["--algorithm", "path", "--fallback", "oracle"]),
        ("p4-cograph-forced", _instance(p4, [0], [3], "CS"), ["--algorithm", "cograph"]),
        ("p4-cograph-fallback", _instance(p4, [0], [3], "CS"),
         ["--algorithm", "cograph", "--fallback", "oracle"]),
        ("cograph-rule-cj-forced", _instance(star, [1], [2], "CJ"), ["--algorithm", "cograph"]),
        ("chordal-rule-cs-forced", _instance(star, [1], [2], "CS"), ["--algorithm", "chordal"]),
        ("chordal-mixed-sizes", _instance(path_graph(8), [0, 2, 3], [4, 5, 7], "CJ"),
         ["--algorithm", "chordal"]),
        ("chordal-mixed-sizes-fallback", _instance(path_graph(8), [0, 2, 3], [4, 5, 7], "CJ"),
         ["--algorithm", "chordal", "--fallback", "oracle"]),
        ("declared-multiset-ok", _instance(p4, [0, 1], [2, 3], "CS", multiset=[2]), []),
        ("declared-multiset-bad", _instance(p4, [0, 1], [2, 3], "CS", multiset=[1, 1]), []),
        ("multiset-mismatch", _instance(p4, [0, 1], [0, 2], "CS"), []),
        ("multiset-mismatch-oracle", _instance(c4, [0, 1], [0, 2], "TS"), []),
        ("vertex-out-of-range", _instance(p4, [0, 9], [1, 2], "CS"), []),
        ("duplicate-vertex", _instance(p4, [1, 1], [1, 2], "CS"), []),
        ("unknown-rule", _instance(p4, [0], [3], "XX"), []),
        ("rule-flag", _instance(p4, [0], [3], "CS"), ["--rule", "tj"]),
        ("no-rule", {"graph": {"n": 2, "edges": []}, "A": [0], "B": [1]}, []),
        ("no-b", {"graph": {"n": 2, "edges": []}, "A": [0], "rule": "TJ"}, []),
        ("no-graph", {"A": [0], "B": [1], "rule": "TJ"}, []),
        ("self-loop", {"graph": {"n": 2, "edges": [[1, 1]]}, "A": [0], "B": [1],
                       "rule": "TJ"}, []),
        ("empty-graph", _instance(Graph(0), [], [], "CS"), []),
        ("empty-sets", _instance(p4, [], [], "CJ"), ["--compressed"]),
        ("oracle-cap", _instance(path_graph(7), [0, 2, 3, 4], [0, 1, 2, 4], "CJ"),
         ["--algorithm", "oracle", "--state-cap", "3"]),
    ]
    yield from special


def record() -> None:
    import tempfile

    DATA.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp, DATA.open("w") as fh:
        for name, instance, flags in corpus():
            expect = run_solve(instance, flags, Path(tmp))
            row = {"name": name, "instance": instance, "flags": flags, "expect": expect}
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    record()
    sys.exit(0)
