"""The benchmark reads solver results by attribute name (`reachable`,
`states`, `moves`, `answer`, `distance`, `jumps`, `conflicts`) and
rebuilds them with `dataclasses.replace`.  Its self-test hands each of
its output checks a genuine and a tampered result, so renaming any of
those attributes fails here, in the test suite.  Its tracer swaps
`cli.json` for a proxy with `load`, `dumps` and `JSONDecodeError` only,
so a traced CLI run must get by with those."""

import contextlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

from ccreconfig.cli import main
from ccreconfig.generators import gen_chordal_instance

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    child = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stdout + child.stderr


def test_traced_cli_writes_the_same_report(tmp_path):
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    g, a, b = gen_chordal_instance(random.Random(3), 40, size=2, count=3)
    inst = tmp_path / "i.json"
    inst.write_text(json.dumps({"graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
                                "A": list(a), "B": list(b), "rule": "CJ"}))

    def solve() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["solve", str(inst)]) == 0
        return re.sub(r'"seconds": [^,\n]+', '"seconds": 0', out.getvalue())

    untraced = solve()
    tracer = tracing.Tracer()
    with tracer.layers():
        traced = solve()
    assert traced == untraced
    assert json.loads(traced)["states"]
    assert tracer.seconds["cli.json_emit_s"] > 0 and tracer.seconds["graph.is_chordal_s"] == 0
