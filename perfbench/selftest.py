#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each case hands a check a genuine output of the program, which must
pass, and a tampered copy (a flipped answer or a corrupted witness),
which must be rejected.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ccreconfig as cc  # noqa: E402
from ccreconfig import cli, generators  # noqa: E402

import checks as C  # noqa: E402
import instances as I  # noqa: E402
import workloads as W  # noqa: E402

failures: list[str] = []


def expect(name: str, genuine, tampered) -> None:
    """genuine() must return without error, tampered() must raise CheckError."""
    try:
        genuine()
    except C.CheckError as exc:
        failures.append(f"{name}: genuine output rejected: {exc}")
        return
    try:
        tampered()
    except C.CheckError as exc:
        print(f"ok  {name}: rejected ({exc})")
        return
    failures.append(f"{name}: tampered output accepted")


def oracle_cases() -> None:
    wl = W.setup_oracle(1)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for fname, text in wl.files.items():
            Path(tmp, fname).write_text(text)
        for op in wl.cli_ops:
            if not op.name.startswith("oracle-"):
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([str(Path(tmp, a)) if a.endswith(".json") else a for a in op.argv])
            report = json.loads(out.getvalue())
            if report["answer"] != "yes" or len(report["states"]) < 3:
                continue
            flipped = dict(report, answer="no")
            expect(f"cli {op.name} flipped answer",
                   lambda: op.check(code, out.getvalue()),
                   lambda: op.check(code, json.dumps(flipped)))
            states = report["states"]
            bad = dict(report, states=[states[0], states[2]] + states[2:])
            expect(f"cli {op.name} corrupted witness",
                   lambda: op.check(code, out.getvalue()),
                   lambda: op.check(code, json.dumps(bad)))
            break
        else:
            failures.append("no oracle instance with a witness of length >= 2")
    with contextlib.suppress(OSError):
        scratch.rmdir()
    api = next(op for op in wl.api_ops if op.name.startswith("oracle-"))
    res = api.call()
    expect(f"api {api.name} flipped answer", lambda: api.check(res),
           lambda: api.check(dataclasses.replace(res, reachable=not res.reachable)))


def path_cases() -> None:
    rng = random.Random(2)
    n = 1000
    order = list(range(n))
    edges = [(i, i + 1) for i in range(n - 1)]
    prof_a, prof_b = I.buffered_profiles(rng, n, 30, 15, 20, blocked=False)
    occ_a, occ_b = I.place_profile(rng, n, prof_a), I.place_profile(rng, n, prof_b)
    g = cc.Graph(n, edges)
    res = cc.solve_path_cj(g, [order[p] for p in occ_a], [order[p] for p in occ_b])
    moves = [mv.to_json() for mv in res.moves]
    expect("path CJ corrupted moves",
           lambda: C.replay_path_moves(n, occ_a, occ_b, moves, "CJ"),
           lambda: C.replay_path_moves(n, occ_a, occ_b, W.corrupt_path_moves(n, occ_a, moves),
                                       "CJ"))
    expect("path CJ moves replayed as slides",
           lambda: None, lambda: C.replay_path_moves(n, occ_a, occ_b, moves, "CS"))
    runs_a, runs_b = C.runs(occ_a), C.runs(occ_b)
    truth = C.path_answer(n, runs_a, runs_b, "CJ")
    expect("path CJ flipped answer",
           lambda: C.require(res.reachable == truth, "answer"),
           lambda: C.require((not res.reachable) == truth,
                             "flipped answer differs from the profiles"))
    blocked_a, blocked_b = I.buffered_profiles(rng, n, 30, 15, 20, blocked=True)
    runs_blocked_a = C.runs(I.place_profile(rng, n, blocked_a))
    runs_blocked_b = C.runs(I.place_profile(rng, n, blocked_b))
    expect("path CJ blocked pair",
           lambda: C.require(not C.path_answer(n, runs_blocked_a, runs_blocked_b, "CJ"),
                             "blocked instance judged reachable"),
           lambda: C.require(not truth, "reachable instance judged blocked"))


def chordal_cases() -> None:
    rng = random.Random(3)
    g = generators.random_chordal_graph(rng, 3000)
    host = C.Host(g.n, g.edges)
    inst = I.chordal_pair(rng, "c", list(g.edges), host, 2, 40)
    res = cc.solve_equal_size_cj(g, inst.a, inst.b, want_states=True)
    jumps = [(list(s), list(d)) for s, d in res.jumps]
    src, dst = jumps[0]
    expect("chordal jump onto a non-component",
           lambda: C.check_jumps(host, inst.a, inst.b, jumps, 2),
           lambda: C.check_jumps(host, inst.a, inst.b, [(src[:1] + dst[:1], dst)] + jumps[1:], 2))
    expect("chordal jump count",
           lambda: C.require(len(jumps) == C.displaced(host, inst.a, inst.b), "count"),
           lambda: C.require(len(jumps) + 1 == C.displaced(host, inst.a, inst.b),
                             "one jump too many"))
    states = [list(s) for s in res.states]
    expect("chordal states with a skipped state",
           lambda: C.check_states(host, states, inst.a, inst.b, "CJ"),
           lambda: C.check_states(host, [states[0]] + states[2:], inst.a, inst.b, "CJ"))


def cograph_cases() -> None:
    rng = random.Random(4)
    edges = I.threshold_edges(rng, 80)
    g = cc.Graph(80, edges)
    host = C.Host(80, edges)
    pairs = I.cograph_pairs(rng, "t", 80, edges, {"single": 8, "singletons": 4, "walk": 10})
    inst = next(x for x in pairs if x.name == "t-one-CS1")
    res = cc.solve_cograph_cs(g, inst.a, inst.b, variant=cc.Rule.CS1)
    states = [list(s) for s in res.states]
    expect("cograph CS1 states checked as CS1 after merging two steps",
           lambda: C.check_states(host, states, inst.a, inst.b, "CS1"),
           lambda: C.check_states(host, [states[0]] + states[2:], inst.a, inst.b, "CS1"))


def main() -> int:
    for case in (oracle_cases, path_cases, chordal_cases, cograph_cases):
        case()
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
