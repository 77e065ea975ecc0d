"""The four workloads: set-up from a seed, the operations of one pass,
and the check for every answer.

A workload's set-up builds its instances, writes them as JSON files for
the CLI, builds the ``Graph`` objects for the library calls and, on
oracle-verify, the witness reports to replay.  A pass is a fixed list of
CLI operations (each one ``ccreconfig`` child) and library operations
(each one public call on a prebuilt ``Graph``).  Checks use ``checks``
only; a check that has passed for one output is not repeated for an
identical output of the same operation.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import time
from dataclasses import dataclass
from typing import Callable

import ccreconfig as cc
from ccreconfig import generators

import checks as C
import instances as I

PATH_N = 200_000
CHORDAL_N = 200_000
FIXED_SEED = 20250512  # inputs of the operation that fails on every seed


@dataclass
class CliOp:
    name: str
    argv: list[str]
    # (exit code, stdout) -> True when the operation succeeded, False when
    # it failed as a program error; raises CheckError on a wrong answer
    check: Callable[[int, str], bool]


@dataclass
class ApiOp:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    cli_ops: list[CliOp]
    api_ops: list[ApiOp]
    api_reps: int  # library passes per round
    files: dict[str, str]  # instance and report files, name -> text
    probes: Callable[[], dict]  # per-layer figures of the traced run


class Memo:
    """Full check once per distinct output of an operation."""

    def __init__(self):
        self.done: dict[str, tuple[object, bool]] = {}

    def __call__(self, name: str, value, full: Callable[[], bool]) -> bool:
        hit = self.done.get(name)
        if hit is not None and hit[0] == value:
            return hit[1]
        outcome = full()
        self.done[name] = (value, outcome)
        return outcome


def lazy(make):
    box = []

    def get():
        if not box:
            box.append(make())
        return box[0]

    return get


def instance_text(inst: I.Instance, edges_json: str) -> str:
    return (
        f'{{"graph": {{"n": {inst.n}, "edges": {edges_json}}}, '
        f'"A": {json.dumps(inst.a)}, "B": {json.dumps(inst.b)}, "rule": "{inst.rule}"}}'
    )


def instance_files(insts: list[I.Instance]) -> dict[str, str]:
    encoded: dict[int, str] = {}
    out = {}
    for inst in insts:
        key = id(inst.edges)
        if key not in encoded:
            encoded[key] = json.dumps(inst.edges)
        out[f"{inst.name}.json"] = instance_text(inst, encoded[key])
    return out


def parse_report(text: str) -> dict:
    """The CLI report without its timing field."""
    report = json.loads(text)
    if isinstance(report, dict):
        report.get("stats", {}).pop("seconds", None)
    return report


SECONDS_FIELD = re.compile(r'"seconds": [-+0-9.eE]+')


def checked_report(memo: Memo, name: str, code: int, out: str, full) -> bool:
    """full(report) once per distinct (exit code, report text without its
    timing field); a repeat of a checked output is accepted as is."""
    key = (code, hashlib.sha256(SECONDS_FIELD.sub("", out).encode()).digest())
    return memo(name, key, lambda: full(parse_report(out)))


def expect_exit(code: int, want: int, report: dict) -> None:
    C.require(code == want, f"exit code {code}, expected {want}: {str(report)[:200]}")


# ---------------------------------------------------------------------------
# path-200k


def setup_path(seed: int) -> Workload:
    rng = random.Random(seed)
    insts = I.path_instances(rng, PATH_N)
    g = cc.Graph(PATH_N, insts[0].edges)
    host = lazy(lambda: C.Host(PATH_N, insts[0].edges))
    pos = lazy(lambda: C.path_positions(host()))
    memo = Memo()

    @lazy
    def truth():
        out = {}
        for inst in insts:
            occ_a = [pos()[v] for v in inst.a]
            occ_b = [pos()[v] for v in inst.b]
            runs_a = C.runs(occ_a)
            yes = C.path_answer(PATH_N, runs_a, C.runs(occ_b), inst.rule)
            C.require(yes == (inst.expect == "yes"), f"{inst.name}: construction and checker disagree")
            out[inst.name] = (yes, occ_a, occ_b, len(runs_a))
        return out

    def check_moves(inst, yes: bool, moves) -> None:
        want, occ_a, occ_b, k = truth()[inst.name]
        C.require(yes == want, f"{inst.name}: answered {'yes' if yes else 'no'}")
        if yes:
            C.replay_path_moves(PATH_N, occ_a, occ_b, moves, inst.rule)
            if inst.rule == "CJ":
                C.require(len(moves) <= 3 * k * k + 2 * k,
                          f"{inst.name}: {len(moves)} moves > 3k^2+2k")

    def cli_check(inst):
        def check(code: int, out: str) -> bool:
            def full(report):
                expect_exit(code, 0 if truth()[inst.name][0] else 1, report)
                check_moves(inst, report["answer"] == "yes", report.get("moves"))
                return True

            return checked_report(memo, "cli " + inst.name, code, out, full)

        return check

    def api_op(inst):
        solve = cc.solve_path_cs if inst.rule == "CS" else cc.solve_path_cj

        def check(res) -> bool:
            moves = None if res.moves is None else [mv.to_json() for mv in res.moves]

            def full():
                check_moves(inst, res.reachable, moves)
                return True

            return memo("api " + inst.name, (res.reachable, moves), full)

        return ApiOp(inst.name, lambda: solve(g, inst.a, inst.b), check)

    def probes() -> dict:
        out = {"paths.decide_s": 0.0, "paths.witness_s": 0.0, "paths.moves": 0}
        for inst in insts:
            solve = cc.solve_path_cs if inst.rule == "CS" else cc.solve_path_cj
            t_dec = timed(lambda: solve(g, inst.a, inst.b, want_moves=False))
            t_all, res = timed_result(lambda: solve(g, inst.a, inst.b))
            out["paths.decide_s"] += t_dec
            out["paths.witness_s"] += t_all - t_dec
            out["paths.moves"] += len(res.moves or ())
        return out

    return Workload(
        cli_ops=[
            CliOp(inst.name, ["solve", f"{inst.name}.json", "--compressed"], cli_check(inst))
            for inst in insts
        ],
        api_ops=[api_op(inst) for inst in insts],
        api_reps=1,
        files=instance_files(insts),
        probes=probes,
    )


# ---------------------------------------------------------------------------
# chordal-200k


def setup_chordal(seed: int) -> Workload:
    rng = random.Random(seed)
    g = generators.random_chordal_graph(rng, CHORDAL_N)
    edges = list(g.edges)
    host = C.Host(CHORDAL_N, edges)
    full = I.chordal_pair(rng, "states-s1", edges, host, 1, CHORDAL_N // 100)
    comp = I.chordal_pair(rng, "moves-s3", edges, host, 3, CHORDAL_N // 300)
    insts = [full, comp]
    moved = {
        inst.name: lazy(lambda inst=inst: C.displaced(host, inst.a, inst.b)) for inst in insts
    }
    memo = Memo()

    def check_answer(inst, answer, jumps, states) -> bool:
        C.require(answer == "yes", f"{inst.name}: answered {answer}")
        size = inst.meta["size"]
        C.require(len(jumps) == moved[inst.name](),
                  f"{inst.name}: {len(jumps)} jumps for {moved[inst.name]()} displaced components")
        C.check_jumps(host, inst.a, inst.b, jumps, size)
        if states is not None:
            length = C.check_states(host, states, inst.a, inst.b, "CJ")
            C.require(length == len(jumps), "states and jumps disagree")
        return True

    def cli_check(inst):
        def check(code: int, out: str) -> bool:
            def check_report(report):
                expect_exit(code, 0, report)
                C.require(("states" in report) == (inst is full), f"{inst.name}: output mode")
                return check_answer(inst, report["answer"], report["moves"], report.get("states"))

            return checked_report(memo, "cli " + inst.name, code, out, check_report)

        return check

    def api_op(inst):
        want_states = inst is full

        def check(res) -> bool:
            value = (res.answer, res.jumps, res.states)
            return memo("api " + inst.name, value, lambda: check_answer(inst, *value))

        return ApiOp(
            inst.name,
            lambda: cc.solve_equal_size_cj(g, inst.a, inst.b, want_states=want_states),
            check,
        )

    def probes() -> dict:
        t_states = timed(lambda: cc.solve_equal_size_cj(g, full.a, full.b, want_states=True))
        t_bare, res = timed_result(
            lambda: cc.solve_equal_size_cj(g, full.a, full.b, want_states=False))
        edges_n = len(res.conflicts.edges)
        edges_n += len(cc.solve_equal_size_cj(g, comp.a, comp.b, want_states=False).conflicts.edges)
        return {"chordal.states_s": t_states - t_bare, "chordal.conflict_edges": edges_n}

    files = instance_files(insts)
    return Workload(
        cli_ops=[
            CliOp(full.name, ["solve", f"{full.name}.json"], cli_check(full)),
            CliOp(comp.name, ["solve", f"{comp.name}.json", "--compressed"], cli_check(comp)),
        ],
        api_ops=[api_op(inst) for inst in insts],
        api_reps=2,
        files=files,
        probes=probes,
    )


# ---------------------------------------------------------------------------
# cograph-deep


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel(perm: list[int], inst: I.Instance) -> I.Instance:
    """The same instance with vertex v renamed perm[v]."""
    return I.Instance(inst.name, inst.n, [(perm[u], perm[v]) for u, v in inst.edges],
                      sorted(perm[v] for v in inst.a), sorted(perm[v] for v in inst.b),
                      inst.rule, inst.expect, dict(inst.meta))


def depth(node) -> int:
    deepest = 0
    stack = [(node, 1)]
    while stack:
        cur, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((child, d + 1) for child in cur.children)
    return deepest


def setup_cograph(seed: int) -> Workload:
    """Like oracle-verify, instances come from a fixed generator and the
    seed only permutes vertex ids (one permutation per graph): the cost
    of a solve depends on how deep in the cotree A and B differ, which
    varied with the seed."""
    rng = random.Random(seed)
    fixed = random.Random(FIXED_SEED)
    graphs = []
    insts: list[I.Instance] = []
    sizes = {"single": 20, "singletons": 10, "walk": 40}
    for name, n, edges, multi in (
        ("threshold", 300, I.threshold_edges(fixed, 300), True),
        ("cotree", 400, list(generators.random_cotree_graph(fixed, 400).edges), False),
    ):
        perm = permutation(rng, n)
        pairs = I.cograph_pairs(fixed, name, n, edges, sizes, multi=multi)
        pairs = [relabel(perm, inst) for inst in pairs]
        graphs.append(cc.Graph(n, pairs[0].edges))
        for inst in pairs:
            inst.edges = pairs[0].edges  # one edge list per graph, written once per file
            inst.meta["graph"] = len(graphs) - 1
            insts.append(inst)
    hosts = [lazy(lambda g=g: C.Host(g.n, g.edges)) for g in graphs]
    memo = Memo()

    def check_states(inst, reachable, states) -> bool:
        C.require(reachable, f"{inst.name}: answered no")
        host = hosts[inst.meta["graph"]]()
        length = C.check_states(host, states, inst.a, inst.b, inst.rule)
        if inst.rule == "CS1":
            C.require(length >= len(set(inst.a) - set(inst.b)),
                      f"{inst.name}: CS1 distance {length} < |A-B|")
        return True

    def cli_check(inst):
        def check(code: int, out: str) -> bool:
            def full(report):
                expect_exit(code, 0, report)
                return check_states(inst, report["answer"] == "yes", report.get("states"))

            return checked_report(memo, "cli " + inst.name, code, out, full)

        return check

    def api_op(inst):
        g = graphs[inst.meta["graph"]]
        rule = cc.Rule(inst.rule)

        def check(res) -> bool:
            value = (res.reachable, res.states)
            return memo("api " + inst.name, value, lambda: check_states(inst, *value))

        return ApiOp(inst.name, lambda: cc.solve_cograph_cs(g, inst.a, inst.b, variant=rule), check)

    def probes() -> dict:
        states = 0
        for inst in insts:
            g = graphs[inst.meta["graph"]]
            states += len(cc.solve_cograph_cs(g, inst.a, inst.b, variant=cc.Rule(inst.rule)).states)
        return {
            "cographs.cotree_depth": max(depth(cc.decompose_cograph(g)) for g in graphs),
            "cographs.states": states,
        }

    return Workload(
        cli_ops=[
            CliOp(inst.name, ["solve", f"{inst.name}.json"], cli_check(inst)) for inst in insts
        ],
        api_ops=[api_op(inst) for inst in insts],
        api_reps=1,
        files=instance_files(insts),
        probes=probes,
    )


# ---------------------------------------------------------------------------
# oracle-verify

ORACLE_SHAPES = ((4, 5), (3, 6))
ORACLE_SIZES = [2, 1, 1, 1]


def corrupt_states(states) -> list[list[int]]:
    """The witness without its second state.  The oracle and CS1
    witnesses are shortest and a chordal witness moves each component
    once, so the first and third state are never one move apart."""
    if len(states) < 3:
        raise C.CheckError("witness too short to drop a state")
    return [list(states[0])] + [list(s) for s in states[2:]]


def corrupt_path_moves(n: int, occ_a, moves) -> list[dict]:
    """The moves with the last one redirected next to another component.
    Every move still lifts a whole component and lands on free cells, so
    the moves still expand to states, but the last state merges two
    components and is not B."""
    occ = bytearray(n)
    for p in occ_a:
        occ[p] = 1
    for mv in moves[:-1]:
        occ[mv["from"]:mv["from"] + mv["size"]] = bytes(mv["size"])
        occ[mv["to"]:mv["to"] + mv["size"]] = b"\x01" * mv["size"]
    last = moves[-1]
    size = last["size"]
    occ[last["from"]:last["from"] + size] = bytes(size)
    for p in range(n - size + 1):
        if p != last["to"] and occ.find(1, p, p + size) == -1 and (
            (p > 0 and occ[p - 1]) or (p + size < n and occ[p + size])
        ):
            return moves[:-1] + [dict(last, to=p)]
    raise C.CheckError("no cell next to another component")


def setup_oracle(seed: int) -> Workload:
    """Instances come from a fixed generator and the seed only permutes
    their vertex ids: every seed gets isomorphic instances, so state
    spaces, search depths and witness lengths (and with them the cost)
    do not depend on the seed."""
    rng = random.Random(seed)
    fixed = random.Random(FIXED_SEED)
    graphs: list = []
    hosts: list = []
    oracle_insts: list[I.Instance] = []
    for rule in ("TJ", "TS", "CJ", "CS", "CS1"):
        for rows, cols in ORACLE_SHAPES:
            n = rows * cols
            edges = I.grid_edges(fixed, rows, cols)
            grid = C.Host(n, edges)
            a = I.spread_components(fixed, grid, ORACLE_SIZES)
            b = I.spread_components(fixed, grid, ORACLE_SIZES)
            inst = relabel(permutation(rng, n), I.Instance(
                f"oracle-{rule}-{rows}x{cols}", n, edges, a, b, rule, meta={"graph": len(graphs)}))
            oracle_insts.append(inst)
            graphs.append(cc.Graph(n, inst.edges))
            hosts.append(lazy(lambda inst=inst: C.Host(inst.n, inst.edges)))

    # witnesses to verify: (instance, report, graph)
    witnesses = []

    rows, cols = ORACLE_SHAPES[0]
    n = rows * cols
    edges = I.grid_edges(fixed, rows, cols)
    grid = C.Host(n, edges)
    a = I.spread_components(fixed, grid, ORACLE_SIZES)
    b = I.random_cs_walk(fixed, grid, a, 8)
    inst = relabel(permutation(rng, n), I.Instance("verify-oracle-CS", n, edges, a, b, "CS"))
    g = cc.Graph(n, inst.edges)
    res = cc.oracle_solve(g, inst.a, inst.b, cc.Rule.CS)
    witnesses.append((inst, {"rule": "CS", "states": [list(s) for s in res.states]}, g))

    n = 1000
    edges = [(i, i + 1) for i in range(n - 1)]
    prof_a, prof_b = I.buffered_profiles(fixed, n, 30, 15, 20, blocked=False)
    inst = relabel(permutation(rng, n), I.Instance(
        "verify-path-CJ", n, edges, I.place_profile(fixed, n, prof_a),
        I.place_profile(fixed, n, prof_b), "CJ"))
    g = cc.Graph(n, inst.edges)
    res = cc.solve_path_cj(g, inst.a, inst.b)
    witnesses.append((inst, {"rule": "CJ", "moves": [mv.to_json() for mv in res.moves]}, g))

    cg = generators.random_cotree_graph(fixed, 120)
    cot = I.cograph_pairs(fixed, "cot", cg.n, list(cg.edges), {"single": 12}, multi=False)
    inst = relabel(permutation(rng, cg.n), next(x for x in cot if x.name == "cot-one-CS1"))
    inst.name = "verify-cograph-CS1"
    g = cc.Graph(inst.n, inst.edges)
    res = cc.solve_cograph_cs(g, inst.a, inst.b, variant=cc.Rule.CS1)
    witnesses.append((inst, {"rule": "CS1", "states": [list(s) for s in res.states]}, g))

    hg = generators.random_chordal_graph(fixed, 2000)
    pair = I.chordal_pair(fixed, "verify-chordal-CJ", list(hg.edges),
                          C.Host(hg.n, hg.edges), 2, 40)
    inst = relabel(permutation(rng, hg.n), pair)
    g = cc.Graph(inst.n, inst.edges)
    res = cc.solve_equal_size_cj(g, inst.a, inst.b, want_states=True)
    witnesses.append((inst, {"rule": "CJ", "states": [list(s) for s in res.states]}, g))

    failing = random.Random(FIXED_SEED + 1)
    fg = generators.random_chordal_graph(failing, 2000)
    fhost = C.Host(fg.n, fg.edges)
    finst = I.chordal_pair(failing, "verify-chordal-moves", list(fg.edges), fhost, 2, 40)
    fres = cc.solve_equal_size_cj(fg, finst.a, finst.b, want_states=False)
    freport = {"answer": "yes", "rule": "CJ", "algorithm": "chordal",
               "moves": [[list(src), list(dst)] for src, dst in fres.jumps]}

    memo = Memo()
    files = instance_files(oracle_insts + [w[0] for w in witnesses] + [finst])
    files[f"{finst.name}.report.json"] = json.dumps(freport)

    @lazy
    def truth():
        out = {}
        for inst in oracle_insts:
            out[inst.name] = C.brute_force(hosts[inst.meta["graph"]](), inst.a, inst.b, inst.rule)
        return out

    def check_oracle(inst, reachable, distance, states) -> bool:
        want = truth()[inst.name]
        C.require(reachable == (want is not None),
                  f"{inst.name}: reachable={reachable}, brute force {want}")
        if reachable:
            C.require(distance == want, f"{inst.name}: distance {distance}, brute force {want}")
            length = C.check_states(hosts[inst.meta["graph"]](), states, inst.a, inst.b, inst.rule)
            C.require(length == want, f"{inst.name}: witness length {length}")
        return True

    def oracle_cli(inst):
        def check(code: int, out: str) -> bool:
            def full(report):
                expect_exit(code, 0 if truth()[inst.name] is not None else 1, report)
                return check_oracle(inst, report["answer"] == "yes",
                                    report["stats"].get("distance"), report.get("states"))

            return checked_report(memo, "cli " + inst.name, code, out, full)

        return check

    def oracle_api(inst):
        g = graphs[inst.meta["graph"]]
        rule = cc.Rule(inst.rule)

        def check(res) -> bool:
            value = (res.reachable, res.distance, res.states)
            return memo("api " + inst.name, value, lambda: check_oracle(inst, *value))

        return ApiOp(inst.name, lambda: cc.oracle_solve(g, inst.a, inst.b, rule), check)

    cli_ops = [
        CliOp(inst.name, ["solve", f"{inst.name}.json", "--algorithm", "oracle"], oracle_cli(inst))
        for inst in oracle_insts
    ]
    api_ops = [oracle_api(inst) for inst in oracle_insts]

    for inst, report, g in witnesses:
        host = lazy(lambda inst=inst: C.Host(inst.n, inst.edges))
        if "moves" in report:
            pos = lazy(lambda host=host: C.path_positions(host()))
            occ = lambda vs, pos=pos: [pos()[v] for v in vs]  # noqa: E731

            def replay(moves, inst=inst, occ=occ):
                C.replay_path_moves(inst.n, occ(inst.a), occ(inst.b), moves, inst.rule)

            bad = corrupt_path_moves(inst.n, occ(inst.a), report["moves"])
            bad_report = dict(report, moves=bad)
            good_seq, bad_seq = report["moves"], bad
        else:
            def replay(states, inst=inst, host=host):
                C.check_states(host(), states, inst.a, inst.b, inst.rule)

            bad = corrupt_states(report["states"])
            bad_report = dict(report, states=bad)
            good_seq, bad_seq = report["states"], bad
        files[f"{inst.name}.report.json"] = json.dumps(report)
        files[f"{inst.name}.bad.json"] = json.dumps(bad_report)

        @lazy
        def judged(replay=replay, good_seq=good_seq, bad_seq=bad_seq):
            replay(good_seq)
            try:
                replay(bad_seq)
            except C.CheckError:
                return True
            raise C.CheckError("corrupted witness passes the independent replay")

        for suffix, valid in (("report", True), ("bad", False)):
            def cli_verify(code, out, valid=valid, judged=judged, name=f"{inst.name}.{suffix}"):
                judged()
                report_out = parse_report(out)
                expect_exit(code, 0 if valid else 1, report_out)
                C.require(report_out.get("ok") is valid, f"{name}: verify said {report_out}")
                return True

            argv = ["verify", f"{inst.name}.json", f"{inst.name}.{suffix}.json"]
            cli_ops.append(CliOp(f"{inst.name}.{suffix}", argv, cli_verify))

            seq = good_seq if valid else bad_seq

            def call(g=g, inst=inst, seq=seq, moves="moves" in report):
                rule = cc.Rule(inst.rule)
                if moves:
                    parsed = [cc.CompressedMove.from_json(mv) for mv in seq]
                    states = cc.expand_moves(g, inst.a, parsed, rule).states
                else:
                    states = seq
                return cc.verify_sequence(g, states, rule=rule)

            def api_verify(res, valid=valid, judged=judged, name=f"{inst.name}.{suffix}"):
                judged()
                C.require(bool(res) is valid, f"{name}: verify_sequence said {res}")
                return True

            api_ops.append(ApiOp(f"{inst.name}.{suffix}", call, api_verify))

    def failing_verify(code: int, out: str) -> bool:
        """verify parses only the path move format, so it rejects the
        chordal solver's own compressed report with exit 3."""
        if code == 3:
            return False
        C.check_jumps(fhost, finst.a, finst.b, freport["moves"], 2)
        report_out = parse_report(out)
        expect_exit(code, 0, report_out)
        C.require(report_out.get("ok") is True, f"chordal moves verify said {report_out}")
        return True

    cli_ops.append(CliOp(finst.name, ["verify", f"{finst.name}.json", f"{finst.name}.report.json"],
                         failing_verify))

    def probes() -> dict:
        out = {"oracle.states": 0}
        for rule in ("TJ", "TS", "CJ", "CS", "CS1"):
            states = seconds = 0.0
            for inst in oracle_insts:
                g = graphs[inst.meta["graph"]]
                space = cc.enumerate_states(g, cc.cc_multiset(g, inst.a))
                src = space.index[sum(1 << v for v in inst.a)]
                t, dist = timed_result(lambda: cc.bfs_distances(space, src, cc.Rule(rule)))
                states += sum(d is not None for d in dist)
                seconds += t
                if rule == inst.rule:
                    out["oracle.states"] += len(space)
            out[f"oracle.{rule}.states_per_s"] = states / seconds
        return out

    return Workload(cli_ops, api_ops, api_reps=1, files=files, probes=probes)


def timed(fn) -> float:
    return timed_result(fn)[0]


def timed_result(fn):
    t0 = time.perf_counter()
    res = fn()
    return time.perf_counter() - t0, res


WORKLOADS = {
    "path-200k": setup_path,
    "chordal-200k": setup_chordal,
    "cograph-deep": setup_cograph,
    "oracle-verify": setup_oracle,
}
