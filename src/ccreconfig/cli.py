"""Command line interface.

Subcommands: solve an instance with a chosen or auto-picked algorithm,
verify a sequence against an instance, run the exhaustive search
directly, and generate seeded instances.  Exit codes: 0 yes / valid,
1 no / violation, 2 undecided, 3 invalid input, 4 state space over cap.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Any

from .chordal import solve_equal_size_cj
from .cographs import is_cograph, solve_cograph_cs
from .errors import (
    InvalidInstanceError,
    NotACographError,
    StateSpaceTooLargeError,
    UnequalSizesError,
    WrongGraphClassError,
)
from .generators import gen_chordal_instance, gen_cograph_instance, gen_path_instance
from .graph import Graph, SizeMultiset, _clean_subset, cc_multiset, is_chordal, parse_graph
from .oracle import DEFAULT_STATE_CAP, build_reconfig_graph, export_dot, oracle_solve
from .paths import CompressedMove, expand_moves, is_path_graph, solve_path_cj, solve_path_cs
from .rules import Rule, verify_sequence

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INVALID = 3
EXIT_TOO_LARGE = 4

_ANSWER_CODES = {"yes": EXIT_YES, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}


def _read_json(path: str) -> Any:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidInstanceError(f"cannot read {path}: {exc}") from None


def _int_list(value: Any, what: str) -> list[int]:
    """The value itself if it is a JSON list of integers."""
    if type(value) is not list or not all(type(v) is int for v in value):
        raise InvalidInstanceError(f"{what} must be a list of integers")
    return value


def _instance_graph(obj: dict) -> Graph:
    if "graph_file" in obj:
        if not isinstance(obj["graph_file"], str):
            raise InvalidInstanceError('"graph_file" must be a path string')
        try:
            with open(obj["graph_file"], encoding="utf-8") as fh:
                return parse_graph(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInstanceError(str(exc)) from None
    payload = obj.get("graph")
    if not isinstance(payload, dict) or "n" not in payload:
        raise InvalidInstanceError('instance needs "graph" {n, edges} or "graph_file"')
    if type(payload["n"]) is not int:
        raise InvalidInstanceError('"n" must be an integer')
    edges = payload.get("edges", [])
    if type(edges) is not list or not all(
        type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
        for e in edges
    ):
        raise InvalidInstanceError('"edges" must be a list of [u, v] integer pairs')
    return Graph(payload["n"], edges)


def _load_instance(path: str, rule_flag: str | None):
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InvalidInstanceError("instance must be a JSON object")
    g = _instance_graph(obj)
    if "A" not in obj or "B" not in obj:
        raise InvalidInstanceError('instance needs "A" and "B" vertex lists')
    a = _clean_subset(g, _int_list(obj["A"], '"A"'))
    b = _clean_subset(g, _int_list(obj["B"], '"B"'))
    rule_name = rule_flag or obj.get("rule")
    if not rule_name:
        raise InvalidInstanceError('no rule: set "rule" in the instance or pass --rule')
    rule = Rule.parse(rule_name)
    declared = obj.get("multiset")
    ma, mb = cc_multiset(g, a), cc_multiset(g, b)
    if declared is not None:
        stated = SizeMultiset(_int_list(declared, '"multiset"'))
        if stated != ma or stated != mb:
            raise InvalidInstanceError(
                f"declared multiset {list(stated)} does not match the "
                f"configurations ({list(ma)} vs {list(mb)})"
            )
    return g, a, b, rule, ma, mb


def _pick_algorithm(g: Graph, rule: Rule, multiset: SizeMultiset) -> str:
    if rule in (Rule.CS, Rule.CJ) and is_path_graph(g):
        return "path"
    if rule in (Rule.CS, Rule.CS1) and is_cograph(g):
        return "cograph"
    if rule is Rule.CJ and len(set(multiset)) <= 1 and is_chordal(g):
        return "chordal"
    return "oracle"


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def _fail(code: int, message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _run_algorithm(algorithm, g, a, b, rule, args):
    """Returns (answer, states, moves, reason, extra_stats)."""
    if algorithm == "path":
        if rule is Rule.CS:
            res = solve_path_cs(g, a, b)
        elif rule is Rule.CJ:
            res = solve_path_cj(g, a, b)
        else:
            raise InvalidInstanceError("path algorithm handles CS and CJ only")
        if not res.reachable:
            return "no", None, None, res.reason, {}
        moves = [mv.to_json() for mv in res.moves]
        states = None
        if not args.compressed:
            states = expand_moves(g, a, res.moves, rule).states
        return "yes", states, moves, None, {}
    if algorithm == "cograph":
        if rule not in (Rule.CS, Rule.CS1):
            raise InvalidInstanceError("cograph algorithm handles CS and CS1 only")
        res = solve_cograph_cs(g, a, b, variant=rule)
        if not res.reachable:
            return "no", None, None, res.reason, {}
        return "yes", res.states, None, None, {}
    if algorithm == "chordal":
        # sound on any host: a yes comes with its schedule, and a cyclic
        # conflict graph (impossible when the host is chordal) stays
        # undecided instead of guessing
        if rule is not Rule.CJ:
            raise InvalidInstanceError("chordal algorithm handles CJ only")
        res = solve_equal_size_cj(g, a, b, want_states=not args.compressed)
        if res.answer == "yes":
            moves = [[list(src), list(dst)] for src, dst in res.jumps]
            return "yes", res.states, moves, None, {}
        return res.answer, None, None, res.reason, {}
    res = oracle_solve(g, a, b, rule=rule, state_cap=args.state_cap)
    answer = "yes" if res.reachable else "no"
    extra = {"space": res.space_size}
    if res.reachable:
        extra["distance"] = res.distance
    return answer, res.states, None, res.reason, extra


def _cmd_solve(args) -> int:
    g, a, b, rule, ma, mb = _load_instance(args.instance, args.rule)
    if ma != mb:
        _emit(
            {
                "answer": "no",
                "rule": rule.value,
                "algorithm": "none",
                "reason": "multiset-mismatch",
                "stats": {"n": g.n},
            }
        )
        return EXIT_NO
    algorithm = args.algorithm
    if algorithm == "auto":
        algorithm = _pick_algorithm(g, rule, ma)
    start = time.perf_counter()
    try:
        answer, states, moves, reason, extra = _run_algorithm(
            algorithm, g, a, b, rule, args
        )
    except (WrongGraphClassError, UnequalSizesError, InvalidInstanceError):
        if args.fallback != "oracle" or algorithm == "oracle":
            raise
        algorithm = "oracle"
        answer, states, moves, reason, extra = _run_algorithm(
            algorithm, g, a, b, rule, args
        )
    if answer == "unknown" and args.fallback == "oracle":
        algorithm = "oracle"
        answer, states, moves, reason, extra = _run_algorithm(
            algorithm, g, a, b, rule, args
        )
    elapsed = time.perf_counter() - start

    length = None
    if states is not None:
        length = len(states) - 1
    elif moves is not None:
        length = len(moves)
    report = {
        "answer": answer,
        "rule": rule.value,
        "algorithm": algorithm,
        "stats": {"n": g.n, "seconds": round(elapsed, 6), **extra},
    }
    if length is not None:
        report["stats"]["length"] = length
    if reason:
        report["reason"] = reason
    if states is not None:
        report["states"] = [list(s) for s in states]
    if moves is not None:
        report["moves"] = moves
    if args.export_dot:
        rg = build_reconfig_graph(g, ma, rule, state_cap=args.state_cap)
        with open(args.export_dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(rg))
    _emit(report)
    return _ANSWER_CODES[answer]


def _cmd_oracle(args) -> int:
    args.algorithm = "oracle"
    args.fallback = "none"
    args.compressed = False
    return _cmd_solve(args)


def _state_list(value: Any) -> list[tuple[int, ...]]:
    if type(value) is not list:
        raise InvalidInstanceError("states must be a list of vertex lists")
    return [tuple(_int_list(s, "a state")) for s in value]


def _replay_jumps(a: tuple[int, ...], moves: list) -> list[tuple[int, ...]]:
    """States after each [source, target] vertex-list jump.  The jumps
    are applied as plain set updates; verify_sequence judges the result."""
    current = set(a)
    states = [a]
    for mv in moves:
        if type(mv) is not list or len(mv) != 2:
            raise InvalidInstanceError(f"bad compressed move: {mv!r}")
        current.difference_update(_int_list(mv[0], "jump source"))
        current.update(_int_list(mv[1], "jump target"))
        states.append(tuple(sorted(current)))
    return states


def _cmd_verify(args) -> int:
    g, a, b, rule, ma, mb = _load_instance(args.instance, args.rule)
    seq = _read_json(args.sequence)
    if isinstance(seq, dict) and args.rule is None and "rule" in seq:
        rule = Rule.parse(seq["rule"])
    if isinstance(seq, dict) and "states" in seq:
        states = _state_list(seq["states"])
    elif isinstance(seq, dict) and "moves" in seq:
        moves = seq["moves"]
        if type(moves) is not list:
            raise InvalidInstanceError('"moves" must be a list')
        if all(isinstance(mv, dict) for mv in moves):
            moves = [CompressedMove.from_json(mv) for mv in moves]
            states = list(expand_moves(g, a, moves, rule).states)
        else:
            states = _replay_jumps(a, moves)
    elif isinstance(seq, list):
        states = _state_list(seq)
    else:
        raise InvalidInstanceError('sequence needs "states", "moves", or a list')
    if not states or tuple(sorted(states[0])) != a or tuple(sorted(states[-1])) != b:
        _emit({"ok": False, "index": 0, "condition": "endpoints"})
        return EXIT_NO
    outcome = verify_sequence(g, states, ma, rule=rule)
    if outcome:
        _emit({"ok": True, "rule": rule.value, "length": len(states) - 1})
        return EXIT_YES
    _emit({"ok": False, "index": outcome.index, "condition": outcome.condition})
    return EXIT_NO


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "path":
        g, a, b = gen_path_instance(rng, args.n, parts=args.parts)
        rule = args.rule or "CS"
    elif args.kind == "cograph":
        g, a, b = gen_cograph_instance(rng, args.n)
        rule = args.rule or "CS"
    else:
        g, a, b = gen_chordal_instance(rng, args.n, size=args.size, count=args.count)
        rule = args.rule or "CJ"
    _emit(
        {
            "graph": {"n": g.n, "edges": [list(e) for e in g.edges]},
            "A": list(a),
            "B": list(b),
            "rule": Rule.parse(rule).value,
            "seed": args.seed,
        }
    )
    return EXIT_YES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccreconfig",
        description="Reconfigure vertex subsets under connected-component rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("instance", help="instance JSON file, or - for stdin")
        p.add_argument("--rule", help="override the instance rule (TJ TS CJ CS CS1)")
        p.add_argument(
            "--state-cap",
            type=int,
            default=DEFAULT_STATE_CAP,
            help="abort exhaustive search beyond this many states",
        )
        p.add_argument("--export-dot", metavar="FILE", help="write the move graph")

    p_solve = sub.add_parser("solve", help="decide reachability and build a sequence")
    add_common(p_solve)
    p_solve.add_argument(
        "--algorithm",
        choices=["auto", "path", "cograph", "chordal", "oracle"],
        default="auto",
    )
    p_solve.add_argument(
        "--fallback",
        choices=["none", "oracle"],
        default="none",
        help="what to do when the chosen algorithm cannot decide",
    )
    p_solve.add_argument(
        "--compressed",
        action="store_true",
        help="emit component moves instead of full states",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exhaustive search, always exact")
    add_common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="check a sequence against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("sequence", help="solve report or state list JSON")
    p_verify.add_argument("--rule")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("--kind", choices=["path", "cograph", "chordal"], required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--rule")
    p_gen.add_argument("--parts", type=int, help="path: number of components")
    p_gen.add_argument("--size", type=int, help="chordal: component size")
    p_gen.add_argument("--count", type=int, help="chordal: number of components")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StateSpaceTooLargeError as exc:
        return _fail(EXIT_TOO_LARGE, str(exc))
    except (InvalidInstanceError, WrongGraphClassError, NotACographError,
            UnequalSizesError) as exc:
        return _fail(EXIT_INVALID, str(exc))


if __name__ == "__main__":
    sys.exit(main())
