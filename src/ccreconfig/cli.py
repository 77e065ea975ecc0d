"""Command line interface.

Subcommands: solve an instance with a chosen or auto-picked algorithm,
verify a sequence against an instance, run the exhaustive search
directly, and generate seeded instances.  Exit codes: 0 yes / valid,
1 no / violation, 2 undecided, 3 invalid input, 4 state space over cap
or out of memory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from collections.abc import Iterator
from typing import Any

from .chordal import solve_equal_size_cj
from .cographs import solve_cograph_cs
from .errors import (
    InvalidInstanceError,
    ReconfigGraphTooLargeError,
    StateSpaceTooLargeError,
    WrongGraphClassError,
)
from .graph import (
    Graph,
    SizeMultiset,
    _check_vertex_count,
    _clean_subset,
    _replay_jumps,
    cc_multiset,
    parse_graph,
)
from .oracle import (
    DEFAULT_STATE_CAP, WORK_PER_STATE, build_reconfig_graph, export_dot, oracle_solve,
)
from .paths import (
    CompressedMove,
    _path_runs,
    _solve_cj,
    _solve_cs,
    _vertex_jumps,
    is_path_graph,
    path_order,
)
from .rules import Rule, VerifyResult, _state_steps, _verify_jumps, _verify_path_moves

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
    if type(value) is not list or not set(map(type, value)) <= {int}:
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
    payload = obj.pop("graph", None)  # the edge list is freed once the Graph is built
    if not isinstance(payload, dict) or "n" not in payload:
        raise InvalidInstanceError('instance needs "graph" {n, edges} or "graph_file"')
    return Graph(payload["n"], payload.get("edges", []))


def _load_instance(path: str, rule_flag: str | None, verifying: bool = False):
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InvalidInstanceError("instance must be a JSON object")
    g = _instance_graph(obj)
    if "A" not in obj or "B" not in obj:
        raise InvalidInstanceError('instance needs "A" and "B" vertex lists')
    a = _clean_subset(g, _int_list(obj["A"], '"A"'))
    b = _clean_subset(g, _int_list(obj["B"], '"B"'))
    rule_name = obj.get("rule") if rule_flag is None else rule_flag
    if not rule_name:
        raise InvalidInstanceError('no rule: set "rule" in the instance or pass --rule')
    rule = Rule.parse(rule_name)
    declared = obj.get("multiset")
    runs = None
    if (verifying or rule in SOLVERS["path"][0]) and is_path_graph(g):
        # on a path the runs of positions are the components; the path
        # solver decides from the same runs, and verify needs no graph
        # search under any rule
        runs = _path_runs(g, a), _path_runs(g, b)
        ma, mb = (SizeMultiset(size for _, size in r) for r in runs)
    else:
        ma, mb = cc_multiset(g, a), cc_multiset(g, b)
    if declared is not None:
        stated = SizeMultiset(_int_list(declared, '"multiset"'))
        if stated != ma or stated != mb:
            raise InvalidInstanceError(
                f"declared multiset {list(stated)} does not match the "
                f"configurations ({list(ma)} vs {list(mb)})"
            )
    return g, a, b, rule, ma, mb, runs


class _Text(dict):
    """JSON text of the ints and dict keys of one report, made on first use."""

    def __missing__(self, key: int | str) -> str:
        text = self[key] = str(key) if type(key) is int else json.dumps(key)
        return text


def _write(out, value: Any, pad: str, text: _Text) -> None:
    """Write value with out as json.dumps(value, indent=2) lays it out
    when it starts on a line indented as pad (a newline and spaces): a
    list of ints in one piece joined from text, other lists and dicts
    item by item, so no long list (states, moves, edges) is one string.
    Each list in a report holds one kind of item, known by its first.
    An iterator (a replay's states) is written as a list, item by item
    as it makes them."""
    inner = pad + "  "
    if type(value) is int:
        out(text[value])
    elif type(value) in (list, tuple) and value and type(value[0]) is int:
        out("[" + inner + ("," + inner).join(map(text.__getitem__, value)) + pad + "]")
    elif type(value) is dict and value:
        sep = "{"
        for k, v in value.items():
            out(f"{sep}{inner}{text[k]}: ")
            _write(out, v, inner, text)
            sep = ","
        out(pad + "}")
    elif type(value) in (list, tuple) or isinstance(value, Iterator):
        sep = "["
        for v in value:
            out(sep + inner)
            _write(out, v, inner, text)
            sep = ","
        out(pad + "]" if sep == "," else "[]")
    else:
        out(json.dumps(value))


def _emit(report: dict) -> None:
    """Write the report to stdout exactly as json.dumps(report, indent=2)
    and a newline would, without its pure-Python indent encoder."""
    try:
        _write(sys.stdout.write, report, "\n", _Text())
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; what is still buffered goes to devnull, so
        # the flush at exit cannot fail again (see the signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _fail(code: int, message: str) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is invalid input too
        sys.exit(_fail(EXIT_INVALID, f"{self.prog}: {message}"))


def _state_cap(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a number of states >= 0, got {text!r}")
    return int(text)


def _run_path(g, a, b, rule, args, runs):
    if runs is None:  # the host is not a path
        path_order(g)  # raises, saying why
    return _solve_cs(*runs) if rule is Rule.CS else _solve_cj(g.n, *runs)


# algorithm -> (rules it decides, runner returning the solver's Result).
# The path and chordal runners return moves only; _cmd_solve replays
# them into the full states it writes.  A runner's last argument is the
# pair of position runs _load_instance took on a path host for a rule
# the path solver decides, else None.
# Each solver raises WrongGraphClassError or InvalidInstanceError outside
# its class, so `auto` tries the entries whose rules hold the rule, in
# order, until one decides.  Runners look the solvers up by module name
# when they run, so a rebound module attribute (a timing wrapper) is
# what they call.  The chordal solver is sound on any host: a yes comes
# with its schedule, and a cyclic conflict graph (impossible on a
# chordal host) stays undecided instead of guessing, so it asks only for
# one component size and the oracle takes what it leaves undecided.
SOLVERS = {
    "path": ((Rule.CS, Rule.CJ), _run_path),
    "cograph": (
        (Rule.CS, Rule.CS1),
        lambda g, a, b, rule, args, runs: solve_cograph_cs(g, a, b, variant=rule),
    ),
    "chordal": (
        (Rule.CJ,),
        lambda g, a, b, rule, args, runs: solve_equal_size_cj(g, a, b, want_states=False),
    ),
    "oracle": (
        tuple(Rule),
        lambda g, a, b, rule, args, runs: oracle_solve(
            g, a, b, rule=rule, state_cap=args.state_cap
        ),
    ),
}


def _cmd_solve(args) -> int:
    g, a, b, rule, ma, mb, runs = _load_instance(args.instance, args.rule)
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
    if args.algorithm == "auto":
        plan = [name for name, (rules, _) in SOLVERS.items() if rule in rules]
    elif args.fallback == "none" or args.algorithm == "oracle":
        plan = [args.algorithm]
    else:
        plan = [args.algorithm, "oracle"]
    start = time.perf_counter()
    for algorithm in plan:
        rules, run = SOLVERS[algorithm]
        try:
            if rule not in rules:
                raise InvalidInstanceError(
                    f"{algorithm} algorithm handles "
                    f"{' and '.join(r.value for r in rules)} only"
                )
            res = run(g, a, b, rule, args, runs)
        except (WrongGraphClassError, InvalidInstanceError):
            if algorithm == plan[-1]:
                raise
            continue
        if res.reachable is not None:
            break
    elapsed = time.perf_counter() - start

    stats = {"n": g.n, "seconds": round(elapsed, 6)}
    if res.space_size is not None:  # the oracle searched
        stats["space"] = res.space_size
        if res.reachable:
            stats["distance"] = res.distance
    if res.moves is not None:
        stats["length"] = len(res.moves)
    elif res.states is not None:
        stats["length"] = res.distance
    report = {"answer": res.answer, "rule": rule.value, "algorithm": algorithm, "stats": stats}
    if res.reason:
        report["reason"] = res.reason
    if res.moves is not None and not args.compressed:
        # path moves are checked into vertex jumps before the first byte;
        # the states are made as _emit writes them, one held at a time
        jumps = res.moves if algorithm == "chordal" else _vertex_jumps(g, a, res.moves)
        report["states"] = _replay_jumps(a, jumps)
    elif res.states is not None:
        report["states"] = res.states
    if res.moves is not None:
        # path moves, or the equal-size solver's (source, target) jumps
        report["moves"] = [mv.to_json() if isinstance(mv, CompressedMove) else mv
                           for mv in res.moves]
    # the answer goes out before the export, which may outgrow --state-cap
    # or the edge limit
    _emit(report)
    if args.export_dot:
        try:
            rg = build_reconfig_graph(g, ma, rule, state_cap=args.state_cap)
        except ReconfigGraphTooLargeError as exc:
            return _fail(EXIT_TOO_LARGE, f"--export-dot {args.export_dot}: {exc}")
        with open(args.export_dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(rg))
    return _ANSWER_CODES[res.answer]


def _jump(mv: Any) -> tuple[list[int], list[int]]:
    """A [source, target] vertex-list jump from a report, checked for shape."""
    if type(mv) is not list or len(mv) != 2:
        raise InvalidInstanceError(f"bad compressed move: {mv!r}")
    return _int_list(mv[0], "jump source"), _int_list(mv[1], "jump target")


def _cmd_verify(args) -> int:
    seq = _read_json(args.sequence)
    # the rule comes from --rule, else the report, else the instance
    named = seq.get("rule") if isinstance(seq, dict) and args.rule is None else args.rule
    g, a, b, rule, ma, mb, _ = _load_instance(args.instance, named, verifying=True)
    states, jumps = seq, None
    if isinstance(seq, dict) and "states" in seq:
        states = seq.pop("states")
    elif isinstance(seq, dict) and "moves" in seq:
        moves = seq["moves"]
        if type(moves) is not list:
            raise InvalidInstanceError('"moves" must be a list')
        if moves and all(isinstance(mv, dict) for mv in moves):
            moves = [CompressedMove.from_json(mv) for mv in moves]
            path_order(g)  # raises if the host is not a path
            # checked in positions, endpoints before the first bad move
            return _verdict(_verify_path_moves(g, a, b, moves, ma, rule), rule, len(moves))
        jumps = [_jump(mv) for mv in moves]
    elif not isinstance(seq, list):
        raise InvalidInstanceError('sequence needs "states", "moves", or a list')
    if jumps is None:
        if type(states) is not list:
            raise InvalidInstanceError("states must be a list of vertex lists")
        for s in states:
            _int_list(s, "a state")
        ends = states[:1] + states[-1:]
    else:
        # the last state from set updates, so the endpoints are judged first
        last = set(a)
        for src, dst in jumps:
            last.difference_update(src)
            last.update(dst)
        ends = [a, last]
    if not ends or tuple(sorted(ends[0])) != a or tuple(sorted(ends[1])) != b:
        return _verdict(VerifyResult(False, 0, "endpoints"), rule, 0)
    if jumps is None:
        # the moves are the differences of consecutive states; the first
        # state is A
        jumps = _state_steps(g, states)
        next(jumps)
        length = len(states) - 1
    else:
        # the first state holding a bad vertex follows the first bad target
        for _, dst in jumps:
            _clean_subset(g, set(dst))
        length = len(jumps)
    return _verdict(_verify_jumps(g, a, jumps, ma, rule), rule, length)


def _verdict(outcome: VerifyResult, rule: Rule, length: int) -> int:
    if outcome:
        _emit({"ok": True, "rule": rule.value, "length": length})
        return EXIT_YES
    _emit({"ok": False, "index": outcome.index, "condition": outcome.condition})
    return EXIT_NO


def _cmd_gen(args) -> int:
    # imported here, so that no other command compiles them
    import random

    from .generators import gen_chordal_instance, gen_cograph_instance, gen_path_instance

    _check_vertex_count(args.n)
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
    # in Graph.edges' order: a path's from its layout, others' from the sets
    edges = g.edges if g.path_layout is not None else (
        (u, v) for u, nbrs in enumerate(g.adj) for v in sorted(nbrs) if u < v)
    _emit({"graph": {"n": g.n, "edges": edges}, "A": a, "B": b,
           "rule": Rule.parse(rule).value, "seed": args.seed})
    return EXIT_YES


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ccreconfig",
        description="Reconfigure vertex subsets under connected-component rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("instance", help="instance JSON file, or - for stdin")
        p.add_argument("--rule", help="override the instance rule (TJ TS CJ CS CS1)")
        p.add_argument(
            "--state-cap",
            type=_state_cap,
            default=DEFAULT_STATE_CAP,
            help="abort exhaustive search beyond this many states, or beyond "
            f"{WORK_PER_STATE} x (cap + 1) search frames",
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
    p_oracle.set_defaults(
        func=_cmd_solve, algorithm="oracle", fallback="none", compressed=False
    )

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
    # A loaded instance is a few hundred thousand containers that live
    # until the command ends, and every full cyclic collection would walk
    # them all again; the commands leave no cyclic garbage that grows
    # with the input, so the collector pauses until they return.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except StateSpaceTooLargeError as exc:
        return _fail(EXIT_TOO_LARGE, str(exc))
    except MemoryError:
        pass  # reported below, once leaving the handler has freed its frames
    except (InvalidInstanceError, WrongGraphClassError) as exc:
        return _fail(EXIT_INVALID, str(exc))
    finally:
        if collecting:
            gc.enable()
    hint = ""
    if args.command == "solve":
        hint = "; solve --compressed emits component moves instead of full states"
    return _fail(EXIT_TOO_LARGE, "out of memory" + hint)


if __name__ == "__main__":
    sys.exit(main())
