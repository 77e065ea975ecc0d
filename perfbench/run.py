#!/usr/bin/env python3
"""Benchmark of the ccreconfig CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory and run as ``python -m ccreconfig.cli``
children.  With ``--trace 0`` a run sets up the workload from the seed
several times (``setup_s`` is the median), warms up with one library
pass and one CLI start, then repeats whole rounds until its operations
have taken S seconds.  A round is one CLI pass (one child per operation, run one at a time) with
``api_reps`` library passes spread between the children; ``cli_per_s``
and ``api_per_s`` are the operations of all rounds over the seconds
spent in them, ``peak_rss_mb`` the largest peak RSS of any child.  With
``--trace 1`` it runs three in-process passes instead (warm-up, traced,
untraced) and prints the per-layer metrics.  Every answer is checked by
``checks.py``.  The last line of standard output
is the JSON result; progress goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
SETUP_SECONDS = 2.0  # cheap set-ups repeat until this much time is spent
MAX_SETUPS = 25
STARTUP_CHILDREN = 5


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, name: str, check, *args) -> None:
        """Check one output; a wrong answer is an error, a program
        failure is counted in `failed`."""
        self.attempted += 1
        try:
            if not check(*args):
                self.failed += 1
        except Exception as exc:  # a wrong answer or a crash in the check
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            log(f"CHECK FAILED {name}: {exc}")


class Spawner:
    """Starts, times and reaps the CLI children through spawner.py, a
    process that stays small, so each child's peak RSS is its own."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv: list[str], workdir: Path) -> tuple[float, int, str, float]:
        """One child; returns (seconds, exit code, stdout, peak RSS MB)."""
        out_path = workdir / "child.stdout"
        request = {"argv": argv, "cwd": str(workdir), "stdout": str(out_path),
                   "stderr": str(workdir / "child.stderr")}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["seconds"], reply["code"], out_path.read_text(), reply["maxrss_kb"] / 1024

    def cli(self, argv: list[str], workdir: Path) -> tuple[float, int, str, float]:
        return self.run([sys.executable, "-m", "ccreconfig.cli", *argv], workdir)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def call_api(op, tally: Tally) -> float:
    # the benchmark's own objects (instances, parsed reports) are moved
    # out of the collector's reach so its passes over them are not timed
    gc.freeze()
    t0 = time.perf_counter()
    try:
        res = op.call()
    except Exception:
        seconds = time.perf_counter() - t0
        tally.attempted += 1
        tally.failed += 1
        log(f"API CALL FAILED {op.name}:\n{traceback.format_exc()}")
        return seconds
    seconds = time.perf_counter() - t0
    tally.record(op.name, op.check, res)
    return seconds


def write_files(workload, workdir: Path) -> None:
    for name, text in workload.files.items():
        (workdir / name).write_text(text)


def fingerprint(workload) -> str:
    digest = hashlib.sha256()
    for name in sorted(workload.files):
        digest.update(name.encode() + b"\0" + workload.files[name].encode() + b"\0")
    return digest.hexdigest()


def set_up(setup, seed: int, workdir: Path, reps: int, min_seconds: float = 0.0):
    """Build the workload `reps` times, and more until `min_seconds` are
    spent (at most MAX_SETUPS), each build freed before the next; returns
    (last build, seconds of each build).  Every build must give the same
    files."""
    wl, times, prints = None, [], set()
    while len(times) < reps or (sum(times) < min_seconds and len(times) < MAX_SETUPS):
        wl = None
        gc.collect()
        t0 = time.perf_counter()
        wl = setup(seed)
        write_files(wl, workdir)
        times.append(time.perf_counter() - t0)
        prints.add(fingerprint(wl))
    if len(prints) != 1:
        raise RuntimeError("the same seed gave different instances")
    return wl, times


def measured_run(name, setup, seed, seconds, workdir, spawner) -> tuple[Tally, dict]:
    tally = Tally()
    wl, setup_times = set_up(setup, seed, workdir, SETUP_REPS, SETUP_SECONDS)
    log(f"{name}: setup {' '.join('%.3f' % t for t in setup_times)}")

    # warm-up, checked but not counted: one library pass and one child
    warm = Tally()
    for op in wl.api_ops:
        call_api(op, warm)
    _, code, _, peak = spawner.cli(["--help"], workdir)
    tally.errors += warm.errors
    if code != 0:
        tally.errors.append(f"ccreconfig --help exited {code}")

    # whole rounds, until the operations have taken `seconds`
    rounds, cli_seconds, api_seconds = 0, 0.0, 0.0
    api_round = wl.api_ops * wl.api_reps
    while cli_seconds + api_seconds < seconds:
        r0 = time.perf_counter()
        cli_times = []
        # library calls are spread between the children, so that both
        # rates sample the whole round and not one end of it
        for i, op in enumerate(wl.cli_ops):
            t, code, out, rss = spawner.cli(op.argv, workdir)
            cli_times.append(t)
            peak = max(peak, rss)
            tally.record(op.name, op.check, code, out)
            del out
            lo = i * len(api_round) // len(wl.cli_ops)
            hi = (i + 1) * len(api_round) // len(wl.cli_ops)
            for api_op in api_round[lo:hi]:
                api_seconds += call_api(api_op, tally)
        rounds += 1
        cli_seconds += sum(cli_times)
        last = time.perf_counter() - r0
        log(f"{name}: round {rounds} ({last:.1f} s; children "
            f"{' '.join('%.2f' % t for t in cli_times)})")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cli_per_s": (rounds * len(wl.cli_ops) / cli_seconds, "1/s"),
        "api_per_s": (rounds * len(api_round) / api_seconds, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return tally, metrics


def inprocess_pass(wl, workdir: Path, tally: Tally, main_time: list) -> float:
    """One CLI pass through cli.main in this process plus one library
    pass; returns the seconds spent in the operations."""
    from ccreconfig import cli

    total = 0.0
    for op in wl.cli_ops:
        argv = [str(workdir / a) if a.endswith(".json") else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:
            code = None
            log(f"cli.main FAILED {op.name}:\n{traceback.format_exc()}")
        t = time.perf_counter() - t0
        total += t
        main_time[0] += t
        if code is None:
            tally.attempted += 1
            tally.failed += 1
        else:
            tally.record(op.name, op.check, code, out.getvalue())
    for op in wl.api_ops:
        total += call_api(op, tally)
    return total


def traced_run(name, setup, seed, workdir, spawner) -> tuple[Tally, dict]:
    from tracing import Tracer, wrapper_seconds

    tracer = Tracer()
    tally = Tally()
    with tracer.setup_layers():
        wl, _ = set_up(setup, seed, workdir, 1)
    inprocess_pass(wl, workdir, tally, [0.0])
    main_time = [0.0]
    calls = tracer.calls
    with tracer.layers():
        traced = inprocess_pass(wl, workdir, tally, main_time)
    calls = tracer.calls - calls
    untraced = inprocess_pass(wl, workdir, tally, [0.0])
    overhead = calls * wrapper_seconds()
    log(f"{name}: traced pass {traced:.3f} s, untraced {untraced:.3f} s, "
        f"difference {traced - untraced:+.3f} s; {calls} wrapped calls cost {overhead:.6f} s")

    startup = []
    for _ in range(STARTUP_CHILDREN):
        t, code, _, _ = spawner.run([sys.executable, "-c", "import ccreconfig.cli"], workdir)
        startup.append(t)
        if code != 0:
            tally.errors.append(f"importing ccreconfig.cli exited {code}")

    probes = wl.probes()
    sec, units = tracer.seconds, tracer.units
    metrics = {
        "cli.startup_s": (statistics.median(startup), "s"),
        "cli.json_load_s": (sec["cli.json_load_s"], "s"),
        "cli.json_emit_s": (sec["cli.json_emit_s"], "s"),
        "cli.main_s": (main_time[0], "s"),
        "graph.build_s": (sec["graph.build_s"], "s"),
        "graph.components_s": (sec["graph.components_s"], "s"),
        "graph.is_chordal_s": (sec["graph.is_chordal_s"], "s"),
        "graph.co_components_s": (sec["graph.co_components_s"], "s"),
        "paths.path_order_s": (sec["paths.path_order_s"], "s"),
        "paths.decide_s": (probes.get("paths.decide_s", 0.0), "s"),
        "paths.witness_s": (probes.get("paths.witness_s", 0.0), "s"),
        "paths.expand_s": (sec["paths.expand_s"], "s"),
        "paths.moves": (probes.get("paths.moves", 0), "count"),
        "cographs.decompose_s": (sec["cographs.decompose_s"], "s"),
        "cographs.solve_cs_s": (sec["cographs.solve_cs_s"], "s"),
        "cographs.solve_cs1_s": (sec["cographs.solve_cs1_s"], "s"),
        "cographs.cotree_depth": (probes.get("cographs.cotree_depth", 0), "count"),
        "cographs.states": (probes.get("cographs.states", 0), "count"),
        "chordal.conflict_graph_s": (sec["chordal.conflict_graph_s"], "s"),
        "chordal.solve_s": (sec["chordal.solve_s"], "s"),
        "chordal.states_s": (probes.get("chordal.states_s", 0.0), "s"),
        "chordal.conflict_edges": (probes.get("chordal.conflict_edges", 0), "count"),
        "oracle.enumerate_s": (sec["oracle.enumerate_s"], "s"),
        "oracle.states": (probes.get("oracle.states", 0), "count"),
        **{
            f"oracle.{rule}.states_per_s": (probes.get(f"oracle.{rule}.states_per_s", 0.0), "1/s")
            for rule in ("TJ", "TS", "CJ", "CS", "CS1")
        },
        "rules.verify_s": (sec["rules.verify_s"], "s"),
        "rules.verify_states_per_s": (
            units["rules.verify_s"] / sec["rules.verify_s"] if sec["rules.verify_s"] else 0.0,
            "1/s"),
        "generators.instance_s": (sec["generators.instance_s"], "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ccreconfig" / "cli.py").is_file():
        log(f"no program to measure: {SRC / 'ccreconfig'} is missing")
        return 2
    sys.path.insert(0, str(SRC))
    import ccreconfig

    if Path(ccreconfig.__file__).resolve().parent != SRC / "ccreconfig":
        log(f"ccreconfig was imported from {ccreconfig.__file__}, not from {SRC}")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spawner = Spawner(env)
    try:
        setup = WORKLOADS[args.workload]
        if args.trace:
            tally, metrics = traced_run(args.workload, setup, args.seed, workdir, spawner)
        else:
            tally, metrics = measured_run(
                args.workload, setup, args.seed, args.seconds, workdir, spawner)
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for err in tally.errors[:20]:
        log(f"error: {err}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
