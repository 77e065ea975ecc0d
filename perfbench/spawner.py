"""Launcher for the CLI children, kept small on purpose.

Linux records the spawning process's peak RSS in a child's ru_maxrss at
exec, so children started by the benchmark process itself (hundreds of
MB of instances and checked outputs) would all report at least that
much.  run.py starts this process first and has it start, time and reap
every child.  Protocol: one JSON request per line on stdin,
{"argv", "cwd", "stdout", "stderr"}, answered by one JSON line
{"seconds", "code", "maxrss_kb"}.  Exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
