"""Lean process launcher: spawns children and reports their wall time and
peak resident memory.

On Linux a child's ``ru_maxrss`` starts from the peak of the process that
forked it, so a benchmark that has loaded workload data would over-report
every child's memory. This process is started before any data is loaded and
holds nothing but the protocol: one JSON request per stdin line
(``argv``, ``cwd``, ``env``, ``stdout``, ``stderr``, ``timeout``), one JSON
reply per stdout line (``returncode``, ``wall_s``, ``maxrss_kb``).
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                request["argv"], cwd=request["cwd"], env=request["env"],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            killer = threading.Timer(request["timeout"], child.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        reply = {"returncode": child.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
