"""Run one command and record its wall time, exit code and resource usage.

Usage: python3 -I -S bench/spawn.py REPORT_PATH ARGV...

The command inherits this process's stdin, stdout, stderr and environment.
When it exits, one JSON object goes to REPORT_PATH: exit code, wall
seconds from spawn to exit, user+system CPU seconds and peak RSS in KiB,
both from ``os.wait4`` and so covering every descendant the command reaped.

The benchmark starts commands through this small process because Linux
carries the spawning process's own peak RSS into ``ru_maxrss`` of a child
started with vfork: spawned directly from the benchmark, which holds large
outputs and references, a child's peak RSS would read too high.
"""

import json
import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "code": os.waitstatus_to_exitcode(status),
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_kib": usage.ru_maxrss,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
