"""Run one command; report its exit code, wall time and peak resident set.

    python3 bench/spawn.py OUTFILE COMMAND...

The command's standard output goes to OUTFILE.  Prints one line:
"<exit code> <wall seconds> <peak RSS in KiB>".

Linux starts a child's peak-RSS record at the RSS of the process that
spawned it, so a large parent (the benchmark has sympy loaded) would hide
the command's own peak.  Spawning from this small interpreter keeps the
record the command's own.
"""

import os
import subprocess
import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(proc.returncode, wall, usage.ru_maxrss)


if __name__ == "__main__":
    main()
