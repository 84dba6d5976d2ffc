"""One sha256 per benchmark workload and seed over every report the CLI writes.

    python3 tools/report_digest.py [--seed 7 11 101] [--workload ideals ...]

Run from anywhere inside a source checkout: logcy is imported from its src/
and the inputs are built by its bench/workloads.py.  For each workload and
seed, every job of the workload runs once through cli.run, then the whole
batch manifest once; the digest covers each job's exit code and rendered
report, then the batch's.  The inputs go to the relative directory "inputs"
inside a fresh temporary directory, which is the working directory while
the jobs run: the paths in the reports, and the manifest that lists them,
then read the same on every run, so two checkouts that write the same
reports print the same lines.  Comparing the output of two commits shows
whether a change kept every report byte.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from logcy import cli  # noqa: E402


def digest(workload, seed):
    """(job count, sha256 hex) of the workload's reports at this seed."""
    sha = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            jobs = workloads.build(workload, seed, "inputs")
            argvs = [job["args"] for job in jobs]
            argvs.append(["batch", "--manifest", os.path.join("inputs", "manifest.json")])
            with contextlib.redirect_stderr(io.StringIO()):
                for argv in argvs:
                    code, report = cli.run(argv)
                    sha.update(f"{code}\n{cli.render_report(report)}".encode())
        finally:
            os.chdir(home)
    return len(jobs), sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[7, 11, 101])
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for seed in args.seed:
        for workload in args.workload:
            count, hexdigest = digest(workload, seed)
            print(f"{workload:12s} seed {seed:<5d} {count:4d} jobs  {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
