"""Self-test of the benchmark's checks.

    python3 bench/selftest.py [--seed N]

Runs every job of every workload once in-process and requires that its
independent check accepts the report.  Then it corrupts each report in the
way checks.CORRUPT describes and requires that the check rejects it; and it
does the same for the batch comparison, on one batch of the cli_small
workload.  Exits 1 if any check accepted a corrupted report or rejected a
good one.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import checks
    import run
    import workloads
    from logcy import cli

    bad = []
    work = os.path.join(run.WORK, f"selftest-p{os.getpid()}")
    try:
        for name in workloads.WORKLOADS:
            jobs = workloads.build(name, seed, os.path.join(work, name))
            codes, texts = run.one_pass(cli, jobs)
            failures = len(bad)
            for job, code, text in zip(jobs, codes, texts):
                label = f"{name}: {' '.join(job['args'][:3])} [{job['check']}]"
                report = json.loads(text)
                try:
                    checks.check_job(job, code, report)
                except checks.CheckFailed as exc:
                    bad.append(f"{label}: good report rejected: {exc}")
                    continue
                try:
                    checks.check_job(job, code, checks.corrupt_report(job, report))
                    bad.append(f"{label}: corrupted report accepted")
                except checks.CheckFailed:
                    pass
            print(f"{name}: {len(jobs)} checks accept good reports and reject corrupted ones"
                  if len(bad) == failures else f"{name}: see failures below")
            if name == "cli_small":
                manifest = os.path.join(work, name, "manifest.json")
                code, _, _, out = run.run_batch(manifest, os.path.join(work, "batch.out"))
                checks.check_batch(jobs, codes, texts, out, code)
                batch = json.loads(out)
                batch["result"]["jobs"][0]["report"]["extra"] = True
                try:
                    checks.check_batch(jobs, codes, texts, json.dumps(batch), code)
                    bad.append("batch: a changed batch report was accepted")
                except checks.CheckFailed:
                    print("batch: the comparison rejects a changed batch report")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in bad:
        print("FAIL", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
