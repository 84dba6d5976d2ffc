"""Benchmark of the `logcy` JSON CLI.

    python3 bench/run.py --workload ideals --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  --workload is one of ideals, complexes, theta_trees, cli_small, or
"all" to run each in turn.  With --trace 0 the run measures the end-to-end
metrics, with every time scaled to a reference host speed (host_probe);
with --trace 1 it installs the per-layer wrappers (tracing.py) and
measures the per-layer metrics instead.  The run and its children are
pinned to one CPU.  Every report is checked by the
independent checks in checks.py.  For each workload the run prints one line
per metric, then, as its last line, a JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join("bench", ".work")

SETUPS_PER_ROUND = 2   # timed set-ups in each round of the measuring loop
IMPORT_REPEATS = 5     # fresh-interpreter imports per traced run
MIN_SAMPLES = 3        # timed rounds per run, whatever --seconds says
PROBE_REF_S = 0.0036   # host_probe's time at the reference host speed
EDGE_PROBES = 5        # host probes on each side of a timed subprocess

END_TO_END = {"setup_s": "s", "pass_s": "s", "batch_s": "s", "peak_rss_mb": "MB"}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv):
    """Run a child to completion in the checkout; return (exit code, stdout)."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=_child_env(), cwd=ROOT, check=False)
    return proc.returncode, proc.stdout


def run_batch(manifest, out_path):
    """One `logcy batch` subprocess, spawned through bench/spawn.py; returns
    (exit code, wall seconds, peak RSS in MB, stdout bytes)."""
    argv = [sys.executable, os.path.join(HERE, "spawn.py"), out_path,
            sys.executable, "-m", "logcy.cli", "batch", "--manifest", manifest]
    _, line = _run_child(argv)
    code, wall, rss_kib = line.split()
    with open(out_path, "rb") as handle:
        out = handle.read()
    return int(code), float(wall), int(rss_kib) / 1024.0, out


def _keywords(a, b=1, *, c=2):
    return a + b + c


def host_probe():
    """Wall time of a fixed mix of interpreter work that does not touch logcy.

    The shared host this benchmark was tuned on changes speed by up to 1.7x
    every few seconds, so raw wall times of the same code spread by 20-40%
    between runs.  Only the host's speed moves the probe's time.  Every
    timed interval is scaled by PROBE_REF_S / (probe time next to it),
    giving seconds at the reference host speed.  The host slows different
    kinds of work by different amounts, so the probe has four parts of
    about equal time, each like some of logcy's work: int-keyed dict
    updates, Fraction arithmetic, string keys and keyword calls, and
    allocating and sorting tuples.
    """
    start = time.perf_counter()
    counts = {}
    for i in range(5000):
        key = i % 997
        counts[key] = counts.get(key, 0) + i * 3
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 3) * Fraction(3, i + 7)
    options = {}
    for i in range(1200):
        key = f"--opt{i % 37}"
        parts = key.split("t")
        options[key] = _keywords(len(parts), b=i, c=len(key))
        options.setdefault(parts[0], []).append(i)
    rows = [(i, i * 2, (i % 5,)) for i in range(1000)]
    rows.sort(key=lambda row: (row[2], -row[0]))
    return time.perf_counter() - start


def _edge_probe():
    return statistics.fmean(host_probe() for _ in range(EDGE_PROBES))


def one_pass(cli, jobs):
    """Every job once, one at a time, through the calls `logcy` main makes."""
    codes, texts = [], []
    with contextlib.redirect_stderr(io.StringIO()):  # argparse usage text
        for job in jobs:
            code, report = cli.run(job["args"])
            codes.append(code)
            texts.append(cli.render_report(report))
    return codes, texts


def _more(done, start, seconds):
    """Another round unless MIN_SAMPLES are done and the average round so
    far would overrun the measuring time."""
    elapsed = time.perf_counter() - start
    return done < MIN_SAMPLES or elapsed + elapsed / done <= seconds


def _timed_pass(cli, jobs):
    """One pass with each job timed between two host probes; returns (wall
    seconds, seconds at the reference speed, codes, texts)."""
    gc.collect()  # every pass starts from the same collector state
    codes, texts = [], []
    wall = scaled = 0.0
    before = host_probe()
    with contextlib.redirect_stderr(io.StringIO()):  # argparse usage text
        for job in jobs:
            start = time.perf_counter()
            code, report = cli.run(job["args"])
            text = cli.render_report(report)
            seconds = time.perf_counter() - start
            after = host_probe()
            wall += seconds
            scaled += seconds * 2 * PROBE_REF_S / (before + after)
            before = after
            codes.append(code)
            texts.append(text)
    return wall, scaled, codes, texts


def _scaled(measure):
    """Run measure() between host probes; returns (its result, the factor
    that turns its seconds into seconds at the reference speed)."""
    before = _edge_probe()
    result = measure()
    return result, 2 * PROBE_REF_S / (before + _edge_probe())


class Run:
    """State of one workload run: jobs, reference outputs, tallies."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.dir = os.path.join(WORK, f"{workload}-s{seed}-p{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def tally(self, codes):
        self.attempted += len(self.jobs)
        self.failed += sum(code != job["exit"] for code, job in zip(codes, self.jobs))

    def same_as_reference(self, codes, texts, what):
        if (codes, texts) != (self.codes, self.texts):
            self.problems.append(f"{what}: reports differ from the first pass")

    def reference_pass(self, cli):
        """Untimed first pass; verify() checks its reports once timing is over."""
        self.codes, self.texts = one_pass(cli, self.jobs)
        self.tally(self.codes)
        self.batch = None

    def verify(self):
        """Independent checks of the reference reports and the first batch.
        checks.py loads sympy only now: its large heap would slow the
        garbage collector during the timed passes."""
        import checks
        start = time.perf_counter()
        for job, code, text in zip(self.jobs, self.codes, self.texts):
            if code != job["exit"]:
                continue  # counted in failed, not a wrong answer
            try:
                checks.check_job(job, code, json.loads(text))
            except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
                self.problems.append(f"{' '.join(job['args'][:2])}: {exc!r}")
        if self.batch is not None:
            try:
                checks.check_batch(self.jobs, self.codes, self.texts, *self.batch)
            except (checks.CheckFailed, KeyError, ValueError) as exc:
                self.problems.append(f"batch: {exc!r}")
        self.check_seconds = time.perf_counter() - start


def set_up(run):
    """One fresh interpreter importing logcy and writing the workload's
    inputs and manifest; returns bench/workloads.py's own timer."""
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", run.workload,
            "--seed", str(run.seed), "--dir", run.dir]
    code, out = _run_child(argv)
    if code != 0:
        raise RuntimeError("input set-up failed")
    return float(out.decode().split()[-1])


def _batch_scaled(walls, edge_factors, pass_walls, pass_scaled):
    """Batch times at the reference speed.  A batch is 1-2.5 s long and the
    host can change speed inside it, which its edge probes alone miss; so
    its factor is the mean of its edge-probe factor and the factors of the
    passes just before and (but for the last batch) just after it."""
    around = [scaled / wall for scaled, wall in zip(pass_scaled, pass_walls)]
    return [wall * (edge + statistics.fmean(around[i:i + 2])) / 2
            for i, (wall, edge) in enumerate(zip(walls, edge_factors))]


def _median_line(name, samples):
    return f"# {name} {statistics.median(samples):.4f} median of {[round(x, 4) for x in samples]}"


def end_to_end(run, cli):
    set_up(run)  # untimed warm-up: the first import may compile logcy's bytecode
    run.jobs = workloads.build(run.workload, run.seed, run.dir)
    run.reference_pass(cli)
    manifest = os.path.join(run.dir, "manifest.json")
    batch_out = os.path.join(run.dir, "batch.out")
    walls = {"pass_s": [], "batch_s": [], "setup_s": []}
    scaled = {"pass_s": [], "batch_s": [], "setup_s": []}
    rss, batch_factors = [], []
    start = time.perf_counter()
    # passes, batches and set-ups alternate, so host drift weighs on all three
    while _more(len(scaled["pass_s"]), start, run.seconds):
        wall, seconds, codes, texts = _timed_pass(cli, run.jobs)
        walls["pass_s"].append(wall)
        scaled["pass_s"].append(seconds)
        run.tally(codes)
        run.same_as_reference(codes, texts, "pass")
        (code, wall, peak, out), factor = _scaled(lambda: run_batch(manifest, batch_out))
        walls["batch_s"].append(wall)
        batch_factors.append(factor)
        rss.append(peak)
        entries = json.loads(out)["result"]["jobs"] if out.strip() else []
        run.tally([entry["exit"] for entry in entries] or [None] * len(run.jobs))
        if run.batch is None:
            run.batch = (out, code)
        elif out != run.batch[0]:
            run.problems.append("batch: output bytes differ between batch runs")
        for _ in range(SETUPS_PER_ROUND):
            wall, factor = _scaled(lambda: set_up(run))
            walls["setup_s"].append(wall)
            scaled["setup_s"].append(wall * factor)
    scaled["batch_s"] = _batch_scaled(walls["batch_s"], batch_factors,
                                      walls["pass_s"], scaled["pass_s"])
    run.samples = len(scaled["pass_s"])
    for name in scaled:
        print(_median_line(f"{name} at reference speed", scaled[name]), file=sys.stderr)
        print(_median_line(f"{name} wall", walls[name]), file=sys.stderr)
    run.verify()
    metrics = {name: statistics.median(samples) for name, samples in scaled.items()}
    metrics["peak_rss_mb"] = statistics.median(rss)
    return metrics


def measure_import():
    code = ("import time; t = time.perf_counter(); import logcy.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        _, out = _run_child([sys.executable, "-c", code])
        samples.append(float(out.decode().split()[-1]))
    return statistics.median(samples)


def per_layer(run, cli):
    run.jobs = workloads.build(run.workload, run.seed, run.dir)
    run.reference_pass(cli)
    import_s = measure_import()
    tracer = tracing.Tracer()
    tracer.install()
    per_pass = []
    try:
        start = time.perf_counter()
        while _more(len(per_pass), start, run.seconds):
            tracer.reset()
            _, seconds, codes, texts = _timed_pass(cli, run.jobs)
            run.tally(codes)
            run.same_as_reference(codes, texts, "traced pass")
            metrics = tracer.metrics()
            metrics["trace.pass_s"] = seconds
            per_pass.append(metrics)
    finally:
        tracer.uninstall()
    run.samples = len(per_pass)
    run.verify()
    out = {"cli.import.s": import_s}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if tracing.is_count(name):
            if len(set(values)) != 1:
                run.problems.append(f"{name}: counts differ between traced passes {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def _unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ratio"):
        return "ratio"
    return "count" if tracing.is_count(name) else "s"


def run_workload(workload, seed, seconds, trace):
    from logcy import cli
    run = Run(workload, seed, seconds)
    os.makedirs(run.dir, exist_ok=True)
    try:
        metrics = (per_layer if trace else end_to_end)(run, cli)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    for problem in run.problems:
        print(f"CHECK FAILED [{workload}] {problem}", file=sys.stderr)
    print(f"# {workload}: seed {seed}, {len(run.jobs)} jobs, {run.samples} timed passes, "
          f"checks took {run.check_seconds:.2f} s", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload:12s} {name:52s} {value:>14.6g} {_unit(name)}")
    print(f"{workload:12s} {'attempted':52s} {run.attempted:>14d} jobs")
    print(f"{workload:12s} {'failed':52s} {run.failed:>14d} jobs")
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": _unit(name)}
                          for name, value in metrics.items()}}
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "logcy", "cli.py")):
        print(f"no logcy sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    # One CPU for this process and every child: the host probes then measure
    # the speed of the CPU that the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    try:
        for name in names:
            run_workload(name, args.seed, args.seconds, args.trace)
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
