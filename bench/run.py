"""Benchmark of the entnmf experiment harness (what `entnmf sweep` runs).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is a JSON config generated
from --seed (dataset seed N, solver seed N + 2, from which the harness derives
the injection seeds; --seed 1 gives the README config). Every measured run is
a fresh `bench/worker.py` process calling `load_config` and `run_experiment`.

--trace 0 repeats untraced runs until --seconds seconds have passed and
reports the medians of the end-to-end metrics in BENCHMARK.json. --trace 1
alternates untraced and traced runs the same way, then, for configs with more
than one fit, adds an untraced and a traced run at --threads 2, and reports
the per-layer metrics. Outputs are checked on every run; a run whose check
fails is not timed and counts all its fits as failed. The last line of stdout is the JSON result; the exit code is
1 when a check failed and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
SCRATCH = ".bench_out"
# Every run writes here, so manifest.json (which records output_dir) is
# byte-comparable across thread counts and between traced and untraced runs.
OUTPUT_DIR = f"{SCRATCH}/out"
RUN_TIMEOUT_S = 150
# relative slack of the objective-monotonicity check, as in the test suite
MONOTONE_SLACK = 1e-8


def blobs(c, per_cluster, d, seed):
    return {
        "source": "SYNTH_BLOBS",
        "params": {"c": c, "per_cluster": per_cluster, "d": d, "separation": 8.0, "seed": seed},
        "normalize": True,
    }


def readme_sweep(seed):
    return {
        "dataset": blobs(3, 40, 10, seed),
        "solver": {"method": "EMMF", "c": 3, "max_iter": 300, "tol": 1e-6, "lambda": 5.0,
                   "seed": seed + 2, "init": "KMEANS"},
        "repetitions": 20,
        "sweep": {"name": "outlier_count", "values": [0, 10, 20, 30, 40]},
    }


def large(method, max_iter):
    def config(seed):
        return {
            "dataset": blobs(5, 380, 100, seed),
            "solver": {"method": method, "c": 5, "max_iter": max_iter, "tol": 1e-6, "lambda": 5.0,
                       "seed": seed + 2, "init": "KMEANS"},
            "repetitions": 1,
            "sweep": {"name": "outlier_count", "values": [100]},
            "graph_k": 5,
        }

    return config


WORKLOADS = {
    "sweep_small": readme_sweep,
    "emmf_2k": large("EMMF", 200),
    "gemmf_2k": large("GEMMF", 40),
}
# Thread count of the extra traced runs that check and time the thread pool;
# they run when a config has more than one fit to spread over threads.
POOL_THREADS = 2


class Run:
    """Outcome of one worker process: timings, file hashes, check results."""

    def __init__(self, report, hashes, problems):
        self.report = report
        self.hashes = hashes
        self.problems = problems


def spawn(args):
    """Run the worker with the checkout's src/ first on the import path."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {RUN_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"worker exited with code {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_outputs(cfg, paths):
    """Check the written files; return (problems, facts read from the files).

    Quality figures come from the files only, never from in-process objects."""
    out = os.path.join(ROOT, OUTPUT_DIR)
    problems = []
    on_disk = sorted(os.listdir(out))
    if on_disk != sorted(os.path.basename(p) for p in paths):
        problems.append("written paths differ from the files on disk")
    values = cfg["sweep"]["values"]
    reps = cfg["repetitions"]
    rows = read_csv(os.path.join(out, "metrics.csv"))
    summary = read_csv(os.path.join(out, "summary.csv"))
    if len(rows) != len(values) * reps or len(summary) != len(values):
        problems.append(f"metrics.csv has {len(rows)} rows and summary.csv {len(summary)}")
    n_base = cfg["dataset"]["params"]["c"] * cfg["dataset"]["params"]["per_cluster"]
    recalls = []
    for run, row in enumerate(rows):
        objective = [float(r["objective"]) for r in read_csv(os.path.join(out, f"trace_{run}.csv"))]
        if len(objective) != int(row["iterations"]) + 1:
            problems.append(f"trace_{run}.csv length disagrees with metrics.csv")
        if not all(math.isfinite(v) for v in objective):
            problems.append(f"trace_{run}.csv has a non-finite objective")
        elif cfg["solver"]["method"] == "EMMF" and any(
            b - a > MONOTONE_SLACK * max(1.0, abs(a)) for a, b in zip(objective, objective[1:])
        ):
            problems.append(f"trace_{run}.csv objective increases")
        errors = [float(r["error"]) for r in read_csv(os.path.join(out, f"errors_{run}.csv"))]
        injected = int(float(row["value"]))
        if len(errors) != n_base + injected or not all(math.isfinite(e) and e >= 0 for e in errors):
            problems.append(f"errors_{run}.csv has wrong length or invalid errors")
        elif injected:
            top = sorted(range(len(errors)), key=lambda i: -errors[i])[:injected]
            recalls.append(sum(i >= n_base for i in top) / injected)
    fits = sum(int(r["runs"]) for r in summary)
    iterations = [int(r["iterations"]) for r in rows]
    facts = {
        "fits": len(rows),
        "iters_total": sum(iterations),
        "converged_frac": sum(i < cfg["solver"]["max_iter"] for i in iterations) / max(len(rows), 1),
        "acc_mean": sum(float(r["acc_mean"]) * int(r["runs"]) for r in summary) / max(fits, 1),
        "nmi_mean": sum(float(r["nmi_mean"]) * int(r["runs"]) for r in summary) / max(fits, 1),
        "outlier_recall": statistics.fmean(recalls) if recalls else float("nan"),
        "files": len(paths),
        "bytes_written": sum(os.path.getsize(os.path.join(ROOT, p)) for p in paths),
    }
    return problems, facts


def hash_files(paths):
    hashes = {}
    for path in paths:
        with open(os.path.join(ROOT, path), "rb") as fh:
            hashes[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def measured_run(cfg_path, cfg, threads, spans=None):
    """One worker process on the config; its outputs checked and hashed."""
    shutil.rmtree(os.path.join(ROOT, OUTPUT_DIR), ignore_errors=True)
    args = ["--config", cfg_path, "--threads", str(threads)]
    if spans:
        args += ["--trace", spans]
    report, error = spawn(args)
    if error:
        return Run(None, {}, [error])
    try:
        problems, facts = check_outputs(cfg, report["paths"])
    except (OSError, KeyError, ValueError) as err:
        return Run(None, {}, [f"outputs unreadable: {err!r}"])
    report.update(facts)
    print(f"run: threads={threads} traced={bool(spans)} run_s={report['run_s']:.4f} "
          f"setup_s={report['setup_s']:.4f} peak_rss_mb={report['peak_rss_mb']:.1f} "
          f"problems={len(problems)}", file=sys.stderr)
    return Run(report, hash_files(report["paths"]), problems)


def require_same(run, reference, what):
    """Fail `run` unless it wrote the same bytes as `reference`."""
    if not run.problems and run.hashes != reference.hashes:
        run.problems.append(f"outputs differ from those of {what}")


def timed_runs(seconds, make_run):
    """Call make_run until `seconds` have passed (at least once)."""
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(make_run())
    return runs


def end_to_end(ok):
    """Medians over the timed runs that passed their checks."""
    run_s = statistics.median(r["run_s"] for r in ok)
    first = ok[0]
    return {
        "run_s": run_s,
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "ms_per_iter": 1e3 * run_s / first["iters_total"],
        "iters_total": first["iters_total"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "outlier_recall": first["outlier_recall"],
    }


def per_layer(pairs, pool):
    """Medians over traced runs, plus the figures read from their files.

    `pool` is the (untraced, traced) pair at POOL_THREADS threads, or None."""
    plain = [u.report for u, _ in pairs]
    traced = [t.report for _, t in pairs]
    metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    plain_run_s = statistics.median(r["run_s"] for r in plain)
    metrics["experiment.threads2_run_s"] = 0.0
    metrics["experiment.threads2_speedup"] = 0.0
    metrics["experiment.threads2_parallelism"] = 0.0
    if pool:
        untraced, traced_pool = pool[0].report, pool[1].report
        metrics["experiment.threads2_run_s"] = untraced["run_s"]
        metrics["experiment.threads2_speedup"] = plain_run_s / untraced["run_s"]
        metrics["experiment.threads2_parallelism"] = traced_pool["layers"]["experiment.parallelism"]
    first = traced[0]
    metrics.update({
        "solvers.iters": first["iters_total"],
        "solvers.converged_frac": first["converged_frac"],
        "metrics.acc_mean": first["acc_mean"],
        "metrics.nmi_mean": first["nmi_mean"],
        "experiment.files": first["files"],
        "experiment.bytes_written": first["bytes_written"],
        "tracing_overhead": statistics.median(r["run_s"] for r in traced) / plain_run_s - 1.0,
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "entnmf", "__init__.py")):
        print("no entnmf source under src/; run from the root of a checkout", file=sys.stderr)
        return 2

    cfg = dict(WORKLOADS[args.workload](args.seed), output_dir=OUTPUT_DIR)
    os.makedirs(os.path.join(ROOT, SCRATCH), exist_ok=True)
    cfg_path = f"{SCRATCH}/config.json"
    with open(os.path.join(ROOT, cfg_path), "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    fits_per_run = len(cfg["sweep"]["values"]) * cfg["repetitions"]

    values = None
    if args.trace:
        spans = f"{SCRATCH}/spans_{args.workload}.csv"
        pairs = timed_runs(args.seconds, lambda: (measured_run(cfg_path, cfg, 1),
                                                  measured_run(cfg_path, cfg, 1, spans)))
        for untraced, traced in pairs:
            require_same(traced, untraced, "the untraced run")
        runs = [r for pair in pairs for r in pair]
        pool = None
        if fits_per_run > 1:
            pool = (measured_run(cfg_path, cfg, POOL_THREADS),
                    measured_run(cfg_path, cfg, POOL_THREADS, f"{SCRATCH}/spans_{args.workload}_t2.csv"))
            for run in pool:
                require_same(run, pairs[0][0], "the --threads 1 run")
            runs += pool
            if any(r.problems for r in pool):
                pool = None
        good = [(u, t) for u, t in pairs if not (u.problems or t.problems)]
        if good:
            values = per_layer(good, pool)
        section = "per_layer"
    else:
        _, error = spawn(["--config", cfg_path, "--setup-only"])
        if error:  # this first process also compiles bytecode and warms the file cache
            print(f"set-up failed: {error}", file=sys.stderr)
            return 2
        runs = timed_runs(args.seconds, lambda: measured_run(cfg_path, cfg, 1))
        for run in runs:
            require_same(run, runs[0], "the first run")
        ok = [r.report for r in runs if not r.problems]
        if ok:
            values = end_to_end(ok)
        section = "end_to_end"

    attempted = fits_per_run * len(runs)
    failed = fits_per_run * sum(bool(r.problems) for r in runs)
    problems = list(dict.fromkeys(p for r in runs for p in r.problems))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": {}}
    if values is not None:
        for metric in spec[section]:
            value = values[metric["name"]]
            result["metrics"][metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"{metric['name']:32s} {value:>16.6g} {metric['unit']:15s} ({metric['better']} is better)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
