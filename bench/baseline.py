"""Run the benchmark over several seeds and record the baseline.

    python3 bench/baseline.py [--seeds 1-10] [--workloads a,b] [--out bench/baseline.json]

For every workload and seed it runs `bench/run.py --trace 0` (and one
`--trace 1` run per workload on the first seed), then records each metric's
median, quartiles and spread (interquartile range over median), the
environment (Python, numpy, scipy, OpenBLAS and its thread count, cores, and
the thread variables as found), and every raw result. Spreads above a third
of a metric's bound are flagged on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
    }
    env.update({var: os.environ.get(var) for var in THREAD_VARS})
    env["openblas_threads"] = _openblas_threads(numpy)
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _openblas_threads(numpy):
    """Thread count numpy's bundled OpenBLAS uses, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_bench(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(exit_code=proc.returncode, wall_s=time.perf_counter() - start, seed=seed)
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=os.path.join("bench", "baseline.json"))
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    report = {"environment": environment(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    worst = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_bench(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"wall={runs[-1]['wall_s']:.1f}s", file=sys.stderr, flush=True)
        traced = run_bench(workload, seeds[0], seconds, 1)
        metrics = {}
        for m in spec["end_to_end"]:
            stats = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            stats.update(unit=m["unit"], bound=m["bound"])
            metrics[m["name"]] = stats
            flag = " OVER A THIRD OF BOUND" if stats["spread"] > m["bound"] / 3 else ""
            if flag and m["name"] != "setup_s":
                worst = 1
            print(f"  {m['name']:16s} median {stats['median']:<12.6g} spread {stats['spread']:.4f}"
                  f" (bound {m['bound']}){flag}", file=sys.stderr)
        report["workloads"][workload] = {
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "runs": runs,
        }
    with open(os.path.join(ROOT, args.out), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
