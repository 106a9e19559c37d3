"""Config-driven experiment harness.

A JSON config describes a dataset, a solver, a repetition count, and an
optional sweep over one named parameter. Running it produces:

  metrics.csv       one row per (sweep value, repetition)
  summary.csv       mean/std per sweep value
  trace_<run>.csv   per-iteration objective for each fit
  errors_<run>.csv  final per-sample residual norms for each fit
  phi_curves.csv    influence shares per sigma (sigma sweeps only)
  manifest.json     resolved config plus derived seeds

Determinism: the fit seed for repetition r is solver.seed + r, and each
injection seed is the fit seed plus a fixed offset, so a manifest fed back
as a config reproduces every output byte for byte. The repetitions of a
sweep point are fitted together as stacks (`STACK_BYTES`), one stack after
another, and every fit in a stack computes exactly what it would alone, so
the outputs do not depend on the stacking. Each run's trace and errors
files are written as its stack returns, so only one stack's results are
held at a time; the metrics and summary rows are kept until the end. A
sweep's values run in forked worker processes, one value per worker, when
their fits are too small for BLAS to thread (`_worker_count`); the files do
not depend on where a value ran.
A run writes into a staging directory and its files are moved into place,
manifest last, only once it succeeds, so a manifest marks one whole run.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
import re
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import get_args, get_type_hints

import numpy as np

from .core import DataMatrix, residual
from .data import (
    check_block_noise,
    inject_block_noise,
    inject_outlier_vectors,
    load_csv,
    synth_blobs,
    synth_outliers,
    synth_random,
    unit_normalize,
)
from .errors import InputError, NumericalError
from .graph import _block_rows, knn_graph
from .losses import influence_ratios, influence_upper_bound
from .metrics import accuracy, nmi, summarize
from .solvers import (SolverConfig, check_cluster_count, extend_factors, fit, fit_stack,
                      init_factors)

# The generator of each dataset source; a dataset's params are its keyword
# arguments, plus `samples_per_class`, which block_size sweeps read.
GENERATORS = {
    "CSV_FILE": load_csv,
    "SYNTH_OUTLIERS": synth_outliers,
    "SYNTH_BLOBS": synth_blobs,
    "SYNTH_RANDOM": synth_random,
}
# The type of each sweep's values and their lower bound, if any.
SWEEPS = {
    "outlier_count": (int, 0),
    "lambda": (float, 0),
    "sigma": (float, None),
    "block_size": (int, 0),
}

# Offset separating injection randomness from fit randomness within a repetition.
INJECTION_SEED_OFFSET = 10007

# The names of the output files besides manifest.json; a run that succeeds
# removes those in its output directory that it did not write.
_OUTPUT_NAME = re.compile(r"(trace|errors)_\d+\.csv|metrics\.csv|summary\.csv|phi_curves\.csv")

# Bytes of stacked data matrices in one stack of repetitions: a sweep point's
# repetitions are fitted max(1, STACK_BYTES // (8 d n)) at a time. Under
# EMMF, GEMMF, L21_NMF and NMF_FRO the fit loop holds the stacked copy of the
# data (a stack of one fits on the data itself) and nothing else of its size,
# except one member's exact residual on an iteration where that member's
# squared norms fall back to it; NMF_DIV adds two workspaces and a d x n
# boolean mask. The errors files take one more d x n buffer per sweep value.
# Each process fitting sweep values, this one or a worker, holds at most one
# stack at a time.
STACK_BYTES = 8 * 2**20

# The largest M N K of a matrix product (M x K times K x N) in the fits of a
# sweep whose values run in worker processes. Measured from the CPU time of
# OpenBLAS's threads (OpenBLAS 0.3.31, x86-64), OpenBLAS gives a product
# M N K // 262144 threads, at least one, so it keeps one below 2 x 262144 on
# one thread; where c = 1, numpy's matmul makes matrix-vector products, which
# it keeps on one thread below M N = 460800. The bound stays below both.
# Above them, each worker's BLAS threads compete with the other workers for
# the CPUs: a 4-value sweep at n = 2000-2060, d = 100, c = 5 ran 1.7-2.8x
# slower in a pool of two than in one process on two CPUs.
ONE_THREAD_PRODUCT = 262144
# Worker processes are forked where the platform forks and reports the CPUs
# this process may use. CPython 3.12 and later warn on forking a process
# that has other threads, as OpenBLAS starts them, so there the values run
# in this process.
_FORKS = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and sys.version_info < (3, 12)


@dataclass
class DatasetSpec:
    source: str
    params: dict = field(default_factory=dict)
    normalize: bool = False

    def __post_init__(self):
        if self.source not in GENERATORS:
            raise InputError(f"unknown dataset source {self.source!r}, expected one of {list(GENERATORS)}")
        _check_kwargs(
            self.params, GENERATORS[self.source], "dataset params", extra={"samples_per_class": int}
        )
        for key in ("samples_per_class", "seed"):
            if self.params.get(key, 0) < 0:
                raise InputError(f"{key} must be >= 0, got {self.params[key]}")


@dataclass
class Sweep:
    name: str
    values: list

    def __post_init__(self):
        if self.name not in SWEEPS:
            raise InputError(f"unknown sweep {self.name!r}, expected one of {list(SWEEPS)}")
        if not self.values:
            raise InputError("sweep values must be a nonempty list")
        kind, low = SWEEPS[self.name]
        name, ok = _KINDS[kind]
        for value in self.values:
            if not ok(value) or (low is not None and value < low):
                at_least = "" if low is None else f" >= {low}"
                raise InputError(f"each {self.name} sweep value must be {name}{at_least}, got {value!r}")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    solver: SolverConfig = field(default_factory=SolverConfig)
    repetitions: int = 20
    sweep: Sweep | None = None
    output_dir: str = "."
    graph_k: int = 5

    def __post_init__(self):
        if self.repetitions < 1:
            raise InputError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.graph_k < 1:
            raise InputError(f"graph_k must be >= 1, got {self.graph_k}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# What a config value must be, by the type of its dataclass field. Values are
# checked, not converted, so a manifest written from the config keeps them.
# NaN and the infinities, which JSON parsing accepts, are not real numbers.
_KINDS = {
    int: ("an integer", _is_int),
    float: ("a finite real number",
            lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v))),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    list: ("a list", lambda v: isinstance(v, list)),
}


def _check_kwargs(kwargs: dict, fn, path, extra=None) -> None:
    """Check `kwargs` as the keyword arguments of the class or function `fn`,
    plus the keys typed in `extra`: required ones given, no others, each of
    its annotated type. `path` names the arguments in errors."""
    params = inspect.signature(fn).parameters
    hints = {**get_type_hints(fn), **(extra or {})}
    missing = [key for key, p in params.items() if p.default is p.empty and key not in kwargs]
    if missing:
        raise InputError(f"{path}: missing required key {missing[0]!r}")
    unknown = sorted(set(kwargs) - set(params) - set(extra or ()))
    if unknown:
        raise InputError(f"{path}: unknown keys {unknown}")
    for key, value in kwargs.items():
        types = get_args(hints.get(key)) or (hints.get(key),)
        kind = next((t for t in types if t in _KINDS), None)
        nullable = type(None) in types
        if kind is None or (value is None and nullable):
            continue
        name, ok = _KINDS[kind]
        if not ok(value):
            null = " or null" if nullable else ""
            raise InputError(f"{path}: {key!r} must be {name}{null}, got {value!r}")


def _section(section, cls, path) -> dict:
    """The keyword arguments of cls in the config object `section`, checked
    against its fields' names and types; `path` names it in errors."""
    if not isinstance(section, dict):
        raise InputError(f"{path}: must be an object")
    kwargs = dict(section)
    # JSON cannot spell the Python keyword-free field name "lam" naturally;
    # accept "lambda" as the public spelling.
    if cls is SolverConfig and "lambda" in kwargs:
        if "lam" in kwargs:
            raise InputError(f"{path}: give 'lambda' or 'lam', not both")
        kwargs["lam"] = kwargs.pop("lambda")
    _check_kwargs(kwargs, cls, path)
    return kwargs


def load_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config; a manifest wrapper is accepted as-is."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}") from None
    except OSError as err:
        raise InputError(f"{path}: {err.strerror}") from None
    if isinstance(obj, dict) and "config" in obj:
        obj = obj["config"]
    return config_from_dict(obj, str(path))


def config_from_dict(obj, where="config") -> ExperimentConfig:
    """The ExperimentConfig in the parsed JSON `obj`; keys, defaults and value
    types come from the dataclasses, and `where` names the source in errors."""
    kwargs = _section(obj, ExperimentConfig, where)

    def build(key, cls, section):
        return cls(**_section(section, cls, f"{where}, section {key!r}"))

    kwargs["dataset"] = build("dataset", DatasetSpec, kwargs["dataset"])
    kwargs["solver"] = build("solver", SolverConfig, kwargs.get("solver", {}))
    if kwargs.get("sweep") is not None:
        kwargs["sweep"] = build("sweep", Sweep, kwargs["sweep"])
    return ExperimentConfig(**kwargs)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = asdict(cfg)
    out["solver"]["lambda"] = out["solver"].pop("lam")
    return out


def realize_dataset(spec: DatasetSpec) -> DataMatrix:
    """Materialize the configured dataset, normalized if requested."""
    p = {key: value for key, value in spec.params.items() if key != "samples_per_class"}
    X = GENERATORS[spec.source](**p)
    if spec.normalize:
        X = unit_normalize(X)
    return X


def _problem(cfg: ExperimentConfig, X_base: DataMatrix, value, rep, bases, graph):
    """Repetition `rep` at sweep value `value`: its data, score mask (None to
    score every sample), starting factors and similarity graph (None unless
    GEMMF). `bases` holds each repetition's k-means start on X_base where the
    sweep leaves it valid (see `_run_fits`), and `graph` the shared graph of
    X_base (see `_base_graph`)."""
    sweep_name = cfg.sweep.name if cfg.sweep else None
    fit_seed = cfg.solver.seed + rep
    inject_seed = fit_seed + INJECTION_SEED_OFFSET
    X = X_base
    score_mask = None
    if sweep_name == "outlier_count":
        X, injected = inject_outlier_vectors(X_base, value, seed=inject_seed)
        score_mask = ~injected
        # Anchor the starting factors on the clean data so the sweep measures
        # how injected columns move the basis, not how they break k-means.
        initial = extend_factors(bases[rep], X)
    elif sweep_name == "block_size":
        X, _ = inject_block_noise(X_base, value, _samples_per_class(cfg), seed=inject_seed)
        initial = init_factors(X, cfg.solver.c, fit_seed, cfg.solver.init)
    else:
        initial = bases[rep]
    if cfg.solver.method == "GEMMF" and graph is None:
        graph = knn_graph(X, cfg.graph_k)
    return X, score_mask, initial, graph


def _samples_per_class(cfg: ExperimentConfig) -> int:
    """The samples per class a block_size sweep corrupts (default 3)."""
    return cfg.dataset.params.get("samples_per_class", 3)


def _write_csv(path, header, rows):
    """Write rows of Python ints, floats and strings; csv writes a float as
    its repr, so every float keeps its full precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list:
    """Execute the configured runs and write all output files.

    Returns the list of written paths. Every file is written into a staging
    directory `.entnmf-*` in `cfg.output_dir` and published (`_publish`) only
    on success; the staging directory is removed however the run ends, so a
    failed run leaves the output directory as it was. The repetitions of a
    sweep point are fitted as stacks (see `entnmf.solvers`), one after another.
    The sweep's values run in a pool of forked worker processes, one value
    per worker, when it has two or more values, this process may use two or
    more CPUs and every matrix product of their fits is small enough for
    OpenBLAS to keep on one thread (`_worker_count`); otherwise they run one
    after another in the calling thread, and BLAS uses the cores. The pool's
    processes have ended when this returns or raises. `threads` (>= 1)
    changes nothing, and it is removed once the benchmark harness stops
    passing it."""
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    # the dataset's own range checks, the cluster count (no sweep lowers d or
    # n), the largest block_size's noise (a smaller block fits wherever it
    # does), the graph_k check and the perturbed matrices' checks come before
    # any output
    X_base = realize_dataset(cfg.dataset)
    check_cluster_count(X_base, cfg.solver.c)
    if cfg.sweep is not None and cfg.sweep.name == "block_size":
        check_block_noise(X_base, max(cfg.sweep.values), _samples_per_class(cfg))
    graph = _base_graph(cfg, X_base)
    perturbed = _perturbed(cfg, X_base)
    _make_output_dir(cfg.output_dir)
    # on the output directory's filesystem, so that os.replace moves a file
    stage = tempfile.mkdtemp(prefix=".entnmf-", dir=cfg.output_dir)
    try:
        if perturbed is not None:
            staged = [_run_influence(cfg, X_base, graph, perturbed, stage)]
            # a sigma sweep fits once, at the solver seed, and injects nothing
            seeds = {"fit": [cfg.solver.seed], "injection": []}
        else:
            staged = _run_fits(cfg, X_base, graph, stage)
            fit_seeds = [cfg.solver.seed + r for r in range(cfg.repetitions)]
            seeds = {"fit": fit_seeds, "injection": [s + INJECTION_SEED_OFFSET for s in fit_seeds]}
        manifest = {"config": config_to_dict(cfg), "seeds": seeds}
        staged.append(os.path.join(stage, "manifest.json"))
        with open(staged[-1], "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return _publish(staged, cfg.output_dir)
    finally:
        shutil.rmtree(stage)


def _make_output_dir(path) -> None:
    """Create the directory `path` if it is missing; a path that is a file,
    or lies under one, is an InputError."""
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise InputError(f"output directory {path} is a file or lies under one") from None


def _publish(staged, output_dir) -> list:
    """Move the `staged` files into `output_dir` in order, the manifest last,
    and return their paths there. The old manifest is removed first, then
    the output files (`_OUTPUT_NAME`) that the staged ones do not replace;
    no other file is touched."""
    names = [os.path.basename(path) for path in staged]
    paths = [os.path.join(output_dir, name) for name in names]
    if os.path.exists(paths[-1]):
        os.remove(paths[-1])
    for name in set(os.listdir(output_dir)).difference(names):
        if _OUTPUT_NAME.fullmatch(name):
            os.remove(os.path.join(output_dir, name))
    for source, path in zip(staged, paths):
        os.replace(source, path)
    return paths


def _base_graph(cfg: ExperimentConfig, X_base: DataMatrix):
    """The raw kNN graph of X_base that every G-EMMF fit on X_base shares
    (single points, lambda and sigma sweeps), else None. A graph_k not below
    the fewest samples a fit sees is an InputError."""
    if cfg.solver.method != "GEMMF":
        return None
    sweep_name = cfg.sweep.name if cfg.sweep else None
    if sweep_name in (None, "lambda", "sigma"):
        return knn_graph(X_base, cfg.graph_k)
    n = min(_sample_count(cfg, X_base, value) for value in cfg.sweep.values)
    if cfg.graph_k >= n:
        raise InputError(f"graph_k {cfg.graph_k} must be below {n}, the fewest samples a fit sees")
    return None


def _perturbed(cfg: ExperimentConfig, X_base: DataMatrix):
    """Under a sigma sweep, X_base with sigma added to entry (0, 0), one
    matrix per sweep value, each checked as it is built; else None."""
    if cfg.sweep is None or cfg.sweep.name != "sigma":
        return None
    perturbed = []
    for sigma in cfg.sweep.values:
        values = X_base.values.copy()
        values[0, 0] += float(sigma)
        perturbed.append(DataMatrix(values=values, labels=X_base.labels))
    return perturbed


def _run_fits(cfg, X_base, graph, stage) -> list:
    """Every (sweep value, repetition) fit, G-EMMF on `graph` if given: each
    value's fits in a worker process (`_worker_count`), or value after value
    in this process. The metrics and summary files follow the last value.
    Returns the paths written in `stage`, in value order."""
    sweep_name = cfg.sweep.name if cfg.sweep else "none"
    values = cfg.sweep.values if cfg.sweep else [0]

    # Each repetition's k-means start on the clean data (outlier_count sweeps
    # extend it, lambda sweeps and single points start from it) is computed
    # once.
    bases = None
    if sweep_name != "block_size":
        bases = [
            init_factors(X_base, cfg.solver.c, cfg.solver.seed + rep, cfg.solver.init)
            for rep in range(cfg.repetitions)
        ]

    run = partial(_run_value, cfg, X_base, graph, bases, stage)
    workers = _worker_count(cfg, X_base, graph)
    if workers:
        # the largest fits start first, so that none is left to run alone last
        order = sorted(range(len(values)), key=lambda i: -_sample_count(cfg, X_base, values[i]))
        outcomes = _in_pool(run, order, workers)
    else:
        outcomes = map(run, range(len(values)))
    written, metric_rows, summary_rows = [], [], []
    for value, (rows, paths) in zip(values, outcomes):
        written += paths
        metric_rows += rows
        s = summarize([r[4] for r in rows], [r[5] for r in rows])  # acc and nmi
        summary_rows.append([sweep_name, value, s.acc_mean, s.acc_std, s.nmi_mean, s.nmi_std,
                             s.runs])

    written.append(
        _write_csv(
            os.path.join(stage, "metrics.csv"),
            ["sweep", "value", "repetition", "seed", "acc", "nmi", "iterations", "objective"],
            metric_rows,
        )
    )
    written.append(
        _write_csv(
            os.path.join(stage, "summary.csv"),
            ["sweep", "value", "acc_mean", "acc_std", "nmi_mean", "nmi_std", "runs"],
            summary_rows,
        )
    )
    return written


def _sample_count(cfg: ExperimentConfig, X_base: DataMatrix, value) -> int:
    """The samples of each fit at sweep value `value`."""
    return X_base.n + (value if cfg.sweep and cfg.sweep.name == "outlier_count" else 0)


def _worker_count(cfg: ExperimentConfig, X_base: DataMatrix, graph) -> int:
    """The worker processes to fit the sweep values in, or 0 to fit them in
    this process: one per value, up to the CPUs this process may use, when
    there are two of each and every matrix product the values' fits make,
    the kNN blocks of a graph per problem (G-EMMF without the shared `graph`)
    included, is at most ONE_THREAD_PRODUCT."""
    values = cfg.sweep.values if cfg.sweep else [0]
    if not _FORKS or len(values) < 2:
        return 0
    d, n = X_base.d, max(_sample_count(cfg, X_base, value) for value in values)
    largest = d * n * cfg.solver.c  # c <= d, so no product of the fit is larger
    if cfg.solver.method == "GEMMF" and graph is None:
        largest = max(largest, _block_rows(n) * n * d)
    workers = min(len(os.sched_getaffinity(0)), len(values))
    return workers if workers >= 2 and largest <= ONE_THREAD_PRODUCT else 0


def _in_pool(run, order, workers) -> list:
    """Run run(index) for each index in `order`, in that order, in `workers`
    forked worker processes, and return the results in index order. Read in
    index order, they end at the error of the lowest failing index, as they
    would in one process; on an error or interrupt the runs that have not
    started are cancelled and the started ones finish."""
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor

    # Forked, not spawned: a spawned worker imports numpy and entnmf afresh,
    # about 0.15 s, half of what it saves on the README sweep. The pool forks
    # its workers before it starts a thread, and OpenBLAS stops its threads
    # across a fork. The workers ignore SIGINT, which a terminal sends to
    # them too: a worker interrupted while it waits for a value would break
    # the pool, which then kills the others mid-file. This process takes the
    # interrupt, lets the started values finish and then removes the staging
    # directory they wrote into.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=signal.signal,
                             initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
        futures = {index: pool.submit(run, index) for index in order}
        try:
            return [futures[index].result() for index in sorted(futures)]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _run_value(cfg, X_base, graph, bases, stage, index):
    """The fits of sweep value `index`, one stack at a time, G-EMMF on
    `graph` if given: the value's metric rows and the paths of its runs'
    trace and errors files, each written in `stage` as its stack returns."""
    sweep_name = cfg.sweep.name if cfg.sweep else "none"
    value = cfg.sweep.values[index] if cfg.sweep else 0
    solver_cfg = cfg.solver
    if sweep_name == "lambda":
        solver_cfg = replace(solver_cfg, lam=float(value))
    # The repetitions form stacks of at most STACK_BYTES of data.
    n = _sample_count(cfg, X_base, value)
    size = max(1, STACK_BYTES // (8 * X_base.d * n))
    # every run's residual, whose squared columns sum to its errors; C
    # order, as X - U V^T allocates it, so the sums round alike
    M = np.empty((X_base.d, n))
    rows, written = [], []
    for first in range(0, cfg.repetitions, size):
        reps = range(first, min(first + size, cfg.repetitions))
        problems = [_problem(cfg, X_base, value, rep, bases, graph) for rep in reps]
        Xs, masks, initials, graphs = zip(*problems)
        fits = fit_stack(Xs, solver_cfg, initials, graphs)
        for rep, X, score_mask, result in zip(reps, Xs, masks, fits):
            if isinstance(result, NumericalError):
                raise result
            acc_val = nmi_val = float("nan")
            if X.labels is not None:
                pred = result.assignments
                truth = X.labels
                if score_mask is not None:
                    pred = pred[score_mask]
                    truth = truth[score_mask]
                acc_val = accuracy(pred, truth)
                nmi_val = nmi(pred, truth)
            run = index * cfg.repetitions + rep
            trace = result.trace
            rows.append([sweep_name, value, rep, cfg.solver.seed + rep, acc_val, nmi_val,
                         trace.iterations, trace.objective[-1]])
            written.append(_write_csv(os.path.join(stage, f"trace_{run}.csv"),
                                      ["iteration", "objective"], enumerate(trace.objective)))
            residual(X.values, result.factors.U, result.factors.V, out=M)
            errors = np.sqrt(np.sum(np.multiply(M, M, out=M), axis=0))
            written.append(_write_csv(os.path.join(stage, f"errors_{run}.csv"),
                                      ["sample", "error"], enumerate(errors.tolist())))
    return rows, written


def _run_influence(cfg: ExperimentConfig, X_base: DataMatrix, graph, perturbed, stage) -> str:
    """Sigma sweep: fit once on clean data (G-EMMF on `graph`, the graph of
    X_base), then take each perturbed matrix (`_perturbed`) and record each
    method's share of its objective attributed to the perturbed sample in
    `stage`."""
    result = fit(X_base, cfg.solver, graph)
    rows = []
    for sigma, X in zip(cfg.sweep.values, perturbed):
        report = influence_ratios(X, result.factors, 0)
        rows.append([float(sigma), report.phi_nmf, report.phi_l21, report.phi_emmf])
    return _write_csv(
        os.path.join(stage, "phi_curves.csv"),
        ["sigma", "phi_nmf", "phi_l21", "phi_emmf"],
        rows,
    )


def run_bound_curve(n_max: int, p_step: float, output_dir: str = ".") -> str:
    """Tabulate the worst-case single-outlier share for n in [3, n_max]."""
    if n_max < 3:
        raise InputError(f"n_max must be >= 3, got {n_max}")
    rows = []
    for n in range(3, n_max + 1):
        bound, _ = influence_upper_bound(n, p_step)
        rows.append([n, bound])
    _make_output_dir(output_dir)
    return _write_csv(os.path.join(output_dir, "bound.csv"), ["n", "upper_bound"], rows)
