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
held at a time; the metrics and summary rows are kept until the end.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
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
from .graph import knn_graph, normalize_graph
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

# Bytes of stacked data matrices in one stack of repetitions: a sweep point's
# repetitions are fitted max(1, STACK_BYTES // (8 d n)) at a time. Under
# EMMF, GEMMF and L21_NMF the fit loop holds the stacked copy of the data (a
# stack of one fits on the data itself) and nothing else of its size, except
# one member's exact residual on an iteration where that member's norms fall
# back to it; NMF_FRO adds one workspace of the data's size for U V^T, the
# residual and its squares, and NMF_DIV two workspaces and a d x n boolean
# mask. The errors files take one more d x n buffer per sweep value.
STACK_BYTES = 8 * 2**20


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

    Returns the list of written paths. On any failure every file written so
    far is removed before the error propagates. The repetitions of a sweep
    point are fitted as stacks (see `entnmf.solvers`), one after another in
    the calling thread; BLAS uses the cores. `threads` (>= 1) changes
    nothing, and it is removed once the benchmark harness stops passing it."""
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
    os.makedirs(cfg.output_dir, exist_ok=True)
    written = []
    try:
        return _run_experiment_inner(cfg, X_base, graph, perturbed, written)
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def _base_graph(cfg: ExperimentConfig, X_base: DataMatrix):
    """The normalized kNN graph of X_base that every G-EMMF fit on X_base
    shares (single points, lambda and sigma sweeps), else None. A graph_k not
    below the fewest samples a fit sees is an InputError."""
    if cfg.solver.method != "GEMMF":
        return None
    sweep_name = cfg.sweep.name if cfg.sweep else None
    if sweep_name in (None, "lambda", "sigma"):
        return normalize_graph(knn_graph(X_base, cfg.graph_k))
    n = X_base.n + (min(cfg.sweep.values) if sweep_name == "outlier_count" else 0)
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


def _run_experiment_inner(cfg, X_base, graph, perturbed, written):
    if perturbed is not None:
        written.append(_run_influence(cfg, X_base, graph, perturbed))
        # a sigma sweep fits once, at the solver seed, and injects nothing
        seeds = {"fit": [cfg.solver.seed], "injection": []}
    else:
        _run_fits(cfg, X_base, graph, written)
        fit_seeds = [cfg.solver.seed + r for r in range(cfg.repetitions)]
        seeds = {"fit": fit_seeds, "injection": [s + INJECTION_SEED_OFFSET for s in fit_seeds]}
    manifest = {"config": config_to_dict(cfg), "seeds": seeds}
    path = os.path.join(cfg.output_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written


def _run_fits(cfg, X_base, graph, written):
    """Every (sweep value, repetition) fit, one stack at a time, G-EMMF on
    `graph` if given. Each run's trace and errors files are written as its
    stack returns; the metrics and summary files follow the last stack. Paths
    are appended to `written`."""
    out = cfg.output_dir
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

    metric_rows, summary_rows = [], []
    for value in values:
        solver_cfg = cfg.solver
        if sweep_name == "lambda":
            solver_cfg = replace(solver_cfg, lam=float(value))
        # The repetitions of a sweep value form stacks of at most STACK_BYTES
        # of data.
        n = X_base.n + (value if sweep_name == "outlier_count" else 0)
        size = max(1, STACK_BYTES // (8 * X_base.d * n))
        # every run's residual, whose squared columns sum to its errors; C
        # order, as X - U V^T allocates it, so the sums round alike
        M = np.empty((X_base.d, n))
        accs, nmis = [], []
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
                accs.append(acc_val)
                nmis.append(nmi_val)
                run = len(metric_rows)
                trace = result.trace
                metric_rows.append([sweep_name, value, rep, cfg.solver.seed + rep, acc_val,
                                    nmi_val, trace.iterations, trace.objective[-1]])
                written.append(_write_csv(os.path.join(out, f"trace_{run}.csv"),
                                          ["iteration", "objective"], enumerate(trace.objective)))
                residual(X.values, result.factors.U, result.factors.V, out=M)
                errors = np.sqrt(np.sum(np.multiply(M, M, out=M), axis=0))
                written.append(_write_csv(os.path.join(out, f"errors_{run}.csv"),
                                          ["sample", "error"], enumerate(errors.tolist())))
        s = summarize(accs, nmis)
        summary_rows.append([sweep_name, value, s.acc_mean, s.acc_std, s.nmi_mean, s.nmi_std,
                             s.runs])

    written.append(
        _write_csv(
            os.path.join(out, "metrics.csv"),
            ["sweep", "value", "repetition", "seed", "acc", "nmi", "iterations", "objective"],
            metric_rows,
        )
    )
    written.append(
        _write_csv(
            os.path.join(out, "summary.csv"),
            ["sweep", "value", "acc_mean", "acc_std", "nmi_mean", "nmi_std", "runs"],
            summary_rows,
        )
    )


def _run_influence(cfg: ExperimentConfig, X_base: DataMatrix, graph, perturbed) -> str:
    """Sigma sweep: fit once on clean data (G-EMMF on `graph`, the graph of
    X_base), then take each perturbed matrix (`_perturbed`) and record each
    method's share of its objective attributed to the perturbed sample."""
    result = fit(X_base, cfg.solver, graph)
    rows = []
    for sigma, X in zip(cfg.sweep.values, perturbed):
        report = influence_ratios(X, result.factors, 0)
        rows.append([float(sigma), report.phi_nmf, report.phi_l21, report.phi_emmf])
    return _write_csv(
        os.path.join(cfg.output_dir, "phi_curves.csv"),
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
    os.makedirs(output_dir, exist_ok=True)
    return _write_csv(os.path.join(output_dir, "bound.csv"), ["n", "upper_bound"], rows)
