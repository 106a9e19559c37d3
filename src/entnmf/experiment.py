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
sweep point are fitted together as stacks (`STACK_BYTES`), and every fit in
a stack computes exactly what it would alone, so the outputs depend neither
on the stacking nor on the thread count.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import get_args, get_type_hints

from .core import DataMatrix, column_norms, residual_matrix
from .data import (
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
from .solvers import SolverConfig, extend_factors, fit, fit_stack, init_factors

SOURCES = ("CSV_FILE", "SYNTH_OUTLIERS", "SYNTH_BLOBS", "SYNTH_RANDOM")
SWEEPS = ("outlier_count", "lambda", "sigma", "block_size")

# Offset separating injection randomness from fit randomness within a repetition.
INJECTION_SEED_OFFSET = 10007

# Bytes of stacked data matrices in one stack of repetitions: a sweep point's
# repetitions are fitted max(1, STACK_BYTES // (8 d n)) at a time. Under
# EMMF, GEMMF and L21_NMF the fit loop holds the stacked copy of the data and
# nothing else of its size, except one member's exact residual on an
# iteration where that member's norms fall back to it; NMF_FRO adds one
# workspace of the data's size for U V^T, the residual and its squares, and
# NMF_DIV two workspaces and a d x n boolean mask.
STACK_BYTES = 8 * 2**20


@dataclass
class DatasetSpec:
    source: str
    params: dict = field(default_factory=dict)
    normalize: bool = False

    def __post_init__(self):
        if self.source not in SOURCES:
            raise InputError(f"unknown dataset source {self.source!r}, expected one of {SOURCES}")


@dataclass
class Sweep:
    name: str
    values: list

    def __post_init__(self):
        if self.name not in SWEEPS:
            raise InputError(f"unknown sweep {self.name!r}, expected one of {SWEEPS}")
        if not self.values:
            raise InputError("sweep values must be a nonempty list")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec
    solver: SolverConfig
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
_KINDS = {
    int: ("an integer", _is_int),
    float: ("a real number", lambda v: _is_int(v) or isinstance(v, float)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    list: ("a list", lambda v: isinstance(v, list)),
}


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
    hints = get_type_hints(cls)
    for key, value in kwargs.items():
        if key not in hints:
            raise InputError(f"{path}: unknown key {key!r}")
        types = get_args(hints[key]) or (hints[key],)
        kind = next((t for t in types if t in _KINDS), None)
        nullable = type(None) in types
        if kind is None or (value is None and nullable):
            continue
        name, ok = _KINDS[kind]
        if not ok(value):
            null = " or null" if nullable else ""
            raise InputError(f"{path}: {key!r} must be {name}{null}, got {value!r}")
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
    if "dataset" not in kwargs:
        raise InputError(f"{where}: missing required key 'dataset'")

    def build(key, cls, section):
        return cls(**_section(section, cls, f"{where}, section {key!r}"))

    kwargs["dataset"] = build("dataset", DatasetSpec, kwargs["dataset"])
    kwargs["solver"] = build("solver", SolverConfig, kwargs.get("solver", {}))
    if kwargs.get("sweep") is not None:
        kwargs["sweep"] = build("sweep", Sweep, kwargs["sweep"])
    return ExperimentConfig(**kwargs)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {
        "dataset": asdict(cfg.dataset),
        "solver": asdict(cfg.solver),
        "repetitions": cfg.repetitions,
        "sweep": asdict(cfg.sweep) if cfg.sweep else None,
        "output_dir": cfg.output_dir,
        "graph_k": cfg.graph_k,
    }
    solver = out["solver"]
    solver["lambda"] = solver.pop("lam")
    return out


def realize_dataset(spec: DatasetSpec) -> DataMatrix:
    """Materialize the configured dataset, normalized if requested."""
    p = dict(spec.params)
    # consumed by block_size sweeps, not by any generator
    p.pop("samples_per_class", None)
    try:
        if spec.source == "CSV_FILE":
            X = load_csv(p.pop("path"), has_labels=p.pop("has_labels", False))
        elif spec.source == "SYNTH_OUTLIERS":
            X = synth_outliers(seed=p.pop("seed", 0))
        elif spec.source == "SYNTH_BLOBS":
            X = synth_blobs(
                c=p.pop("c"),
                per_cluster=p.pop("per_cluster"),
                d=p.pop("d"),
                separation=p.pop("separation"),
                seed=p.pop("seed", 0),
            )
        else:
            X = synth_random(d=p.pop("d"), n=p.pop("n"), seed=p.pop("seed", 0))
    except KeyError as err:
        raise InputError(f"dataset params missing required key {err.args[0]!r}") from None
    if p:
        raise InputError(f"dataset params has unknown keys {sorted(p)}")
    if spec.normalize:
        X = unit_normalize(X)
    return X


def _fit_stack(cfg: ExperimentConfig, X_base: DataMatrix, sweep_name, value, reps, bases, graph):
    """The repetitions `reps` of one sweep point, fitted as one stack.

    `bases` holds each repetition's k-means start on X_base and `graph` the
    normalized graph of X_base, where the tasks share them (see
    `_run_experiment_inner`). Returns one (fit_seed, result, acc, nmi, errors)
    per repetition, in order; the first member that failed numerically
    raises its NumericalError. Pure function of its arguments.
    """
    solver_cfg = cfg.solver
    if sweep_name == "lambda":
        solver_cfg = replace(solver_cfg, lam=float(value))
    Xs, masks, initials, graphs = [], [], [], []
    for rep in reps:
        fit_seed = cfg.solver.seed + rep
        inject_seed = fit_seed + INJECTION_SEED_OFFSET
        X = X_base
        score_mask = None
        if sweep_name == "outlier_count":
            X, injected = inject_outlier_vectors(X_base, int(value), seed=inject_seed)
            score_mask = ~injected
            # Anchor the starting factors on the clean data so the sweep measures
            # how injected columns move the basis, not how they break k-means.
            initial = extend_factors(bases[rep], X)
        elif sweep_name == "block_size":
            per_class = int(cfg.dataset.params.get("samples_per_class", 3))
            X, _ = inject_block_noise(X_base, int(value), per_class, seed=inject_seed)
            initial = init_factors(X, solver_cfg.c, fit_seed, solver_cfg.init)
        else:
            initial = bases[rep]
        if solver_cfg.method == "GEMMF" and graph is None:
            graphs.append(knn_graph(X, cfg.graph_k))
        else:
            graphs.append(graph)
        Xs.append(X)
        masks.append(score_mask)
        initials.append(initial)

    out = []
    for rep, X, score_mask, result in zip(reps, Xs, masks, fit_stack(Xs, solver_cfg, initials, graphs)):
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
        errors = column_norms(residual_matrix(X, result.factors.U, result.factors.V))
        out.append((cfg.solver.seed + rep, result, acc_val, nmi_val, errors))
    return out


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list:
    """Execute the configured runs and write all output files.

    Returns the list of written paths. On any failure every file written so
    far is removed before the error propagates. The repetitions of a sweep
    point are fitted as one stack (see `entnmf.solvers`); `threads` runs
    whole stacks in parallel, and the outputs do not depend on it."""
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    written = []
    try:
        return _run_experiment_inner(cfg, threads, written)
    except BaseException:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def _run_experiment_inner(cfg, threads, written):
    X_base = realize_dataset(cfg.dataset)
    if cfg.sweep is not None and cfg.sweep.name == "sigma":
        written.append(_run_influence(cfg, X_base))
    else:
        _run_fits(cfg, X_base, threads, written)
    manifest = {
        "config": config_to_dict(cfg),
        "seeds": {
            "fit": [cfg.solver.seed + r for r in range(cfg.repetitions)],
            "injection": [cfg.solver.seed + r + INJECTION_SEED_OFFSET for r in range(cfg.repetitions)],
        },
    }
    path = os.path.join(cfg.output_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written


def _run_fits(cfg, X_base, threads, written):
    """Every (sweep value, repetition) fit: the trace, errors, metrics and
    summary files, appended to `written`."""
    out = cfg.output_dir
    sweep_name = cfg.sweep.name if cfg.sweep else None
    values = cfg.sweep.values if cfg.sweep else [None]
    tasks = [
        (idx, value, rep)
        for idx, value in enumerate(values)
        for rep in range(cfg.repetitions)
    ]

    # Work that does not change between tasks is done once: each
    # repetition's k-means start on the clean data (outlier_count sweeps
    # extend it, lambda sweeps and single points start from it), and the
    # normalized graph when the data is the same for every task.
    bases = graph = None
    if sweep_name != "block_size":
        bases = [
            init_factors(X_base, cfg.solver.c, cfg.solver.seed + rep, cfg.solver.init)
            for rep in range(cfg.repetitions)
        ]
    if sweep_name in (None, "lambda") and cfg.solver.method == "GEMMF":
        graph = normalize_graph(knn_graph(X_base, cfg.graph_k))

    # The repetitions of a sweep point form stacks of at most STACK_BYTES of
    # data; the grouping does not depend on `threads`.
    stacks = []
    for value in values:
        n = X_base.n + (int(value) if sweep_name == "outlier_count" else 0)
        size = max(1, STACK_BYTES // (8 * X_base.d * n))
        for first in range(0, cfg.repetitions, size):
            stacks.append((value, range(first, min(first + size, cfg.repetitions))))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_fit_stack, cfg, X_base, sweep_name, value, reps, bases, graph)
                for value, reps in stacks
            ]
            results = [r for f in futures for r in f.result()]
    else:
        results = [
            r
            for value, reps in stacks
            for r in _fit_stack(cfg, X_base, sweep_name, value, reps, bases, graph)
        ]

    metric_rows = []
    for (idx, value, rep), (fit_seed, result, acc_val, nmi_val, errors) in zip(tasks, results):
        run = idx * cfg.repetitions + rep
        metric_rows.append(
            [
                sweep_name or "none",
                _fmt(value if value is not None else 0),
                rep,
                fit_seed,
                _fmt(acc_val),
                _fmt(nmi_val),
                result.trace.iterations,
                _fmt(result.trace.objective[-1]),
            ]
        )
        written.append(
            _write_csv(
                os.path.join(out, f"trace_{run}.csv"),
                ["iteration", "objective"],
                [[t, _fmt(v)] for t, v in enumerate(result.trace.objective)],
            )
        )
        written.append(
            _write_csv(
                os.path.join(out, f"errors_{run}.csv"),
                ["sample", "error"],
                [[i, _fmt(float(e))] for i, e in enumerate(errors)],
            )
        )

    written.append(
        _write_csv(
            os.path.join(out, "metrics.csv"),
            ["sweep", "value", "repetition", "seed", "acc", "nmi", "iterations", "objective"],
            metric_rows,
        )
    )

    summary_rows = []
    for idx, value in enumerate(values):
        block = results[idx * cfg.repetitions : (idx + 1) * cfg.repetitions]
        accs = [r[2] for r in block]
        nmis = [r[3] for r in block]
        s = summarize(accs, nmis)
        summary_rows.append(
            [
                sweep_name or "none",
                _fmt(value if value is not None else 0),
                _fmt(s.acc_mean),
                _fmt(s.acc_std),
                _fmt(s.nmi_mean),
                _fmt(s.nmi_std),
                s.runs,
            ]
        )
    written.append(
        _write_csv(
            os.path.join(out, "summary.csv"),
            ["sweep", "value", "acc_mean", "acc_std", "nmi_mean", "nmi_std", "runs"],
            summary_rows,
        )
    )


def _run_influence(cfg: ExperimentConfig, X_base: DataMatrix) -> str:
    """Sigma sweep: fit once on clean data, then perturb one entry and record
    each method's share of its objective attributed to the perturbed sample."""
    result = fit(X_base, cfg.solver)
    rows = []
    for sigma in cfg.sweep.values:
        values = X_base.values.copy()
        values[0, 0] += float(sigma)
        perturbed = DataMatrix(values=values, labels=X_base.labels, name=X_base.name)
        report = influence_ratios(perturbed, result.factors, 0)
        rows.append([_fmt(float(sigma)), _fmt(report.phi_nmf), _fmt(report.phi_l21), _fmt(report.phi_emmf)])
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
        rows.append([n, _fmt(bound)])
    os.makedirs(output_dir, exist_ok=True)
    return _write_csv(os.path.join(output_dir, "bound.csv"), ["n", "upper_bound"], rows)
