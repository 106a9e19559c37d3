"""Config parsing, dataset realization, and the experiment runner's outputs."""

import collections
import concurrent.futures
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from entnmf import (
    DatasetSpec,
    ExperimentConfig,
    InputError,
    NumericalError,
    SolverConfig,
    Sweep,
    load_config,
    realize_dataset,
    run_bound_curve,
    run_experiment,
)
from entnmf import experiment
from entnmf.experiment import INJECTION_SEED_OFFSET, config_from_dict, config_to_dict


def small_config(tmp_path, **overrides):
    base = dict(
        dataset=DatasetSpec(
            source="SYNTH_BLOBS",
            params={"c": 2, "per_cluster": 5, "d": 4, "separation": 10.0, "seed": 1},
        ),
        solver=SolverConfig(method="EMMF", c=2, seed=3, max_iter=25),
        repetitions=2,
        output_dir=str(tmp_path),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# a valid dataset section, for configs that are wrong elsewhere
RANDOM = {"source": "SYNTH_RANDOM", "params": {"d": 3, "n": 5}}


def write_json(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_full_round_trip(self):
        cfg = ExperimentConfig(
            dataset=DatasetSpec(source="SYNTH_RANDOM", params={"d": 3, "n": 5}, normalize=True),
            solver=SolverConfig(method="GEMMF", c=2, lam=100.0, seed=7),
            repetitions=4,
            sweep=Sweep(name="lambda", values=[1.0, 10.0]),
            output_dir="out",
            graph_k=4,
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_lambda_is_the_public_spelling(self, tmp_path):
        path = write_json(
            tmp_path,
            {
                "dataset": {"source": "SYNTH_RANDOM", "params": {"d": 3, "n": 5}},
                "solver": {"method": "GEMMF", "lambda": 50.0},
            },
        )
        cfg = load_config(path)
        assert cfg.solver.lam == 50.0
        assert config_to_dict(cfg)["solver"]["lambda"] == 50.0
        assert "lam" not in config_to_dict(cfg)["solver"]

    def test_manifest_wrapper_is_accepted(self, tmp_path):
        inner = {"dataset": {"source": "SYNTH_RANDOM", "params": {"d": 3, "n": 5}}}
        path = write_json(tmp_path, {"config": inner, "seeds": {"fit": [0]}})
        assert load_config(path).dataset.source == "SYNTH_RANDOM"

    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "dataset": }\n', encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            load_config(path)

    def test_missing_file_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError):
            load_config(tmp_path / "none.json")

    @pytest.mark.parametrize(
        "obj",
        [
            {"dataset": RANDOM, "mystery": 1},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {"d": 3, "n": 5}, "shuffle": True}},
            {"dataset": RANDOM, "solver": {"rank": 2}},
            {"solver": {"method": "EMMF"}},
            {"dataset": RANDOM, "sweep": {"name": "gamma", "values": [1]}},
            {"dataset": RANDOM, "sweep": {"name": "lambda", "values": []}},
            [1, 2, 3],
            # values of the wrong type, checked against the dataclass fields
            {"dataset": RANDOM, "solver": {"lam": 1.0, "lambda": 2.0}},
            {"dataset": RANDOM, "solver": {"c": "3"}},
            {"dataset": RANDOM, "solver": {"tol": "x"}},
            {"dataset": RANDOM, "graph_k": "5"},
            {"dataset": RANDOM, "solver": {"c": 2.5}},
            {"dataset": RANDOM, "repetitions": 2.5},
            {"dataset": RANDOM, "solver": {"max_iter": 10.5}},
            {"dataset": RANDOM, "repetitions": True},
            {"dataset": RANDOM, "solver": {"seed": False}},
            {"dataset": RANDOM, "solver": {"epsilon": "1e-3"}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {"d": 3, "n": 5}, "normalize": 1}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": None}},
            # sweep values that do not fit their sweep
            {"dataset": RANDOM, "sweep": {"name": "outlier_count", "values": ["a"]}},
            {"dataset": RANDOM, "sweep": {"name": "outlier_count", "values": [2.5]}},
            {"dataset": RANDOM, "sweep": {"name": "outlier_count", "values": [0, -1]}},
            {"dataset": RANDOM, "sweep": {"name": "block_size", "values": [True]}},
            {"dataset": RANDOM, "sweep": {"name": "lambda", "values": ["x"]}},
            {"dataset": RANDOM, "sweep": {"name": "lambda", "values": [1.0, -0.5]}},
            {"dataset": RANDOM, "sweep": {"name": "sigma", "values": [None]}},
            {"dataset": RANDOM, "sweep": {"name": "lambda"}},
            # dataset params checked against the source's generator
            {
                "dataset": {
                    "source": "SYNTH_BLOBS",
                    "params": {"c": "2", "per_cluster": 4, "d": 3, "separation": 10.0},
                }
            },
            {"dataset": {"source": "SYNTH_RANDOM", "params": {"d": 3, "n": 5, "seed": 1.5}}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {"d": 3, "n": 5, "samples_per_class": "x"}}},
            {"dataset": {"params": {"d": 3, "n": 5}}},
            {"dataset": {"source": "CSV_FILE", "params": {"path": 0}}},
            # NaN, which Python's json module reads, fails every bound
            {"dataset": RANDOM, "solver": {"tol": float("nan")}},
            {"dataset": RANDOM, "solver": {"lambda": float("nan")}},
            {"dataset": RANDOM, "solver": {"epsilon": float("nan")}},
            {"dataset": RANDOM, "sweep": {"name": "lambda", "values": [float("nan")]}},
            # and so do the infinities, which it reads too
            {"dataset": RANDOM, "sweep": {"name": "sigma", "values": [1.0, float("nan")]}},
            {"dataset": RANDOM, "sweep": {"name": "sigma", "values": [float("inf")]}},
            {"dataset": RANDOM, "sweep": {"name": "sigma", "values": [float("-inf")]}},
            {"dataset": RANDOM, "sweep": {"name": "lambda", "values": [1.0, float("inf")]}},
            {"dataset": RANDOM, "solver": {"method": "GEMMF", "lambda": float("inf")}},
            {"dataset": RANDOM, "solver": {"method": "EMMF", "epsilon": float("inf")}},
            # block noise picks a count of samples from every class
            {"dataset": {"source": "SYNTH_RANDOM", "params": {"d": 3, "n": 5, "samples_per_class": -2}}},
            # every float-typed value is a finite real number
            {
                "dataset": {
                    "source": "SYNTH_BLOBS",
                    "params": {"c": 2, "per_cluster": 4, "d": 3, "separation": float("inf")},
                }
            },
            {"dataset": RANDOM, "solver": {"tol": float("inf")}},
            # numpy's generators take seeds >= 0
            {"dataset": RANDOM, "solver": {"seed": -1}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {"d": 3, "n": 5, "seed": -4}}},
        ],
    )
    def test_bad_configs_are_rejected(self, obj):
        with pytest.raises(InputError):
            config_from_dict(obj)

    def test_unknown_source_and_bad_counts_are_rejected(self):
        with pytest.raises(InputError):
            DatasetSpec(source="MNIST")
        with pytest.raises(InputError):
            ExperimentConfig(
                dataset=DatasetSpec(source="SYNTH_RANDOM", params={"d": 3, "n": 5}),
                solver=SolverConfig(),
                repetitions=0,
            )


class TestRealizeDataset:
    def test_each_source(self, tmp_path):
        csv_path = tmp_path / "pts.csv"
        csv_path.write_text("1,2\n3,4\n", encoding="utf-8")
        assert realize_dataset(
            DatasetSpec(source="CSV_FILE", params={"path": str(csv_path)})
        ).values.shape == (2, 2)
        assert realize_dataset(DatasetSpec(source="SYNTH_OUTLIERS")).n == 13
        X = realize_dataset(
            DatasetSpec(
                source="SYNTH_BLOBS",
                params={"c": 2, "per_cluster": 3, "d": 4, "separation": 9.0},
            )
        )
        assert X.values.shape == (4, 6)
        assert realize_dataset(
            DatasetSpec(source="SYNTH_RANDOM", params={"d": 3, "n": 7})
        ).values.shape == (3, 7)

    def test_normalize_flag(self):
        X = realize_dataset(DatasetSpec(source="SYNTH_RANDOM", params={"d": 3, "n": 7}, normalize=True))
        assert np.allclose(np.linalg.norm(X.values, axis=0), 1.0)

    def test_missing_and_unknown_params(self):
        with pytest.raises(InputError, match="missing required key"):
            realize_dataset(DatasetSpec(source="SYNTH_BLOBS", params={"c": 2}))
        with pytest.raises(InputError, match="unknown keys"):
            realize_dataset(DatasetSpec(source="SYNTH_RANDOM", params={"d": 3, "n": 7, "mu": 1}))
        # values are checked against the generator's annotations
        with pytest.raises(InputError, match="'c' must be an integer"):
            realize_dataset(
                DatasetSpec(
                    source="SYNTH_BLOBS",
                    params={"c": "2", "per_cluster": 3, "d": 4, "separation": 9.0},
                )
            )
        with pytest.raises(InputError, match="'has_labels' must be true or false"):
            realize_dataset(DatasetSpec(source="CSV_FILE", params={"path": "x.csv", "has_labels": 1}))


class TestRunExperiment:
    def test_writes_the_full_output_set(self, tmp_path):
        cfg = small_config(tmp_path)
        paths = run_experiment(cfg)
        names = sorted(os.path.basename(p) for p in paths)
        assert names == [
            "errors_0.csv",
            "errors_1.csv",
            "manifest.json",
            "metrics.csv",
            "summary.csv",
            "trace_0.csv",
            "trace_1.csv",
        ]
        for p in paths:
            assert os.path.exists(p)

    def test_csv_format_and_content(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        raw = (tmp_path / "metrics.csv").read_bytes()
        assert b"\r\n" in raw  # standard CSV line endings
        lines = raw.decode().strip().splitlines()
        assert lines[0] == "sweep,value,repetition,seed,acc,nmi,iterations,objective"
        assert len(lines) == 1 + cfg.repetitions
        first = lines[1].split(",")
        assert first[0] == "none"
        assert int(first[3]) == cfg.solver.seed  # repetition 0 runs at the base seed
        assert 0.0 <= float(first[4]) <= 1.0
        # every number is an integer or a float at full precision, as repr writes it
        for name in ("metrics.csv", "summary.csv", "trace_0.csv", "errors_0.csv"):
            rows = (tmp_path / name).read_text().splitlines()[1:]
            cells = [cell for row in rows for cell in row.split(",") if cell != "none"]
            assert cells
            for cell in cells:
                assert cell.lstrip("-").isdigit() or cell == repr(float(cell)), (name, cell)

    def test_trace_files_match_the_recorded_objective(self, tmp_path):
        cfg = small_config(tmp_path, repetitions=1)
        run_experiment(cfg)
        lines = (tmp_path / "trace_0.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,objective"
        values = [float(row.split(",")[1]) for row in lines[1:]]
        metric_row = (tmp_path / "metrics.csv").read_text().strip().splitlines()[1].split(",")
        assert float(metric_row[7]) == values[-1]
        assert int(metric_row[6]) == len(values) - 1

    def test_manifest_lists_derived_seeds(self, tmp_path):
        cfg = small_config(tmp_path, repetitions=3)
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"]["fit"] == [3, 4, 5]
        assert manifest["seeds"]["injection"] == [3 + INJECTION_SEED_OFFSET,
                                                 4 + INJECTION_SEED_OFFSET,
                                                 5 + INJECTION_SEED_OFFSET]
        assert manifest["config"]["solver"]["method"] == "EMMF"

    def test_a_sigma_sweep_manifest_lists_its_one_fit_and_no_injection(self, tmp_path):
        # the influence run fits once, at the solver seed, whatever the
        # repetition count, and injects nothing
        cfg = small_config(tmp_path, repetitions=3, sweep=Sweep(name="sigma", values=[1.0]))
        run_experiment(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"] == {"fit": [3], "injection": []}

    def test_sweep_produces_a_row_per_value_and_repetition(self, tmp_path):
        cfg = small_config(
            tmp_path,
            sweep=Sweep(name="outlier_count", values=[0, 2]),
            repetitions=2,
        )
        run_experiment(cfg)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4
        summary = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 1 + 2
        assert summary[1].split(",")[1] == "0"
        assert summary[2].split(",")[1] == "2"
        # four runs, each with its own trace and error files
        for run in range(4):
            assert (tmp_path / f"trace_{run}.csv").exists()
            assert (tmp_path / f"errors_{run}.csv").exists()

    def test_outlier_sweep_scores_only_original_samples(self, tmp_path):
        cfg = small_config(
            tmp_path,
            sweep=Sweep(name="outlier_count", values=[3]),
            repetitions=1,
        )
        run_experiment(cfg)
        # 10 original samples plus 3 injected ones appear in the error file
        lines = (tmp_path / "errors_0.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 13
        acc = float((tmp_path / "metrics.csv").read_text().strip().splitlines()[1].split(",")[4])
        assert 0.0 <= acc <= 1.0

    def test_lambda_sweep_varies_the_solver(self, tmp_path):
        cfg = small_config(
            tmp_path,
            solver=SolverConfig(method="GEMMF", c=2, seed=0, max_iter=10),
            sweep=Sweep(name="lambda", values=[0.0, 1000.0]),
            repetitions=1,
        )
        run_experiment(cfg)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        obj_low = float(lines[1].split(",")[7])
        obj_high = float(lines[2].split(",")[7])
        assert obj_low != obj_high  # the penalty term responds to lambda

    def test_sigma_sweep_writes_only_influence_curves(self, tmp_path):
        cfg = small_config(
            tmp_path,
            dataset=DatasetSpec(source="SYNTH_RANDOM", params={"d": 10, "n": 12}),
            solver=SolverConfig(method="NMF_FRO", c=2, seed=0, max_iter=40),
            sweep=Sweep(name="sigma", values=[1.0, 100.0]),
            repetitions=1,
        )
        paths = run_experiment(cfg)
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["manifest.json", "phi_curves.csv"]
        lines = (tmp_path / "phi_curves.csv").read_text().strip().splitlines()
        assert lines[0] == "sigma,phi_nmf,phi_l21,phi_emmf"
        assert len(lines) == 3
        for row in lines[1:]:
            shares = [float(x) for x in row.split(",")[1:]]
            assert all(0.0 <= s <= 1.0 for s in shares)

    def test_block_size_sweep_corrupts_samples(self, tmp_path):
        cfg = small_config(
            tmp_path,
            dataset=DatasetSpec(
                source="SYNTH_BLOBS",
                params={"c": 2, "per_cluster": 5, "d": 9, "separation": 10.0,
                        "samples_per_class": 2},
            ),
            sweep=Sweep(name="block_size", values=[0, 2]),
            repetitions=1,
        )
        run_experiment(cfg)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2

    def test_oversized_blocks_fail_before_any_output(self, tmp_path):
        cfg = small_config(
            tmp_path,
            sweep=Sweep(name="block_size", values=[1, 50]),  # 50^2 features do not exist
            repetitions=1,
        )
        with pytest.raises(InputError):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", (0, -2))
    def test_thread_counts_below_one_are_rejected_before_any_output(self, tmp_path, threads):
        out = tmp_path / "out"
        with pytest.raises(InputError, match="threads must be >= 1"):
            run_experiment(small_config(out), threads=threads)
        assert not out.exists()

    def test_late_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        def boom(accs, nmis):
            raise RuntimeError("summary failure")

        monkeypatch.setattr(experiment, "summarize", boom)
        with pytest.raises(RuntimeError):
            run_experiment(small_config(tmp_path))
        # per-run files were already on disk; all must be gone
        assert list(tmp_path.iterdir()) == []

    def test_each_stack_writes_its_runs_before_the_next_is_fitted(self, tmp_path, monkeypatch):
        real = experiment.fit_stack
        on_disk = []

        def recording(Xs, *args):
            stage, = tmp_path.iterdir()  # the run's staging directory
            assert stage.name.startswith(".entnmf-")
            on_disk.append(sorted(p.name for p in stage.iterdir()))
            return real(Xs, *args)

        monkeypatch.setattr(experiment, "STACK_BYTES", 1)  # one repetition per stack
        monkeypatch.setattr(experiment, "fit_stack", recording)
        run_experiment(small_config(tmp_path))
        assert on_disk == [[], ["errors_0.csv", "trace_0.csv"]]

    def test_a_failure_in_a_later_stack_removes_the_earlier_runs(self, tmp_path, monkeypatch):
        real = experiment.fit_stack
        stacks = []

        def fails_in_the_third_stack(Xs, *args):
            stacks.append(len(Xs))
            results = real(Xs, *args)
            if len(stacks) == 3:
                results[0] = NumericalError("objective became non-finite", iteration=4)
            return results

        monkeypatch.setattr(experiment, "STACK_BYTES", 1)
        monkeypatch.setattr(experiment, "fit_stack", fails_in_the_third_stack)
        # the values run in this process, where `stacks` counts them
        monkeypatch.setattr(experiment, "_worker_count", lambda *args: 0)
        cfg = small_config(tmp_path, sweep=Sweep(name="outlier_count", values=[0, 2]))
        with pytest.raises(NumericalError, match="non-finite"):
            run_experiment(cfg)
        assert stacks == [1, 1, 1]
        assert list(tmp_path.iterdir()) == []

    def test_parallel_runs_match_sequential_runs(self, tmp_path, monkeypatch):
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        run_experiment(small_config(seq_dir, repetitions=3), threads=1)

        def no_threads(thread):
            raise AssertionError("run_experiment started a thread")

        # stacks run in the calling thread whatever `threads` says
        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", no_threads)
            run_experiment(small_config(par_dir, repetitions=3), threads=3)
        for name in ("metrics.csv", "summary.csv", "trace_1.csv", "errors_2.csv"):
            assert (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()


class TestWorkerPool:
    @pytest.mark.parametrize("cpus, workers", [(1, 0), (2, 2), (8, 3)])
    def test_a_sweep_has_a_worker_per_value_up_to_the_cpus(self, tmp_path, monkeypatch, cpus,
                                                           workers):
        if not experiment._FORKS:
            pytest.skip("the harness runs every sweep value in one process here")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = small_config(tmp_path, sweep=Sweep(name="outlier_count", values=[0, 2, 4]))
        X = realize_dataset(cfg.dataset)
        assert experiment._worker_count(cfg, X, None) == workers

    @pytest.mark.parametrize("overrides", [
        {},  # a single point
        # a product of the fit of 300 x 300 x 3 > ONE_THREAD_PRODUCT
        {"dataset": DatasetSpec(source="SYNTH_RANDOM", params={"d": 300, "n": 300}),
         "solver": SolverConfig(method="NMF_FRO", c=3, max_iter=2),
         "sweep": Sweep(name="lambda", values=[0.0, 1.0])},
        # a kNN block of 64 x 65 x 70 > ONE_THREAD_PRODUCT, the fit's 70 x 65 x 2 below it
        {"dataset": DatasetSpec(source="SYNTH_RANDOM", params={"d": 70, "n": 64}),
         "solver": SolverConfig(method="GEMMF", c=2, max_iter=2),
         "sweep": Sweep(name="outlier_count", values=[0, 1]), "graph_k": 3},
    ], ids=["single-point", "large-fit", "large-knn"])
    def test_a_single_point_or_a_sweep_above_the_gate_creates_no_pool(self, tmp_path,
                                                                      monkeypatch, overrides):
        def no_pool(*args, **kwargs):
            raise AssertionError("run_experiment created a process pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        run_experiment(small_config(tmp_path, repetitions=1, **overrides))

    @pytest.mark.parametrize("alone", [False, True], ids=["pool", "one-process"])
    @pytest.mark.parametrize("error", [NumericalError, InputError])
    def test_the_first_failing_value_raises_and_no_file_is_left(self, tmp_path, monkeypatch,
                                                                 two_cpus, alone, error):
        # Value 1 fails in its second stack after 0.2 s, and value 3 at once;
        # with two workers, value 2 returns and value 3 fails before value 1
        # does. Value 1's error is raised, as in one process, every file is
        # removed and no worker is left running.
        real = experiment.fit_stack
        stacks = collections.Counter()  # each value's stacks, in the process it runs in

        def fails(Xs, cfg, *args):
            stacks[cfg.lam] += 1
            if cfg.lam == 3.0 or (cfg.lam == 1.0 and stacks[1.0] == 2):
                if cfg.lam == 1.0:
                    time.sleep(0.2)
                if error is InputError:
                    raise InputError(f"value {cfg.lam} is bad")
                return [NumericalError(f"value {cfg.lam} diverged", iteration=7,
                                       objective=[cfg.lam, 2.0])] * len(Xs)
            return real(Xs, cfg, *args)

        monkeypatch.setattr(experiment, "STACK_BYTES", 1)  # one repetition per stack
        monkeypatch.setattr(experiment, "fit_stack", fails)
        if alone:
            monkeypatch.setattr(experiment, "_worker_count", lambda *args: 0)
        cfg = small_config(tmp_path, sweep=Sweep(name="lambda", values=[0.0, 1.0, 2.0, 3.0]))
        with pytest.raises(error, match="value 1.0") as info:
            run_experiment(cfg)
        if error is NumericalError:
            assert info.value.iteration == 7
            assert info.value.objective == [1.0, 2.0]
        assert two_cpus == ([] if alone else [2])
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_a_failure_cancels_the_later_values_that_have_not_started(self, tmp_path,
                                                                      monkeypatch, two_cpus):
        # One worker: value 0 fails at once while value 1 holds the worker for
        # 0.3 s. The pool has handed at most values 1 to 3 to the worker by
        # then, and values 4 and 5 never start.
        real = experiment.fit_stack
        started = tmp_path / "started.txt"

        def fails_first(Xs, cfg, *args):
            with open(started, "a", encoding="utf-8") as fh:
                fh.write(f"{cfg.lam}\n")
            if cfg.lam == 0.0:
                raise InputError("value 0 is bad")
            time.sleep(0.3)
            return real(Xs, cfg, *args)

        monkeypatch.setattr(experiment, "fit_stack", fails_first)
        monkeypatch.setattr(experiment, "_worker_count", lambda *args: 1)
        out = tmp_path / "out"
        cfg = small_config(out, repetitions=1,
                           sweep=Sweep(name="lambda", values=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
        with pytest.raises(InputError, match="value 0"):
            run_experiment(cfg)
        ran = started.read_text().split()
        assert ran[0] == "0.0"
        assert "4.0" not in ran and "5.0" not in ran
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []


def files(directory):
    """The bytes of each file in `directory`, by name."""
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


class TestRerun:
    """An output directory holds the last run that succeeded, whole."""

    @pytest.mark.parametrize("first, second", [
        (Sweep(name="outlier_count", values=[0, 2, 4]), Sweep(name="outlier_count", values=[0, 2])),
        (Sweep(name="outlier_count", values=[0, 2]), Sweep(name="sigma", values=[1.0, 10.0])),
        (Sweep(name="sigma", values=[1.0]), None),
    ], ids=["fewer-values", "sweep-then-sigma", "sigma-then-point"])
    def test_a_rerun_leaves_exactly_the_paths_it_returns(self, tmp_path, first, second):
        # and the files that are not entnmf's
        (tmp_path / "notes.txt").write_text("kept")
        (tmp_path / "trace_0.csv.bak").write_text("kept")
        run_experiment(small_config(tmp_path, sweep=first))
        paths = run_experiment(small_config(tmp_path, sweep=second))
        names = [os.path.basename(p) for p in paths]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names + ["notes.txt",
                                                                             "trace_0.csv.bak"])

    @pytest.mark.parametrize("alone", [False, True], ids=["pool", "one-process"])
    def test_a_rerun_that_fails_leaves_the_previous_run_as_it_was(self, tmp_path, monkeypatch,
                                                                    request, alone):
        sweep = Sweep(name="outlier_count", values=[0, 2])
        run_experiment(small_config(tmp_path, repetitions=3, sweep=sweep))
        before = files(tmp_path)
        real = experiment.fit_stack
        stacks = []  # the stacks fitted in the process this runs in

        def fails_in_the_third_stack(Xs, *args):
            stacks.append(len(Xs))
            results = real(Xs, *args)
            if len(stacks) == 3:
                results[0] = NumericalError("objective became non-finite", iteration=4)
            return results

        monkeypatch.setattr(experiment, "STACK_BYTES", 1)  # one repetition per stack
        monkeypatch.setattr(experiment, "fit_stack", fails_in_the_third_stack)
        if alone:
            monkeypatch.setattr(experiment, "_worker_count", lambda *args: 0)
        pools = [] if alone else request.getfixturevalue("two_cpus")
        # another seed, so that no file of this run equals one of the last
        solver = SolverConfig(method="EMMF", c=2, seed=4, max_iter=25)
        with pytest.raises(NumericalError, match="non-finite"):
            run_experiment(small_config(tmp_path, repetitions=3, sweep=sweep, solver=solver))
        # in a pool of two, the workers fit every stack
        assert (stacks, pools) == (([1, 1, 1], []) if alone else ([], [2]))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
        assert files(tmp_path) == before


# The README sweep at 20 outlier counts: about 1.5 s of fitting on two CPUs,
# whose first value's files are staged after about 0.1 s.
README_SWEEP = {
    "dataset": {"source": "SYNTH_BLOBS", "normalize": True,
                "params": {"c": 3, "per_cluster": 40, "d": 10, "separation": 8.0, "seed": 1}},
    "solver": {"method": "EMMF", "c": 3, "max_iter": 300, "tol": 1e-6, "lambda": 5.0,
               "seed": 3, "init": "KMEANS"},
    "repetitions": 20,
    "sweep": {"name": "outlier_count", "values": list(range(0, 40, 2))},
}


def test_a_sweep_killed_mid_run_leaves_the_previous_run_as_it_was(tmp_path):
    out = tmp_path / "out"
    config = write_json(tmp_path, dict(README_SWEEP, output_dir=str(out)))
    run_experiment(load_config(config))
    before = files(out)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    # in a process group of its own, which the kill takes with the workers
    proc = subprocess.Popen(
        [sys.executable, "-m", "entnmf.cli", "sweep", "--config", str(config), "--seed", "4"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while proc.poll() is None and time.monotonic() < deadline:
            if any(any(stage.iterdir()) for stage in out.glob(".entnmf-*")):
                break  # a staged file: the run is in mid-sweep
            time.sleep(0.005)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the run had ended
            pass
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    stages = [p.name for p in out.iterdir() if p.name.startswith(".entnmf-")]
    assert len(stages) == 1 and (out / stages[0]).is_dir()
    assert sorted(p.name for p in out.iterdir()) == sorted([*before, *stages])
    assert files(out) == before


class TestRunBoundCurve:
    def test_writes_one_row_per_sample_count(self, tmp_path):
        path = run_bound_curve(10, 0.05, output_dir=str(tmp_path))
        lines = Path(path).read_text().strip().splitlines()
        assert lines[0] == "n,upper_bound"
        assert len(lines) == 1 + 8  # n from 3 to 10
        for row in lines[1:]:
            n, bound = row.split(",")
            assert 0.0 < float(bound) <= 1.0

    def test_validates_n_max(self, tmp_path):
        with pytest.raises(InputError):
            run_bound_curve(2, 0.05, output_dir=str(tmp_path))


# Fits GEMMF on a kNN graph and runs a single point, then runs a process pool
# on `abs` and an EMMF, a GEMMF and a block_size sweep; prints the modules
# the single point and the sweeps imported, and the scipy modules loaded.
NO_SCIPY = """
import sys
from dataclasses import replace
from entnmf import (DatasetSpec, ExperimentConfig, SolverConfig, Sweep, fit, knn_graph,
                    run_experiment, synth_blobs)
X = synth_blobs(3, 20, 6, 8.0, seed=1)
fit(X, SolverConfig(method="GEMMF", c=3, lam=1.0, max_iter=20), knn_graph(X, 4))
blobs = DatasetSpec(source="SYNTH_BLOBS", params={"c": 2, "per_cluster": 6, "d": 9,
                    "separation": 10.0, "samples_per_class": 2})
emmf = ExperimentConfig(dataset=blobs, solver=SolverConfig(method="EMMF", c=2, max_iter=20),
                        repetitions=2, sweep=Sweep(name="outlier_count", values=[0, 3]),
                        output_dir=sys.argv[1] + "/emmf")
before = set(sys.modules)
run_experiment(replace(emmf, sweep=None, output_dir=sys.argv[1] + "/single"))
print(sorted(set(sys.modules) - before))
# the modules of the sweep values' worker pool, and only those, may load
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
    list(pool.map(abs, [1, 2]))
configs = [emmf,
           replace(emmf, solver=replace(emmf.solver, method="GEMMF"), graph_k=3,
                   output_dir=sys.argv[1] + "/gemmf"),
           replace(emmf, sweep=Sweep(name="block_size", values=[0, 2]),
                   output_dir=sys.argv[1] + "/block")]
before = set(sys.modules)
for cfg in configs:
    run_experiment(cfg)
print(sorted(set(sys.modules) - before))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_the_package_runs_without_scipy_and_a_run_imports_nothing(tmp_path):
    # the graph is numpy arrays, and a run loads no module lazily (np.unique
    # without return_inverse would import numpy.ma), except that the sweeps'
    # worker pool loads its own
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "[]", "[]"]
