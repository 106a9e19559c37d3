"""Config parsing, dataset realization, and the experiment runner's outputs."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from entnmf import (
    DatasetSpec,
    ExperimentConfig,
    InputError,
    SolverConfig,
    Sweep,
    load_config,
    realize_dataset,
    run_bound_curve,
    run_experiment,
)
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
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "mystery": 1},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}, "shuffle": True}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "solver": {"rank": 2}},
            {"solver": {"method": "EMMF"}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "sweep": {"name": "gamma", "values": [1]}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "sweep": {"name": "lambda", "values": []}},
            [1, 2, 3],
            # values of the wrong type, checked against the dataclass fields
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "solver": {"lam": 1.0, "lambda": 2.0}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "solver": {"c": "3"}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "solver": {"tol": "x"}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "graph_k": "5"},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "solver": {"c": 2.5}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "repetitions": 2.5},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "solver": {"max_iter": 10.5}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "repetitions": True},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "solver": {"seed": False}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}}, "solver": {"epsilon": "1e-3"}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": {}, "normalize": 1}},
            {"dataset": {"source": "SYNTH_RANDOM", "params": None}},
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
                dataset=DatasetSpec(source="SYNTH_RANDOM"),
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

    def test_late_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        import entnmf.experiment as experiment

        def boom(accs, nmis):
            raise RuntimeError("summary failure")

        monkeypatch.setattr(experiment, "summarize", boom)
        with pytest.raises(RuntimeError):
            run_experiment(small_config(tmp_path))
        # metrics and per-run files were already on disk; all must be gone
        assert list(tmp_path.iterdir()) == []

    def test_parallel_runs_match_sequential_runs(self, tmp_path):
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        run_experiment(small_config(seq_dir, repetitions=3), threads=1)
        run_experiment(small_config(par_dir, repetitions=3), threads=3)
        for name in ("metrics.csv", "summary.csv", "trace_1.csv", "errors_2.csv"):
            assert (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()


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
