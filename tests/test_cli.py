"""Command line behavior: subcommands, overrides, and exit codes."""

import json
import os
from functools import partial

import pytest

from entnmf.cli import main


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def base_config(tmp_path, **extra):
    obj = {
        "dataset": {
            "source": "SYNTH_BLOBS",
            "params": {"c": 2, "per_cluster": 4, "d": 3, "separation": 10.0},
        },
        "solver": {"method": "EMMF", "c": 2, "max_iter": 15, "seed": 1},
        "repetitions": 2,
        "output_dir": str(tmp_path / "out"),
    }
    obj.update(extra)
    return write_config(tmp_path, obj)


def test_fit_runs_and_prints_the_written_paths(tmp_path, capsys):
    cfg = base_config(tmp_path)
    assert main(["fit", "--config", cfg]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert any(line.endswith("metrics.csv") for line in printed)
    for line in printed:
        assert os.path.exists(line)


def test_fit_rejects_sweep_configs(tmp_path, capsys):
    cfg = base_config(tmp_path, sweep={"name": "outlier_count", "values": [0, 1]})
    assert main(["fit", "--config", cfg]) == 1
    assert "sweep" in capsys.readouterr().err


def test_sweep_requires_a_sweep_section(tmp_path, capsys):
    assert main(["sweep", "--config", base_config(tmp_path)]) == 1
    assert "sweep" in capsys.readouterr().err


def test_sweep_runs_the_configured_grid(tmp_path, capsys):
    cfg = base_config(tmp_path, sweep={"name": "outlier_count", "values": [0, 2]})
    assert main(["sweep", "--config", cfg]) == 0
    out_dir = tmp_path / "out"
    lines = (out_dir / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4  # 2 values x 2 repetitions


def test_influence_uses_a_default_sigma_grid(tmp_path):
    cfg = base_config(
        tmp_path,
        dataset={"source": "SYNTH_RANDOM", "params": {"d": 8, "n": 10}},
        solver={"method": "NMF_FRO", "c": 2, "max_iter": 30, "seed": 0},
    )
    assert main(["influence", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "phi_curves.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 5
    assert [row.split(",")[0] for row in lines[1:]] == ["1.0", "10.0", "100.0", "1000.0", "10000.0"]


GEMMF = {"method": "GEMMF", "c": 2, "max_iter": 15, "seed": 1}
# six samples: a graph_k of 6 leaves no room for six neighbors
SIX_SAMPLES = {
    "source": "SYNTH_BLOBS",
    "params": {"c": 2, "per_cluster": 3, "d": 3, "separation": 10.0},
}


def test_influence_runs_gemmf_on_the_graph_of_the_clean_data(tmp_path):
    cfg = base_config(tmp_path, solver=GEMMF)
    assert main(["influence", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["manifest.json", "phi_curves.csv"]
    assert len((out / "phi_curves.csv").read_text().strip().splitlines()) == 1 + 5


@pytest.mark.parametrize("command, sweep", [
    ("fit", None),
    ("influence", {"name": "sigma", "values": [1.0, 10.0]}),
    ("sweep", {"name": "outlier_count", "values": [10, 0]}),
    ("sweep", {"name": "block_size", "values": [0, 1]}),
])
def test_a_graph_k_not_below_the_sample_count_exits_1_before_any_output(tmp_path, capsys, command,
                                                                          sweep):
    cfg = base_config(tmp_path, dataset=SIX_SAMPLES, solver=GEMMF, graph_k=6, sweep=sweep)
    assert main([command, "--config", cfg]) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_graph_k_below_every_injected_sample_count_runs(tmp_path):
    # six clean samples, but every fit of the sweep sees at least seven
    sweep = {"name": "outlier_count", "values": [10, 1]}
    cfg = base_config(tmp_path, dataset=SIX_SAMPLES, solver=GEMMF, graph_k=6, sweep=sweep)
    assert main(["sweep", "--config", cfg]) == 0
    assert len((tmp_path / "out" / "metrics.csv").read_text().strip().splitlines()) == 1 + 4


def test_influence_rejects_other_sweeps(tmp_path, capsys):
    cfg = base_config(tmp_path, sweep={"name": "lambda", "values": [1.0]})
    assert main(["influence", "--config", cfg]) == 1
    assert "sigma" in capsys.readouterr().err


def test_influence_on_a_degenerate_dataset_exits_2(tmp_path, capsys):
    # a single sample leaves the influence denominator undefined
    csv_path = tmp_path / "one.csv"
    csv_path.write_text("1,2\n", encoding="utf-8")
    cfg = write_config(
        tmp_path,
        {
            "dataset": {"source": "CSV_FILE", "params": {"path": str(csv_path)}},
            "solver": {"method": "EMMF", "c": 1, "max_iter": 5},
            "repetitions": 1,
            "output_dir": str(tmp_path / "out"),
        },
    )
    assert main(["influence", "--config", cfg]) == 2
    assert "numerical" in capsys.readouterr().err


def test_output_and_seed_overrides(tmp_path):
    cfg = base_config(tmp_path)
    override = tmp_path / "elsewhere"
    assert main(["fit", "--config", cfg, "--output", str(override), "--seed", "42"]) == 0
    manifest = json.loads((override / "manifest.json").read_text())
    assert manifest["config"]["solver"]["seed"] == 42
    assert manifest["seeds"]["fit"] == [42, 43]


@pytest.mark.parametrize("threads", ("0", "-2"))
def test_thread_counts_below_one_exit_1_before_any_output(tmp_path, capsys, monkeypatch, threads):
    # the CLI has no --threads flag; route a bad count into run_experiment,
    # whose InputError must still surface as exit 1 with nothing written
    import entnmf.cli as cli

    monkeypatch.setattr(cli, "run_experiment", partial(cli.run_experiment, threads=int(threads)))
    cfg = base_config(tmp_path)
    assert main(["fit", "--config", cfg]) == 1
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_config_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["fit", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_a_mistyped_config_value_exits_1_before_any_output(tmp_path, capsys):
    blobs = {"c": "2", "per_cluster": 4, "d": 3, "separation": 10.0}
    for command, extra in (
        ("fit", {"repetitions": 2.5}),
        ("fit", {"dataset": {"source": "SYNTH_BLOBS", "params": blobs}}),
        ("sweep", {"sweep": {"name": "outlier_count", "values": ["a"]}}),
        ("sweep", {"sweep": {"name": "outlier_count", "values": [2.5]}}),
    ):
        assert main([command, "--config", base_config(tmp_path, **extra)]) == 1
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, extra", [
    ("fit", {"solver": {"method": "GEMMF", "c": 2, "lambda": float("inf")}}),
    ("fit", {"solver": {"method": "EMMF", "c": 2, "epsilon": float("inf")}}),
    ("influence", {"sweep": {"name": "sigma", "values": [1.0, float("nan")]}}),
    ("sweep", {
        "dataset": {
            "source": "SYNTH_BLOBS",
            "params": {"c": 2, "per_cluster": 4, "d": 3, "separation": 10.0, "samples_per_class": -2},
        },
        "sweep": {"name": "block_size", "values": [0, 1]},
    }),
    ("fit", {"solver": {"method": "EMMF", "c": 2, "tol": float("inf")}}),
    ("fit", {
        "dataset": {
            "source": "SYNTH_BLOBS",
            "params": {"c": 2, "per_cluster": 4, "d": 3, "separation": float("inf")},
        },
    }),
    ("fit", {"solver": {"method": "EMMF", "c": 2, "seed": -1}}),
    ("fit", {
        "dataset": {
            "source": "SYNTH_BLOBS",
            "params": {"c": 2, "per_cluster": 4, "d": 3, "separation": 10.0, "seed": -4},
        },
    }),
    pytest.param("fit --seed -2", {}, id="fit-seed-override"),
])
def test_non_finite_or_negative_config_values_exit_1_before_any_output(tmp_path, capsys, command, extra):
    assert main([*command.split(), "--config", base_config(tmp_path, **extra)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dataset", [
    {"source": "SYNTH_BLOBS", "params": {"c": 0, "per_cluster": 4, "d": 3, "separation": 10.0}},
    {"source": "CSV_FILE", "params": {"path": "no-such-file.csv"}},
])
def test_a_dataset_its_generator_rejects_exits_1_before_any_output(tmp_path, capsys, dataset):
    assert main(["fit", "--config", base_config(tmp_path, dataset=dataset)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BLOBS_D3 = {"source": "SYNTH_BLOBS", "params": {"c": 2, "per_cluster": 4, "d": 3, "separation": 10.0}}


@pytest.mark.parametrize("command, extra, message", [
    # SYNTH_OUTLIERS has d = 2
    ("fit", {"dataset": {"source": "SYNTH_OUTLIERS"}, "solver": {"c": 3}}, "cluster count 3"),
    ("sweep", {"dataset": {"source": "SYNTH_OUTLIERS"}, "solver": {"c": 3},
               "sweep": {"name": "block_size", "values": [0, 1]}}, "cluster count 3"),
    ("influence", {"dataset": {"source": "SYNTH_OUTLIERS"}, "solver": {"c": 3}}, "cluster count 3"),
    # the value-0 repetitions would fit before the block of side 2 fails
    ("sweep", {"dataset": BLOBS_D3, "sweep": {"name": "block_size", "values": [0, 2]}},
     "block of side 2 needs 4 features"),
    ("sweep", {"dataset": {"source": "SYNTH_RANDOM", "params": {"d": 4, "n": 8}},
               "sweep": {"name": "block_size", "values": [1]}}, "requires labeled data"),
    ("sweep", {"dataset": {**BLOBS_D3, "params": {**BLOBS_D3["params"], "samples_per_class": 5}},
               "sweep": {"name": "block_size", "values": [0, 1]}}, "class 0 has 4 samples, need 5"),
], ids=["fit-c", "block-c", "influence-c", "block-features", "block-unlabeled", "block-class-size"])
def test_a_problem_the_data_cannot_pose_exits_1_before_any_output(tmp_path, capsys, command, extra,
                                                                  message):
    assert main([command, "--config", base_config(tmp_path, **extra)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_perturbation_below_zero_exits_1_before_the_fit(tmp_path, capsys, monkeypatch):
    import entnmf.experiment as experiment

    def no_fit(*args):
        raise AssertionError("fitted before every perturbed matrix was checked")

    monkeypatch.setattr(experiment, "fit", no_fit)
    cfg = base_config(tmp_path, sweep={"name": "sigma", "values": [1.0, -1000.0]})
    assert main(["influence", "--config", cfg]) == 1
    assert "error: data matrix must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "sweep", "influence", "bound-curve"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
def test_an_output_path_that_is_a_file_exits_1_naming_it(tmp_path, capsys, command, under):
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n", encoding="utf-8")
    output = str(blocker / "out" if under else blocker)
    if command == "bound-curve":
        argv = ["bound-curve", "--n-max", "5", "--output", output]
    else:
        sweep = {"sweep": {"name": "outlier_count", "values": [0, 1]}} if command == "sweep" else {}
        argv = [command, "--config", base_config(tmp_path, **sweep), "--output", output]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: output directory {output} is a file or lies "
                                         "under one"]
    assert blocker.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("command, call", [
    ("fit", "os.makedirs"), ("fit", "tempfile.mkdtemp"), ("sweep", "os.makedirs"),
    ("sweep", "tempfile.mkdtemp"), ("bound-curve", "os.makedirs"),  # it stages nothing
])
def test_an_output_directory_that_cannot_be_written_exits_1_naming_it(tmp_path, capsys,
                                                                      monkeypatch, command, call):
    # patched, since root writes whatever the mode bits say
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(call, denied)
    output = str(tmp_path / "out")
    if command == "bound-curve":
        argv = ["bound-curve", "--n-max", "5", "--output", output]
    else:
        sweep = {"sweep": {"name": "outlier_count", "values": [0, 1]}} if command == "sweep" else {}
        argv = [command, "--config", base_config(tmp_path, **sweep), "--output", output]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: output directory {output} cannot be written: "
                                         "Permission denied"]


def test_bound_curve_writes_its_table(tmp_path, capsys):
    out = tmp_path / "curve"
    assert main(["bound-curve", "--n-max", "12", "--p-step", "0.05", "--output", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("bound.csv")
    lines = (out / "bound.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 10


def test_bound_curve_validates_arguments(tmp_path, capsys):
    assert main(["bound-curve", "--n-max", "1", "--output", str(tmp_path)]) == 1
    assert "n_max" in capsys.readouterr().err


def test_bound_curve_with_no_usable_grid_point_exits_1(tmp_path, capsys):
    out = tmp_path / "curve"
    argv = ["bound-curve", "--n-max", "5", "--p-step", "0.9999999999999", "--output", str(out)]
    assert main(argv) == 1
    assert "error: p_step" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_flags_exit_with_usage_error(tmp_path):
    # --threads is an unknown flag like any other
    cfg = base_config(tmp_path)
    for argv in (["fit"], ["fit", "--config", cfg, "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
