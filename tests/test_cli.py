"""Command line behavior: subcommands, overrides, and exit codes."""

import json
import os

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


def test_threads_flag_produces_identical_results(tmp_path):
    cfg = base_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["fit", "--config", cfg, "--output", str(a)]) == 0
    assert main(["fit", "--config", cfg, "--output", str(b), "--threads", "4"]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


@pytest.mark.parametrize("threads", ("0", "-2"))
def test_thread_counts_below_one_exit_1_before_any_output(tmp_path, capsys, threads):
    cfg = base_config(tmp_path)
    assert main(["fit", "--config", cfg, "--threads", threads]) == 1
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_config_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["fit", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_a_mistyped_config_value_exits_1_before_any_output(tmp_path, capsys):
    cfg = base_config(tmp_path, repetitions=2.5)
    assert main(["fit", "--config", cfg]) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_missing_required_flags_exit_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["fit"])
    assert exc.value.code == 2
