"""End-to-end command-line behavior: files in, files out, exit codes."""

import hashlib
import importlib
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wica_lab
from wica_lab.cli import build_parser, main
from wica_lab.core import load_csv, normalize_componentwise, save_csv
from wica_lab.datagen import KINDS, resolve_params
from wica_lab.errors import FileFormatError
from wica_lab.mixer import load_pipeline
from wica_lab.trainer import load_model

DATA = Path(__file__).parent / "data"


def _read_manifest(primary: Path) -> dict:
    return json.loads(
        primary.with_name(primary.name + ".manifest.json").read_text()
    )


def _generate(out: str = "sources.csv", n: int = 256, seed: int = 0) -> None:
    rc = main([
        "generate", "--kind", "uniform", "--d", "2", "--n", str(n),
        "--seed", str(seed), "--out", out,
    ])
    assert rc == 0


# ---------------------------------------------------------------------------
# happy paths


def test_generate_writes_data_and_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _generate(n=100)
    data = load_csv(tmp_path / "sources.csv")
    assert data.shape == (100, 2)
    manifest = _read_manifest(tmp_path / "sources.csv")
    assert manifest["command"] == "generate"
    assert manifest["inputs"] == {}
    assert manifest["outputs"] == ["sources.csv"]
    expected_hash = hashlib.sha256(
        json.dumps(manifest["config"], sort_keys=True).encode()
    ).hexdigest()
    assert manifest["config_hash"] == expected_hash


def test_mix_then_exact_unmix_recovers_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _generate(n=200, seed=5)
    assert main([
        "mix", "--data", "sources.csv", "--iterations", "8", "--hidden", "8",
        "--seed", "6", "--out", "mixed.csv", "--pipeline-out", "pipeline.json",
    ]) == 0
    assert main([
        "unmix-exact", "--data", "mixed.csv", "--pipeline", "pipeline.json",
        "--out", "recovered.csv",
    ]) == 0
    sources = normalize_componentwise(load_csv(tmp_path / "sources.csv"))
    recovered = load_csv(tmp_path / "recovered.csv")
    assert np.max(np.abs(recovered - sources)) < 1e-6

    manifest = _read_manifest(tmp_path / "mixed.csv")
    digest = hashlib.sha256((tmp_path / "sources.csv").read_bytes()).hexdigest()
    assert manifest["inputs"] == {"sources.csv": digest}


def test_train_encode_score_chain(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _generate(n=256, seed=1)
    assert main([
        "mix", "--data", "sources.csv", "--iterations", "3", "--hidden", "8",
        "--seed", "2", "--out", "mixed.csv",
    ]) == 0
    assert main([
        "train", "--data", "mixed.csv", "--steps", "40", "--batch-size", "64",
        "--hidden-sizes", "8,8", "--seed", "3", "--log-every", "10",
        "--model-out", "model.json", "--trace-out", "trace.csv",
    ]) == 0
    assert main([
        "encode", "--model", "model.json", "--data", "mixed.csv",
        "--out", "encoded.csv",
    ]) == 0
    assert main(["score", "encoded.csv", "sources.csv", "--out", "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0.0 <= report["ots"] <= 1.0
    assert 0.0 <= report["max_corr"] <= 1.0
    assert sorted(report["assignment_ots"]) == [0, 1]
    out = capsys.readouterr().out
    assert "ots=" in out and "max_corr=" in out


def test_score_flags_match_positionals(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _generate("a.csv", n=64, seed=7)
    _generate("b.csv", n=64, seed=8)
    assert main(["score", "a.csv", "b.csv", "--out", "r1.json"]) == 0
    assert main(["score", "--z", "a.csv", "--sources", "b.csv", "--out", "r2.json"]) == 0
    assert (tmp_path / "r1.json").read_text() == (tmp_path / "r2.json").read_text()


def test_score_no_matrices_drops_matrix_fields(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _generate("a.csv", n=64, seed=7)
    assert main(["score", "a.csv", "a.csv", "--no-matrices", "--out", "r.json"]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["ots"] == 1.0
    assert "pearson_matrix" not in report and "spearman_matrix" not in report


def test_wii_command_reports_index(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _generate(n=512, seed=4)
    assert main(["wii", "--data", "sources.csv", "--seed", "11", "--out", "wii.json"]) == 0
    doc = json.loads((tmp_path / "wii.json").read_text())
    assert set(doc) == {"wii", "n", "d", "num_points", "seed"}
    assert doc["n"] == 512 and doc["d"] == 2 and doc["num_points"] == 2
    assert 0.0 <= doc["wii"] <= 1.0
    assert "wii=" in capsys.readouterr().out


def test_plot_data_writes_scatter_and_histograms(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _generate(n=300, seed=9)
    assert main(["plot-data", "--data", "sources.csv", "--out-dir", "plots"]) == 0
    scatter = load_csv(tmp_path / "plots" / "scatter.csv")
    assert scatter.shape == (300, 2)
    for j in range(2):
        lines = (tmp_path / "plots" / f"hist_c{j}.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 51
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 300


def test_config_file_defaults_yield_to_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"n": 64, "seed": 9}\n')
    assert main([
        "generate", "--config", "cfg.json", "--seed", "3", "--out", "s.csv",
    ]) == 0
    manifest = _read_manifest(tmp_path / "s.csv")
    assert manifest["config"]["n"] == 64  # from the config file
    assert manifest["config"]["seed"] == 3  # flag wins
    assert load_csv(tmp_path / "s.csv").shape == (64, 2)


# ---------------------------------------------------------------------------
# failure modes


def test_missing_input_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["wii", "--data", "nope.csv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_zero_iterations_exits_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _generate(n=32)
    assert main(["mix", "--data", "sources.csv", "--iterations", "0"]) == 2


def test_unknown_config_key_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text('{"rows": 10}\n')
    assert main(["generate", "--config", "cfg.json"]) == 2
    assert "rows" in capsys.readouterr().err


def test_invalid_config_json_exits_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text("{oops\n")
    assert main(["generate", "--config", "cfg.json"]) == 2


# at least one case per subcommand: a value its option's parser cannot read
# exactly, a value out of range, or a key no option table declares; the last
# field is what the error line must say
_GRID = ["--config", "cfg.json", "--out-dir", "grid"]
_HUGE = "huge.csv"  # column 0 alternates +-1e308
_MALFORMED = [
    ("generate", ["--config", "cfg.json"], {"d": "two"}, None, "sources.csv", "d: expected"),
    ("generate", ["--config", "cfg.json"], {"n": 64.5, "d": 2.9}, None, "sources.csv",
     "d: expected"),
    ("mix", ["--data", "data.csv", "--seed", "-1"], None, None, "mixed.csv", "seed must be"),
    ("unmix-exact", ["--data", "data.csv", "--config", "cfg.json"], {"pipeline": 5}, None,
     "recovered.csv", "pipeline: expected"),
    ("train", ["--data", "data.csv", "--steps", "1", "--config", "cfg.json"],
     {"hidden_sizes": "a,b"}, None, "model.json", "hidden_sizes: expected"),
    ("encode", ["--data", "data.csv", "--config", "cfg.json"], {"model": 3}, None, "encoded.csv",
     "model: expected"),
    ("score", ["data.csv", "data.csv", "--config", "cfg.json"], {"matrices": "no"}, None,
     "report.json", "matrices: expected"),
    ("wii", ["--data", "data.csv", "--config", "cfg.json"], {"num_points": 1.5}, None, "wii.json",
     "num_points: expected"),
    ("bench", _GRID, {"train": {"stepz": 2}}, None, "grid/summary.csv", "train: unknown key"),
    ("bench", ["--out-dir", "grid"], None, "abc", "grid/summary.csv", "WICA_LAB_THREADS: expected"),
    ("bench", ["--out-dir", "grid"], None, "0", "grid/summary.csv",
     "WICA_LAB_THREADS: must be >= 1, got 0"),
    ("bench", ["--out-dir", "grid"], None, "-3", "grid/summary.csv",
     "WICA_LAB_THREADS: must be >= 1, got -3"),
    ("plot-data", ["--data", "data.csv", "--cols", "0"], None, None, "plots/scatter.csv",
     "cols must be"),
    ("generate", ["--kind", "sine_mixture", "--params", '{"t_max": "x"}'], None, None,
     "sources.csv", "t_max: expected"),
    ("generate", ["--kind", "sine_mixture", "--params", '{"tmax": 5}'], None, None,
     "sources.csv", "unknown key 'tmax'"),
    ("generate", ["--kind", "uniform", "--params", '{"t_max": 5}'], None, None, "sources.csv",
     "unknown key 't_max'"),
    ("generate", ["--kind", "sine_mixture", "--params", '{"omega_min": 5, "omega_max": 1}'],
     None, None, "sources.csv", "omega_min 5.0 exceeds"),
    ("bench", _GRID, {"source_params": {"t_max": "x"}}, None, "grid/summary.csv",
     "t_max: expected"),
    # the grid is checked before any cell runs
    ("bench", _GRID, {"dims": [2, 2]}, None, "grid/summary.csv", "dims: repeats a value"),
    ("bench", _GRID, {"mixes": [5, 5]}, None, "grid/summary.csv", "mixes: repeats a value"),
    ("bench", _GRID, {"seeds": [0, 0, 1]}, None, "grid/summary.csv", "seeds: repeats a value"),
    ("bench", _GRID, {"dims": [1]}, None, "grid/summary.csv", "dims: must be >= 2"),
    ("bench", _GRID, {"mixes": [0]}, None, "grid/summary.csv", "mixes: must be >= 1"),
    ("bench", _GRID, {"seeds": [-1]}, None, "grid/summary.csv", "seeds: must be >= 0"),
    ("bench", _GRID, {"n": 1}, None, "grid/summary.csv", "n: must be >= 2"),
    ("bench", _GRID, {"source_seed": -1}, None, "grid/summary.csv", "source_seed: must be >= 0"),
    ("bench", _GRID, {"mix_seed": -1}, None, "grid/summary.csv", "mix_seed: must be >= 0"),
    ("bench", _GRID, {"mix_hidden": 0}, None, "grid/summary.csv", "mix_hidden: must be >= 1"),
    ("bench", ["--out-dir", "grid", "--threads", "-1"], None, None, "grid/summary.csv",
     "threads: must be >= 1"),
    # a finite column whose mean and variance overflow float64
    ("wii", ["--data", _HUGE], None, None, "wii.json",
     "column 0: standard deviation overflows float64"),
    ("mix", ["--data", _HUGE], None, None, "mixed.csv",
     "column 0: standard deviation overflows float64"),
    ("score", [_HUGE, "data.csv"], None, None, "report.json",
     "moments of left column 0 and right column 0 leave float64 range"),
    ("train", ["--data", _HUGE, "--steps", "2", "--batch-size", "32"], None, None, "model.json",
     "column 0: standard deviation overflows float64"),
]


def _malformed_id(case) -> str:
    return case[0] + ("-overflow" if _HUGE in case[1] else "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,argv,config,threads_env,primary,message", _MALFORMED,
                         ids=[_malformed_id(case) for case in _MALFORMED])
def test_malformed_option_exits_2(tmp_path, monkeypatch, capsys, command, argv, config,
                                  threads_env, primary, message):
    monkeypatch.chdir(tmp_path)
    _generate("data.csv", n=64)
    huge = load_csv("data.csv")
    huge[:, 0] = np.where(np.arange(64) % 2, -1e308, 1e308)
    save_csv(_HUGE, huge)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config) + "\n")
    if threads_env is None:
        monkeypatch.delenv("WICA_LAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("WICA_LAB_THREADS", threads_env)
    capsys.readouterr()
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (tmp_path / primary).exists()


def test_train_batch_smaller_than_d_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([
        "generate", "--kind", "uniform", "--d", "4", "--n", "64", "--out", "sources.csv",
    ]) == 0
    rc = main(["train", "--data", "sources.csv", "--steps", "1", "--batch-size", "3"])
    assert rc == 2
    assert "batch_size 3 is below d=4" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_diverging_training_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _generate(n=256, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([
            "train", "--data", "sources.csv", "--steps", "60",
            "--batch-size", "64", "--hidden-sizes", "8",
            "--learning-rate", "1e6", "--optimizer", "sgd",
        ])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_flag_and_config_file_record_the_same_config_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _generate("data.csv", n=64)
    argv = ["train", "--data", "../data.csv", "--steps", "2", "--batch-size", "32"]
    (tmp_path / "flag").mkdir()
    monkeypatch.chdir(tmp_path / "flag")
    assert main([*argv, "--hidden-sizes", "8,8"]) == 0
    (tmp_path / "file").mkdir()
    monkeypatch.chdir(tmp_path / "file")
    (tmp_path / "file" / "cfg.json").write_text('{"hidden_sizes": [8, 8]}\n')
    assert main([*argv, "--config", "cfg.json"]) == 0
    by_flag = _read_manifest(tmp_path / "flag" / "model.json")
    by_file = _read_manifest(tmp_path / "file" / "model.json")
    assert by_flag["config"]["hidden_sizes"] == [8, 8]
    assert by_flag["config_hash"] == by_file["config_hash"]


# ---------------------------------------------------------------------------
# file formats


def _load_config(path: Path) -> None:
    """The --config reader, seen through the CLI, where a bad file exits 2."""
    if main(["train", "--config", str(path)]) == 2:
        raise FileFormatError(f"{path}: exit 2")


_NOT_AN_OBJECT = "[1, 2]\n"
# a one-stage pipeline with its seed left open, and a linear model with its d left open
_PIPELINE = ('{"d": 2, "seed": %s, "stages": [{"q": [[1, 0], [0, 1]], "parity": "odd", '
             '"phi": {"w1": [[0, 0]], "b1": [0, 0], "w2": [[0, 0], [0, 0]], "b2": [0, 0], '
             '"w3": [[0], [0]], "b3": [0]}}]}\n')
_MODEL = ('{"d": %s, "config": {"hidden_sizes": []}, '
          '"encoder": {"w1": [[1, 0], [0, 1]], "b1": [0, 0]}, '
          '"decoder": {"w1": [[1, 0], [0, 1]], "b1": [0, 0]}}\n')


@pytest.mark.parametrize("load,text", [
    (load_pipeline, _NOT_AN_OBJECT),
    (load_pipeline, '{"d": 2, "seed": 0}\n'),
    (load_pipeline, '{"d": 2, "seed": 0, "stages": [{"q": [[1, 0], [0, 1]], "parity": "odd"}]}\n'),
    (load_pipeline, '{"d": 2, "seed": 0, "stages": [{"q": [[1, 0], [0, 1]], "parity": "odd", '
                    '"phi": {"w1": [[0, 0]], "b1": [0, 0], "w2": [[0], [0]], "b2": [0]}}]}\n'),
    (load_pipeline, '{"d": 2, "seed": 0, "stages": [{"q": [[1, 0], [0, 1]], "parity": "odd", '
                    '"phi": {"w1": [[0, 0]], "b1": [0, 0], "w2": [[0, 0], [0, 0]], "b2": [0, 0], '
                    '"w3": [[0], [0]], "b3": [0], "w4": [[0]]}}]}\n'),
    (load_pipeline, _PIPELINE % "true"),
    (load_pipeline, _PIPELINE % "-5"),
    (load_model, _MODEL % "2.0"),
    (load_model, _NOT_AN_OBJECT),
    (load_model, '{"d": 2, "config": {}, "encoder": {}}\n'),
    (load_model, '{"d": 2, "config": [], "encoder": {}, "decoder": {}}\n'),
    (load_model, '{"d": 2, "config": {"steps": 1.5, "beta": true, "hidden_sizes": []}, '
                 '"encoder": {"w1": [[1, 0], [0, 1]], "b1": [0, 0]}, '
                 '"decoder": {"w1": [[1, 0], [0, 1]], "b1": [0, 0]}}\n'),
    (load_model, '{"d": 2, "config": {"hidden_sizes": [7, 7, 7]}, '
                 '"encoder": {"w1": [[1, 0, 0, 0], [0, 1, 0, 0]], "b1": [0, 0, 0, 0], '
                 '"w2": [[1, 0], [0, 1], [0, 0], [0, 0]], "b2": [0, 0]}, '
                 '"decoder": {"w1": [[1, 0, 0, 0], [0, 1, 0, 0]], "b1": [0, 0, 0, 0], '
                 '"w2": [[1, 0], [0, 1], [0, 0], [0, 0]], "b2": [0, 0]}}\n'),
    (load_model, '{"d": 2, "config": {"hidden_sizes": []}, '
                 '"encoder": {"w1": [[NaN, 0], [0, 1]], "b1": [0, 0]}, '
                 '"decoder": {"w1": [[1, 0], [0, 1]], "b1": [0, 0]}}\n'),
    (_load_config, _NOT_AN_OBJECT),
    (_load_config, '{"steps": 1}\n'),  # no "data"
], ids=lambda v: getattr(v, "__name__", None))
def test_loader_rejects_malformed_json_object(tmp_path, monkeypatch, load, text):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(FileFormatError):
        load(path)


def test_loaders_read_d_and_seed_as_the_option_parsers_do(tmp_path):
    """d and seed are integers read like any integer option, a flag string
    included, so a valid file loads and a quoted "2" reads as 2."""
    path = tmp_path / "doc.json"
    path.write_text(_PIPELINE % "7")
    pipeline = load_pipeline(path)
    assert (pipeline.d, pipeline.seed) == (2, 7)
    path.write_text(_MODEL % '"2"')
    assert load_model(path)[0].d == 2


def test_readme_command_lines_parse():
    """Every `wica-lab ...` line of the README's "Command line" section is
    accepted by the parser, and its list of `--params` keys and defaults is
    datagen's, so neither a flag spelling nor a param in the docs can drift."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [
        line.strip() for line in section.replace("\\\n", " ").splitlines()
        if line.strip().startswith("wica-lab ")
    ]
    assert len(lines) >= 8
    for line in lines:
        argv = shlex.split(line)[1:]
        assert build_parser().parse_args(argv).command == argv[0]
    documented = {}
    for item in re.findall(r"^- (`.+?(?=\n\n|\n- ))", section + "\n\n", re.M | re.S):
        kinds, params = item.split(":", 1)
        for kind in re.findall(r"`(\w+)`", kinds):
            documented[kind] = {
                key: float(value) for key, value in re.findall(r"`(\w+)` (\d[\d.]*)", params)
            }
    assert documented == {kind: resolve_params(kind, {}) for kind in KINDS}


# ---------------------------------------------------------------------------
# frozen command-line transcripts


def test_golden_pipeline_transcript(tmp_path, monkeypatch):
    """Replaying the recorded argv sequence reproduces the report byte for
    byte; any drift in generation, mixing, training or scoring shows here."""
    monkeypatch.chdir(tmp_path)
    doc = json.loads((DATA / "cli_golden.json").read_text())
    for argv in doc["commands"]:
        assert main(list(argv)) == 0, f"command failed: {argv}"
    produced = (tmp_path / doc["report_file"]).read_text()
    assert produced == doc["report_text"]


def test_golden_bench_grid(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WICA_LAB_THREADS", raising=False)
    doc = json.loads((DATA / "bench_golden.json").read_text())
    (tmp_path / "bench.json").write_text(json.dumps(doc["config"]) + "\n")
    assert main(["bench", "--config", "bench.json", "--out-dir", "grid"]) == 0
    assert (tmp_path / "grid" / "runs.csv").read_text() == doc["runs_csv"]
    assert (tmp_path / "grid" / "summary.csv").read_text() == doc["summary_csv"]


# ---------------------------------------------------------------------------
# the benchmark grid


_SMALL_BENCH = {
    "mixes": [5], "seeds": [0, 1], "n": 512,
    "source_kind": "uniform", "source_seed": 2, "mix_seed": 3, "mix_hidden": 8,
    "train": {"steps": 30, "batch_size": 64, "hidden_sizes": [8], "log_every": 30},
}


def test_bench_partial_failure_keeps_other_cells(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WICA_LAB_THREADS", raising=False)
    # lattice rows are n^d: fine at d=2, over the row cap at d=4
    config = {
        **_SMALL_BENCH, "dims": [2, 4], "n": 40,
        "source_kind": "lattice", "train": {**_SMALL_BENCH["train"], "batch_size": 32},
    }
    (tmp_path / "bench.json").write_text(json.dumps(config) + "\n")
    assert main(["bench", "--config", "bench.json", "--out-dir", "grid"]) == 3
    lines = (tmp_path / "grid" / "runs.csv").read_text().splitlines()
    by_key = {tuple(l.split(",")[:3]): l.split(",")[3] for l in lines[1:]}
    assert by_key[("2", "5", "0")] == "ok" and by_key[("2", "5", "1")] == "ok"
    assert by_key[("4", "5", "0")] == "failed" and by_key[("4", "5", "1")] == "failed"
    summary = (tmp_path / "grid" / "summary.csv").read_text().splitlines()
    assert summary[-1].startswith("4,5,0,")  # zero completed runs in the cell
    assert "2/4 runs succeeded" in capsys.readouterr().out


def test_bench_threads_do_not_change_results(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WICA_LAB_THREADS", raising=False)
    config = {**_SMALL_BENCH, "dims": [2]}
    (tmp_path / "bench.json").write_text(json.dumps(config) + "\n")
    assert main(["bench", "--config", "bench.json", "--out-dir", "one",
                 "--threads", "1"]) == 0
    assert main(["bench", "--config", "bench.json", "--out-dir", "two",
                 "--threads", "2"]) == 0
    assert (tmp_path / "one" / "runs.csv").read_text() == \
        (tmp_path / "two" / "runs.csv").read_text()
    assert (tmp_path / "one" / "summary.csv").read_text() == \
        (tmp_path / "two" / "summary.csv").read_text()


def test_bench_thread_env_cap(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("WICA_LAB_THREADS", "1")
    config = {**_SMALL_BENCH, "dims": [2], "seeds": [0]}
    (tmp_path / "bench.json").write_text(json.dumps(config) + "\n")
    # the cap leaves one worker; the run must still succeed
    assert main(["bench", "--config", "bench.json", "--out-dir", "grid",
                 "--threads", "8"]) == 0
    assert (tmp_path / "grid" / "summary.csv").exists()


# ---------------------------------------------------------------------------
# export lists


@pytest.mark.parametrize("module", [
    "wica_lab", *(f"wica_lab.{m.name}" for m in pkgutil.iter_modules(wica_lab.__path__)),
])
def test_every_exported_name_resolves(module):
    """A stale __all__ entry breaks `from module import *`."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_importing_the_cli_leaves_concurrent_futures_unloaded():
    """Only bench runs a thread pool, so only bench imports
    concurrent.futures: a process that imports the CLI, to run any other
    command, does not load it.  A child process starts from a clean
    sys.modules."""
    script = "import sys, wica_lab.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(wica_lab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
