"""End-to-end command-line behavior: files in, files out, exit codes."""

import argparse
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
from wica_lab.core import RngStream, load_csv, normalize_componentwise, save_csv
from wica_lab.datagen import KINDS, resolve_params
from wica_lab.errors import DimensionError, FileFormatError
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


# each subcommand's argv and its first output; {in} is a directory that
# holds data.csv, pipeline.json, model.json and bench.json
_RUNS = {
    "generate": (["--n", "32", "--out", "out.csv"], "out.csv"),
    "mix": (["--data", "{in}/data.csv", "--iterations", "1", "--hidden", "4", "--out", "out.csv"],
            "out.csv"),
    "unmix-exact": (["--data", "{in}/data.csv", "--pipeline", "{in}/pipeline.json",
                     "--out", "out.csv"], "out.csv"),
    "train": (["--data", "{in}/data.csv", "--steps", "2", "--batch-size", "16",
               "--hidden-sizes", "4", "--model-out", "out.json"], "out.json"),
    "encode": (["--model", "{in}/model.json", "--data", "{in}/data.csv", "--out", "out.csv"],
               "out.csv"),
    "score": (["{in}/data.csv", "{in}/data.csv", "--out", "out.json"], "out.json"),
    "wii": (["--data", "{in}/data.csv", "--out", "out.json"], "out.json"),
    "bench": (["--config", "{in}/bench.json", "--out-dir", "out"], "out/summary.csv"),
    "plot-data": (["--data", "{in}/data.csv", "--out-dir", "out"], "out/scatter.csv"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding one input file of each kind a subcommand reads."""
    root = tmp_path_factory.mktemp("inputs")
    data = str(root / "data.csv")
    assert main(["generate", "--n", "64", "--out", data]) == 0
    assert main(["mix", "--data", data, "--iterations", "1", "--hidden", "4",
                 "--out", str(root / "mixed.csv"),
                 "--pipeline-out", str(root / "pipeline.json")]) == 0
    assert main(["train", "--data", data, "--steps", "2", "--batch-size", "16",
                 "--hidden-sizes", "4", "--model-out", str(root / "model.json"),
                 "--trace-out", str(root / "trace.csv")]) == 0
    (root / "bench.json").write_text(json.dumps({
        "dims": [2], "mixes": [1], "seeds": [0], "n": 64, "source_kind": "uniform",
        "mix_hidden": 4, "train": {"steps": 2, "batch_size": 16, "hidden_sizes": [4]},
    }) + "\n")
    return root


_SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_every_subcommand_records_its_manifest_next_to_its_first_output(
        tmp_path, monkeypatch, inputs, command):
    """A subcommand missing from _RUNS fails here, so none goes unchecked."""
    monkeypatch.chdir(tmp_path)
    argv, first = _RUNS[command]
    assert main([command, *(arg.replace("{in}", str(inputs)) for arg in argv)]) == 0
    assert sorted(tmp_path.rglob("*.manifest.json")) == [tmp_path / f"{first}.manifest.json"]
    manifest = _read_manifest(tmp_path / first)
    assert manifest["command"] == command
    assert first in manifest["outputs"]


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
    """Positionals and --z/--sources score the same files; positionals win
    over --z/--sources and over z/sources in --config."""
    monkeypatch.chdir(tmp_path)
    _generate("a.csv", n=64, seed=7)
    _generate("b.csv", n=64, seed=8)
    _generate("c.csv", n=64, seed=9)
    (tmp_path / "cfg.json").write_text('{"z": "c.csv", "sources": "c.csv"}\n')
    assert main(["score", "a.csv", "b.csv", "--out", "r1.json"]) == 0
    expected = (tmp_path / "r1.json").read_text()
    for out, argv in [
        ("r2.json", ["--z", "a.csv", "--sources", "b.csv"]),
        ("r3.json", ["a.csv", "b.csv", "--z", "c.csv", "--sources", "c.csv"]),
        ("r4.json", ["a.csv", "b.csv", "--config", "cfg.json"]),
    ]:
        assert main(["score", *argv, "--out", out]) == 0
        assert (tmp_path / out).read_text() == expected
        config = _read_manifest(tmp_path / out)["config"]
        assert (config["z"], config["sources"]) == ("a.csv", "b.csv")
    assert main(["score", "--config", "cfg.json", "--out", "r5.json"]) == 0
    assert (tmp_path / "r5.json").read_text() != expected


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
# exactly, a value out of range, or a key no option table declares.  Each
# case is (id, command, argv, config, primary output, what the error line
# must say); the id is written out, so adding or deleting a case leaves the
# others' ids as they were
_GRID = ["--config", "cfg.json", "--out-dir", "grid"]
_HUGE = "huge.csv"  # column 0 alternates +-1e308
_MALFORMED = [
    ("generate0", "generate", ["--config", "cfg.json"], {"d": "two"}, "sources.csv",
     "d: expected"),
    ("generate1", "generate", ["--config", "cfg.json"], {"n": 64.5, "d": 2.9}, "sources.csv",
     "d: expected"),
    ("mix", "mix", ["--data", "data.csv", "--seed", "-1"], None, "mixed.csv",
     "seed: must be >= 0, got -1"),
    ("unmix-exact", "unmix-exact", ["--data", "data.csv", "--config", "cfg.json"],
     {"pipeline": 5}, "recovered.csv", "pipeline: expected"),
    ("train", "train", ["--data", "data.csv", "--steps", "1", "--config", "cfg.json"],
     {"hidden_sizes": "a,b"}, "model.json", "hidden_sizes: expected"),
    ("encode", "encode", ["--data", "data.csv", "--config", "cfg.json"], {"model": 3},
     "encoded.csv", "model: expected"),
    # a score report always carries both matrices
    ("score", "score", ["data.csv", "data.csv", "--config", "cfg.json"], {"matrices": True},
     "report.json", "unknown key 'matrices'"),
    ("wii", "wii", ["--data", "data.csv", "--config", "cfg.json"], {"num_points": 1.5},
     "wii.json", "num_points: expected"),
    ("bench0", "bench", _GRID, {"train": {"stepz": 2}}, "grid/summary.csv",
     "train: unknown key"),
    ("bench1", "bench", ["--out-dir", "grid", "--threads", "abc"], None, "grid/summary.csv",
     "threads: expected"),
    ("bench2", "bench", ["--out-dir", "grid", "--threads", "0"], None, "grid/summary.csv",
     "threads: must be >= 1, got 0"),
    ("bench3", "bench", _GRID, {"threads": 0}, "grid/summary.csv",
     "threads: must be >= 1, got 0"),
    ("plot-data", "plot-data", ["--data", "data.csv", "--cols", "0"], None,
     "plots/scatter.csv", "cols must be"),
    ("generate2", "generate", ["--kind", "sine_mixture", "--params", '{"t_max": "x"}'], None,
     "sources.csv", "t_max: expected"),
    ("generate3", "generate", ["--kind", "sine_mixture", "--params", '{"tmax": 5}'], None,
     "sources.csv", "unknown key 'tmax'"),
    ("generate4", "generate", ["--kind", "uniform", "--params", '{"t_max": 5}'], None,
     "sources.csv", "unknown key 't_max'"),
    ("generate5", "generate",
     ["--kind", "sine_mixture", "--params", '{"omega_min": 5, "omega_max": 1}'], None,
     "sources.csv", "omega_min 5.0 exceeds"),
    # n^d is never computed in full, and 20000 frequencies 0.3 apart cannot
    # fit in [1, 4]: both are refused at once
    ("generate6", "generate", ["--kind", "lattice", "--d", "300000", "--n", "3"], None,
     "sources.csv", "lattice with n=3, d=300000 has more than 1000000 rows, the cap"),
    ("generate7", "generate", ["--kind", "sine_mixture", "--d", "20000"], None,
     "sources.csv", "cannot fit frequencies"),
    ("bench4", "bench", _GRID, {"source_params": {"t_max": "x"}}, "grid/summary.csv",
     "t_max: expected"),
    # the grid is checked before any cell runs
    ("bench5", "bench", _GRID, {"dims": [2, 2]}, "grid/summary.csv", "dims: repeats a value"),
    ("bench6", "bench", _GRID, {"mixes": [5, 5]}, "grid/summary.csv",
     "mixes: repeats a value"),
    ("bench7", "bench", _GRID, {"seeds": [0, 0, 1]}, "grid/summary.csv",
     "seeds: repeats a value"),
    ("bench8", "bench", _GRID, {"dims": [1]}, "grid/summary.csv", "dims: must be >= 2"),
    ("bench9", "bench", _GRID, {"mixes": [0]}, "grid/summary.csv", "mixes: must be >= 1"),
    ("bench10", "bench", _GRID, {"seeds": [-1]}, "grid/summary.csv", "seeds: must be >= 0"),
    ("bench11", "bench", _GRID, {"n": 1}, "grid/summary.csv", "n: must be >= 2"),
    ("bench12", "bench", _GRID, {"source_seed": -1}, "grid/summary.csv",
     "source_seed: must be >= 0"),
    ("bench13", "bench", _GRID, {"mix_seed": -1}, "grid/summary.csv",
     "mix_seed: must be >= 0"),
    ("bench14", "bench", _GRID, {"mix_hidden": 0}, "grid/summary.csv",
     "mix_hidden: must be >= 1"),
    ("bench15", "bench", ["--out-dir", "grid", "--threads", "-1"], None, "grid/summary.csv",
     "threads: must be >= 1"),
    ("bench16", "bench", ["--dims", "2,2", "--out-dir", "grid"], None, "grid/summary.csv",
     "dims: repeats a value"),
    # a source kind is read by its parser, not by argparse, so the flag's
    # message is the config key's
    ("generate8", "generate", ["--kind", "x"], None, "sources.csv", "kind: expected one of"),
    ("bench17", "bench", ["--source-kind", "x", "--out-dir", "grid"], None, "grid/summary.csv",
     "source_kind: expected one of"),
    # '' is an empty list, which each command refuses with its own message
    ("bench18", "bench", ["--dims", "", "--out-dir", "grid"], None, "grid/summary.csv",
     "bench needs nonempty dims"),
    ("plot-data1", "plot-data", ["--data", "data.csv", "--cols", ""], None,
     "plots/scatter.csv", "cols must be"),
    # a finite column whose mean and variance overflow float64
    ("wii-overflow", "wii", ["--data", _HUGE], None, "wii.json",
     "column 0: standard deviation overflows float64"),
    ("mix-overflow", "mix", ["--data", _HUGE], None, "mixed.csv",
     "column 0: standard deviation overflows float64"),
    ("score-overflow", "score", [_HUGE, "data.csv"], None, "report.json",
     "moments of left column 0 and right column 0 leave float64 range"),
    ("train-overflow", "train", ["--data", _HUGE, "--steps", "2", "--batch-size", "32"], None,
     "model.json", "column 0: standard deviation overflows float64"),
]
assert len({case[0] for case in _MALFORMED}) == len(_MALFORMED), "two cases share an id"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,argv,config,primary,message",
                         [case[1:] for case in _MALFORMED],
                         ids=[case[0] for case in _MALFORMED])
def test_malformed_option_exits_2(tmp_path, monkeypatch, capsys, command, argv, config,
                                  primary, message):
    monkeypatch.chdir(tmp_path)
    _generate("data.csv", n=64)
    huge = load_csv("data.csv")
    huge[:, 0] = np.where(np.arange(64) % 2, -1e308, 1e308)
    save_csv(_HUGE, huge)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config) + "\n")
    capsys.readouterr()
    assert main([command, *argv]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (tmp_path / primary).exists()


# an out-of-range value for each ranged key of every table, as (command,
# key, flag string, message tail); a key whose parser takes a list gets a
# list with one bad entry
_OUT_OF_RANGE = [
    ("generate", "d", "1", "must be >= 2, got 1"),
    ("generate", "n", "1", "must be >= 2, got 1"),
    ("generate", "seed", "-1", "must be >= 0, got -1"),
    ("mix", "iterations", "0", "must be >= 1, got 0"),
    ("mix", "hidden", "0", "must be >= 1, got 0"),
    ("mix", "seed", "-1", "must be >= 0, got -1"),
    ("train", "beta", "-1", "must be >= 0.0, got -1.0"),
    ("train", "batch_size", "1", "must be >= 2, got 1"),
    ("train", "steps", "-1", "must be >= 0, got -1"),
    ("train", "learning_rate", "0", "must be > 0.0, got 0.0"),
    ("train", "seed", "-1", "must be >= 0, got -1"),
    ("train", "num_weighting_points", "0", "must be >= 1, got 0"),
    ("train", "log_every", "0", "must be >= 1, got 0"),
    ("train", "hidden_sizes", "4,0", "must be >= 1, got 0"),
    ("wii", "num_points", "0", "must be >= 1, got 0"),
    ("wii", "seed", "-1", "must be >= 0, got -1"),
    ("bench", "dims", "2,1", "must be >= 2, got 1"),
    ("bench", "mixes", "0", "must be >= 1, got 0"),
    ("bench", "seeds", "-1", "must be >= 0, got -1"),
    ("bench", "n", "1", "must be >= 2, got 1"),
    ("bench", "source_seed", "-1", "must be >= 0, got -1"),
    ("bench", "mix_seed", "-1", "must be >= 0, got -1"),
    ("bench", "mix_hidden", "0", "must be >= 1, got 0"),
    ("bench", "threads", "0", "must be >= 1, got 0"),
]


def test_every_ranged_key_has_an_out_of_range_case():
    """A key is ranged when its parser refuses -1 as out of range; a choice,
    whose metavar lists its names in braces, is left out: it has no range,
    and _QUANTITIES checks its message."""
    ranged = set()
    for command, sub in _SUBCOMMANDS.items():
        for key, (parse, _) in sub.get_default("table").items():
            try:
                parse("-1")
            except DimensionError:
                if not getattr(parse, "metavar", "").startswith("{"):
                    ranged.add((command, key))
            except FileFormatError:
                pass
    assert ranged == {case[:2] for case in _OUT_OF_RANGE}


@pytest.mark.parametrize("command,key,value,tail", _OUT_OF_RANGE,
                         ids=[f"{case[0]}-{case[1]}" for case in _OUT_OF_RANGE])
def test_out_of_range_value_is_refused_before_any_input_is_read(
        tmp_path, monkeypatch, capsys, command, key, value, tail):
    """The table is resolved before the command opens a file: with the
    input missing, the error still names the key, not the file."""
    monkeypatch.chdir(tmp_path)
    inputs = ["--data", "missing.csv"] if command in ("mix", "train", "wii") else []
    assert main([command, *inputs, f"--{key.replace('_', '-')}", value]) == 2
    assert capsys.readouterr().err == f"error: {key}: {tail}\n"
    assert list(tmp_path.iterdir()) == []


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
            "--learning-rate", "1e300",
        ])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--optimizer", "adam"), ("--rec-norm", "mean")])
def test_train_has_no_optimizer_or_rec_norm_flag(tmp_path, monkeypatch, capsys, flag, value):
    """Training runs Adam on the batch-mean reconstruction term, with no
    flag to pick another."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "sources.csv", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_score_has_no_no_matrices_flag(tmp_path, monkeypatch, capsys):
    """A score report always carries both matrices, with no flag to drop them."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["score", "a.csv", "b.csv", "--no-matrices"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-matrices" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_every_table_key_is_a_flag(command):
    sub = _SUBCOMMANDS[command]
    flags = {a.option_strings[0]: a.dest for a in sub._actions if a.option_strings}
    for key in sub.get_default("table"):
        assert flags.get(f"--{key.replace('_', '-')}") == key


@pytest.mark.parametrize("command,flag", [("generate", "--kind"), ("bench", "--source-kind")])
def test_help_names_every_source_kind(command, flag):
    text = _SUBCOMMANDS[command].format_help()
    assert f"{flag} {{{','.join(KINDS)}}}" in text


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_help_shows_how_to_spell_a_list_or_an_object(command):
    """A list option's help reads N,N,... and an object option's JSON; the
    type of the option's default tells which it is."""
    sub = _SUBCOMMANDS[command]
    text = sub.format_help()
    for key, (_, default) in sub.get_default("table").items():
        flag = f"--{key.replace('_', '-')}"
        if isinstance(default, tuple):
            assert f"{flag} N,N,..." in text
        elif isinstance(default, dict):
            assert f"{flag} JSON" in text


def _flag_value(value) -> str:
    """A config value as the flag string its option's parser reads."""
    if isinstance(value, list):
        return ",".join(map(str, value))
    return json.dumps(value) if isinstance(value, dict) else str(value)


def test_bench_grid_from_flags_equals_grid_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = {
        "dims": [2], "mixes": [1], "seeds": [0, 1], "n": 64, "source_kind": "sine_mixture",
        "source_params": {"t_max": 50.0}, "source_seed": 2, "mix_seed": 3, "mix_hidden": 4,
        "train": {"steps": 3, "batch_size": 16, "hidden_sizes": [4], "log_every": 1},
        "threads": 2,
    }
    (tmp_path / "bench.json").write_text(json.dumps(config) + "\n")
    assert main(["bench", "--config", "bench.json", "--out-dir", "file"]) == 0
    flags = [arg for key, value in config.items()
             for arg in (f"--{key.replace('_', '-')}", _flag_value(value))]
    assert main(["bench", *flags, "--out-dir", "flag"]) == 0
    for name in ("runs.csv", "summary.csv"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()
    by_file, by_flag = (_read_manifest(tmp_path / d / "summary.csv")["config"]
                        for d in ("file", "flag"))
    assert (by_file.pop("out_dir"), by_flag.pop("out_dir")) == ("file", "flag")
    assert by_flag == by_file


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


def test_empty_flag_list_trains_the_model_an_empty_config_list_does(tmp_path, monkeypatch):
    """--hidden-sizes '' reads as [], so it trains the linear autoencoder
    that {"hidden_sizes": []} in a config file does."""
    monkeypatch.chdir(tmp_path)
    _generate("data.csv", n=64)
    argv = ["train", "--data", "data.csv", "--steps", "2", "--batch-size", "32"]
    (tmp_path / "cfg.json").write_text('{"hidden_sizes": []}\n')
    assert main([*argv, "--hidden-sizes", "", "--model-out", "flag.json"]) == 0
    assert main([*argv, "--config", "cfg.json", "--model-out", "file.json"]) == 0
    assert (tmp_path / "flag.json").read_bytes() == (tmp_path / "file.json").read_bytes()
    by_flag, by_file = (_read_manifest(tmp_path / name)["config"]
                        for name in ("flag.json", "file.json"))
    assert (by_flag.pop("model_out"), by_file.pop("model_out")) == ("flag.json", "file.json")
    assert by_flag == by_file
    assert by_flag["hidden_sizes"] == []


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
# the same pipeline with a NaN in its stage matrix
_NAN_PIPELINE = (_PIPELINE % "0").replace('"q": [[1, 0]', '"q": [[NaN, 0]')
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
    (load_pipeline, _NAN_PIPELINE),
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


def _csv(n: int) -> str:
    return "c0,c1\n" + "".join(f"{i},{i % 7}\n" for i in range(n))


_GOOD_PIPELINE = _PIPELINE % "0"
_GOOD_MODEL = _MODEL % "2"
_ENCODER = '"encoder": {"w1": [[1, 0], [0, 1]], "b1": [0, 0]}'
_UNMIX = ["unmix-exact", "--data", "data.csv", "--pipeline", "p.json"]
_ENCODE = ["encode", "--model", "m.json", "--data", "data.csv"]
_NOT_UTF8 = b"\xff\xfe\x00\x81"
_HUGE_SIZE = str(10 ** 15)  # numpy refuses the petabytes this asks for at once
# a malformed input file or option value, each (id, argv, files written
# beside a 64-row data.csv, as text or bytes, primary output, what the
# error line must say);
# the ids are written out, as _MALFORMED's are
_MALFORMED_FILES = [
    ("csv-empty", ["wii", "--data", "x.csv"], {"x.csv": ""}, "wii.json", "x.csv: empty file"),
    ("csv-header", ["wii", "--data", "x.csv"], {"x.csv": "x,y\n1,2\n"}, "wii.json",
     "x.csv: header must be c0..c1"),
    ("csv-header-only", ["wii", "--data", "x.csv"], {"x.csv": "c0,c1\n"}, "wii.json",
     "x.csv: no data rows"),
    ("csv-nan", ["wii", "--data", "x.csv"], {"x.csv": "c0,c1\n1,nan\n2,3\n"}, "wii.json",
     "x.csv: non-finite values"),
    ("csv-not-utf8", ["wii", "--data", "x.csv"], {"x.csv": _NOT_UTF8}, "wii.json",
     "x.csv: not UTF-8 text"),
    ("csv-field-limit", ["wii", "--data", "x.csv"], {"x.csv": "c0,c1\n" + "1" * 131073 + ",2\n"},
     "wii.json", "x.csv:2: field larger than field limit (131072)"),
    # lines end at \r\n, \r or \n only: \f is whitespace inside a field
    ("csv-line-ends", ["wii", "--data", "x.csv"], {"x.csv": "c0,c1\r\n1\x0c,2\r3,4\n5\n"},
     "wii.json", "x.csv:4: expected 2 fields, got 1"),
    ("csv-rows", ["score", "a.csv", "b.csv"], {"a.csv": _csv(50), "b.csv": _csv(40)},
     "report.json", "shape mismatch"),
    ("pipeline-missing", _UNMIX, {}, "recovered.csv", "cannot read p.json"),
    ("pipeline-no-stages", _UNMIX, {"p.json": '{"d": 2, "seed": 0, "stages": []}\n'},
     "recovered.csv", "p.json: 'stages' must be a nonempty list"),
    ("pipeline-q-not-square", _UNMIX,
     {"p.json": _GOOD_PIPELINE.replace('"q": [[1, 0], [0, 1]]', '"q": [[1, 0]]')},
     "recovered.csv", "p.json: stage 1: stage matrix must be square"),
    ("pipeline-q-1d", _UNMIX,
     {"p.json": _GOOD_PIPELINE.replace('"q": [[1, 0], [0, 1]]', '"q": [1, 0]')},
     "recovered.csv", "p.json: stage 1.q: expected 2-dimensional array"),
    ("pipeline-parity", _UNMIX,
     {"p.json": _GOOD_PIPELINE.replace('"parity": "odd"', '"parity": "foo"')},
     "recovered.csv", "p.json: stage 1: parity must be one of"),
    ("pipeline-even-first", _UNMIX,
     {"p.json": _GOOD_PIPELINE.replace('"parity": "odd"', '"parity": "even"')},
     "recovered.csv", "p.json: stage 1 must have odd parity"),
    ("pipeline-phi-bias", _UNMIX,
     {"p.json": _GOOD_PIPELINE.replace('"b1": [0, 0]', '"b1": [0, 0, 0]')},
     "recovered.csv", "p.json: stage 1.phi: layer 0: expected weight 1x2 and bias 2"),
    ("pipeline-phi-text", _UNMIX,
     {"p.json": _GOOD_PIPELINE.replace('"w1": [[0, 0]]', '"w1": [["a", 0]]')},
     "recovered.csv", "p.json: stage 1.phi.w1: could not convert"),
    ("pipeline-not-utf8", _UNMIX, {"p.json": _NOT_UTF8}, "recovered.csv",
     "p.json: not UTF-8 text"),
    ("pipeline-nested", _UNMIX, {"p.json": "[" * 100000}, "recovered.csv",
     "p.json: invalid JSON (nested too deeply)"),
    ("pipeline-q-huge-int", _UNMIX,
     {"p.json": _GOOD_PIPELINE.replace('"q": [[1, 0]', '"q": [[1' + "0" * 399 + ', 0]')},
     "recovered.csv", "p.json: stage 1.q: int too large to convert to float"),
    ("model-zero-width", _ENCODE,
     {"m.json": _GOOD_MODEL.replace(_ENCODER, '"encoder": {"w1": [[], []], "b1": []}')},
     "encoded.csv", "m.json: encoder: layer sizes must be positive"),
    ("model-w1-3d", _ENCODE,
     {"m.json": _GOOD_MODEL.replace(_ENCODER, '"encoder": {"w1": [[[1]]], "b1": [0, 0]}')},
     "encoded.csv", "m.json: encoder.w1: expected 2-dimensional array, got ndim=3"),
    ("model-config-key", _ENCODE,
     {"m.json": _GOOD_MODEL.replace('"hidden_sizes": []', '"hidden_sizes": [], "bogus": 1')},
     "encoded.csv", "m.json: bad config: unknown key 'bogus'"),
    # a model saved while the config still named its optimizer
    ("model-config-optimizer", _ENCODE,
     {"m.json": _GOOD_MODEL.replace('"hidden_sizes": []',
                                    '"hidden_sizes": [], "optimizer": "adam"')},
     "encoded.csv", "m.json: bad config: unknown key 'optimizer'"),
    ("model-config-list", _ENCODE,
     {"m.json": _GOOD_MODEL.replace('"config": {"hidden_sizes": []}', '"config": []')},
     "encoded.csv", "error: m.json: config: must be a JSON object"),
    ("model-not-utf8", _ENCODE, {"m.json": _NOT_UTF8}, "encoded.csv", "m.json: not UTF-8 text"),
    ("model-d", _ENCODE, {"m.json": _MODEL % "3"}, "encoded.csv",
     "m.json: 'd' is 3 but nets have d=2"),
    ("option-list", ["train", "--data", "data.csv", "--config", "cfg.json"],
     {"cfg.json": '{"hidden_sizes": 5}'}, "model.json", "hidden_sizes: expected a list"),
    ("option-not-utf8", ["train", "--data", "data.csv", "--config", "cfg.json"],
     {"cfg.json": _NOT_UTF8}, "model.json", "cfg.json: not UTF-8 text"),
    ("option-long-int", ["train", "--data", "data.csv", "--config", "cfg.json"],
     {"cfg.json": '{"steps": 1' + "0" * 5000 + "}"}, "model.json",
     "cfg.json: invalid JSON (Exceeds the limit (4300 digits) for integer string conversion"),
    ("option-long-int-params", ["generate", "--params", '{"t_max": 1' + "0" * 5000 + "}"], {},
     "sources.csv",
     "params: invalid JSON (Exceeds the limit (4300 digits) for integer string conversion"),
    ("option-nested", ["generate", "--params", "[" * 100000], {}, "sources.csv",
     "params: invalid JSON (nested too deeply)"),
    ("option-json", ["generate", "--params", "{oops"], {}, "sources.csv",
     "params: invalid JSON"),
    ("option-object", ["generate", "--params", "[1]"], {}, "sources.csv",
     "params: expected a JSON object"),
    ("option-dims", ["bench", "--config", "cfg.json", "--out-dir", "grid"],
     {"cfg.json": '{"dims": []}'}, "grid/summary.csv", "bench needs nonempty dims"),
    # sizes whose arrays numpy cannot allocate
    ("size-wii-num-points", ["wii", "--data", "data.csv", "--num-points", _HUGE_SIZE], {},
     "wii.json", "Unable to allocate"),
    ("size-generate-n", ["generate", "--n", _HUGE_SIZE], {}, "sources.csv",
     "Unable to allocate"),
    ("size-train-hidden", ["train", "--data", "data.csv", "--steps", "1", "--batch-size", "32",
                           "--hidden-sizes", _HUGE_SIZE], {}, "model.json", "Unable to allocate"),
    ("size-mix-hidden", ["mix", "--data", "data.csv", "--hidden", _HUGE_SIZE], {}, "mixed.csv",
     "Unable to allocate"),
    # a size above the largest array dimension numpy takes
    ("size-generate-n-above-intp", ["generate", "--n", str(10 ** 20)], {}, "sources.csv",
     "n: must be <= 9223372036854775807, got 100000000000000000000"),
    # too few rows for the run: an input error, as a batch below d is
    ("rows-train-batch", ["train", "--data", "x.csv", "--steps", "1", "--batch-size", "64"],
     {"x.csv": _csv(32)}, "model.json", "batch_size 64 exceeds the 32 available rows"),
    ("rows-wii-below-d", ["wii", "--data", "x.csv"], {"x.csv": "c0,c1,c2\n1,2,3\n4,6,5\n"},
     "wii.json", "need at least d=3 rows to build a weighting point, got 2"),
]
assert len({case[0] for case in _MALFORMED_FILES}) == len(_MALFORMED_FILES)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,files,primary,message",
                         [case[1:] for case in _MALFORMED_FILES],
                         ids=[case[0] for case in _MALFORMED_FILES])
def test_malformed_input_file_exits_2(tmp_path, monkeypatch, capsys, argv, files, primary,
                                      message):
    monkeypatch.chdir(tmp_path)
    for name, text in {"data.csv": _csv(64), **files}.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (tmp_path / primary).exists()


# each quantity read from outside, with its bad value's message tail and
# every surface that reads it: an option, a key of bench's grid, or a field
# of a pipeline or model file; the files are written beside data.csv
_MODEL_SEED = _GOOD_MODEL.replace('"hidden_sizes": []', '"hidden_sizes": [], "seed": -1')
_SURFACE_FILES = {
    "seed.json": _PIPELINE % "-1", "m-seed.json": _MODEL_SEED, "m-d.json": _MODEL % "1",
    "d.json": _GOOD_PIPELINE.replace('"d": 2', '"d": 1'),
    "kind.json": '{"kind": "x"}', "source-kind.json": '{"source_kind": "x"}',
}
_QUANTITIES = {
    "seed": ("must be >= 0, got -1", [
        ["generate", "--seed", "-1"], ["mix", "--data", "data.csv", "--seed", "-1"],
        ["wii", "--data", "data.csv", "--seed", "-1"],
        ["train", "--data", "data.csv", "--seed", "-1"], ["bench", "--seeds", "0,-1"],
        ["bench", "--source-seed", "-1"], ["bench", "--mix-seed", "-1"],
        ["unmix-exact", "--data", "data.csv", "--pipeline", "seed.json"],
        ["encode", "--data", "data.csv", "--model", "m-seed.json"],
    ]),
    "dimension": ("must be >= 2, got 1", [
        ["generate", "--d", "1"], ["bench", "--dims", "1"],
        ["unmix-exact", "--data", "data.csv", "--pipeline", "d.json"],
        ["encode", "--data", "data.csv", "--model", "m-d.json"],
    ]),
    "rows": ("must be >= 2, got 1", [["generate", "--n", "1"], ["bench", "--n", "1"]]),
    "iterations": ("must be >= 1, got 0", [
        ["mix", "--data", "data.csv", "--iterations", "0"], ["bench", "--mixes", "0"],
    ]),
    "hidden": ("must be >= 1, got 0", [
        ["mix", "--data", "data.csv", "--hidden", "0"], ["bench", "--mix-hidden", "0"],
    ]),
    "kind": ("expected one of lattice, uniform, laplace, sine_mixture, fig1_dependent, got 'x'", [
        ["generate", "--config", "kind.json"], ["bench", "--config", "source-kind.json"],
        ["generate", "--kind", "x"], ["bench", "--source-kind", "x"],
    ]),
}


@pytest.mark.parametrize("quantity", list(_QUANTITIES))
def test_every_surface_refuses_a_quantity_with_one_message(tmp_path, monkeypatch, capsys,
                                                           quantity):
    monkeypatch.chdir(tmp_path)
    for name, text in {"data.csv": _csv(64), **_SURFACE_FILES}.items():
        (tmp_path / name).write_text(text)
    tail, surfaces = _QUANTITIES[quantity]
    for argv in surfaces:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f": {tail}\n"), (argv, err)


# ---------------------------------------------------------------------------
# a seeded sweep of extreme option values


# the training options other than seed, as small as a run can take
_SWEEP_TRAIN = {"beta": 1.0, "batch_size": 16, "steps": 2, "learning_rate": 0.001,
                "num_weighting_points": 2, "log_every": 1, "hidden_sizes": [4]}
# a valid, tiny config per subcommand, holding every key of its table; {in}
# is the directory of the inputs fixture
_SWEEP_CONFIGS = {
    "generate": {"kind": "sine_mixture", "d": 2, "n": 32, "seed": 0, "out": "out.csv",
                 "params": {"t_max": 50.0, "omega_min": 1.0, "omega_max": 4.0, "min_sep": 0.3}},
    "mix": {"data": "{in}/data.csv", "iterations": 1, "hidden": 4, "seed": 0, "out": "out.csv",
            "pipeline_out": "out.json"},
    "unmix-exact": {"data": "{in}/data.csv", "pipeline": "{in}/pipeline.json", "out": "out.csv"},
    "train": {"data": "{in}/data.csv", **_SWEEP_TRAIN, "seed": 0, "model_out": "out.json",
              "trace_out": "trace.csv"},
    "encode": {"model": "{in}/model.json", "data": "{in}/data.csv", "out": "out.csv"},
    "score": {"z": "{in}/data.csv", "sources": "{in}/data.csv", "out": "out.json"},
    "wii": {"data": "{in}/data.csv", "num_points": 2, "seed": 0, "out": "out.json"},
    "bench": {"dims": [2], "mixes": [1], "seeds": [0], "n": 32, "source_kind": "uniform",
              "source_params": {}, "source_seed": 0, "mix_seed": 0, "mix_hidden": 4,
              "train": _SWEEP_TRAIN, "out_dir": "grid", "threads": 1},
    "plot-data": {"data": "{in}/data.csv", "out_dir": "plots", "cols": [0, 1]},
}
_BIG = [str(2 ** 63), "1" + "0" * 399]  # integers that _int reads and no size option takes
# each extreme literal as (JSON text, flag string), the flag None for a value
# no flag string spells
_EXTREMES = [
    ("1e309", "1e309"), ("-0.0", "-0.0"), ("NaN", "NaN"), ("Infinity", "Infinity"),
    ('"nan"', "nan"), *((big, big) for big in _BIG), ("1" * 5000, "1" * 5000),
    ("[]", None), ("{}", None), ("null", "null"), ("true", "true"), ('""', ""),
    ("[[[0]], [[]]]", None), ('{"a": {"b": [{}]}}', None), (f'"{"x" * 200000}"', "x" * 200000),
]
# a large valid count is a long run, not a malformed input
_WORK_COUNTS = {"steps", "iterations", "mixes"}


def _option_paths(config: dict, prefix=()):
    """The key path of every option of a config, nested objects' keys too."""
    for key, value in config.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _option_paths(value, (*prefix, key))


def _sweep_mutants(count: int):
    """count (description, command, config text, flags) tuples: a sweep
    config with one option set to an extreme literal or a list of them, in
    the config or, for a top-level option, as its flag string."""
    gen = RngStream(29).split("option-sweep").generator()
    commands = sorted(_SWEEP_CONFIGS)
    while count:
        command = commands[gen.integers(len(commands))]
        paths = list(_option_paths(_SWEEP_CONFIGS[command]))
        path = paths[gen.integers(len(paths))]
        picked = [_EXTREMES[k] for k in gen.integers(len(_EXTREMES), size=gen.integers(1, 4))]
        if path[-1] in _WORK_COUNTS and any(text in _BIG for text, _ in picked):
            continue
        if len(picked) == 1:
            text, flag = picked[0]
        else:
            text = "[" + ", ".join(t for t, _ in picked) + "]"
            spelled = [f for _, f in picked]
            flag = None if None in spelled else ",".join(spelled)
        config = json.loads(json.dumps(_SWEEP_CONFIGS[command]))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        flags = []
        if len(path) == 1 and flag is not None and gen.integers(2):
            del parent[path[-1]]
            flags = [f"--{path[-1].replace('_', '-')}", flag]
        else:
            parent[path[-1]] = "@mutant@"
        where = f"{command} {'.'.join(path)}={text[:60]} {' '.join(flags)[:80]}"
        yield where, command, json.dumps(config).replace('"@mutant@"', text), flags
        count -= 1


def test_extreme_option_values_exit_0_2_or_3(tmp_path, monkeypatch, capsys, inputs):
    """No option value, however extreme, ends in a traceback: each run
    exits 0, 2 or 3, and an exit 2 prints one error line."""
    tables = {command: sub.get_default("table") for command, sub in _SUBCOMMANDS.items()}
    assert {command: set(config) for command, config in _SWEEP_CONFIGS.items()} == \
        {command: set(table) for command, table in tables.items()}
    assert set(_SWEEP_TRAIN) == set(tables["bench"]["train"][1])
    monkeypatch.chdir(tmp_path)
    faults = []
    for where, command, text, flags in _sweep_mutants(300):
        (tmp_path / "cfg.json").write_text(text.replace("{in}", str(inputs)))
        try:
            code = main([command, "--config", "cfg.json", *flags])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape is the fault reported
            faults.append(f"{where}: {exc!r:.200}")
            continue
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        if code not in (0, 2, 3) or (code == 2 and len(errors) != 1):
            faults.append(f"{where}: exit {code}, {len(errors)} error lines")
    assert faults == []


def test_unmix_exact_names_the_stage_whose_matrix_holds_nan(tmp_path, monkeypatch, capsys):
    """A NaN orthogonality defect is rejected at load, so the error names
    the pipeline file and its stage, not the data the stage would make."""
    monkeypatch.chdir(tmp_path)
    _generate("data.csv", n=64)
    (tmp_path / "bad.json").write_text(_NAN_PIPELINE)
    assert main(["unmix-exact", "--data", "data.csv", "--pipeline", "bad.json"]) == 2
    err = capsys.readouterr().err
    assert "bad.json: stage 1: stage matrix is not orthogonal (defect nan)" in err
    assert not (tmp_path / "recovered.csv").exists()


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


# ---------------------------------------------------------------------------
# export lists


@pytest.mark.parametrize("module", [
    f"wica_lab.{m.name}" for m in pkgutil.iter_modules(wica_lab.__path__)
])
def test_every_exported_name_resolves(module):
    """A stale __all__ entry breaks `from module import *`."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


@pytest.mark.parametrize("module,unloaded", [
    ("wica_lab.cli", "concurrent.futures"),
    ("wica_lab.errors", "numpy"),
    ("wica_lab.core", "wica_lab.trainer"),
])
def test_importing_a_module_leaves_what_it_does_not_use_unloaded(module, unloaded):
    """Only bench runs a thread pool, so a process that imports the CLI, to
    run any other command, does not load concurrent.futures; and since the
    package root imports nothing, a module loads only what it imports.  A
    child process starts from a clean sys.modules."""
    script = f"import sys, {module}; print({unloaded!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(wica_lab.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
