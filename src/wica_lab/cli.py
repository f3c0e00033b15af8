"""Command-line entry points.

Every subcommand reads and writes the package's file formats, records a
manifest next to its primary output (resolved config, config hash,
input digests), and never touches a wall clock, so rerunning a command
with the same flags reproduces its artifacts byte for byte.

Each subcommand declares its options once, in a table of (parser,
default) entries registered with it.  Each quantity has one parser,
beside the code that consumes it, shared by every table and file loader:
a seed (core), a source kind, data dimension and row count (datagen), a
stage count and coupling width (mixer), and TrainConfig's fields.  Every
key of a table is both a --flag and a --config key, and main resolves
the table before the command reads any input: every value, from a flag,
a positional, a --config JSON file or bench's "train" object, is read by
its option's parser.  A value a parser cannot read exactly or finds out
of range, or a key the table does not declare, is a usage error.  main
passes the command its parsed config and records the manifest under the
command's name, so a flag and a config file that describe the same run
record the same config and config hash.

Exit codes: 0 success; 2 a malformed option or input file (unreadable, not
UTF-8, or not the CSV or JSON its reader expects) or a size numpy cannot
allocate; 3 numerical failures (weight collapse, divergence, degenerate data).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import datagen, metrics, mixer, trainer, wii
from .core import (
    _SEED, RngStream, _at_least, _config_options, _distinct, _int, _list_of, _object,
    _parse_options, _read_json_object, _str, as_data, load_csv, normalize_componentwise, save_csv,
)
from .errors import DimensionError, FileFormatError, NonFiniteError, WicaError

__all__ = ["main"]


# ---------------------------------------------------------------------------
# manifest plumbing


def _write_manifest(command: str, config: dict, inputs: list[Path],
                    outputs: list[Path]) -> None:
    doc = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "inputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(inputs)},
        "outputs": sorted(str(p) for p in outputs),
    }
    manifest = outputs[0].with_name(outputs[0].name + ".manifest.json")
    manifest.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_dataset(path: Path) -> np.ndarray:
    return as_data(load_csv(path), min_cols=2, name="dataset")


# ---------------------------------------------------------------------------
# option tables


_REQUIRED = object()  # default of an option every run must set


def _resolve(args: argparse.Namespace, table: dict) -> dict:
    """defaults < config file < flags < a positional <key>_pos; unknown keys rejected."""
    given = {} if args.config is None else _read_json_object(args.config)
    for key in table:
        value = getattr(args, f"{key}_pos", None)
        value = getattr(args, key, None) if value is None else value
        if value is not None:
            given[key] = value
    cfg = _parse_options(table, given)
    missing = [f"--{key.replace('_', '-')}" for key, value in cfg.items() if value is _REQUIRED]
    if missing:
        raise FileFormatError(f"{args.command} needs {' and '.join(missing)}")
    return cfg


_SPEC = datagen.SourceSpec._FIELDS
_GENERATE = {
    "kind": (datagen._KIND, "uniform"), "d": (_SPEC["d"], 2), "n": (_SPEC["n"], 1000),
    "seed": (_SEED, 0), "params": (_object, {}), "out": (_str, "sources.csv"),
}
_MIX = {
    "data": (_str, _REQUIRED), "iterations": (mixer._ITERATIONS, 10),
    "hidden": (mixer._HIDDEN, 16), "seed": (_SEED, 0), "out": (_str, "mixed.csv"),
    "pipeline_out": (_str, "pipeline.json"),
}
_UNMIX_EXACT = {
    "data": (_str, _REQUIRED), "pipeline": (_str, _REQUIRED), "out": (_str, "recovered.csv"),
}
_TRAIN_CONFIG = _config_options(trainer.TrainConfig)
_TRAIN = {
    "data": (_str, _REQUIRED), **_TRAIN_CONFIG,
    "model_out": (_str, "model.json"), "trace_out": (_str, "trace.csv"),
}
_ENCODE = {"model": (_str, _REQUIRED), "data": (_str, _REQUIRED), "out": (_str, "encoded.csv")}
_SCORE = {
    "z": (_str, _REQUIRED), "sources": (_str, _REQUIRED), "out": (_str, "report.json"),
}
_WII = {
    "data": (_str, _REQUIRED), "num_points": (wii._NUM_POINTS, None), "seed": (_SEED, 0),
    "out": (_str, "wii.json"),
}
_PLOT_DATA = {
    "data": (_str, _REQUIRED), "out_dir": (_str, "plots"), "cols": (_list_of(_int), (0, 1)),
}
# each grid cell trains with its own seed from "seeds"
_BENCH_TRAIN = _config_options(trainer.TrainConfig, "seed")


def _bench_train(value) -> dict:
    return _parse_options(_BENCH_TRAIN, _object(value))


_bench_train.metavar = _object.metavar
_BENCH = {
    "dims": (_distinct(_list_of(_SPEC["d"])), (2,)),
    "mixes": (_distinct(_list_of(mixer._ITERATIONS)), (10,)),
    "seeds": (_distinct(_list_of(_SEED)), (0,)), "n": (_SPEC["n"], 16384),
    "source_kind": (datagen._KIND, "sine_mixture"), "source_params": (_object, {}),
    "source_seed": (_SEED, 0), "mix_seed": (_SEED, 0), "mix_hidden": (mixer._HIDDEN, 16),
    "train": (_bench_train, _bench_train({})),
    "out_dir": (_str, "bench"), "threads": (_at_least(_int, 1), 1),
}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(cfg: dict, record) -> int:
    spec = datagen.SourceSpec(cfg["kind"], cfg["d"], cfg["n"], cfg["seed"], cfg["params"])
    data = datagen.generate(spec)
    out = Path(cfg["out"])
    save_csv(out, data)
    record([], [out])
    print(f"wrote {out}: {data.shape[0]} rows x {data.shape[1]} columns")
    return 0


def _cmd_mix(cfg: dict, record) -> int:
    src_path = Path(cfg["data"])
    sources = normalize_componentwise(_load_dataset(src_path))
    pipeline = mixer.build_pipeline(
        sources.shape[1], cfg["iterations"], cfg["hidden"], RngStream(cfg["seed"])
    )
    mixed = mixer.mix(pipeline, sources)
    out = Path(cfg["out"])
    pipe_out = Path(cfg["pipeline_out"])
    save_csv(out, mixed)
    mixer.save_pipeline(pipe_out, pipeline)
    record([src_path], [out, pipe_out])
    print(f"wrote {out} and {pipe_out} ({len(pipeline)} stages)")
    return 0


def _cmd_unmix_exact(cfg: dict, record) -> int:
    data_path, pipe_path = Path(cfg["data"]), Path(cfg["pipeline"])
    pipeline = mixer.load_pipeline(pipe_path)
    recovered = mixer.unmix_exact(pipeline, _load_dataset(data_path))
    out = Path(cfg["out"])
    save_csv(out, recovered)
    record([data_path, pipe_path], [out])
    print(f"wrote {out}")
    return 0


def _cmd_train(cfg: dict, record) -> int:
    data_path = Path(cfg["data"])
    data = _load_dataset(data_path)
    tc = trainer.TrainConfig(**{key: cfg[key] for key in _TRAIN_CONFIG})
    model, trace = trainer.train(data, tc)
    model_out, trace_out = Path(cfg["model_out"]), Path(cfg["trace_out"])
    trainer.save_model(model_out, model, tc)
    trainer.save_trace(trace_out, trace)
    record([data_path], [model_out, trace_out])
    if trace.records:
        last = trace.records[-1]
        print(
            f"step {last.step}: rec_error={last.rec_error:.6g} "
            f"wii={last.wii:.6g} total={last.total:.6g}"
        )
    print(f"wrote {model_out} and {trace_out}")
    return 0


def _cmd_encode(cfg: dict, record) -> int:
    model_path, data_path = Path(cfg["model"]), Path(cfg["data"])
    model, _ = trainer.load_model(model_path)
    z = trainer.encode(model, _load_dataset(data_path))
    out = Path(cfg["out"])
    save_csv(out, z)
    record([model_path, data_path], [out])
    print(f"wrote {out}")
    return 0


def _cmd_score(cfg: dict, record) -> int:
    z_path, s_path = Path(cfg["z"]), Path(cfg["sources"])
    report = metrics.score(_load_dataset(z_path), _load_dataset(s_path))
    out = Path(cfg["out"])
    out.write_text(metrics.report_to_json(report))
    record([z_path, s_path], [out])
    print(f"ots={report.ots:.6f} max_corr={report.max_corr:.6f}")
    return 0


def _cmd_wii(cfg: dict, record) -> int:
    data_path = Path(cfg["data"])
    data = _load_dataset(data_path)
    value = wii.wii_index(data, cfg["num_points"], RngStream(cfg["seed"]))
    out = Path(cfg["out"])
    doc = {
        "wii": value,
        "n": data.shape[0],
        "d": data.shape[1],
        "num_points": wii._point_count(cfg["num_points"], data.shape[1]),
        "seed": cfg["seed"],
    }
    out.write_text(json.dumps(doc, sort_keys=True) + "\n")
    record([data_path], [out])
    print(f"wii={value:.6g}")
    return 0


def _cmd_plot_data(cfg: dict, record) -> int:
    data_path = Path(cfg["data"])
    data = _load_dataset(data_path)
    d = data.shape[1]
    if len(cfg["cols"]) != 2 or not all(0 <= c < d for c in cfg["cols"]):
        raise DimensionError(f"cols must be two column indices below d={d}, got {cfg['cols']}")
    a, b = cfg["cols"]
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    scatter = out_dir / "scatter.csv"
    save_csv(scatter, data[:, [a, b]])
    outputs = [scatter]
    for j in range(d):
        counts, edges = np.histogram(data[:, j], bins=50)
        hist_path = out_dir / f"hist_c{j}.csv"
        with hist_path.open("w", newline="") as fh:
            fh.write("bin_left,bin_right,count\n")
            for k in range(50):
                fh.write(f"{float(edges[k])!r},{float(edges[k + 1])!r},{counts[k]}\n")
        outputs.append(hist_path)
    record([data_path], outputs)
    print(f"wrote {len(outputs)} files under {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# the benchmark grid


def _bench_one(d: int, iterations: int, seed: int, cfg: dict) -> dict:
    spec = datagen.SourceSpec(
        cfg["source_kind"], d, cfg["n"], cfg["source_seed"], cfg["source_params"]
    )
    sources = datagen.generate(spec)
    pipeline = mixer.build_pipeline(
        d, iterations, cfg["mix_hidden"], RngStream(cfg["mix_seed"])
    )
    mixed = mixer.mix(pipeline, sources)
    model, _ = trainer.train(mixed, trainer.TrainConfig(**cfg["train"], seed=seed))
    report = metrics.score(trainer.encode(model, mixed), sources)
    return {"ots": report.ots, "max_corr": report.max_corr}


def _cmd_bench(cfg: dict, record) -> int:
    from concurrent.futures import ThreadPoolExecutor  # bench alone runs threads

    if not (cfg["dims"] and cfg["mixes"] and cfg["seeds"]):
        raise FileFormatError("bench needs nonempty dims, mixes and seeds lists")
    datagen.resolve_params(cfg["source_kind"], cfg["source_params"])
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = [(d, it, seed) for d in cfg["dims"] for it in cfg["mixes"] for seed in cfg["seeds"]]

    def job(key: tuple[int, int, int]) -> tuple[tuple[int, int, int], dict]:
        d, it, seed = key
        try:
            return key, {"status": "ok", **_bench_one(d, it, seed, cfg)}
        except WicaError as exc:
            return key, {"status": "failed", "error": str(exc)}

    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        results = dict(pool.map(job, runs))

    runs_path = out_dir / "runs.csv"
    with runs_path.open("w", newline="") as fh:
        fh.write("d,iterations,seed,status,ots,max_corr,error\n")
        for key in sorted(results):
            r = results[key]
            ots_s = repr(r["ots"]) if r["status"] == "ok" else ""
            mc_s = repr(r["max_corr"]) if r["status"] == "ok" else ""
            err = r.get("error", "").replace('"', "'")
            fh.write(f'{key[0]},{key[1]},{key[2]},{r["status"]},{ots_s},{mc_s},"{err}"\n')

    summary_path = out_dir / "summary.csv"
    with summary_path.open("w", newline="") as fh:
        fh.write("d,iterations,runs,ots_mean,ots_std,max_corr_mean,max_corr_std\n")
        for d in sorted(cfg["dims"]):
            for it in sorted(cfg["mixes"]):
                cell = [
                    results[(d, it, s)] for s in cfg["seeds"]
                    if results[(d, it, s)]["status"] == "ok"
                ]
                if cell:
                    ots_v = np.array([r["ots"] for r in cell])
                    mc_v = np.array([r["max_corr"] for r in cell])
                    fh.write(
                        f"{d},{it},{len(cell)},"
                        f"{float(ots_v.mean())!r},{float(ots_v.std())!r},"
                        f"{float(mc_v.mean())!r},{float(mc_v.std())!r}\n"
                    )
                else:
                    fh.write(f"{d},{it},0,,,,\n")

    record([], [summary_path, runs_path])
    failed = sum(1 for r in results.values() if r["status"] != "ok")
    print(f"{len(runs) - failed}/{len(runs)} runs succeeded; wrote {summary_path}")
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wica-lab",
        description="Nonlinear ICA toolkit: generate, mix, train, score.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, table, help_ in (
        ("generate", _cmd_generate, _GENERATE, "synthesize independent sources"),
        ("mix", _cmd_mix, _MIX, "apply an invertible nonlinear mixing"),
        ("unmix-exact", _cmd_unmix_exact, _UNMIX_EXACT, "invert a saved mixing pipeline"),
        ("train", _cmd_train, _TRAIN, "fit the unmixing autoencoder"),
        ("encode", _cmd_encode, _ENCODE, "apply a trained encoder"),
        ("score", _cmd_score, _SCORE, "OTS and max_corr against true sources"),
        ("wii", _cmd_wii, _WII, "weighted independence index of a dataset"),
        ("bench", _cmd_bench, _BENCH, "run a (dims x mixes x seeds) grid"),
        ("plot-data", _cmd_plot_data, _PLOT_DATA, "scatter and 50-bin marginals as CSV"),
    ):
        p = subs.add_parser(name, help=help_)
        p.add_argument("--config", help="JSON file with defaults for this command")
        for key, (parse, _) in table.items():
            p.add_argument(
                f"--{key.replace('_', '-')}", dest=key, metavar=getattr(parse, "metavar", None)
            )
        p.set_defaults(func=func, table=table)
    score = subs.choices["score"]
    score.add_argument("z_pos", nargs="?", metavar="retrieved.csv")
    score.add_argument("sources_pos", nargs="?", metavar="sources.csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args, args.table)
        # the command records its manifest as record(inputs, outputs)
        return int(args.func(cfg, partial(_write_manifest, args.command, cfg)))
    except (FileFormatError, DimensionError, NonFiniteError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WicaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
