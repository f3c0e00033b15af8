"""Workloads, timed cells, output checks, digests and per-layer metrics.

A run of one workload is a measurement window of `seconds` followed by
output checks on the last cell:

* cells are repeated with identical inputs until one more would overrun
  the window (at least one cell always runs), and every cell must
  reproduce the first one's digests;
* on untraced runs, a fixed reference computation that calls nothing in
  the package is timed before the cell and after each of its operations,
  and each operation's wall time is divided by the mean of the two
  reference times around it; the cell's sum of these is `cell_per_ref`.
  The machines this runs on change speed by 20-40% for minutes at a
  time; the reference slows down with them, a slower package does not
  move it;
* between cells, set-up is sampled in fresh child processes
  (`run.py --setup-only`), so that each sample pays what a user pays:
  interpreter start, imports, BLAS warm-up and the workload's data.
  Spreading the samples over the window matters because the machines
  this runs on change speed for tens of seconds at a time.

With tracing on, the cells run with the Tracer's wrappers installed and
are followed by replays of single layers on the workload's own state;
end-to-end metrics come only from untraced runs.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from wica_lab import cli, core, datagen, metrics, mixer, trainer, wii
from wica_lab.core import RngStream
from wica_lab.errors import WeightCollapseError, WicaError

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIX_ITERATIONS = 10
MIX_HIDDEN = 16
BATCH = 256
ROUNDTRIP_TOL = 1e-9
SETUP_REPEATS = 5
REPLAY_REPEATS = 20


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  `steps` is the training length of one cell."""

    name: str
    kind: str
    d: int
    n: int
    steps: int
    hidden: tuple[int, ...] = (128, 128, 128)


# Why each workload: see README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_d2", "sine_mixture", 2, 16384, steps=200),
        Workload("index_d16", "laplace", 16, 16384, steps=100),
    )
}


PER_LAYER_UNITS = {
    "trainer.step_ms": "ms",
    "trainer.encoder_forward_ms": "ms",
    "trainer.cost_ms": "ms",
    "trainer.grad_ms": "ms",
    "trainer.backward_ms": "ms",
    "trainer.step_unattributed_ms": "ms",
    "trainer.gflops_computed": "GFLOP/s",
    "trainer.encode_s": "s",
    "wii.point_ms": "ms",
    "wii.sample_points_ms": "ms",
    "wii.index_s": "s",
    "wii.points": "count",
    "wii.collapsed_points": "count",
    "wii.index_share": "1",
    "metrics.score_s": "s",
    "metrics.spearman_s": "s",
    "metrics.assignment_ms": "ms",
    "core.average_ranks_ms": "ms",
    "core.pearson_ms": "ms",
    "core.normalize_ms": "ms",
    "core.save_csv_s": "s",
    "core.load_csv_s": "s",
    "core.haar_ms": "ms",
    "mixer.build_s": "s",
    "mixer.mix_s": "s",
    "mixer.unmix_s": "s",
    "datagen.generate_s": "s",
    "cli.generate_s": "s",
    "cli.mix_s": "s",
    "cli.unmix_exact_s": "s",
    "cli.score_s": "s",
    "cli.wii_s": "s",
    "cli.score_metrics_share": "1",
    "trace.overhead_share": "1",
}


class OpFailed(Exception):
    """A CLI subcommand exited nonzero."""


# ---------------------------------------------------------------------------
# set-up


def warm_up() -> None:
    a = np.ones((64, 64))
    float((a @ a).sum())


@dataclass
class State:
    sources: np.ndarray
    pipeline: mixer.MixingPipeline
    mixed: np.ndarray
    cfg: trainer.TrainConfig


def setup(wl: Workload, seed: int) -> State:
    """Everything before the first timed op."""
    warm_up()
    sources = datagen.generate(datagen.SourceSpec(wl.kind, wl.d, wl.n, seed=seed))
    pipeline = mixer.build_pipeline(wl.d, MIX_ITERATIONS, MIX_HIDDEN, RngStream(seed))
    mixed = mixer.mix(pipeline, sources)
    cfg = trainer.TrainConfig(batch_size=BATCH, steps=wl.steps, seed=seed, hidden_sizes=wl.hidden)
    return State(sources, pipeline, mixed, cfg)


class Reference:
    """A fixed computation outside the package, in about the mix of work
    a cell does: a third small gemm with tanh, two thirds pure-Python
    arithmetic.  Its inputs never depend on the seed, so it measures the
    machine, not the workload."""

    def __init__(self) -> None:
        gen = np.random.default_rng(0)
        self.a = gen.standard_normal((256, 128))
        self.b = gen.standard_normal((128, 128))

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(12):
            np.tanh(self.a @ self.b)
        acc = 0
        for i in range(70_000):
            acc += i * i
        return time.perf_counter() - start

    def seconds(self) -> float:
        """The fastest of three runs, so that one interrupt does not
        count as the machine's speed."""
        return min(self._once() for _ in range(3))


class SetupSampler:
    """Seconds from spawning `run.py --setup-only` to its "ready" line,
    one child process at a time."""

    def __init__(self, name: str, seed: int, repeats: int) -> None:
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--setup-only"]
        self.repeats = repeats
        self.samples: list[float] = []

    def sample(self) -> None:
        if len(self.samples) >= self.repeats:
            return
        start = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        self.samples.append(elapsed)

    def finish(self) -> list[float]:
        while len(self.samples) < self.repeats:
            self.sample()
        return self.samples


# ---------------------------------------------------------------------------
# one run


@dataclass
class Run:
    tracer: Tracer = field(default_factory=Tracer)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    peak_rss_mb: float | None = None  # after set-up and the first cell
    reference: Reference | None = None
    # per cell: wall seconds of its operations, and their sum in reference units
    cell_seconds: list[float] = field(default_factory=list)
    cell_per_ref: list[float] = field(default_factory=list)
    _in_cell: bool = False
    _last_ref: float = 0.0

    @contextlib.contextmanager
    def cell(self):
        """One cell, recorded as a span; the ops inside it are summed."""
        self.cell_seconds.append(0.0)
        self.cell_per_ref.append(0.0)
        with self.tracer.span("bench.cell"):
            if self.reference is not None:
                self._last_ref = self.reference.seconds()
            self._in_cell = True
            try:
                yield
            finally:
                self._in_cell = False

    @contextlib.contextmanager
    def op(self, name: str):
        """One attempted operation of the workload, recorded as a span."""
        self.attempted += 1
        with self.tracer.span(name):
            start = time.perf_counter()
            yield
            elapsed = time.perf_counter() - start
        if not self._in_cell:
            return
        self.cell_seconds[-1] += elapsed
        if self.reference is not None:
            after = self.reference.seconds()
            self.cell_per_ref[-1] += elapsed / ((self._last_ref + after) / 2)
            self._last_ref = after

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append((name, bool(ok), detail))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def train_cell(run: Run, st: State, seed: int) -> dict:
    with run.op("bench.train"):
        model, trace = trainer.train(st.mixed, st.cfg)
    with run.op("bench.encode"):
        z = trainer.encode(model, st.mixed)
    with run.op("bench.score"):
        report = metrics.score(z, st.sources)
    with run.op("bench.wii_index"):
        w = wii.wii_index(z, rng=RngStream(seed))
    return {"model": model, "trace": trace, "z": z, "report": report, "wii": w}


def train_digests(out: dict, cfg: trainer.TrainConfig, tmp: Path) -> dict[str, str]:
    path = tmp / "model.json"
    trainer.save_model(path, out["model"], cfg)
    return {
        "model_json": _sha(path.read_bytes()),
        "code": _sha(np.ascontiguousarray(out["z"], dtype="<f8").tobytes()),
        "score_report": _sha(metrics.report_to_json(out["report"]).encode()),
        "wii": _sha(repr(out["wii"]).encode()),
    }


CHAIN_FILES = {
    "sources": "sources.csv",
    "mixed": "mixed.csv",
    "pipeline": "pipeline.json",
    "recovered": "recovered.csv",
    "report_mixed": "report_mixed.json",
    "report_recovered": "report_recovered.json",
    "wii_mixed": "wii_mixed.json",
    "wii_sources": "wii_sources.json",
}


def _cli(run: Run, sub: str, *args) -> None:
    with run.op(f"cli.{sub.replace('-', '_')}"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([sub, *(str(a) for a in args)])
    if code != 0:
        raise OpFailed(f"wica-lab {sub} exited {code}")


def cli_chain(run: Run, wl: Workload, seed: int, tmp: Path) -> dict[str, Path]:
    """The user's CLI path, in process: generate, mix, unmix-exact,
    score (mixed and recovered vs sources), wii (mixed, sources)."""
    f = {key: tmp / name for key, name in CHAIN_FILES.items()}
    _cli(run, "generate", "--kind", wl.kind, "--d", wl.d, "--n", wl.n,
         "--seed", seed, "--out", f["sources"])
    _cli(run, "mix", "--data", f["sources"], "--iterations", MIX_ITERATIONS,
         "--hidden", MIX_HIDDEN, "--seed", seed, "--out", f["mixed"],
         "--pipeline-out", f["pipeline"])
    _cli(run, "unmix-exact", "--data", f["mixed"], "--pipeline", f["pipeline"],
         "--out", f["recovered"])
    _cli(run, "score", f["mixed"], f["sources"], "--out", f["report_mixed"])
    _cli(run, "score", f["recovered"], f["sources"], "--out", f["report_recovered"])
    _cli(run, "wii", "--data", f["mixed"], "--seed", seed, "--out", f["wii_mixed"])
    _cli(run, "wii", "--data", f["sources"], "--seed", seed, "--out", f["wii_sources"])
    return f


def measure(run: Run, cell, digest, between, seconds: float):
    """Cells until one more would overrun `seconds`; `between` runs after
    each.  Returns the last cell's outputs and digests."""
    deadline = time.perf_counter() + seconds
    durations: list[float] = []
    first = None
    while True:
        # drop the previous cell's outputs first, so that every cell
        # starts from the same heap
        out = None
        gc.collect()
        t0 = time.perf_counter()
        with run.cell():
            out = cell(run)
        durations.append(time.perf_counter() - t0)
        if len(durations) == 1:
            run.peak_rss_mb = _peak_rss_mb()
        digests = digest(out)
        first = first or digests
        if digests != first:
            run.check("cells_identical", False, f"cell {len(durations)} digests differ")
            return out, digests
        between()
        if time.perf_counter() + statistics.median(durations) > deadline:
            run.check("cells_identical", True, f"{len(durations)} cells, same digests")
            return out, digests


# ---------------------------------------------------------------------------
# output checks


def _permutation(perm, d: int) -> bool:
    return sorted(perm) == list(range(d))


def check_training(run: Run, wl: Workload, st: State, seed: int, out: dict) -> None:
    recovered = mixer.unmix_exact(st.pipeline, st.mixed)
    err = float(np.max(np.abs(recovered - st.sources)))
    run.check("unmix_roundtrip", err <= ROUNDTRIP_TOL, f"max|err|={err:.3g} <= {ROUNDTRIP_TOL}")
    ots = metrics.score(recovered, st.sources).ots
    run.check("recovered_ots_is_1", ots == 1.0, f"ots={ots!r}")
    rep = out["report"]
    ok = _permutation(rep.assignment_ots, wl.d) and _permutation(rep.assignment_max_corr, wl.d)
    run.check("assignments_are_permutations", ok, f"{rep.assignment_ots} {rep.assignment_max_corr}")
    finite = all(np.isfinite(v) for r in out["trace"].records for v in r[1:])
    run.check("train_trace_finite", finite, f"{len(out['trace'].records)} records")
    xb = st.mixed[:BATCH]
    y = core.normalize_componentwise(trainer.encode(out["model"], xb))
    points = wii.sample_weighting_points(y, wl.d, RngStream(seed).split("bench-check"))
    total, _, _ = trainer.wica_cost(out["model"], xb, points, st.cfg)
    run.check("wica_cost_finite", bool(np.isfinite(total)), f"total={total!r}")
    run.check("wii_finite", bool(np.isfinite(out["wii"])), f"wii={out['wii']!r}")


# ---------------------------------------------------------------------------
# per-layer replay (traced runs only)


def replay_layers(run: Run, wl: Workload, seed: int, mixed: np.ndarray,
                  model: trainer.AutoEncoderModel, cfg: trainer.TrainConfig) -> dict:
    """Time single layers at the training batch shape on the workload's
    own data and model; counts how many weighting points collapse."""
    tr = run.tracer
    gen = RngStream(seed).split("bench-replay").generator()
    points_rng = RngStream(seed).split("bench-points")
    evaluated = collapsed = 0
    for _ in range(REPLAY_REPEATS):
        xb = mixed[gen.choice(mixed.shape[0], size=BATCH, replace=False)]
        code = trainer.mlp_forward(model.encoder, xb)
        with tr.span("bench.replay.normalize"):
            y = core.normalize_componentwise(code)
        points = wii.sample_weighting_points(y, wl.d, points_rng)
        with tr.span("bench.replay.point"):
            for p in points:
                evaluated += 1
                try:
                    wii.wii_at_point(y, p)
                except WeightCollapseError:
                    collapsed += 1
        with run.op("bench.replay.cost"):
            trainer.wica_cost(model, xb, points, cfg)
        with run.op("bench.replay.grad"):
            trainer.cost_gradient(model, xb, points, cfg)
    return {"wii.points": evaluated, "wii.collapsed_points": collapsed}


def _median(values: list[float], what: str) -> float:
    if not values:
        raise RuntimeError(f"no samples for {what}")
    return statistics.median(values)


def _mlp_flops_per_step(wl: Workload) -> float:
    # useful work only: one forward (2ab) and one backward (4ab) of the
    # encoder and of the decoder per step, from the layer shapes
    sizes = (wl.d, *wl.hidden, wl.d)
    weights = sum(a * b for a, b in zip(sizes, sizes[1:]))
    return 2 * 6.0 * BATCH * weights


# per-layer metric -> (span name, required parent span or None, unit scale)
_LAYER_SPANS = {
    "trainer.encoder_forward_ms": ("trainer.mlp_forward", "trainer.train", 1e3),
    "trainer.cost_ms": ("trainer.wica_cost", None, 1e3),
    "trainer.grad_ms": ("trainer.cost_gradient", None, 1e3),
    "trainer.encode_s": ("trainer.encode", None, 1.0),
    "wii.point_ms": ("wii.wii_at_point", "bench.replay.point", 1e3),
    "wii.sample_points_ms": ("wii.sample_weighting_points", "trainer.train", 1e3),
    "wii.index_s": ("wii.wii_index", None, 1.0),
    "metrics.score_s": ("metrics.score", None, 1.0),
    "metrics.spearman_s": ("metrics.spearman_distance_matrix", None, 1.0),
    "metrics.assignment_ms": ("metrics.solve_assignment", None, 1e3),
    "core.average_ranks_ms": ("core.average_ranks", None, 1e3),
    "core.pearson_ms": ("core.pearson_corr_matrix", None, 1e3),
    "core.normalize_ms": ("core.normalize_componentwise", "bench.replay.normalize", 1e3),
    "core.save_csv_s": ("core.save_csv", None, 1.0),
    "core.load_csv_s": ("core.load_csv", None, 1.0),
    "core.haar_ms": ("core.sample_haar_orthogonal", None, 1e3),
    "mixer.build_s": ("mixer.build_pipeline", None, 1.0),
    "mixer.mix_s": ("mixer.mix", None, 1.0),
    "mixer.unmix_s": ("mixer.unmix_exact", None, 1.0),
    "datagen.generate_s": ("datagen.generate", None, 1.0),
    "cli.generate_s": ("cli.generate", None, 1.0),
    "cli.mix_s": ("cli.mix", None, 1.0),
    "cli.unmix_exact_s": ("cli.unmix_exact", None, 1.0),
    "cli.score_s": ("cli.score", None, 1.0),
    "cli.wii_s": ("cli.wii", None, 1.0),
}


def layer_metrics(run: Run, wl: Workload, counts: dict,
                  baseline: float) -> dict[str, tuple[float, int | None]]:
    """Each per-layer value with the number of spans behind its median
    (None for counts and for values derived from other medians)."""
    tr = run.tracer
    out: dict[str, tuple[float, int | None]] = {}
    for metric, (name, parent, scale) in _LAYER_SPANS.items():
        spans = tr.durations(name, parent)
        out[metric] = (scale * _median(spans, metric), len(spans))
    trains = tr.durations("trainer.train")
    step = 1e3 * _median(trains, "trainer.step_ms") / wl.steps
    forward, cost, grad, point = (
        out[k][0] for k in ("trainer.encoder_forward_ms", "trainer.cost_ms",
                            "trainer.grad_ms", "wii.point_ms")
    )
    cli_score = sum(tr.durations("cli.score"))
    traced = _median(tr.durations("bench.cell"), "bench.cell")
    derived = {
        "trainer.step_ms": step,
        "trainer.backward_ms": grad - cost,
        "trainer.step_unattributed_ms": step - forward - grad,
        "trainer.gflops_computed": _mlp_flops_per_step(wl) / (step * 1e-3) / 1e9,
        "wii.index_share": wl.d * point / step,
        "cli.score_metrics_share": sum(tr.durations("metrics.score", "cli.score")) / cli_score,
        "trace.overhead_share": (traced - baseline) / baseline,
        **counts,
    }
    out.update({k: (v, None) for k, v in derived.items()})
    out["trainer.step_ms"] = (step, len(trains))
    return {k: out[k] for k in PER_LAYER_UNITS}


# ---------------------------------------------------------------------------
# the machine record


def _blas_threads() -> int | None:
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine_record(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# a whole workload


def unbounded(run: Run, wl: Workload, st: State, seed: int,
              out) -> dict[str, tuple[float, str, int | None]]:
    """Figures printed beside the end-to-end metrics but not bounded:
    the times in seconds swing with the machine's speed (cell_s is the
    numerator of cell_per_ref), the rest vary across seeds far more than
    any allowed bound."""
    info = {"cell_s": (statistics.median(run.cell_seconds), "s", len(run.cell_seconds))}
    for name, span in (("score_s", "bench.score"), ("wii_index_s", "bench.wii_index")):
        samples = run.tracer.durations(span)
        info[name] = (statistics.median(samples), "s", len(samples))
    trains = run.tracer.durations("bench.train")
    initial, _ = trainer.train(st.mixed, replace(st.cfg, steps=0))
    wii0 = wii.wii_index(trainer.encode(initial, st.mixed), rng=RngStream(seed))
    info["train_steps_per_s"] = (wl.steps / statistics.median(trains), "steps/s", len(trains))
    info["ots"] = (out["report"].ots, "1", None)
    info["wii_ratio"] = (out["wii"] / wii0, "1", None)
    return info


@dataclass
class Result:
    workload: str
    trace: bool
    metrics: dict[str, tuple[float, str, int | None]]
    info: dict[str, tuple[float, str, int | None]]
    digests: dict[str, str]
    run: Run
    machine: dict

    @property
    def correct(self) -> bool:
        return self.run.failed == 0 and not self.run.errors

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.run.attempted,
            "failed": self.run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in self.metrics.items()},
        }

    def lines(self) -> list[str]:
        out = [f"== {self.workload} (seed {self.machine['seed']}, trace {int(self.trace)})",
               "machine " + json.dumps(self.machine, sort_keys=True)]
        for kind, table in (("metric", self.metrics), ("info", self.info)):
            for name, (value, unit, n) in table.items():
                out.append(f"{kind} {name} {value!r} {unit}" + (f" (median of {n})" if n else ""))
        out += [f"digest {k} sha256:{v}" for k, v in self.digests.items()]
        out += [f"check {k} {'ok' if ok else 'FAILED'} {detail}" for k, ok, detail in self.run.checks]
        out += [f"error {e}" for e in self.run.errors]
        return out

    def save(self, seed: int) -> None:
        stem = f"{self.workload}-seed{seed}-trace{int(self.trace)}"
        doc = {"machine": self.machine, **self.summary(), "digests": self.digests,
               "info": {k: v for k, (v, _, _) in self.info.items()},
               "checks": [list(c) for c in self.run.checks], "errors": self.run.errors}
        (OUT / f"{stem}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        if self.trace:
            self.run.tracer.write(OUT / f"{stem}.spans.json")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 setup_repeats: int = SETUP_REPEATS) -> Result:
    st = setup(wl, seed)
    run = Run()
    info: dict[str, tuple[float, str, int | None]] = {}
    digests: dict[str, str] = {}
    metrics_out: dict[str, tuple[float, str, int | None]] = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_name:
        tmp = Path(tmp_name)
        def cell(r: Run):
            return train_cell(r, st, seed)

        def digest(out):
            return train_digests(out, st.cfg, tmp)
        try:
            if trace:
                out, digests, layers = _traced(run, wl, st, seed, seconds, cell, digest, tmp)
                for name, (value, n) in layers.items():
                    metrics_out[name] = (value, PER_LAYER_UNITS[name], n)
            else:
                sampler = SetupSampler(wl.name, seed, setup_repeats)
                run.reference = Reference()
                out, digests = measure(run, cell, digest, sampler.sample, seconds)
                samples = sampler.finish()
                metrics_out["setup_s"] = (statistics.median(samples), "s", len(samples))
                metrics_out["cell_per_ref"] = (statistics.median(run.cell_per_ref), "1",
                                               len(run.cell_per_ref))
                metrics_out["peak_rss_mb"] = (run.peak_rss_mb, "MB", None)
                info.update(unbounded(run, wl, st, seed, out))
            check_training(run, wl, st, seed, out)
        except (WicaError, OpFailed) as exc:
            run.failed += 1
            run.errors.append(f"{type(exc).__name__}: {exc}")
    info["failed_ratio"] = (run.failed / max(run.attempted, 1), "1", None)
    return Result(wl.name, trace, metrics_out, info, digests, run, machine_record(seed))


def _traced(run: Run, wl: Workload, st: State, seed: int, seconds: float,
            cell, digest, tmp: Path):
    """Traced cells, one untraced cell for the overhead, then replays."""
    tr = run.tracer
    with tr.installed():
        out, digests = measure(run, cell, digest, lambda: None, seconds)
    untraced = Run()
    start = time.perf_counter()
    cell(untraced)
    baseline = time.perf_counter() - start
    run.attempted += untraced.attempted
    with tr.installed(), tr.span("bench.replay"):
        # the CLI chain at this workload's shape gives the file I/O,
        # mixing and cli layers
        chain_dir = tmp / "chain"
        chain_dir.mkdir()
        cli_chain(run, wl, seed, chain_dir)
        counts = replay_layers(run, wl, seed, st.mixed, out["model"], st.cfg)
    return out, digests, layer_metrics(run, wl, counts, baseline)
