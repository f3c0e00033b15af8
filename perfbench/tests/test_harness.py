"""Self-tests of the benchmark on tiny shapes.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def tiny(wl: harness.Workload) -> harness.Workload:
    return replace(wl, d=min(wl.d, 4), n=512, steps=3, hidden=(8,))


def run(name: str, trace: bool) -> harness.Result:
    return harness.run_workload(
        tiny(harness.WORKLOADS[name]), SEED, seconds=0, trace=trace, setup_repeats=1
    )


@pytest.fixture(scope="module")
def results():
    return {
        (name, trace): run(name, trace)
        for name in harness.WORKLOADS for trace in (False, True)
    }


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_in_the_spec_is_emitted(results, trace):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    for name in harness.WORKLOADS:
        result = results[(name, trace)]
        assert result.correct, result.lines()
        emitted = result.summary()["metrics"]
        assert {k: v["unit"] for k, v in emitted.items()} == expected, name
        assert all(isinstance(v["value"], (int, float)) for v in emitted.values())


def test_child_spans_lie_within_their_parent(results):
    for name in harness.WORKLOADS:
        spans = results[(name, True)].run.tracer.spans
        assert len(spans) > 10
        for span_name, start, end, parent in spans:
            assert start <= end, span_name
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                assert p_start <= start and end <= p_end, (span_name, spans[parent][0])


def test_same_seed_gives_the_same_digests(results):
    for name in harness.WORKLOADS:
        first = results[(name, False)].digests
        assert first and run(name, False).digests == first, name


def test_a_directory_without_the_package_exits_nonzero_without_a_result():
    harness.OUT.mkdir(exist_ok=True)
    bare = harness.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_d2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_a_failed_check_makes_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(harness, "ROUNDTRIP_TOL", -1.0)
    result = run("paper_d2", False)
    assert not result.correct
    summary = result.summary()
    assert summary["failed"] >= 1 and summary["correct"] is False
    assert any(name == "unmix_roundtrip" and not ok for name, ok, _ in result.run.checks)


class FixedReference:
    """A reference that always takes half a second."""

    def seconds(self) -> float:
        return 0.5


def test_cell_per_ref_sums_each_op_over_its_reference():
    run_ = harness.Run(reference=FixedReference())
    with run_.op("outside"):
        pass
    with run_.cell():
        for name in ("a", "b"):
            with run_.op(name):
                sum(range(10_000))
    assert len(run_.cell_seconds) == len(run_.cell_per_ref) == 1
    ops = sum(run_.tracer.durations("a") + run_.tracer.durations("b"))
    assert run_.cell_seconds[0] <= ops
    assert run_.cell_per_ref[0] == pytest.approx(run_.cell_seconds[0] / 0.5)
