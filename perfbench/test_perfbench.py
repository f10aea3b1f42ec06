"""The benchmark's own tests.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench -q

Each workload runs for two seconds through the real command line; the
output check, the trace wrappers and the refusal outside a checkout are
tested directly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["REPRO_KERNEL_JIT"] = "0"

import check  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("report-cli", "sweep-narrow", "sweep-wide", "service-mix")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload: str, trace: int, seed: int = 7, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_fails_nothing(workload: str, trace: int) -> None:
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr[-2000:]
    assert result["attempted"] >= 1
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    if trace:
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        # Traced self times never exceed the op wall.
        assert 0.0 <= metrics["trace.unattributed_frac"] <= 0.10
        assert metrics["runtime.engine.runs.single"] == 0.0
        assert metrics["runtime.engine.runs.scalar"] == 0.0
    else:
        # paper_err_db needs a modulator2 or chopper op, which a 2 s run
        # may not reach; every other metric is never 0.
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert metrics.pop("paper_err_db") >= 0.0
        assert all(value > 0.0 for value in metrics.values())


def test_benchmark_json_matches_the_runner() -> None:
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(run.WORKLOADS) == sorted(WORKLOADS)


def test_two_runs_give_identical_digests() -> None:
    from repro.metrics.report import build_report
    from repro.runtime.sweeps import run_sweep, sweep_spec_for_design

    references = check.load_references()
    first, second = (
        check.manifest_digest(build_report("delay-line", n_samples=check.REPORT_SAMPLES).as_dict())
        for _ in range(2)
    )
    assert first == second == references["report"][check.report_key("delay-line", 16384, 1.0)]
    spec = sweep_spec_for_design(
        "modulator1", n_samples=check.SWEEP_SAMPLES, levels_db=check.NARROW_LEVELS
    )
    digests = {check.sweep_digest(run_sweep(spec).metrics) for _ in range(2)}
    assert digests == {references["sweep-narrow"]["modulator1"]}


def test_known_bad_outputs_count_as_failed() -> None:
    from repro.metrics.report import build_report

    clamped = build_report("modulator2", n_samples=8192).as_dict()
    assert check.clamped(clamped)
    assert "clamp" in check.check_manifest(clamped, check.manifest_digest(clamped))

    good = build_report("delay-line", n_samples=check.REPORT_SAMPLES).as_dict()
    key = check.report_key("delay-line", check.REPORT_SAMPLES, 1.0)
    assert check.check_manifest(good, check.load_references()["report"][key]) is None
    assert "digest" in check.check_manifest(good, "0" * 20)

    # The same corruption, seen by a real report-cli op, is a failed op.
    ctx = run.Context("report-cli", seed=1, seconds=1.0, trace=False)
    try:
        ctx.references = {"report": {key: "0" * 20}}
        op = run.ReportCli(ctx).op("delay-line", traced=False, pycache=ctx.pycache)
    finally:
        ctx.close()
    assert op["why"] == "manifest digest differs from the reference"
    assert op["samples"] == 0


def test_wrappers_bind_at_every_import_site() -> None:
    import repro.cli  # noqa: F401 - load every module that binds a target
    import repro.service  # noqa: F401
    from repro import metrics
    from repro.runtime import kernels

    spans = tracer.Tracer()
    tracer.install_program(spans, service=True)
    try:
        sites = set(spans.sites)
        for site in [
            ("repro.systems.testbench", "compute_spectrum"),
            ("repro.systems.testbench", "measure_tone"),
            ("repro.systems.testbench", "check_design"),
            ("repro.runtime.sweeps", "compute_spectrum"),
            ("repro.runtime.sweeps", "measure_tone"),
            ("repro.runtime.kernels", "run_kernel"),
            ("repro.metrics", "collect_provenance"),
            ("repro.metrics.provenance", "collect_provenance"),
            ("repro.service.app", "normalize_request"),
        ]:
            assert site in sites, site
        # runtime/single.py imports run_kernel lazily from the package.
        assert kernels.run_kernel.__wrapped__ is not None
        # Called through the package, as the CLI does.
        metrics.build_report("modulator1", n_samples=check.REPORT_SAMPLES)
    finally:
        spans.uninstall()
    assert not hasattr(kernels.run_kernel, "__wrapped__")
    finished = spans.dump()
    names = {span[0] for span in finished}
    assert {"runtime.kernels.run", "analysis.spectrum", "erc.preflight",
            "runtime.sweeps.run", "systems.testbench.measure"} <= names
    root = next(span for span in finished if span[0] == "metrics.build_report")
    own = tracer.self_times(finished)
    assert all(value >= 0.0 for value in own)
    assert sum(own) <= root[2] - root[1] + 1e-9


def test_reference_clock_integrates_the_probed_speed() -> None:
    # One probe a second: nominal speed, then half speed from t = 10 s.
    samples = [[float(t), probe.NOMINAL_S] for t in range(10)]
    samples += [[float(t), 2.0 * probe.NOMINAL_S] for t in range(10, 20)]
    clock = probe.ReferenceClock(samples)
    assert clock(5.0) - clock(2.0) == pytest.approx(3.0)
    assert clock(18.0) - clock(13.0) == pytest.approx(2.5)
    # Past either end the end speeds extend, and time never runs back.
    assert clock(30.0) - clock(25.0) == pytest.approx(2.5)
    times = [-5.0 + 0.25 * i for i in range(120)]
    assert all(clock(a) < clock(b) for a, b in zip(times, times[1:]))


def test_refuses_to_run_outside_a_checkout(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = _run("sweep-narrow", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
