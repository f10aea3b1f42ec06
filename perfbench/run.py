"""The repo benchmark: four workloads through the public entry points.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-narrow --seed 1 --seconds 20 --trace 0

Workloads (``perfbench/README.md`` gives the reasons and the metrics):

* ``report-cli``   -- a fresh ``python -m repro report`` process per op;
* ``sweep-narrow`` -- in-process ``run_sweep`` on the 7-level Fig. 7 grid;
* ``sweep-wide``   -- in-process ``run_sweep`` on a 33-level grid;
* ``service-mix``  -- two closed-loop clients against ``repro serve``.

Each run pins itself and its children to one CPU beside the host-speed
probe of ``probe.py``, sets up three times (the median is ``setup_s``),
keeps the last set-up, measures closed-loop ops for ``--seconds`` and
checks every output against ``references.json``.  Every duration it
reports is read on the probe's reference clock.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` measures half the time untraced
and half with the layer wrappers of ``tracer.py`` installed, and prints
the per-layer metrics.  The last line of stdout is one JSON object.

Everything the run writes goes under ``perfbench/out/``: a scratch
directory (bytecode cache, sweep cache, ledgers, manifests) removed at
exit, and ``<workload>.json`` with the environment, the metrics and,
for a traced run, the per-layer table and the spans.
"""

from __future__ import annotations

import os
import sys

# Bytecode goes only where PYTHONPYCACHEPREFIX points, never into the
# checkout.
sys.dont_write_bytecode = sys.dont_write_bytecode or not os.environ.get(
    "PYTHONPYCACHEPREFIX"
)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections.abc import Callable, Iterator  # noqa: E402
from typing import Any  # noqa: E402

import check  # noqa: E402
import probe  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Per-op deadline for child processes and service round trips.
OP_TIMEOUT_S = 120.0

#: Tail percentile of each workload: the highest round percentile with
#: ten ops beyond it at a 20 s run's typical op count (report-cli ~30
#: ops, sweep-narrow ~45, service-mix 120-250).  sweep-wide holds ~14
#: ops, too few for that rule; it reports its p75 as well.
TAIL_PERCENTILE: dict[str, float] = {
    "report-cli": 70.0,
    "sweep-narrow": 75.0,
    "sweep-wide": 75.0,
    "service-mix": 90.0,
}

#: One round of the sweep and report workloads, shuffled per round by
#: the seed.  Ops of modulator2 (the paper's Fig. 7 device) and the
#: chopper take about equally long and form two thirds of each round,
#: so the median op lands inside that class, not on the boundary
#: between two designs' run times, however a run's last round is cut.
DESIGN_CYCLE: tuple[str, ...] = (
    "modulator2",
    "modulator2",
    "modulator2",
    "chopper",
    "delay-line",
    "modulator1",
)

#: Service request classes, in blocks of ten shuffled by the seed
#: (4:3:3), so every run sends the same share of each class.
SERVICE_CLASSES: tuple[str, ...] = ("repeat", "shared", "fresh")
SERVICE_BLOCK: tuple[str, ...] = ("repeat",) * 4 + ("shared",) * 3 + ("fresh",) * 3

#: Sweep settle samples (``sweep_spec_for_design``) and the 8K lanes of
#: the compact report sweep.
SETTLE = 256
REPORT_SWEEP_SAMPLES = 1 << 13
REPORT_SWEEP_LANES = 5
#: The delay-line report's zero-input noise run.
DELAY_QUIET_SAMPLES = 1 << 13

#: Instrument counters read from the program, by metric key.
INSTRUMENTS: dict[str, tuple[str, dict[str, str]]] = {
    "cache.hits": ("repro.cache.hits", {}),
    "cache.misses": ("repro.cache.misses", {}),
    "cache.bytes_stored": ("repro.cache.bytes_stored", {}),
    "executor.shards": ("repro.executor.shards", {}),
    "executor.retries": ("repro.executor.retries", {}),
    "executor.timeouts": ("repro.executor.timeouts", {}),
    "engine.kernel": ("repro.engine.runs", {"engine": "kernel"}),
    "engine.batch": ("repro.engine.runs", {"engine": "batch"}),
    "engine.single": ("repro.engine.runs", {"engine": "single"}),
    "engine.scalar": ("repro.engine.runs", {"engine": "scalar"}),
    "single.fallbacks": ("repro.single.fallbacks", {}),
    "batch.refusals": ("repro.batch.refusals", {}),
    "service.submitted": ("repro.service.submitted", {}),
    "service.executed": ("repro.service.executed", {}),
    "service.dedup_completed": ("repro.service.dedup_hits", {"mode": "completed"}),
    "service.dedup_coalesced": ("repro.service.dedup_hits", {"mode": "coalesced"}),
}

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("sim_ksamples_per_s", "ksamples/s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("paper_err_db", "dB"),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_numpy_s", "s"),
    ("cli.modules_loaded", "count"),
    ("service.normalize_s", "s/op"),
    ("service.http_s", "s/op"),
    ("service.queue_wait_s", "s"),
    ("service.run_s", "s"),
    ("service.repeat_p50_s", "s"),
    ("service.shared_p50_s", "s"),
    ("service.fresh_p50_s", "s"),
    ("service.executed", "count/op"),
    ("service.dedup_completed", "count/op"),
    ("service.dedup_coalesced", "count/op"),
    ("service.dedup_ratio", "ratio"),
    ("runtime.cache.loads", "count/op"),
    ("runtime.cache.hits", "count/op"),
    ("runtime.cache.hit_ratio", "ratio"),
    ("runtime.cache.load_s", "s/op"),
    ("runtime.cache.stores", "count/op"),
    ("runtime.cache.store_s", "s/op"),
    ("runtime.cache.bytes_stored", "B/op"),
    ("runtime.sweeps.run_s", "s/op"),
    ("runtime.executor.shards", "count/op"),
    ("runtime.executor.retries", "count/op"),
    ("runtime.executor.timeouts", "count/op"),
    ("runtime.engine.runs.kernel", "count/op"),
    ("runtime.engine.runs.batch", "count/op"),
    ("runtime.engine.runs.single", "count/op"),
    ("runtime.engine.runs.scalar", "count/op"),
    ("runtime.single.fallbacks", "count/op"),
    ("runtime.batch.refusals", "count/op"),
    ("runtime.kernels.build_spec_s", "s/op"),
    ("runtime.kernels.compile_s", "s/op"),
    ("runtime.kernels.compiles", "count/op"),
    ("runtime.kernels.run_s", "s/op"),
    ("runtime.kernels.ksamples_per_s", "ksamples/s"),
    ("runtime.batch.run_s", "s/op"),
    ("runtime.batch.lanes", "count/op"),
    ("runtime.batch.ksamples_per_s", "ksamples/s"),
    ("systems.testbench.measure_s", "s/op"),
    ("systems.stimulus.generate_s", "s/op"),
    ("analysis.spectra", "count/op"),
    ("analysis.spectrum_s", "s/op"),
    ("analysis.measure_tone_s", "s/op"),
    ("erc.preflight_s", "s/op"),
    ("metrics.build_report_s", "s/op"),
    ("metrics.provenance_s", "s/op"),
    ("metrics.manifest_write_s", "s/op"),
    ("observability.ledger.appends", "count/op"),
    ("observability.ledger.append_s", "s/op"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


# -- small helpers ---------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default), ``q`` in 0..100."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def instrument_counts(snapshot: dict[str, Any] | None) -> dict[str, float]:
    """Sum the :data:`INSTRUMENTS` counters of one snapshot document."""
    instruments = (snapshot or {}).get("instruments", {})
    counts: dict[str, float] = {}
    for key, (name, labels) in INSTRUMENTS.items():
        total = 0.0
        for series in instruments.get(name, {}).get("series", []):
            series_labels = series.get("labels", {})
            if all(series_labels.get(k) == v for k, v in labels.items()):
                total += float(series.get("value", series.get("count", 0.0)))
        counts[key] = total
    return counts


def count_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after.get(key, 0.0) - before.get(key, 0.0) for key in INSTRUMENTS}


def add_counts(total: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        total[key] = total.get(key, 0.0) + value


def report_samples(design: str, n_samples: int, sweep_ran: bool) -> int:
    """Clock cycles one ``build_report`` simulates (stimulus plus settle)."""
    samples = n_samples + SETTLE
    if design == "delay-line":
        return samples + DELAY_QUIET_SAMPLES
    if sweep_ran:
        samples += REPORT_SWEEP_LANES * (REPORT_SWEEP_SAMPLES + SETTLE)
    return samples


def design_order(rng: random.Random) -> Iterator[str]:
    """Yield designs round by round, each round a seeded shuffle."""
    while True:
        round_ = list(DESIGN_CYCLE)
        rng.shuffle(round_)
        yield from round_


class Context:
    """Run-wide settings: paths, seed, child environment."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.references = check.load_references()
        os.makedirs(OUT, exist_ok=True)
        self.scratch = os.path.join(OUT, f"run-{os.getpid()}")
        os.makedirs(self.scratch, exist_ok=True)
        self._dirs = 0
        self.pycache = self.fresh_dir("pycache")

    def fresh_dir(self, stem: str) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"{stem}-{self._dirs}")
        os.makedirs(path)
        return path

    def env(self, pycache: str | None = None) -> dict[str, str]:
        """The pinned, hermetic environment of every child process."""
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update(
            PYTHONPATH=SRC,
            PYTHONPYCACHEPREFIX=pycache or self.pycache,
            REPRO_KERNEL_JIT="0",
            REPRO_LEDGER_DIR=os.path.join(self.scratch, "ledger"),
            REPRO_CACHE_DIR=os.path.join(self.scratch, "cache"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        return env

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


Interval = tuple[float, float]


def python_runs(ctx: Context, code: str, repeats: int = 3) -> tuple[list[Interval], str]:
    """Start and end of each ``python -c code`` run, and the last stdout."""
    runs, output = [], ""
    for _ in range(repeats):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=ctx.env(),
            capture_output=True,
            text=True,
            timeout=OP_TIMEOUT_S,
            check=True,
        )
        runs.append((started, time.perf_counter()))
        output = done.stdout
    return runs, output


ENV_PROBE = (
    "import sys, repro.cli; n = len(sys.modules); import json, os, platform, numpy;"
    " from repro.runtime.kernels import jit_status;"
    " print(json.dumps({'modules_loaded': n, 'jit_status': jit_status(),"
    " 'cpu_count': os.cpu_count(), 'python': platform.python_version(),"
    " 'numpy': numpy.__version__}))"
)


def cli_runs(ctx: Context) -> dict[str, Any]:
    """Runs of ``python -c pass``, ``import repro.cli`` and ``import numpy``."""
    interpreter, _ = python_runs(ctx, "pass")
    imported, output = python_runs(ctx, ENV_PROBE)
    numpy_runs, _ = python_runs(ctx, "import numpy")
    return {
        "interpreter": interpreter,
        "import": imported,
        "numpy": numpy_runs,
        "modules_loaded": float(json.loads(output)["modules_loaded"]),
    }


def cli_layer(runs: dict[str, Any], clock: probe.ReferenceClock) -> dict[str, float]:
    """Median walls of :func:`cli_runs`, import times net of start-up."""

    def wall(key: str) -> float:
        return statistics.median(clock(end) - clock(start) for start, end in runs[key])

    interpreter = wall("interpreter")
    return {
        "cli.interpreter_s": interpreter,
        "cli.import_s": wall("import") - interpreter,
        "cli.import_numpy_s": wall("numpy") - interpreter,
        "cli.modules_loaded": runs["modules_loaded"],
    }


def environment(ctx: Context) -> dict[str, Any]:
    _, output = python_runs(ctx, ENV_PROBE, repeats=1)
    info = json.loads(output)
    info.pop("modules_loaded")
    info["cpus_pinned"] = sorted(os.sched_getaffinity(0))
    info["env"] = {
        key: value
        for key, value in ctx.env().items()
        if key.startswith(("REPRO_", "PYTHON", "OMP_", "OPENBLAS_", "MKL_"))
    }
    return info


def stop_process(process: subprocess.Popen[Any], sig: int = signal.SIGINT) -> None:
    """Ask a child to stop, then kill it if it lingers; always reap it."""
    if process.poll() is None:
        process.send_signal(sig)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)


def new_phase(start: float) -> dict[str, Any]:
    return {"start": start, "ops": [], "counts": {}, "spans": []}


def close_phase(phase: dict[str, Any]) -> dict[str, Any]:
    phase["end"] = max([phase["start"], *(op["t1"] for op in phase["ops"])])
    return phase


def start_probe(ctx: Context) -> subprocess.Popen[str]:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py")],
        cwd=ROOT,
        env=ctx.env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def stop_probe(process: subprocess.Popen[str]) -> list[list[float]]:
    """Close the probe's stdin, wait for it and return its samples."""
    try:
        output, _ = process.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    return json.loads(output)


def on_reference_clock(phase: dict[str, Any], clock: probe.ReferenceClock) -> None:
    """Re-time a phase's ops, window, spans and jobs on ``clock``."""
    for op in phase["ops"]:
        t0, t1 = clock(op["t0"]), clock(op["t1"])
        if "attributed" in op and op["t1"] > op["t0"]:
            op["attributed"] *= (t1 - t0) / (op["t1"] - op["t0"])
        op["t0"], op["t1"] = t0, t1
    phase["start"], phase["end"] = clock(phase["start"]), clock(phase["end"])
    for span in phase["spans"]:
        span[1], span[2] = clock(span[1]), clock(span[2])
    for job in phase.get("jobs", []):
        for key in ("submitted_at", "started_at", "finished_at"):
            job[key] = clock(job[key])


class Workload:
    """Run shape of the workloads the orchestrator drives itself."""

    ctx: Context
    phase: Callable[[float, bool], dict[str, Any]]

    def phases(self) -> list[dict[str, Any]]:
        """One untraced phase, or an untraced and a traced half."""
        seconds = self.ctx.seconds
        if self.ctx.trace:
            return [self.phase(seconds / 2, False), self.phase(seconds / 2, True)]
        return [self.phase(seconds, False)]


# -- report-cli --------------------------------------------------------------


class ReportCli(Workload):
    """One fresh ``python -m repro report`` process per op."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def op(self, design: str, traced: bool, pycache: str) -> dict[str, Any]:
        ctx = self.ctx
        op_dir = ctx.fresh_dir("op")
        manifest_path = os.path.join(op_dir, "manifest.json")
        spans_path = os.path.join(op_dir, "spans.json")
        argv = [
            "report", design,
            "--samples", str(check.REPORT_SAMPLES),
            "--jobs", "1",
            "--cache-dir", os.path.join(op_dir, "cache"),
            "--ledger-dir", os.path.join(op_dir, "ledger"),
            "--json", manifest_path,
        ]
        if traced:
            command = [sys.executable, os.path.join(HERE, "bootstrap.py"), spans_path, *argv]
        else:
            command = [sys.executable, "-m", "repro", *argv]
        op: dict[str, Any] = {"design": design, "samples": 0, "paper": None}
        op["t0"] = time.perf_counter()
        try:
            done = subprocess.run(
                command,
                cwd=ROOT,
                env=ctx.env(pycache),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=OP_TIMEOUT_S,
            )
            op["t1"] = time.perf_counter()
            if done.returncode != 0:
                op["why"] = f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
            else:
                with open(manifest_path) as handle:
                    manifest = json.load(handle)
                key = check.report_key(design, check.REPORT_SAMPLES, 1.0)
                op["why"] = check.check_manifest(manifest, ctx.references["report"].get(key))
                op["counts"] = instrument_counts(manifest.get("instruments"))
                if op["why"] is None:
                    op["samples"] = report_samples(design, check.REPORT_SAMPLES, True)
                    op["paper"] = check.paper_error_db(manifest)
                if traced:
                    with open(spans_path) as handle:
                        op["trace"] = json.load(handle)
        except (OSError, ValueError, subprocess.TimeoutExpired) as exc:
            op.setdefault("t1", time.perf_counter())
            op["why"] = f"{type(exc).__name__}: {exc}"
        shutil.rmtree(op_dir, ignore_errors=True)
        return op

    def setup(self, keep: bool) -> Interval:
        """Cold bytecode cache plus one warm-up report."""
        pycache = self.ctx.fresh_dir("pycache")
        design = next(design_order(random.Random(self.ctx.seed)))
        op = self.op(design, False, pycache)
        if op["why"] is not None:
            raise RuntimeError(f"set-up report failed: {op['why']}")
        if keep:
            self.ctx.pycache = pycache
        return op["t0"], op["t1"]

    def phase(self, seconds: float, traced: bool) -> dict[str, Any]:
        order = design_order(random.Random(self.ctx.seed))
        phase = new_phase(time.perf_counter())
        deadline = phase["start"] + seconds
        counts = dict.fromkeys(INSTRUMENTS, 0.0)
        while time.perf_counter() < deadline:
            op = self.op(next(order), traced, self.ctx.pycache)
            add_counts(counts, op.pop("counts", {}))
            trace = op.pop("trace", None)
            if trace is not None:
                # Around main the child spends interpreter start plus
                # ``import repro.cli``, then interpreter exit; the
                # layer spans all run inside main.
                phase["spans"].append(["cli.start", op["t0"], trace["imported"], -1, 0, {}])
                phase["spans"].append(["cli.exit", trace["main_end"], op["t1"], -1, 0, {}])
                offset = len(phase["spans"])
                for span in trace["spans"]:
                    if span[3] >= 0:
                        span[3] += offset
                    phase["spans"].append(span)
                top = sum(s[2] - s[1] for s in trace["spans"] if s[3] == -1)
                around = trace["imported"] - op["t0"] + op["t1"] - trace["main_end"]
                op["attributed"] = around + top
            phase["ops"].append(op)
        phase["counts"] = counts
        return close_phase(phase)

    def close(self) -> None:
        pass


# -- sweep-narrow / sweep-wide -----------------------------------------------


def sweep_worker(args: argparse.Namespace) -> int:
    """Child side of a sweep workload: set up, report ready, measure.

    Prints ``ready`` after the warm-up op, then waits for ``go`` on
    stdin (any other line ends the process: a set-up-only probe) and
    prints one JSON document with the measured phases.
    """
    protocol = sys.stdout
    sys.stdout = sys.stderr
    sys.path.insert(0, SRC)
    from repro.analysis.fitting import dynamic_range_from_sweep
    from repro.observability.instruments import get_registry
    from repro.runtime import sweeps
    from repro.runtime.executor import SweepExecutor

    grid = check.SWEEP_GRIDS[args.workload]
    references = check.load_references()[args.workload]
    specs = {
        design: sweeps.sweep_spec_for_design(
            design, n_samples=check.SWEEP_SAMPLES, levels_db=grid
        )
        for design in check.DESIGNS
    }

    def op(design: str) -> dict[str, Any]:
        spec = specs[design]
        record: dict[str, Any] = {"design": design, "samples": 0, "paper": None}
        record["t0"] = time.perf_counter()
        try:
            # Called through the module so the traced phase's wrapper
            # (installed at every binding) sees the call.
            result = sweeps.run_sweep(spec, executor=SweepExecutor(jobs=1))
            record["t1"] = time.perf_counter()
            if check.sweep_digest(result.metrics) != references[design]:
                record["why"] = "sweep digest differs from the reference"
            else:
                record["why"] = None
                record["samples"] = len(grid) * (spec.n_samples + spec.settle_samples)
                if design in ("modulator2", "chopper"):
                    dr_db = dynamic_range_from_sweep(result, max_level_db=-10.0)
                    record["paper"] = abs(dr_db - check.PAPER_DR_DB)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            record.setdefault("t1", time.perf_counter())
            record["why"] = f"{type(exc).__name__}: {exc}"
        return record

    warm_up = op(next(design_order(random.Random(args.seed))))
    if warm_up["why"] is not None:
        print(f"set-up sweep failed: {warm_up['why']}", file=sys.stderr)
        return 1
    protocol.write("ready\n")
    protocol.flush()
    if sys.stdin.readline().strip() != "go":
        return 0

    def phase(seconds: float, traced: bool) -> dict[str, Any]:
        spans = tracer.Tracer()
        if traced:
            tracer.install_program(spans)
        order = design_order(random.Random(args.seed))
        before = instrument_counts(get_registry().snapshot())
        record = new_phase(time.perf_counter())
        deadline = record["start"] + seconds
        while time.perf_counter() < deadline:
            record["ops"].append(op(next(order)))
        record["counts"] = count_delta(before, instrument_counts(get_registry().snapshot()))
        if traced:
            spans.uninstall()
            record["spans"] = spans.dump()
            for item in record["ops"]:
                item["attributed"] = sum(
                    s[2] - s[1]
                    for s in record["spans"]
                    if s[3] == -1 and s[1] >= item["t0"] and s[2] <= item["t1"]
                )
        return close_phase(record)

    if args.trace:
        phases = [phase(args.seconds / 2, False), phase(args.seconds / 2, True)]
    else:
        phases = [phase(args.seconds, False)]
    protocol.write(json.dumps({"phases": phases}) + "\n")
    protocol.flush()
    return 0


class Sweep:
    """Orchestrator side: set-up probes and the kept worker."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.worker: subprocess.Popen[str] | None = None

    def setup(self, keep: bool) -> Interval:
        ctx = self.ctx
        pycache = ctx.fresh_dir("pycache")
        command = [
            sys.executable, os.path.abspath(__file__), "--worker",
            "--workload", ctx.workload,
            "--seed", str(ctx.seed),
            "--seconds", repr(ctx.seconds),
            "--trace", "1" if ctx.trace else "0",
        ]
        started = time.perf_counter()
        worker = subprocess.Popen(
            command,
            cwd=ROOT,
            env=ctx.env(pycache),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        assert worker.stdin is not None and worker.stdout is not None
        ready = worker.stdout.readline().strip()
        ended = time.perf_counter()
        if ready != "ready":
            stop_process(worker, signal.SIGTERM)
            raise RuntimeError("sweep worker failed to set up")
        if keep:
            self.worker, ctx.pycache = worker, pycache
        else:
            worker.stdin.write("stop\n")
            worker.stdin.close()
            worker.wait(timeout=OP_TIMEOUT_S)
            worker.stdout.close()
        return started, ended

    def phases(self) -> list[dict[str, Any]]:
        worker = self.worker
        assert worker is not None and worker.stdin is not None and worker.stdout is not None
        worker.stdin.write("go\n")
        worker.stdin.close()
        output = worker.stdout.read()
        worker.stdout.close()
        code = worker.wait(timeout=OP_TIMEOUT_S)
        lines = output.strip().splitlines()
        if code != 0 or not lines:
            raise RuntimeError(f"sweep worker exited {code}")
        return json.loads(lines[-1])["phases"]

    def close(self) -> None:
        if self.worker is not None:
            stop_process(self.worker, signal.SIGTERM)


# -- service-mix -------------------------------------------------------------


class RequestPlan:
    """The seeded request sequence of the service mix.

    ``fresh`` takes the next unseen design/noise-scale pair at 16K (the
    four paper operating points first, then one noise scale at a time
    for all four designs), ``shared`` a 12K or 14K report of a pair
    whose 8K sweep a fresh request stored, ``repeat`` an identical or
    alias-spelled copy of any earlier request.  The first request is
    fresh.  The sequence depends on the seed only; two client threads
    take from it in turn.
    """

    ALIASES = {"modulator1": "mod1", "modulator2": "mod2"}

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        scales = [scale for scale in check.NOISE_SCALES if scale != 1.0]
        self.rng.shuffle(scales)
        self.unseen: list[tuple[str, float]] = []
        for scale in [1.0, *scales]:
            designs = list(check.DESIGNS)
            self.rng.shuffle(designs)
            self.unseen.extend((design, scale) for design in designs)
        self.block: list[str] = []
        self.issued: list[tuple[str, int, float]] = []
        self.shareable: list[tuple[str, int, float]] = []
        self.lock = threading.Lock()

    def next(self) -> tuple[str, dict[str, Any], tuple[str, int, float]]:
        """Return ``(class, request body, (design, n_samples, noise_scale))``."""
        with self.lock:
            kind = "fresh"
            if self.issued:
                if not self.block:
                    self.block = list(SERVICE_BLOCK)
                    self.rng.shuffle(self.block)
                kind = self.block.pop()
            if kind == "shared" and not self.shareable:
                kind = "fresh"
            if kind == "fresh" and not self.unseen:
                kind = "repeat"
            if kind == "fresh":
                design, scale = self.unseen.pop(0)
                key = (design, check.REPORT_SAMPLES, scale)
                self.shareable.extend((design, n, scale) for n in check.SHARED_SAMPLES)
            elif kind == "shared":
                key = self.shareable.pop(self.rng.randrange(len(self.shareable)))
            else:
                key = self.rng.choice(self.issued)
            self.issued.append(key)
            respell = kind == "repeat" and self.rng.random() < 0.5
            return kind, self.body(key, respell), key

    @classmethod
    def body(cls, key: tuple[str, int, float], respell: bool = False) -> dict[str, Any]:
        design, n_samples, scale = key
        body: dict[str, Any] = {
            "kind": "report",
            "design": design,
            "n_samples": n_samples,
            "noise_scale": scale,
        }
        if respell:
            # Alias, explicit defaults, omitted default size, integer
            # scale: every spelling normalizes to the same job.
            body.update(design=cls.ALIASES.get(design, design), sweep=True, mismatch=0.0)
            if n_samples == check.REPORT_SAMPLES:
                del body["n_samples"]
            if scale == int(scale):
                body["noise_scale"] = int(scale)
        return body


class ServiceMix(Workload):
    """``repro serve`` in its own process, two closed-loop clients."""

    CLIENTS = 2

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.server: subprocess.Popen[str] | None = None
        self.spans_path: str | None = None
        self.url = ""
        self.plan = RequestPlan(ctx.seed)
        #: ``paper_err_db`` inputs of the warm-up requests.
        self.paper: list[float] = []
        self.warm_up_ids: set[str] = set()
        sys.path.insert(0, SRC)
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        self.client_class = ServiceClient
        self.errors: tuple[type[BaseException], ...] = (ServiceError, OSError, ValueError, KeyError)

    def boot(self, traced: bool, pycache: str) -> Interval:
        """Start a server and run the untimed warm-up request."""
        ctx = self.ctx
        argv = [
            "serve", "--port", "0", "--workers", "1", "--jobs", "1",
            "--cache-dir", ctx.fresh_dir("service-cache"),
            "--ledger-dir", ctx.fresh_dir("service-ledger"),
        ]
        if traced:
            self.spans_path = os.path.join(ctx.fresh_dir("service-spans"), "spans.json")
            command = [sys.executable, os.path.join(HERE, "bootstrap.py"), self.spans_path, *argv]
        else:
            self.spans_path = None
            command = [sys.executable, "-m", "repro", *argv]
        started = time.perf_counter()
        self.server = subprocess.Popen(
            command, cwd=ROOT, env=ctx.env(pycache), stdout=subprocess.PIPE, text=True
        )
        assert self.server.stdout is not None
        line = self.server.stdout.readline().strip()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.url = line.rsplit(" ", 1)[-1]
        self.plan = RequestPlan(ctx.seed)
        op = self.round_trip(self.client_class(self.url), *self.plan.next())
        if op["why"] is not None:
            self.stop()
            raise RuntimeError(f"warm-up request failed: {op['why']}")
        self.warm_up_ids.add(op["id"])
        if op["paper"] is not None:
            self.paper.append(op["paper"])
        return started, time.perf_counter()

    def setup(self, keep: bool) -> Interval:
        pycache = self.ctx.fresh_dir("pycache")
        interval = self.boot(False, pycache)
        if keep:
            self.ctx.pycache = pycache
        else:
            self.stop()
        return interval

    def stop(self) -> dict[str, Any] | None:
        """Stop the server (SIGINT, as ^C); return its spans if traced."""
        if self.server is None:
            return None
        stop_process(self.server)
        if self.server.stdout is not None:
            self.server.stdout.close()
        self.server = None
        if self.spans_path is None or not os.path.exists(self.spans_path):
            return None
        with open(self.spans_path) as handle:
            return json.load(handle)

    def round_trip(
        self, client: Any, kind: str, body: dict[str, Any], key: tuple[str, int, float]
    ) -> dict[str, Any]:
        design, n_samples, scale = key
        op: dict[str, Any] = {"cls": kind, "design": design, "samples": 0, "paper": None}
        op["tid"] = threading.get_ident()
        op["t0"] = time.perf_counter()
        try:
            descriptor = client.submit(body)
            op["id"] = str(descriptor["id"])
            op["disposition"] = descriptor.get("disposition")
            payload = client.result_bytes(op["id"], timeout_s=OP_TIMEOUT_S)
            op["t1"] = time.perf_counter()
            manifest = json.loads(payload)
            expected = self.ctx.references["report"].get(check.report_key(*key))
            op["why"] = check.check_manifest(manifest, expected)
            if op["why"] is None:
                if op["disposition"] in ("new", "retried"):
                    op["samples"] = report_samples(design, n_samples, kind == "fresh")
                if n_samples == check.REPORT_SAMPLES and scale == 1.0:
                    op["paper"] = check.paper_error_db(manifest)
        except self.errors as exc:
            op.setdefault("t1", time.perf_counter())
            op["why"] = f"{type(exc).__name__}: {exc}"
        return op

    def _client_loop(self, deadline: float, ops: list[dict[str, Any]]) -> None:
        client = self.client_class(self.url)
        while time.perf_counter() < deadline:
            ops.append(self.round_trip(client, *self.plan.next()))

    def phase(self, seconds: float, traced: bool) -> dict[str, Any]:
        spans = tracer.Tracer()
        if traced:
            self.stop()
            self.boot(True, self.ctx.pycache)
            spans.install(tracer.CLIENT_FUNCTIONS)
        client = self.client_class(self.url)
        before = instrument_counts(client.stats())
        phase = new_phase(time.perf_counter())
        deadline = phase["start"] + seconds
        per_thread: list[list[dict[str, Any]]] = [[] for _ in range(self.CLIENTS)]
        threads = [
            threading.Thread(target=self._client_loop, args=(deadline, ops))
            for ops in per_thread
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase["ops"] = sorted((op for ops in per_thread for op in ops), key=lambda op: op["t0"])
        close_phase(phase)
        phase["counts"] = count_delta(before, instrument_counts(client.stats()))
        # Job descriptors carry time.time(); put them on perf_counter's base.
        epoch = time.time() - time.perf_counter()
        phase["jobs"] = [
            {key: job[key] - epoch for key in ("submitted_at", "started_at", "finished_at")}
            for job in client.jobs()
            if job["id"] not in self.warm_up_ids and job.get("finished_at")
        ]
        if traced:
            spans.uninstall()
            server = self.stop() or {"spans": []}
            client_spans = spans.dump()
            for op in phase["ops"]:
                op["attributed"] = sum(
                    s[2] - s[1]
                    for s in client_spans
                    if s[4] == op["tid"] and s[1] >= op["t0"] and s[2] <= op["t1"]
                )
            # Keep the server spans of the timed window (not the warm-up)
            # and re-index their parents after the client spans.
            kept = [
                i for i, s in enumerate(server["spans"])
                if s[1] >= phase["start"] and s[2] <= phase["end"]
            ]
            position = {old: len(client_spans) + new for new, old in enumerate(kept)}
            phase["spans"] = client_spans
            for old in kept:
                span = server["spans"][old]
                span[3] = position.get(span[3], -1)
                phase["spans"].append(span)
        return phase

    def close(self) -> None:
        self.stop()


# -- metrics -----------------------------------------------------------------


def walls(phase: dict[str, Any], kind: str | None = None) -> list[float]:
    return [
        op["t1"] - op["t0"]
        for op in phase["ops"]
        if kind is None or op.get("cls") == kind
    ]


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(
    workload: str, setups: list[float], phase: dict[str, Any], paper: list[float]
) -> dict[str, float]:
    ok = [op for op in phase["ops"] if op["why"] is None]
    window = max(phase["end"] - phase["start"], 1e-9)
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(walls(phase)),
        "latency_tail_s": percentile(walls(phase), TAIL_PERCENTILE[workload]),
        "sim_ksamples_per_s": sum(op["samples"] for op in ok) / window / 1e3,
        "ops_per_s": len(ok) / window,
        "peak_rss_mb": peak_rss_mb(),
        "paper_err_db": max(paper, default=0.0),
    }


def per_layer(
    untraced: dict[str, Any],
    traced: dict[str, Any],
    summary: dict[str, dict[str, float]],
    cli: dict[str, float],
) -> dict[str, float]:
    """Per-op layer metrics of the traced phase (see the README)."""
    n = max(len(traced["ops"]), 1)
    counts = {key: value / n for key, value in traced["counts"].items()}

    def row(name: str) -> dict[str, float]:
        return summary.get(name, {})

    def own(name: str) -> float:
        return row(name).get("self_s", 0.0) / n

    def calls(name: str) -> float:
        return row(name).get("calls", 0.0) / n

    def rate(name: str) -> float:
        busy = row(name).get("self_s", 0.0)
        return row(name).get("samples", 0.0) / busy / 1e3 if busy > 0.0 else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole > 0.0 else 0.0

    jobs = untraced.get("jobs", [])
    loads = counts["cache.hits"] + counts["cache.misses"]
    dedup = counts["service.dedup_completed"] + counts["service.dedup_coalesced"]
    traced_walls = walls(traced)
    client_s = row("service.client").get("total_s", 0.0)
    handler_s = row("service.handler").get("total_s", 0.0)
    metrics = dict(cli)
    metrics.update(
        {
            "service.normalize_s": own("service.normalize"),
            "service.http_s": max(client_s - handler_s, 0.0) / n if client_s else 0.0,
            "service.queue_wait_s": statistics.fmean(
                [job["started_at"] - job["submitted_at"] for job in jobs] or [0.0]
            ),
            "service.run_s": statistics.fmean(
                [job["finished_at"] - job["started_at"] for job in jobs] or [0.0]
            ),
            "service.executed": counts["service.executed"],
            "service.dedup_completed": counts["service.dedup_completed"],
            "service.dedup_coalesced": counts["service.dedup_coalesced"],
            "service.dedup_ratio": ratio(dedup, dedup + counts["service.submitted"]),
            "runtime.cache.loads": loads,
            "runtime.cache.hits": counts["cache.hits"],
            "runtime.cache.hit_ratio": ratio(counts["cache.hits"], loads),
            "runtime.cache.load_s": own("runtime.cache.load"),
            "runtime.cache.stores": calls("runtime.cache.store"),
            "runtime.cache.store_s": own("runtime.cache.store"),
            "runtime.cache.bytes_stored": counts["cache.bytes_stored"],
            "runtime.sweeps.run_s": own("runtime.sweeps.run"),
            "runtime.executor.shards": counts["executor.shards"],
            "runtime.executor.retries": counts["executor.retries"],
            "runtime.executor.timeouts": counts["executor.timeouts"],
            "runtime.single.fallbacks": counts["single.fallbacks"],
            "runtime.batch.refusals": counts["batch.refusals"],
            "runtime.kernels.build_spec_s": own("runtime.kernels.build_spec"),
            "runtime.kernels.compile_s": own("runtime.kernels.compile"),
            "runtime.kernels.compiles": row("runtime.kernels.compile").get("miss", 0.0) / n,
            "runtime.kernels.run_s": own("runtime.kernels.run"),
            "runtime.kernels.ksamples_per_s": rate("runtime.kernels.run"),
            "runtime.batch.run_s": own("runtime.batch.run"),
            "runtime.batch.lanes": row("runtime.batch.run").get("lanes", 0.0) / n,
            "runtime.batch.ksamples_per_s": rate("runtime.batch.run"),
            "systems.testbench.measure_s": own("systems.testbench.measure"),
            "systems.stimulus.generate_s": own("systems.stimulus.generate"),
            "analysis.spectra": calls("analysis.spectrum"),
            "analysis.spectrum_s": own("analysis.spectrum"),
            "analysis.measure_tone_s": own("analysis.measure_tone"),
            "erc.preflight_s": own("erc.preflight"),
            "metrics.build_report_s": own("metrics.build_report"),
            "metrics.provenance_s": own("metrics.provenance"),
            "metrics.manifest_write_s": own("metrics.manifest_write"),
            "observability.ledger.appends": calls("observability.ledger.append"),
            "observability.ledger.append_s": own("observability.ledger.append"),
            "trace.overhead_frac": ratio(
                statistics.median(traced_walls or [0.0]),
                statistics.median(walls(untraced) or [0.0]),
            ) - 1.0,
            "trace.unattributed_frac": 1.0 - ratio(
                sum(op.get("attributed", 0.0) for op in traced["ops"]), sum(traced_walls)
            ),
        }
    )
    for engine in ("kernel", "batch", "single", "scalar"):
        metrics[f"runtime.engine.runs.{engine}"] = counts[f"engine.{engine}"]
    for kind in SERVICE_CLASSES:
        kind_walls = walls(untraced, kind)
        metrics[f"service.{kind}_p50_s"] = statistics.median(kind_walls) if kind_walls else 0.0
    return metrics


def layer_table(summary: dict[str, dict[str, float]], traced: dict[str, Any]) -> str:
    """Render self time, calls and share of op wall per traced layer."""
    n = max(len(traced["ops"]), 1)
    wall = sum(walls(traced)) / n
    lines = [
        f"{'layer':32s} {'calls/op':>9s} {'self ms/op':>11s} {'total ms/op':>12s} {'self/op wall':>13s}"
    ]
    for name, row in sorted(summary.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:32s} {row['calls'] / n:9.2f} {1e3 * row['self_s'] / n:11.2f}"
            f" {1e3 * row['total_s'] / n:12.2f} {row['self_s'] / n / wall if wall else 0.0:13.3f}"
        )
    lines.append(f"{'op wall':32s} {'':9s} {1e3 * wall:11.2f}   ({len(traced['ops'])} ops)")
    return "\n".join(lines)


# -- the run -----------------------------------------------------------------


WORKLOADS: dict[str, type] = {
    "report-cli": ReportCli,
    "sweep-narrow": Sweep,
    "sweep-wide": Sweep,
    "service-mix": ServiceMix,
}


def run(args: argparse.Namespace) -> dict[str, Any]:
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    workload = WORKLOADS[args.workload](ctx)
    speed_probe = start_probe(ctx)
    try:
        try:
            setup_runs = [workload.setup(keep=index == SETUPS - 1) for index in range(SETUPS)]
            phases = workload.phases()
            paper = list(getattr(workload, "paper", []))
        finally:
            workload.close()
        cli = cli_runs(ctx) if args.trace else {}
        info = environment(ctx)
    finally:
        samples = stop_probe(speed_probe)
        ctx.close()
    clock = probe.ReferenceClock(samples)
    info["reference_s_per_host_s"] = clock.speed()
    setups = [clock(end) - clock(start) for start, end in setup_runs]
    for phase in phases:
        on_reference_clock(phase, clock)
    document: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "environment": info,
        "setups_s": setups,
    }
    if args.trace:
        untraced, traced = phases
        summary = tracer.summarize(traced["spans"])
        metrics = per_layer(untraced, traced, summary, cli_layer(cli, clock))
        units = dict(PER_LAYER)
        document["layers"] = layer_table(summary, traced)
        document["spans"] = traced["spans"]
        print(f"{args.workload} per-layer table (traced phase)\n{document['layers']}", file=sys.stderr)
    else:
        for phase in phases:
            paper.extend(op["paper"] for op in phase["ops"] if op["paper"] is not None)
        metrics = end_to_end(args.workload, setups, phases[0], paper)
        units = dict(END_TO_END)
    ops = [op for phase in phases for op in phase["ops"]]
    failures = [op["why"] for op in ops if op["why"] is not None]
    for why in failures[:5]:
        print(f"failed op: {why}", file=sys.stderr)
    document["ops"] = {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "walls": [[op.get("cls", op["design"]), op["t1"] - op["t0"]] for op in ops],
    }
    document["metrics"] = metrics
    with open(os.path.join(OUT, f"{args.workload}.json"), "w") as handle:
        json.dump(document, handle, indent=1)
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.worker:
        return sweep_worker(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    # A shell that starts this command in the background leaves SIGINT
    # ignored, and an ignored signal stays ignored across exec.  A
    # handler is reset to the default in every child instead, so
    # ``repro serve`` stops on SIGINT as it does for a user.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # One CPU for the run, its children and the host-speed probe, so the
    # probe times the CPU the work runs on (see probe.py).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
