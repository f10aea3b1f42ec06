"""Cold start: what a fresh ``repro`` process imports, and how it exits."""

import json

import pytest

from repro.metrics import load_manifest

#: Runs ``python -m repro ARGV`` in-process, then prints the loaded
#: module names as the last line of stdout.
_RUN_AND_LIST_MODULES = """
import json, runpy, sys
sys.argv = ["repro", *json.loads(sys.argv[1])]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(sorted(sys.modules)))
"""

#: Modules a report must not load: other verbs' engines, and the
#: process pool that an inline ``--jobs 1`` run never uses.
REPORT_UNUSED = (
    "repro.service",
    "repro.staticcheck",
    "repro.observability.trend",
    "repro.sc",
    "multiprocessing",
    "concurrent.futures.process",
)

#: ``repro`` modules a CLI process loads: ``repro.cli`` imports the
#: report verb's engine up front, so ``repro --list`` and a report both
#: load it.  Measured 85 on Python 3.11 (117 before package exports were
#: lazy); this package's imports do not vary with the Python version,
#: hence a margin of two.
CLI_REPRO_MODULES_CEILING = 87

#: The numba probe is optional and imports modules of its own; the
#: budget covers this package's imports, so it runs without.
_NO_JIT = {"REPRO_KERNEL_JIT": "0"}


def _modules_after(fresh_python, argv, cwd):
    done = fresh_python(
        "-c", _RUN_AND_LIST_MODULES, json.dumps(argv), env=_NO_JIT, cwd=cwd
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestImportBudget:
    def test_import_repro_loads_only_the_package(self, fresh_python):
        done = fresh_python(
            "-c", "import repro, json, sys; print(json.dumps(sorted(sys.modules)))"
        )
        assert done.returncode == 0, done.stderr
        modules = set(json.loads(done.stdout))
        assert {name for name in modules if name.startswith("repro")} == {"repro"}
        assert "numpy" not in modules

    @pytest.mark.parametrize("verb", ["--list", "report"])
    def test_cli_loads_only_what_a_report_uses(self, fresh_python, tmp_path, verb):
        argv = [verb]
        if verb == "report":
            argv += [
                "delay-line", "--fast", "--no-cache",
                "--ledger-dir", str(tmp_path / "ledger"),
                "--json", str(tmp_path / "manifest.json"),
            ]
        modules = _modules_after(fresh_python, argv, tmp_path)
        assert not [name for name in REPORT_UNUSED if name in modules]
        ours = sorted(name for name in modules if name.split(".")[0] == "repro")
        assert len(ours) <= CLI_REPRO_MODULES_CEILING, ours


class TestExit:
    def test_module_entry_point_finishes_its_outputs(self, fresh_python, tmp_path):
        done = fresh_python(
            "-m", "repro", "report", "delay-line", "--fast", "--no-cache",
            "--json", "m.json", "--events", "e.jsonl",
            "--ledger-dir", "ledger",
            cwd=tmp_path,
        )
        assert done.returncode == 0, done.stderr
        manifest = load_manifest(tmp_path / "m.json")
        assert manifest.design == "delay-line"
        assert manifest.metrics
        last_event = (tmp_path / "e.jsonl").read_text().splitlines()[-1]
        assert json.loads(last_event)
        entries = (tmp_path / "ledger" / "ledger.jsonl").read_text().splitlines()
        assert len(entries) == 1
