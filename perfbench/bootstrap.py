"""Run ``repro.cli.main`` with the layer wrappers installed.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/bootstrap.py SPANS.json report modulator2 --samples 16384

It is the traced twin of ``python -m repro ...``: it records when the
interpreter reached this file and when ``import repro.cli`` finished,
wraps the layer calls (the service's too for ``serve``), runs the CLI,
and writes the spans to ``SPANS.json`` when ``main`` returns -- for
``serve``, after SIGINT stops it.
"""

import time

BOOT = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import repro.cli  # noqa: E402

IMPORTED = time.perf_counter()

from tracer import Tracer, install_program  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    serving = bool(argv) and argv[0] == "serve"
    if serving:
        importlib.import_module("repro.service")  # load the modules to wrap

    tracer = Tracer()
    install_program(tracer, service=serving)
    code = 1
    try:
        code = repro.cli.main(argv)
    finally:
        document = {
            "boot": BOOT,
            "imported": IMPORTED,
            "main_end": time.perf_counter(),
            "spans": tracer.dump(),
        }
        with open(out_path, "w") as handle:
            json.dump(document, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
