"""repro: reproduction of "Low-Voltage Low-Power Switched-Current
Circuits and Systems" (Tan & Eriksson, DATE 1995).

A behavioural Python library for switched-current (SI) sampled-data
circuits: the fully differential class-AB memory cell with grounded-
gate amplifiers, the common-mode feedforward technique, and the two
second-order SI delta-sigma modulators (conventional and chopper-
stabilised) implemented on the paper's 0.8 um CMOS test chip --
together with the device models, noise models and FFT metrology needed
to regenerate every table and figure in the paper's evaluation.

Quick start::

    import numpy as np
    from repro import paper_cell_config
    from repro.deltasigma import SIModulator2
    from repro.systems import TestBench

    modulator = SIModulator2(cell_config=paper_cell_config())
    bench = TestBench(sample_rate=2.45e6, n_samples=1 << 16, bandwidth=10e3)
    result = bench.measure(modulator, amplitude=3e-6, frequency=2e3)
    print(f"SNDR = {result.sndr_db:.1f} dB, THD = {result.thd_db:.1f} dB")

Every package re-exports its public names lazily (PEP 562): a name's
home module is imported on first access, so ``import repro`` costs only
what the caller then uses.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import TYPE_CHECKING, Callable, Mapping

if TYPE_CHECKING:
    from repro.config import (
        DELAY_LINE_BANDWIDTH,
        DELAY_LINE_CLOCK,
        MODULATOR_CLOCK,
        MODULATOR_FULL_SCALE,
        OVERSAMPLING_RATIO,
        SIGNAL_BANDWIDTH,
        SUPPLY_VOLTAGE,
        THERMAL_NOISE_RMS,
        delay_line_cell_config,
        ideal_cell_config,
        paper_cell_config,
    )
    from repro.errors import (
        AnalysisError,
        ClockingError,
        ConfigurationError,
        ReproError,
        StimulusError,
    )

__version__ = "1.0.0"


class _LazyPackage(types.ModuleType):
    """A package whose lazy exports bind as their home modules load.

    The import system sets each submodule on its parent package once
    the submodule has run; at that moment the submodule's exports are
    bound in the package too.  A package's namespace therefore holds
    every export whose home module is loaded -- as an eager ``from .home
    import name`` would -- so code that scans or patches module
    namespaces finds each binding.
    """

    def __setattr__(self, name: str, value: object) -> None:
        super().__setattr__(name, value)
        if isinstance(value, types.ModuleType):
            _bind_exports(self, value)


def _bind_exports(package: types.ModuleType, home: types.ModuleType) -> None:
    """Bind in ``package`` the exports ``home`` defines by now."""
    defined = vars(home)
    for name in vars(package)["_EXPORTS"].get(home.__name__, ()):
        if name in defined:
            types.ModuleType.__setattr__(package, name, defined[name])


def _lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """Return ``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` is the package's ``_EXPORTS``: each home module mapped to
    the public names it defines.  The returned ``__getattr__`` imports a
    name's home module on first access and returns the home module's
    binding.  A home module that is a direct submodule also binds its
    names in the package as it loads (see :class:`_LazyPackage`), so
    later reads find them in the package itself; names from any other
    home resolve through ``__getattr__`` on every access.
    Each package mirrors its map in an ``if TYPE_CHECKING:`` block so
    static checkers see the same names and types.
    """
    homes = {name: module for module, names in exports.items() for name in names}
    module = sys.modules[package]
    module.__class__ = _LazyPackage

    def __getattr__(name: str) -> object:
        try:
            home = homes[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(home), name)

    def __dir__() -> list[str]:
        return sorted({*vars(module), *homes})

    return list(homes), __getattr__, __dir__


_EXPORTS = {
    "repro.config": (
        "paper_cell_config",
        "delay_line_cell_config",
        "ideal_cell_config",
        "DELAY_LINE_CLOCK",
        "MODULATOR_CLOCK",
        "MODULATOR_FULL_SCALE",
        "OVERSAMPLING_RATIO",
        "SIGNAL_BANDWIDTH",
        "DELAY_LINE_BANDWIDTH",
        "SUPPLY_VOLTAGE",
        "THERMAL_NOISE_RMS",
    ),
    "repro.errors": (
        "ReproError",
        "ConfigurationError",
        "ClockingError",
        "AnalysisError",
        "StimulusError",
    ),
}

__all__, __getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__.insert(0, "__version__")
