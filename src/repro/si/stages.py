"""One stage declaration and one run path for every lowered device.

The six device types the compiled kernel lowers -- the lone class-AB
cell, the delay line, the biquad cascade and the three one-bit loops --
declare their structure once, in :meth:`StagedDevice.stages`: each
stage's name, its live part (a memory cell, or an integrator holding
one) and the clock phase it samples on.  A loop places them among its
non-stage blocks (the quantizer, the DAC and, when chopped, the two
choppers) in its :meth:`StagedDevice.structure`.  The kernel lowering
(:func:`repro.runtime.kernels.spec.build_spec`), the probe names, the
ERC graphs and the structural records of a traced run all read that
declaration.

:meth:`StagedDevice.run` is the one run path.  It refuses a stimulus
that is not 1-D, opens the device span of a traced run, tries the
compiled kernel (:func:`repro.runtime.engine.run_single`), falls back
to the scalar recurrence, feeds the device-level probes
(:meth:`StagedDevice.observe_lanes`, which the batch runners feed too)
and records one structural span per declared element.  A device
supplies only its scalar recurrence, :meth:`StagedDevice._period`: one
clock period on one input sample.
"""

from __future__ import annotations

from typing import Any, ClassVar, NamedTuple

import numpy as np

from repro.clocks.phases import Phase
from repro.errors import ConfigurationError

__all__ = ["Block", "Stage", "StagedDevice", "chopper_signs"]


class Stage(NamedTuple):
    """One declared stage: its name, its live part and its sample phase."""

    name: str
    part: Any
    phase: Phase


class Block(NamedTuple):
    """One non-stage block of a loop: its name and circuit-graph node."""

    name: str
    kind: str
    params: dict[str, Any]


def chopper_signs(n: int) -> np.ndarray:
    """Return the chopper sequence ``+1, -1, +1, ...`` of ``n`` periods."""
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


class StagedDevice:
    """A device declared by its stages and run by its scalar recurrence.

    Subclasses implement :meth:`stages`, :meth:`reset` and
    :meth:`_period`; a traced subclass sets :attr:`_telemetry` and
    :attr:`_telemetry_name` in its ``attach_telemetry``.
    """

    #: Whether an input and an output chopper frame the device.
    chopped: ClassVar[bool] = False
    #: The session a run records into; None runs untraced.
    _telemetry: Any = None
    #: The device span's name and the probe prefix of a traced run.
    _telemetry_name: str = ""

    def stages(self) -> tuple[Stage, ...]:
        """Return the declared stages, input first."""
        raise NotImplementedError

    def structure(self) -> tuple[Stage | Block, ...]:
        """Return every structural element in signal order: the stages."""
        return self.stages()

    def _period(self, x: float) -> float:
        """Advance one clock period on input ``x``; return the output."""
        raise NotImplementedError

    def observe_lanes(self, stimuli: np.ndarray, outputs: np.ndarray) -> None:
        """Feed the device-level probes whole runs, one row per lane.

        Lane ``k`` of a batch is run ``k`` of a device reused run after
        run, so rows fed in lane order reproduce the probes of those
        runs.  Only a loop has device-level probes.
        """

    def run(self, stimulus: np.ndarray) -> np.ndarray:
        """Run over a 1-D input array; return the output array."""
        return self._run(stimulus, record_states=False)[0]

    def __call__(self, stimulus: np.ndarray) -> np.ndarray:
        """Run with a fresh state: the device-under-test interface."""
        self.reset()
        return self.run(stimulus)

    def reset(self) -> None:
        """Zero the device state (the random streams keep running)."""
        raise NotImplementedError

    def _run(
        self, stimulus: np.ndarray, record_states: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Run the device; return its output and, when asked, its states.

        The states hold one row per declared stage: the stage's state at
        the start of each period.  Recording them runs the scalar
        recurrence, whatever rung is pinned.

        Raises
        ------
        ConfigurationError
            If the stimulus is not 1-D; nothing is run or counted.
        """
        data = np.asarray(stimulus, dtype=float)
        if data.ndim != 1:
            raise ConfigurationError(
                f"stimulus must be 1-D, got shape {data.shape}"
            )
        n_samples = data.shape[0]
        states: np.ndarray | None = None
        if record_states:
            states = np.empty((len(self.stages()), n_samples))
        session = self._telemetry
        if session is None:
            return self._execute(data, states), states
        with session.span(
            self._telemetry_name, samples=n_samples, device=type(self).__name__
        ):
            output = self._execute(data, states)
            self.observe_lanes(data[None], output[None])
            for element in self.structure():
                if isinstance(element, Stage):
                    attrs = {"phase": element.phase.name}
                else:
                    attrs = {"kind": element.kind}
                session.record(element.name, samples=n_samples, **attrs)
        return output, states

    def _execute(self, data: np.ndarray, states: np.ndarray | None) -> np.ndarray:
        """Run on the compiled kernel, else on the scalar recurrence."""
        if states is None:
            # Imported lazily: the kernel package imports the devices.
            from repro.runtime.engine import run_single

            fast = run_single(self, data)
            if fast is not None:
                return fast
        signs = chopper_signs(data.shape[0]) if self.chopped else None
        if signs is not None:
            data = signs * data
        output = np.empty(data.shape[0])
        period = self._period
        if states is None:
            for n in range(data.shape[0]):
                output[n] = period(float(data[n]))
        else:
            parts = [stage.part for stage in self.stages()]
            for n in range(data.shape[0]):
                states[:, n] = [part.state.differential for part in parts]
                output[n] = period(float(data[n]))
        return output if signs is None else signs * output
