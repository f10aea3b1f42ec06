"""First-order SI delta-sigma modulator baseline.

The authors' earlier work ([9]: "3.3-V 11-bit delta-sigma modulator
using first-generation SI circuits") and the general oversampling
literature [18] make the first-order loop the natural baseline for the
paper's second-order choice.  Its linearised transfer is

    Y(z) = z^-1 X(z) + (1 - z^-1) E(z)

so its in-band quantisation noise falls only 9 dB per octave of OSR
(vs 15 dB for second order), and -- unlike the second-order loop -- it
produces strong idle tones for DC inputs.

The implementation mirrors :class:`~repro.deltasigma.modulator2
.SIModulator2`: one delaying SI integrator with the full memory-cell
error models, a 1-bit current quantiser and a feedback DAC.
"""

from __future__ import annotations

from dataclasses import replace

from repro.clocks.phases import Phase
from repro.errors import ConfigurationError
from repro.si.differential import DifferentialSample
from repro.si.integrator import SIIntegrator
from repro.si.memory_cell import MemoryCellConfig
from repro.si.stages import Stage
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.loop import FeedbackLoop
from repro.deltasigma.quantizer import CurrentQuantizer

__all__ = ["SIModulator1"]


class SIModulator1(FeedbackLoop):
    """First-order SI delta-sigma modulator.

    Loop equations (delaying integrator):

        w[n+1] = w[n] + a (x[n] - y[n])
        y[n]   = FS * sign(w[n])

    Parameters
    ----------
    cell_config:
        Memory-cell configuration for the integrator.
    full_scale:
        Feedback reference current in amperes.
    a:
        Integrator input scaling; any positive value realises the same
        bit stream (single-state scale freedom), the default keeps the
        state within ~2x full scale.
    quantizer, dac, sample_rate:
        As for :class:`~repro.deltasigma.modulator2.SIModulator2`.
    """

    telemetry_name = "modulator1"

    def __init__(
        self,
        cell_config: MemoryCellConfig | None = None,
        full_scale: float = 6e-6,
        a: float = 0.5,
        quantizer: CurrentQuantizer | None = None,
        dac: FeedbackDac | None = None,
        sample_rate: float = 2.45e6,
    ) -> None:
        if full_scale <= 0.0:
            raise ConfigurationError(
                f"full_scale must be positive, got {full_scale!r}"
            )
        if a <= 0.0:
            raise ConfigurationError(f"loop coefficient a must be positive, got {a!r}")
        base = cell_config if cell_config is not None else MemoryCellConfig()
        base = replace(base, sample_rate=sample_rate)
        self.cell_config = base
        self.full_scale = full_scale
        self.a = a
        self.sample_rate = sample_rate
        self.quantizer = quantizer if quantizer is not None else CurrentQuantizer()
        self.dac = dac if dac is not None else FeedbackDac(full_scale=full_scale)
        self._integrator = SIIntegrator(gain=1.0, config=base, seed_offset=505)

    @property
    def order(self) -> int:
        """Return the noise-shaping order (1)."""
        return 1

    def stages(self) -> tuple[Stage, ...]:
        """Declare the one delaying integrator."""
        return (Stage("int", self._integrator, Phase.PHI1),)

    def reset(self) -> None:
        """Zero the loop state."""
        self._integrator.reset()
        self.quantizer.reset()

    def _period(self, x: float) -> float:
        """Decide on the state, feed back, integrate; return the bit."""
        w = self._integrator.state
        decision = self.quantizer.decide(w.differential)
        feedback = self.dac.convert(decision)
        u = DifferentialSample.from_components(self.a * (x - feedback))
        self._integrator.step(u)
        return decision * self.full_scale
