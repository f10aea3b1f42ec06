"""The declared lowering protocol: which subclasses still lower.

The lowered engines -- the compiled kernel tier and the NumPy batch
runners, both built from :func:`repro.runtime.kernels.spec.build_spec`
-- do not *execute* a device's Python methods; they transliterate its
configuration into fused kernels.  That is what makes them bit-exact,
and it is also why subclassing is dangerous: a subclass that overrides
a behavioural hook (``run``, ``step``, the one-period recurrence
``_period``, ``decide``, ``_store_half``, ...) changes the scalar
reference while the lowered path keeps simulating the base class.
Hooks inherited from :class:`~repro.si.stages.StagedDevice` -- the
stage declaration and the run path -- count as the base's own.  The contract is therefore *declared*, per
base class, as an explicit allowlist of hooks a subclass may override
while keeping its lowering:

* ``__init__`` -- the lowering reads the constructed instance's
  configuration, never the constructor, so pinning defaults or adding
  metadata in ``__init__`` is always safe;
* ``attach_telemetry`` / ``describe_graph`` -- reporting-only hooks the
  lowering never consults;
* everything else the base class defines is part of the simulated
  behaviour: overriding it refuses lowering with a named reason.

Quantiser and DAC bases stay **exact-type-only** -- their behaviour is
sampled so tightly that arbitrary overrides cannot be proven safe --
but subclasses that draw their extra randomness from the chunked
streams in :mod:`repro.noise.streams` join the protocol as lowered
bases of their own:
:class:`~repro.deltasigma.dither.DitheredQuantizer` consumes one
:class:`~repro.noise.streams.GaussianStream` draw per decision, so
the lowered engines drain its dither stream exactly like the
metastability stream.  Telemetry probes have a paired-hook rule: the
scalar loops feed :meth:`SignalProbe.observe` per sample while the
lowered paths feed :meth:`SignalProbe.observe_array` once, so a
subclass must override both or neither.

The refusal messages are exported as helpers so the static analyzer
(:mod:`repro.staticcheck`, rules SC010 and SC012) can *predict* at
class-definition time exactly what refusal the runtime would raise --
the cross-validation suite asserts the two never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.deltasigma.chopper_modulator import ChopperStabilizedSIModulator
from repro.deltasigma.dac import FeedbackDac
from repro.deltasigma.dither import DitheredQuantizer
from repro.deltasigma.modulator1 import SIModulator1
from repro.deltasigma.modulator2 import SIModulator2
from repro.deltasigma.quantizer import CurrentQuantizer
from repro.devices.current_mirror import CurrentMirror
from repro.si.cascade import BiquadCascade
from repro.si.cmff import CommonModeFeedforward
from repro.si.delay_line import DelayLine
from repro.si.differentiator import SIDifferentiator
from repro.si.integrator import SIIntegrator
from repro.si.memory_cell import ClassABMemoryCell
from repro.telemetry.probes import SignalProbe

__all__ = [
    "LoweredBase",
    "LOWERING_PROTOCOL",
    "PROTOCOL_BY_QUALNAME",
    "protocol_for",
    "overridden_hooks",
    "hooks_outside_protocol",
    "subclass_refusal",
    "hook_refusal",
    "probe_pair_refusal",
    "lowering_refusal",
    "probe_refusal",
]

#: Hook names never counted as behavioural overrides (interpreter and
#: dataclass bookkeeping, plus display-only dunders).
_IGNORED_NAMES: frozenset[str] = frozenset(
    {
        "__dict__",
        "__weakref__",
        "__module__",
        "__qualname__",
        "__doc__",
        "__annotations__",
        "__slots__",
        "__firstlineno__",
        "__static_attributes__",
        "__parameters__",
        "__abstractmethods__",
        "__init_subclass__",
        "__subclasshook__",
        "__match_args__",
        "__dataclass_fields__",
        "__dataclass_params__",
        "__repr__",
        "__str__",
        "__eq__",
        "__hash__",
    }
)

#: Hooks that are always reporting-only: safe for any subclass.
_COMMON_OVERRIDABLE: frozenset[str] = frozenset(
    {"__init__", "attach_telemetry", "describe_graph"}
)


@dataclass(frozen=True)
class LoweredBase:
    """One base class the runtime knows how to lower.

    Attributes
    ----------
    base:
        The lowered class object.
    kind:
        Human label used in refusal messages (``"quantizer"``, ...).
    exact:
        When True, *any* subclass refuses lowering (the base's
        behaviour is sampled so tightly that no override is safe).
    overridable:
        Hook names a subclass may override while keeping the lowering;
        ignored when :attr:`exact` is set.
    """

    base: type
    kind: str
    exact: bool = False
    overridable: frozenset[str] = field(default_factory=frozenset)

    @property
    def qualname(self) -> str:
        """Return the fully qualified name of the lowered base."""
        return f"{self.base.__module__}.{self.base.__qualname__}"


#: The declared protocol: every base class with a bit-exact lowering.
LOWERING_PROTOCOL: tuple[LoweredBase, ...] = (
    LoweredBase(
        ClassABMemoryCell, "memory cell", overridable=_COMMON_OVERRIDABLE
    ),
    LoweredBase(DelayLine, "delay line", overridable=_COMMON_OVERRIDABLE),
    LoweredBase(
        BiquadCascade, "biquad cascade", overridable=_COMMON_OVERRIDABLE
    ),
    LoweredBase(SIModulator1, "modulator", overridable=_COMMON_OVERRIDABLE),
    LoweredBase(SIModulator2, "modulator", overridable=_COMMON_OVERRIDABLE),
    LoweredBase(
        ChopperStabilizedSIModulator, "modulator", overridable=_COMMON_OVERRIDABLE
    ),
    LoweredBase(SIIntegrator, "integrator", overridable=_COMMON_OVERRIDABLE),
    # SIDifferentiator is SIIntegrator with ``crossed`` set, an attribute
    # the lowering reads: a base of its own, or it would refuse itself.
    LoweredBase(
        SIDifferentiator, "differentiator", overridable=_COMMON_OVERRIDABLE
    ),
    LoweredBase(
        CommonModeFeedforward, "CMFF stage", overridable=_COMMON_OVERRIDABLE
    ),
    LoweredBase(CurrentMirror, "current mirror", overridable=_COMMON_OVERRIDABLE),
    LoweredBase(CurrentQuantizer, "quantizer", exact=True),
    # DitheredQuantizer precedes its exact-only base in every MRO walk:
    # its extra randomness comes from a replayable GaussianStream, so it
    # lowers as a protocol base of its own.
    LoweredBase(
        DitheredQuantizer, "quantizer", overridable=_COMMON_OVERRIDABLE
    ),
    LoweredBase(FeedbackDac, "DAC", exact=True),
)

#: The protocol indexed by fully qualified base-class name -- the view
#: the static analyzer (which works on import graphs, not objects)
#: resolves subclass bases against.
PROTOCOL_BY_QUALNAME: dict[str, LoweredBase] = {
    entry.qualname: entry for entry in LOWERING_PROTOCOL
}

_PROTOCOL_BY_BASE: dict[type, LoweredBase] = {
    entry.base: entry for entry in LOWERING_PROTOCOL
}


def protocol_for(cls: type) -> LoweredBase | None:
    """Return the protocol entry governing ``cls``, walking its MRO."""
    for klass in cls.__mro__:
        entry = _PROTOCOL_BY_BASE.get(klass)
        if entry is not None:
            return entry
    return None


def hooks_outside_protocol(
    entry: LoweredBase, names: Iterable[str]
) -> list[str]:
    """Filter redefined ``names`` down to the protocol-relevant hooks.

    A hook is protocol-relevant when the base class itself provides the
    name and the protocol does not allowlist it.  Newly added names are
    not hooks: the lowering never calls them.  Shared by the runtime
    MRO walk below and the static analyzer's class-body scan
    (:mod:`repro.staticcheck.lowerability`), so both always agree.
    """
    return sorted(
        name
        for name in set(names)
        if name not in _IGNORED_NAMES
        and name not in entry.overridable
        and hasattr(entry.base, name)
    )


def overridden_hooks(cls: type, entry: LoweredBase) -> list[str]:
    """Return the protocol-relevant hooks ``cls`` overrides.

    Collects every name redefined between ``cls`` and the lowered base
    along the MRO, then filters through :func:`hooks_outside_protocol`.
    """
    names: set[str] = set()
    for klass in cls.__mro__:
        if klass is entry.base:
            break
        names.update(vars(klass))
    return hooks_outside_protocol(entry, names)


def subclass_refusal(kind: str, name: str) -> str:
    """Return the refusal for a subclass of an exact-type-only base."""
    return f"no bit-exact lowering for {kind} subclass {name}"


def hook_refusal(kind: str, name: str, hook: str, base: str) -> str:
    """Return the refusal for an override outside the protocol."""
    return (
        f"no bit-exact lowering for {kind} subclass {name}: {hook}() is "
        f"outside the declared lowering protocol of {base}"
    )


def probe_pair_refusal(name: str) -> str:
    """Return the refusal for an unpaired probe hook override."""
    return (
        f"no bit-exact lowering for probe subclass {name}: observe() and "
        "observe_array() must be overridden together (the scalar loop "
        "feeds one, the lowered replay the other)"
    )


def lowering_refusal(component: object) -> str | None:
    """Return why ``component`` refuses lowering, or None when it lowers.

    The runtime enforcement entry point: :func:`build_spec` calls this
    on every device, cell, stage, CMFF and mirror it is about to
    transliterate.  Objects whose type is not governed by the
    protocol return None here -- the caller's own dispatch decides
    whether an unknown type is an error.
    """
    cls = type(component)
    entry = protocol_for(cls)
    if entry is None or cls is entry.base:
        return None
    if entry.exact:
        return subclass_refusal(entry.kind, cls.__name__)
    hooks = overridden_hooks(cls, entry)
    if hooks:
        return hook_refusal(
            entry.kind, cls.__name__, hooks[0], entry.base.__name__
        )
    return None


def probe_refusal(probe: object) -> str | None:
    """Return why a telemetry probe refuses lowering, or None.

    A :class:`SignalProbe` subclass must override ``observe`` and
    ``observe_array`` *together*: the scalar loops feed samples through
    the former, the lowered paths through the latter, and an unpaired
    override makes the two runs observe different statistics.
    """
    cls = type(probe)
    if cls is SignalProbe or not issubclass(cls, SignalProbe):
        return None
    overrides_observe = cls.observe is not SignalProbe.observe
    overrides_array = cls.observe_array is not SignalProbe.observe_array
    if overrides_observe != overrides_array:
        return probe_pair_refusal(cls.__name__)
    return None
