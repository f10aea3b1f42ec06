"""The ERC rule set: pluggable static checks with severities.

Each rule is a small object with a stable code (``ERC001`` ...), a
default severity and a ``check(graph)`` method yielding
:class:`ErcViolation` records.  Rules never simulate; they only walk
the :class:`~repro.erc.graph.CircuitGraph` a design describes.

The initial registry covers the structural invariants the paper's
circuits depend on:

=======  ==========================  =========================================
code     name                        paper anchor
=======  ==========================  =========================================
ERC001   clock-phases                two-phase non-overlapping clocking of
                                     cascaded second-generation cells
ERC002   headroom                    minimum-supply Eqs. (1)-(2)
ERC003   cmff-coverage               Fig. 2: differential cascades need
                                     common-mode control
ERC004   class-ab-bias               class-AB modulation index within the
                                     modeled range (|i| can exceed I_Q, but
                                     not without bound)
ERC005   units                       config values in SI units (amps, hertz),
                                     OSR a sane integer
ERC006   fanout                      mirrored outputs drive a bounded number
                                     of receivers
ERC007   full-scale                  quantizer/DAC reference agreement in
                                     modulator loops
ERC008   chopper-pairing             Fig. 3(b): input and output choppers
                                     must pair
=======  ==========================  =========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.erc.graph import CircuitGraph, CircuitNode
from repro.errors import ConfigurationError
from repro.findings import Severity, finite_or_none
from repro.si.headroom import HeadroomAnalysis

__all__ = [
    "Severity",
    "ErcViolation",
    "Rule",
    "RuleRegistry",
    "default_registry",
    "ClockPhaseRule",
    "HeadroomRule",
    "CmffCoverageRule",
    "ClassABBiasRule",
    "UnitsRule",
    "FanoutRule",
    "FullScaleRule",
    "ChopperPairingRule",
    "MAX_MODELED_MODULATION_INDEX",
    "DEFAULT_MAX_FANOUT",
]

#: Largest class-AB modulation index the behavioural models are
#: calibrated for.  The paper's measurements stop at m_i = 4 (the 8 uA
#: delay-line input on a 2 uA quiescent current); beyond about twice
#: that the square-law split and the GGA drive-margin model are
#: extrapolating.
MAX_MODELED_MODULATION_INDEX: float = 8.0

#: Default limit on how many receivers one mirrored output may drive.
#: Every SI output is a current-mirror copy; each extra receiver costs
#: one more output branch, and past a handful the added drain
#: capacitance breaks the settling budget.
DEFAULT_MAX_FANOUT: int = 4


@dataclass(frozen=True)
class ErcViolation:
    """One rule violation found in a design graph.

    Attributes
    ----------
    rule:
        Stable rule code, e.g. ``"ERC001"``.
    severity:
        How bad it is; :attr:`Severity.ERROR` blocks simulation.
    node:
        Name of the offending node, or ``None`` for graph-level
        violations.
    message:
        Human-readable description with the offending values.
    """

    rule: str
    severity: Severity
    node: str | None
    message: str

    def __str__(self) -> str:
        where = self.node if self.node is not None else "<design>"
        return f"[{self.rule}/{self.severity.name}] {where}: {self.message}"


class Rule:
    """Base class for ERC rules.

    Subclasses set the class attributes and implement :meth:`check`.
    """

    #: Stable identifier, e.g. ``"ERC001"``.
    code: str = "ERC000"
    #: Short kebab-case name.
    name: str = "abstract"
    #: Default severity of this rule's violations.
    severity: Severity = Severity.ERROR
    #: One-line description for ``repro erc --rules``.
    description: str = ""

    def check(self, graph: CircuitGraph) -> Iterator[ErcViolation]:
        """Yield the violations found in ``graph``."""
        raise NotImplementedError

    def violation(
        self, message: str, node: str | None = None, severity: Severity | None = None
    ) -> ErcViolation:
        """Build a violation tagged with this rule's code."""
        return ErcViolation(
            rule=self.code,
            severity=self.severity if severity is None else severity,
            node=node,
            message=message,
        )


class RuleRegistry:
    """An ordered collection of rules, addressable by code.

    Parameters
    ----------
    rules:
        Initial rules; more can be added with :meth:`register`.
    """

    def __init__(self, rules: Iterable[Rule] = ()) -> None:
        self._rules: dict[str, Rule] = {}
        for rule in rules:
            self.register(rule)

    def register(self, rule: Rule) -> Rule:
        """Add a rule.

        Raises
        ------
        ConfigurationError
            If a rule with the same code is already registered.
        """
        if rule.code in self._rules:
            raise ConfigurationError(f"duplicate rule code {rule.code!r}")
        self._rules[rule.code] = rule
        return rule

    def get(self, code: str) -> Rule:
        """Return the rule with the given code.

        Raises
        ------
        ConfigurationError
            If no such rule is registered.
        """
        try:
            return self._rules[code]
        except KeyError:
            raise ConfigurationError(f"no rule with code {code!r}") from None

    def codes(self) -> list[str]:
        """Return the registered codes in registration order."""
        return list(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def without(self, *codes: str) -> "RuleRegistry":
        """Return a copy of the registry with some rules removed."""
        return RuleRegistry(r for r in self if r.code not in codes)


# -- the built-in rules ------------------------------------------------

#: Node kinds that hold a stored sample behind a memory transistor and
#: therefore participate in clocking/cascade checks.
STAGE_KINDS: frozenset[str] = frozenset({"memory_cell"})


class ClockPhaseRule(Rule):
    """ERC001: cascaded memory cells must alternate clock phases.

    A second-generation cell samples on one phase and delivers on the
    other; two directly cascaded cells sampling on the *same* phase
    would require the first cell's output while it is itself sampling.
    Additionally, no cell may declare the same phase for sampling and
    reading -- that is the single-phase error the two-phase
    non-overlapping clock exists to prevent.
    """

    code = "ERC001"
    name = "clock-phases"
    severity = Severity.ERROR
    description = "cascaded memory cells alternate PHI1/PHI2"

    def check(self, graph: CircuitGraph) -> Iterator[ErcViolation]:
        for node in graph.nodes("memory_cell"):
            sample = node.param("sample_phase")
            read = node.param("read_phase")
            if sample is None:
                yield self.violation(
                    "memory cell declares no sample_phase", node.name
                )
                continue
            if read is not None and read == sample:
                yield self.violation(
                    f"cell is sampled and read on the same phase "
                    f"({getattr(sample, 'name', sample)})",
                    node.name,
                )
        for run in graph.cascades(STAGE_KINDS):
            for driver, receiver in zip(run, run[1:]):
                p1 = driver.param("sample_phase")
                p2 = receiver.param("sample_phase")
                if p1 is None or p2 is None:
                    continue
                if p1 == p2:
                    yield self.violation(
                        f"cascaded cells {driver.name!r} and {receiver.name!r} "
                        f"both sample on {getattr(p1, 'name', p1)}; adjacent "
                        "cells must alternate phases",
                        receiver.name,
                    )


class HeadroomRule(Rule):
    """ERC002: every cell must fit the supply per Eqs. (1)-(2).

    Evaluates the paper's minimum-supply equations at the cell's
    intended modulation index (peak signal over quiescent current) and
    flags cells whose binding constraint exceeds the configured supply
    voltage.
    """

    code = "ERC002"
    name = "headroom"
    severity = Severity.ERROR
    description = "supply satisfies Eqs. (1)-(2) at the design swing"

    def check(self, graph: CircuitGraph) -> Iterator[ErcViolation]:
        for node in graph.nodes("memory_cell"):
            supply = graph.node_param(node, "supply_voltage")
            quiescent = node.param("quiescent_current")
            peak = node.param("peak_signal_current")
            if supply is None or not _is_positive(quiescent):
                continue
            analysis = graph.node_param(node, "headroom_analysis")
            if not isinstance(analysis, HeadroomAnalysis):
                analysis = HeadroomAnalysis()
            modulation_index = (
                abs(peak) / quiescent if _is_positive(peak) else 0.0
            )
            budget = analysis.evaluate(modulation_index)
            if not budget.feasible_at(supply):
                yield self.violation(
                    f"needs V_dd >= {budget.vdd_min:.2f} V "
                    f"({budget.binding_constraint} binds at modulation index "
                    f"{modulation_index:.1f}) but the supply is {supply:.2f} V",
                    node.name,
                )


class CmffCoverageRule(Rule):
    """ERC003: differential cascades need common-mode control.

    An SI stage passes its common-mode component along with the
    differential signal, and each stage adds its own common-mode
    charge-injection residue; an *integrating* stage has infinite DC
    common-mode gain and will integrate any residue without bound.
    Multi-stage differential cascades must therefore attach a CMFF (or
    CMFB) stage.  Missing coverage is an ERROR when any stage in the
    run integrates (the modulator loops), and a WARNING for plain
    delay cascades, whose residue grows only linearly with length --
    the paper's two-cell delay line ships without common-mode control.
    """

    code = "ERC003"
    name = "cmff-coverage"
    severity = Severity.ERROR
    description = "multi-stage differential cascades carry CMFF/CMFB"

    _CM_KINDS = frozenset({"cmff", "cmfb"})

    def _has_cm_control(self, graph: CircuitGraph, run: list[CircuitNode]) -> bool:
        for stage in run:
            for neighbour in graph.successors(stage.name):
                if neighbour.kind in self._CM_KINDS:
                    return True
            for neighbour in graph.predecessors(stage.name):
                if neighbour.kind in self._CM_KINDS:
                    return True
        return False

    def check(self, graph: CircuitGraph) -> Iterator[ErcViolation]:
        for run in graph.cascades(STAGE_KINDS):
            stages = [n for n in run if n.param("differential", True)]
            if len(stages) < 2:
                continue
            if self._has_cm_control(graph, run):
                continue
            integrating = any(n.param("integrating", False) for n in run)
            severity = Severity.ERROR if integrating else Severity.WARNING
            names = ", ".join(n.name for n in stages)
            yield self.violation(
                f"differential cascade of {len(stages)} stages ({names}) has "
                "no CMFF/CMFB stage attached"
                + (
                    "; an integrating stage accumulates common mode without bound"
                    if integrating
                    else ""
                ),
                stages[0].name,
                severity,
            )


class ClassABBiasRule(Rule):
    """ERC004: the class-AB bias must cover the intended signal swing.

    The class-AB cell's power advantage is that the signal may exceed
    the quiescent current -- but only within the range the square-law
    split and GGA drive-margin models are calibrated for
    (:data:`MAX_MODELED_MODULATION_INDEX`).  A class-A stage, by
    contrast, hard-clips at a modulation index of 1.
    """

    code = "ERC004"
    name = "class-ab-bias"
    severity = Severity.ERROR
    description = "peak signal vs quiescent current within the modeled range"

    def check(self, graph: CircuitGraph) -> Iterator[ErcViolation]:
        for node in graph.nodes("memory_cell"):
            quiescent = node.param("quiescent_current")
            peak = node.param("peak_signal_current")
            if not _is_positive(quiescent) or not _is_positive(peak):
                continue
            modulation_index = abs(peak) / quiescent
            cell_class = node.param("cell_class", "class_ab")
            if cell_class == "class_a":
                if modulation_index > 1.0:
                    yield self.violation(
                        f"class-A stage clips: peak {peak:.3g} A exceeds the "
                        f"bias {quiescent:.3g} A (modulation index "
                        f"{modulation_index:.1f} > 1)",
                        node.name,
                    )
                continue
            limit = graph.node_param(
                node, "max_modulation_index", MAX_MODELED_MODULATION_INDEX
            )
            if modulation_index > limit:
                yield self.violation(
                    f"modulation index {modulation_index:.1f} "
                    f"(peak {peak:.3g} A over quiescent {quiescent:.3g} A) "
                    f"exceeds the modeled class-AB range of {limit:g}",
                    node.name,
                )


class UnitsRule(Rule):
    """ERC005: configuration values must be in base SI units.

    The classic configuration mistake is entering microamps as amps
    (``quiescent_current=2.0`` instead of ``2e-6``): everything still
    "runs", just nonsensically.  Currents above 10 mA are flagged as
    almost certainly mis-scaled; frequencies must be positive and
    finite; the oversampling ratio must be an integer >= 4, and a
    power of two if the decimator is to stay simple.
    """

    code = "ERC005"
    name = "units"
    severity = Severity.ERROR
    description = "currents in amps, frequencies positive, OSR sane"

    #: Currents at or above this are treated as unit mistakes: the
    #: paper's whole circuit draws ~200 uA.
    CURRENT_SANITY_LIMIT: float = 1e-2

    _CURRENT_SUFFIXES = ("_current", "_scale", "_rms")
    #: Keys that must be strictly positive (a clock cannot be 0 Hz).
    _POSITIVE_KEYS = ("sample_rate", "frequency")
    #: Keys that may be zero (zero disables the mechanism) but not
    #: negative.
    _NON_NEGATIVE_KEYS = ("bandwidth", "corner_hz")

    def _check_params(
        self, owner: str | None, params: dict[str, object]
    ) -> Iterator[ErcViolation]:
        for key, value in params.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if not math.isfinite(value):
                yield self.violation(
                    f"{key} is not finite ({value!r})", owner
                )
                continue
            if any(key.endswith(suffix) for suffix in self._CURRENT_SUFFIXES):
                if abs(value) >= self.CURRENT_SANITY_LIMIT:
                    yield self.violation(
                        f"{key} = {value:g} A is implausibly large; currents "
                        "are in amperes (did a uA value lose its 1e-6?)",
                        owner,
                    )
            if any(key == fk or key.endswith(fk) for fk in self._POSITIVE_KEYS):
                if value <= 0.0:
                    yield self.violation(
                        f"{key} must be positive, got {value:g}", owner
                    )
            elif any(key == fk or key.endswith(fk) for fk in self._NON_NEGATIVE_KEYS):
                if value < 0.0:
                    yield self.violation(
                        f"{key} must be non-negative, got {value:g}", owner
                    )
            if key == "oversampling_ratio":
                if value != int(value) or value < 4:
                    yield self.violation(
                        f"oversampling_ratio must be an integer >= 4, "
                        f"got {value!r}",
                        owner,
                    )
                elif int(value) & (int(value) - 1):
                    yield self.violation(
                        f"oversampling_ratio {int(value)} is not a power of "
                        "two; the sinc decimator needs power-of-two stages",
                        owner,
                        Severity.WARNING,
                    )

    def check(self, graph: CircuitGraph) -> Iterator[ErcViolation]:
        yield from self._check_params(None, graph.params)
        for node in graph.nodes():
            yield from self._check_params(node.name, dict(node.params))


class FanoutRule(Rule):
    """ERC006: a mirrored output drives a bounded number of receivers.

    Current-mode outputs are not voltage rails: every receiver needs
    its own mirror output branch, and each branch adds drain
    capacitance to the settling path.  The limit is per node
    (``max_fanout`` parameter), falling back to the graph-level value
    and then to :data:`DEFAULT_MAX_FANOUT`.
    """

    code = "ERC006"
    name = "fanout"
    severity = Severity.ERROR
    description = "mirrored outputs within their fan-out limit"

    _LIMITED_KINDS = frozenset({"memory_cell", "mirror", "cmff", "cmfb"})

    def check(self, graph: CircuitGraph) -> Iterator[ErcViolation]:
        for node in graph.nodes():
            if node.kind not in self._LIMITED_KINDS and "max_fanout" not in node.params:
                continue
            limit = graph.node_param(node, "max_fanout", DEFAULT_MAX_FANOUT)
            degree = graph.out_degree(node.name)
            if degree > limit:
                yield self.violation(
                    f"drives {degree} receivers but the mirrored output "
                    f"supports at most {limit}",
                    node.name,
                )


class FullScaleRule(Rule):
    """ERC007: quantizer and DAC must agree on the loop full scale.

    The 1-bit feedback DAC's reference current *is* the modulator's
    0 dB level; a DAC built with a different full scale than the loop
    (or than other DACs in the same loop) silently rescales the entire
    transfer function.
    """

    code = "ERC007"
    name = "full-scale"
    severity = Severity.ERROR
    description = "quantizer/DAC full-scale agreement in loops"

    #: Relative disagreement tolerated between references.
    RELATIVE_TOLERANCE: float = 1e-9

    def check(self, graph: CircuitGraph) -> Iterator[ErcViolation]:
        loop_full_scale = graph.param("full_scale")
        dacs = list(graph.nodes("dac"))
        quantizers = list(graph.nodes("quantizer"))
        if dacs and not quantizers:
            yield self.violation(
                "loop has a feedback DAC but no quantizer driving it"
            )
        if quantizers and not dacs:
            yield self.violation(
                "loop has a quantizer but no feedback DAC closing it"
            )
        references = []
        if _is_positive(loop_full_scale):
            references.append(("<design>", float(loop_full_scale)))
        for node in dacs:
            value = node.param("full_scale")
            if _is_positive(value):
                references.append((node.name, float(value)))
        for owner, value in references[1:]:
            base_owner, base = references[0]
            if abs(value - base) > self.RELATIVE_TOLERANCE * max(abs(base), abs(value)):
                yield self.violation(
                    f"full scale {value:g} A disagrees with {base_owner} "
                    f"reference {base:g} A",
                    None if owner == "<design>" else owner,
                )


class ChopperPairingRule(Rule):
    """ERC008: input and output choppers must pair.

    A chopper-stabilised loop translates the signal to f_s/2 at the
    input and back to baseband at the output.  An unpaired chopper
    leaves the signal parked at Nyquist (missing output chopper) or
    chops plain baseband noise into the signal band (missing input
    chopper).
    """

    code = "ERC008"
    name = "chopper-pairing"
    severity = Severity.ERROR
    description = "input and output choppers pair up"

    def check(self, graph: CircuitGraph) -> Iterator[ErcViolation]:
        inputs = []
        outputs = []
        for node in graph.nodes("chopper"):
            role = node.param("role")
            if role == "input":
                inputs.append(node)
            elif role == "output":
                outputs.append(node)
            else:
                yield self.violation(
                    f"chopper declares no valid role (got {role!r}; "
                    "expected 'input' or 'output')",
                    node.name,
                )
        if not inputs and not outputs:
            return
        if len(inputs) != len(outputs):
            yield self.violation(
                f"{len(inputs)} input chopper(s) vs {len(outputs)} output "
                "chopper(s); every input chopper needs a matching output "
                "chopper to translate the signal back to baseband"
            )


def _is_positive(value: object) -> bool:
    """Return True when ``value`` is a positive finite number."""
    number = finite_or_none(value)
    return number is not None and number > 0.0


def default_registry() -> RuleRegistry:
    """Return a fresh registry holding the eight built-in rules."""
    return RuleRegistry(
        [
            ClockPhaseRule(),
            HeadroomRule(),
            CmffCoverageRule(),
            ClassABBiasRule(),
            UnitsRule(),
            FanoutRule(),
            FullScaleRule(),
            ChopperPairingRule(),
        ]
    )
