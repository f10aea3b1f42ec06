"""The design catalog: derived structure, and one set of names everywhere.

``fixtures/design_structure.json`` was generated from the hand-written
ERC graphs and probe attachments the catalog and the loops' stage
declaration replaced.  It records every design's graph (name, params,
nodes and edges, all in insertion order) and every runnable design's
probes after ``attach_telemetry(session, supply_voltage=3.3)``; the
derived views must reproduce it exactly.
"""

import enum
import json
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.designs import DESIGNS, design_names, resolve
from repro.errors import ConfigurationError
from repro.service.app import normalize_request
from repro.telemetry.session import TelemetrySession

FIXTURE = Path(__file__).parent / "fixtures" / "design_structure.json"

RUNNABLE = sorted(name for name, entry in DESIGNS.items() if entry.operating_point)


def _plain(value):
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _graph(entry):
    graph = entry.graph()
    return {
        "name": graph.name,
        "params": _plain(graph.params),
        "nodes": [
            [node.name, node.kind, _plain(dict(node.params))] for node in graph.nodes()
        ],
        "edges": [list(edge) for edge in graph.edges()],
    }


def _probes(entry):
    session = TelemetrySession("structure")
    entry.build().attach_telemetry(session, supply_voltage=3.3)
    return [
        [probe.name, probe.full_scale, probe.clip_limit, _plain(probe.meta)]
        for probe in session.probes.values()
    ]


class TestDerivedStructure:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(FIXTURE.read_text())

    def test_fixture_covers_the_catalog(self, golden):
        assert sorted(golden["graphs"]) == sorted(DESIGNS)
        assert sorted(golden["probes"]) == RUNNABLE

    @pytest.mark.parametrize("name", sorted(DESIGNS))
    def test_graph_matches_fixture(self, golden, name):
        # Compared as JSON text, so dict insertion order counts too.
        expected = json.dumps(golden["graphs"][name], indent=1)
        assert json.dumps(_graph(DESIGNS[name]), indent=1) == expected

    @pytest.mark.parametrize("name", RUNNABLE)
    def test_probes_match_fixture(self, golden, name):
        expected = json.dumps(golden["probes"][name], indent=1)
        assert json.dumps(_probes(DESIGNS[name]), indent=1) == expected

    @pytest.mark.parametrize("name", ["modulator1", "modulator2", "chopper"])
    def test_detach_drops_every_loop_probe(self, name):
        device = DESIGNS[name].build()
        device.attach_telemetry(TelemetrySession(name))
        device.detach_telemetry()
        assert device._telemetry is None
        for _, stage, _ in device.stages():
            assert stage._cell._probe is None
            assert stage.cmff._probe is None


class TestResolve:
    @pytest.mark.parametrize("name", design_names())
    def test_every_name_resolves_to_its_entry(self, name):
        entry = resolve(name)
        assert name == entry.name or name in entry.aliases
        assert DESIGNS[entry.name] is entry

    def test_unknown_name_lists_the_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve("flux-capacitor")
        message = str(excinfo.value)
        assert message.startswith("unknown design 'flux-capacitor'; available: ")
        for name in design_names():
            assert name in message

    def test_erc_only_design_refuses_an_operating_point(self):
        with pytest.raises(ConfigurationError) as excinfo:
            resolve("biquad-cascade").point
        for name in design_names(runnable=True):
            assert name in str(excinfo.value)

    def test_choices_order_is_canonical_then_aliases(self):
        assert design_names(runnable=True) == [
            "chopper", "delay-line", "modulator1", "modulator2", "mod1", "mod2",
        ]
        assert design_names() == ["biquad-cascade", *design_names(runnable=True)]


def _parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return False
    return True


class TestNameParity:
    """Every verb accepts the same names for the same designs."""

    @pytest.mark.parametrize("name", [*design_names(), "flux-capacitor"])
    def test_parsers_accept_exactly_the_catalog(self, name, capsys):
        known = name in design_names()
        runnable = known and resolve(name).operating_point is not None
        assert _parses(["erc", name]) == known
        for verb in ("trace", "report", "sweep"):
            assert _parses([verb, name]) == runnable, verb

    @pytest.mark.parametrize("name", design_names(runnable=True))
    def test_alias_and_canonical_name_digest_identically(self, name):
        canonical = resolve(name).name
        for extra in ({}, {"n_samples": 16384, "noise_scale": 2.0}):
            by_name = normalize_request({"design": name, **extra})
            by_canonical = normalize_request({"design": canonical, **extra})
            assert by_name.params["design"] == canonical
            assert by_name.digest() == by_canonical.digest()
