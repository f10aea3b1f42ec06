"""Request normalization, the canonical form behind service dedup; ledger appends."""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.errors import ServiceError
from repro.observability.ledger import LedgerEntry, RunLedger
from repro.service.app import (
    DEFAULT_REPORT_SAMPLES,
    MAX_REQUEST_SAMPLES,
    ServiceConfig,
    SimulationService,
    normalize_request,
)


class TestReportRequests:
    def test_defaults_are_materialized(self):
        request = normalize_request({"design": "modulator2"})
        assert request.kind == "report"
        assert request.params == {
            "design": "modulator2",
            "n_samples": DEFAULT_REPORT_SAMPLES,
            "sweep": True,
            "noise_scale": 1.0,
            "mismatch": 0.0,
        }

    def test_aliases_digest_identically(self):
        short = normalize_request({"design": "mod2", "n_samples": 8192})
        long = normalize_request({"design": "modulator2", "n_samples": 8192})
        assert short.params["design"] == long.params["design"]
        assert short.digest() == long.digest()

    def test_spelled_out_defaults_digest_identically(self):
        bare = normalize_request({"design": "mod2"})
        explicit = normalize_request(
            {
                "design": "mod2",
                "n_samples": DEFAULT_REPORT_SAMPLES,
                "sweep": True,
                "noise_scale": 1,
                "mismatch": 0,
            }
        )
        assert bare.digest() == explicit.digest()

    def test_paper_fft_length_is_accepted(self):
        request = normalize_request({"design": "mod2", "n_samples": 1 << 16})
        assert request.params["n_samples"] == MAX_REQUEST_SAMPLES == 1 << 16

    def test_knobs_are_stored_as_floats(self):
        params = normalize_request(
            {"design": "mod2", "noise_scale": 1, "mismatch": 0, "sweep": False}
        ).params
        assert (params["noise_scale"], params["mismatch"]) == (1.0, 0.0)
        assert type(params["noise_scale"]) is float
        assert params["sweep"] is False

    def test_different_params_digest_differently(self):
        a = normalize_request({"design": "mod2"})
        b = normalize_request({"design": "mod2", "noise_scale": 2.0})
        assert a.digest() != b.digest()

    @pytest.mark.parametrize(
        "raw",
        [
            {},
            {"design": ""},
            {"design": 7},
            {"design": "no-such-design"},
            {"design": "mod2", "n_samples": "many"},
            {"design": "mod2", "n_samples": True},
            {"design": "mod2", "n_samples": 1024},
            {"design": "mod2", "noise_scale": "loud"},
            {"kind": "unknown", "design": "mod2"},
            "not-a-mapping",
            # Knobs the model cannot take: refused at submit, not run.
            {"design": "mod2", "noise_scale": float("nan")},
            {"design": "mod2", "noise_scale": float("inf")},
            {"design": "mod2", "noise_scale": -1.0},
            {"design": "mod2", "mismatch": float("nan")},
            {"design": "mod2", "mismatch": float("inf")},
            {"design": "mod2", "mismatch": 1.0},
            # Fields are read as sent, not coerced into something else.
            {"design": "mod2", "sweep": "no"},
            {"design": "mod2", "sweep": 0},
            {"design": "mod2", "noise_scale": "1e0"},
            {"design": "mod2", "noise_scale": True},
            # Past the paper's 64K FFT a request could hold a worker
            # and the host's memory indefinitely.
            {"design": "mod2", "n_samples": MAX_REQUEST_SAMPLES + 1},
            {"design": "mod2", "n_samples": 10**12},
        ],
    )
    def test_invalid_requests_raise_service_error(self, raw):
        with pytest.raises(ServiceError):
            normalize_request(raw)


class TestSweepRequests:
    SPEC = {
        "design": "modulator2",
        "levels_db": [-40.0, -20.0],
        "full_scale": 2e-6,
        "signal_frequency": 1953.125,
        "sample_rate": 1_000_000.0,
        "n_samples": 8192,
        "bandwidth": 3400.0,
    }

    def test_spec_normalizes_to_its_cache_key(self):
        request = normalize_request({"kind": "sweep", "spec": self.SPEC})
        assert request.kind == "sweep"
        assert request.params["kind"] == "amplitude-sweep"
        assert request.params["design"] == "modulator2"
        assert request.params["levels_db"] == [-40.0, -20.0]

    def test_design_spellings_share_one_digest(self):
        # An alias and its name are one sweep: queued, run and cached once.
        alias = normalize_request({"kind": "sweep", "spec": dict(self.SPEC, design="mod2")})
        name = normalize_request({"kind": "sweep", "spec": self.SPEC})
        assert alias.params == name.params
        assert alias.digest() == name.digest()

    def test_levels_coerce_before_digesting(self):
        ints = dict(self.SPEC, levels_db=[-40, -20])
        a = normalize_request({"kind": "sweep", "spec": self.SPEC})
        b = normalize_request({"kind": "sweep", "spec": ints})
        assert a.digest() == b.digest()

    @pytest.mark.parametrize(
        "raw",
        [
            {"kind": "sweep"},
            {"kind": "sweep", "spec": "not-a-mapping"},
            {"kind": "sweep", "spec": {"design": "mod2", "bogus": 1}},
            {"kind": "sweep", "spec": dict(SPEC, levels_db=[float("nan")])},
            {"kind": "sweep", "spec": dict(SPEC, levels_db=["nan"])},
            {"kind": "sweep", "spec": dict(SPEC, levels_db=["abc"])},
            # A grid that could only fail in the run, or mislead.
            {"kind": "sweep", "spec": dict(SPEC, levels_db=[])},
            {"kind": "sweep", "spec": dict(SPEC, levels_db=[5000.0])},
            {"kind": "sweep", "spec": dict(SPEC, noise_scale=float("nan"))},
            {"kind": "sweep", "spec": dict(SPEC, noise_scale=float("inf"))},
            {"kind": "sweep", "spec": dict(SPEC, noise_scale=-1.0)},
            {"kind": "sweep", "spec": dict(SPEC, noise_scale="2")},
            {"kind": "sweep", "spec": dict(SPEC, mismatch=float("nan"))},
            {"kind": "sweep", "spec": dict(SPEC, mismatch=-1.0)},
            {"kind": "sweep", "spec": dict(SPEC, n_samples=0)},
            {"kind": "sweep", "spec": dict(SPEC, n_samples=-5)},
            {"kind": "sweep", "spec": dict(SPEC, n_samples=MAX_REQUEST_SAMPLES + 1)},
            {"kind": "sweep", "spec": dict(SPEC, n_samples=10**12)},
            {"kind": "sweep", "spec": dict(SPEC, sample_rate=float("nan"))},
            {"kind": "sweep", "spec": dict(SPEC, full_scale=-1.0)},
            {"kind": "sweep", "spec": dict(SPEC, bandwidth=float("inf"))},
            {"kind": "sweep", "spec": dict(SPEC, settle_samples=-1)},
            {"kind": "sweep", "spec": dict(SPEC, window="nope")},
            {"kind": "sweep", "spec": dict(SPEC, signal_frequency=float("nan"))},
            {"kind": "sweep", "spec": dict(SPEC, design="flux-capacitor")},
            {"kind": "sweep", "spec": dict(SPEC, design="biquad-cascade")},
        ],
    )
    def test_invalid_specs_raise_service_error(self, raw):
        with pytest.raises(ServiceError):
            normalize_request(raw)

    def test_valid_knobs_are_checked_not_coerced(self):
        # The knob check leaves a valid value as sent, so the cache key
        # and digest of an existing request do not move.
        spec = dict(self.SPEC, noise_scale=2, mismatch=0)
        params = normalize_request({"kind": "sweep", "spec": spec}).params
        assert (params["noise_scale"], params["mismatch"]) == (2, 0)
        assert type(params["noise_scale"]) is int


class TestLedgerAppends:
    N_JOBS = 6

    def test_each_executed_job_parses_only_new_ledger_lines(self, tmp_path, monkeypatch):
        # A stand-in report runner: each job's manifest is its own knob,
        # so every executed job appends one distinct entry.
        def run_report(service, job, session):
            params = job.request.params
            return {"design": params["design"], "noise_scale": params["noise_scale"]}

        monkeypatch.setattr(SimulationService, "_run_report", run_report)
        ledger_dir = tmp_path / "ledger"
        service = SimulationService(
            ServiceConfig(cache_dir=str(tmp_path / "cache"), ledger_dir=str(ledger_dir))
        )
        parsed = 0
        try:
            for k in range(self.N_JOBS):
                knob = float(k + 1)
                if k == 3:
                    # Another process appends the entry the next job makes.
                    RunLedger(ledger_dir).append(
                        "report", {"design": "modulator2", "noise_scale": knob}, design="modulator2"
                    )
                with mock.patch.object(
                    LedgerEntry, "from_dict", wraps=LedgerEntry.from_dict
                ) as parse:
                    job, _ = service.submit({"design": "modulator2", "noise_scale": knob})
                    assert job.wait(timeout=30.0) and job.error is None
                parsed += parse.call_count
        finally:
            service.close()
        lines = (ledger_dir / "ledger.jsonl").read_text().splitlines()
        ids = [json.loads(line)["entry_id"] for line in lines]
        assert len(ids) == len(set(ids)) == self.N_JOBS
        # Parsing the whole file for every job would read 16 lines here.
        assert parsed <= len(lines)
