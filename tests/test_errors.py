"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    AnalysisError,
    ClockingError,
    ConfigurationError,
    ReproError,
    StimulusError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            ClockingError,
            AnalysisError,
            StimulusError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_repro_error_is_an_exception(self):
        assert issubclass(ReproError, Exception)

    def test_catching_base_catches_derived(self):
        with pytest.raises(ReproError):
            raise ConfigurationError("negative quiescent current")
