"""CLI tests: repro erc exit codes and --help for every verb in the table."""

import pytest

from repro.cli import VERBS, build_parser, list_commands, main
from repro.designs import DESIGNS

#: Every verb the CLI declares, in table order.
NAMES = [name for name, _, _, _ in VERBS]


class TestErcCommand:
    def test_clean_design_exits_zero(self, capsys):
        assert main(["erc", "mod2"]) == 0
        out = capsys.readouterr().out
        assert "ERC PASS: SIModulator2" in out
        assert "no violations" in out

    def test_all_designs_exit_zero(self, capsys):
        assert main(["erc", "all"]) == 0
        out = capsys.readouterr().out
        assert out.count("ERC PASS") == len(DESIGNS)

    def test_strict_promotes_warning_to_failure(self, capsys):
        # The paper's delay line ships without CMFF, so ERC003 warns.
        assert main(["erc", "delay-line"]) == 0
        assert main(["erc", "delay-line", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "ERC003" in out

    def test_min_severity_hides_warning(self, capsys):
        assert main(["erc", "delay-line", "--min-severity", "error"]) == 0
        out = capsys.readouterr().out
        assert "ERC003" not in out
        assert "no violations" in out

    def test_strict_with_min_severity_error_still_passes(self):
        # Filtering below ERROR removes the warnings strict mode trips on.
        assert main(["erc", "delay-line", "--min-severity", "error", "--strict"]) == 0

    def test_unknown_design_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["erc", "flux-capacitor"])
        assert excinfo.value.code == 2


class TestListing:
    def test_list_flag_names_every_command(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in NAMES:
            assert name in out

    def test_list_has_one_line_descriptions(self):
        lines = [line for line in list_commands().splitlines() if line.strip()]
        # One line per row of the verb table.
        assert len(lines) == len(VERBS)
        for line in lines:
            name, _, description = line.strip().partition(" ")
            assert description.strip(), f"{name} has no description"

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "erc" in capsys.readouterr().out


class TestHelpSmoke:
    @pytest.mark.parametrize("name", NAMES)
    def test_every_listed_command_parses_help(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([name, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0
