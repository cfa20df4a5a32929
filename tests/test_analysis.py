"""Tests for the nomadlint static-analysis subsystem (rule registry,
fixture suite, the text report, and the ``analyze`` subcommand)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.report import render_text
from repro.analysis.rules import (
    HYGIENE_TIER,
    INVARIANT_TIER,
    RULES,
    Rule,
    ensure_rules_loaded,
    register_rule,
    rules_table,
)
from repro.analysis.runner import analyze_paths, iter_python_files
from repro.cli import main as cli_main
from repro.errors import AnalysisError, ReproError

FIXTURES = Path(__file__).parent / "analysis_fixtures"

ALL_CODES = (
    "NMD001",
    "NMD002",
    "NMD003",
    "NMD004",
    "NMD005",
    "NMD006",
    "NMD101",
    "NMD102",
    "NMD103",
    "NMD104",
)

#: rule code -> (flagged fixture, expected finding count, clean fixture)
FIXTURE_PAIRS = {
    "NMD001": ("runtime/nmd001_flagged.py", 3, "runtime/nmd001_clean.py"),
    "NMD002": ("nmd002_flagged.py", 1, "nmd002_clean.py"),
    "NMD003": ("nmd003_flagged.py", 2, "nmd003_clean.py"),
    "NMD004": ("nmd004_flagged.py", 2, "nmd004_clean.py"),
    "NMD005": ("runtime/nmd005_flagged.py", 2, "runtime/nmd005_clean.py"),
    "NMD006": ("runtime/nmd006_flagged.py", 2, "runtime/nmd006_clean.py"),
    "NMD101": ("nmd101_flagged.py", 2, "nmd101_clean.py"),
    "NMD102": ("nmd102_flagged.py", 3, "nmd102_clean.py"),
    "NMD103": ("nmd103_flagged.py", 3, "nmd103_clean.py"),
    "NMD104": ("runtime/nmd104_flagged.py", 2, "runtime/multiprocess.py"),
}


def codes_of(report):
    return sorted(f.code for f in report.findings)


def analyze_fixture(name):
    return analyze_paths([str(FIXTURES / name)])


# ---------------------------------------------------------------------------
# Rule registry


class TestRegistry:
    def test_all_rules_registered(self):
        ensure_rules_loaded()
        assert set(ALL_CODES) <= set(RULES)

    def test_tiers_match_code_ranges(self):
        ensure_rules_loaded()
        for code, rule in RULES.items():
            number = int(code[3:])
            expected = INVARIANT_TIER if number < 100 else HYGIENE_TIER
            assert rule.tier == expected, code

    def test_duplicate_code_rejected(self):
        ensure_rules_loaded()

        with pytest.raises(AnalysisError, match="already registered"):

            @register_rule
            class Clash(Rule):
                code = "NMD001"
                name = "clash"
                description = "duplicate code"

    def test_malformed_code_rejected(self):
        with pytest.raises(AnalysisError, match="malformed code"):

            @register_rule
            class Bad(Rule):
                code = "NMD1"
                name = "bad"
                description = "short code"

    def test_name_and_description_required(self):
        with pytest.raises(AnalysisError, match="name and a description"):

            @register_rule
            class Nameless(Rule):
                code = "NMD999"

    def test_rules_table_lists_every_rule(self):
        rows = list(rules_table())
        assert [row[0] for row in rows] == sorted(RULES)
        for code, name, tier, description in rows:
            assert name and description
            assert tier in (INVARIANT_TIER, HYGIENE_TIER)


# ---------------------------------------------------------------------------
# Fixture suite: one flagged + one clean fixture per rule


class TestFixtures:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_flagged_fixture_fires(self, code):
        flagged, count, _ = FIXTURE_PAIRS[code]
        report = analyze_fixture(flagged)
        assert codes_of(report) == [code] * count

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_clean_fixture_is_silent(self, code):
        _, _, clean = FIXTURE_PAIRS[code]
        report = analyze_fixture(clean)
        assert codes_of(report) == []
        assert report.exit_code == 0


class TestHttpServerAcquisition:
    """NMD004 extension for repro.serve: an HTTP server binds its
    listening socket at construction, so acquiring one without a close
    path leaks the socket like any raw ``socket.create_server``."""

    def test_flagged_http_fixture_fires(self):
        report = analyze_fixture("nmd004_http_flagged.py")
        assert codes_of(report) == ["NMD004", "NMD004"]
        symbols = {f.symbol for f in report.findings}
        assert symbols == {"LeakyService.__init__", "serve_once"}

    def test_clean_http_fixture_is_silent(self):
        report = analyze_fixture("nmd004_http_clean.py")
        assert codes_of(report) == []
        assert report.exit_code == 0


class TestBoundTokenKernel:
    """NMD001 extension for ``KernelBackend.bind_tokens``: the returned
    kernel's ``process_tokens`` mutates W and a burst of ``h_j`` rows, so
    calling it is a factor write like any other kernel call."""

    def test_flagged_tokens_fixture_fires(self):
        report = analyze_fixture("runtime/nmd001_tokens_flagged.py")
        assert codes_of(report) == ["NMD001", "NMD001"]
        symbols = {f.symbol for f in report.findings}
        assert symbols == {"replay", "Prefetcher.warm"}

    def test_clean_tokens_fixture_is_silent(self):
        report = analyze_fixture("runtime/nmd001_tokens_clean.py")
        assert codes_of(report) == []
        assert report.exit_code == 0


class TestBoundKernelSingleToken:
    """NMD001 extension for ``TokenKernel.process_token``: a burst of one
    is still a factor write."""

    def test_flagged_token_fixture_fires(self):
        report = analyze_fixture("runtime/nmd001_token_flagged.py")
        assert codes_of(report) == ["NMD001"]
        assert {f.symbol for f in report.findings} == {"peek"}

    def test_clean_token_fixture_is_silent(self):
        report = analyze_fixture("runtime/nmd001_token_clean.py")
        assert codes_of(report) == []
        assert report.exit_code == 0


class TestAcceptanceCriteria:
    """The two regressions the checker exists to make unrepresentable."""

    def test_nmd003_catches_the_shared_memory_leak(self):
        # nmd003_flagged.py reproduces the MultiprocessNomad leak fixed
        # in PR 4: blocks closed in the finally but never unlinked.
        report = analyze_fixture("nmd003_flagged.py")
        assert codes_of(report) == ["NMD003", "NMD003"]
        assert report.exit_code == 1

    def test_nmd001_catches_non_owner_factor_write(self):
        report = analyze_fixture("runtime/nmd001_flagged.py")
        symbols = {f.symbol for f in report.findings}
        assert symbols == {"rebalance", "sneaky_update", "sneaky_batch"}
        # The owner-guarded write in worker() is not flagged.
        assert "worker" not in symbols

    def test_nmd001_respects_owner_declaration(self, tmp_path):
        # Without a __nomad_owner_contexts__ declaration every factor
        # write in a substrate module is flagged — new substrates must
        # declare their owner contexts to write at all.
        runtime = tmp_path / "runtime"
        runtime.mkdir()
        mod = runtime / "undeclared.py"
        mod.write_text(
            "def worker(h, token, payload):\n"
            "    h[token.item] = payload\n"
        )
        report = analyze_paths([str(mod)])
        assert codes_of(report) == ["NMD001"]


# ---------------------------------------------------------------------------
# Text report and the analyze subcommand


VIOLATION = "def collect(item, bucket=[]):\n    return bucket\n"


class TestReporters:
    def make_report(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION + "def ok(x, b=[]):\n    return b\n")
        return analyze_paths([str(mod)])

    def test_text_report_mentions_code_and_verdict(self, tmp_path):
        text = render_text(self.make_report(tmp_path))
        lines = text.splitlines()
        # One line per finding, then the summary line.
        assert len(lines) == 3
        assert all("NMD102" in line for line in lines[:2])
        assert lines[-1].endswith("2 finding(s) — FAIL")

    def test_clean_text_report_says_ok(self):
        report = analyze_fixture("nmd102_clean.py")
        assert render_text(report).strip().endswith("ok")


class TestCli:
    def test_flagged_file_fails_and_clean_file_passes(
        self, tmp_path, capsys
    ):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        assert cli_main(["analyze", str(mod)]) == 1
        assert "NMD102" in capsys.readouterr().out

        mod.write_text("def collect(item, bucket=None):\n    return bucket\n")
        assert cli_main(["analyze", str(mod)]) == 0
        assert capsys.readouterr().out.strip().endswith("ok")

    def test_list_rules_names_every_rule(self, capsys):
        assert cli_main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ALL_CODES:
            assert code in out

    def test_missing_path_exits_2(self, capsys):
        assert cli_main(["analyze", "definitely/not/a/path"]) == 2
        assert "no such file" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Repo invariants: the live tree


class TestRepoState:
    def test_src_tree_has_no_findings(self):
        repo = Path(__file__).parent.parent
        report = analyze_paths([str(repo / "src")])
        assert report.exit_code == 0, render_text(report)

    def test_iter_python_files_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-310.py").write_text("")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert [Path(f).name for f in files] == ["a.py"]

    def test_missing_path_is_an_error(self):
        with pytest.raises(AnalysisError, match="no such file"):
            iter_python_files(["definitely/not/a/path"])

    def test_analysis_error_is_a_repro_error(self):
        assert issubclass(AnalysisError, ReproError)
