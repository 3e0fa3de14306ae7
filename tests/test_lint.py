"""The repro.lint framework: every rule, the engine, and the CLI."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    RULES_BY_ID,
    context_for_path,
    iter_python_files,
    lint_paths,
    lint_source,
    main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RULE_IDS = sorted(RULES_BY_ID)


def run_rule(rule_id: str, source: str, path: str | None = None):
    """Lint ``source`` with exactly one rule under its fixture path."""
    rule = RULES_BY_ID[rule_id]
    return lint_source(source, path or rule.example_path, rules=[rule])


class TestRuleFixtures:
    """Each rule fires on its violating fixture and passes its clean one."""

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_violating_example_fires(self, rule_id):
        rule = RULES_BY_ID[rule_id]
        violations = run_rule(rule_id, rule.violating_example)
        assert violations, f"{rule_id} did not fire on its violating fixture"
        assert all(v.rule_id == rule_id for v in violations)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_clean_example_passes(self, rule_id):
        rule = RULES_BY_ID[rule_id]
        assert run_rule(rule_id, rule.clean_example) == []

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_clean_example_passes_full_rule_set(self, rule_id):
        """Clean fixtures are clean under *every* rule, not just their own."""
        rule = RULES_BY_ID[rule_id]
        assert lint_source(rule.clean_example, rule.example_path) == []

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_rule_metadata_complete(self, rule_id):
        rule = RULES_BY_ID[rule_id]
        assert rule.title and rule.rationale
        assert rule.violating_example and rule.clean_example


class TestRuleScoping:
    def test_generator_construction_allowed(self):
        source = textwrap.dedent(
            """\
            \"\"\"M.\"\"\"
            import numpy as np

            def make(seed: int) -> np.random.Generator:
                \"\"\"Make.\"\"\"
                return np.random.default_rng(seed)
            """
        )
        assert run_rule("REPRO001", source) == []

    def test_np_random_seed_flagged(self):
        source = '"""M."""\nimport numpy as np\nnp.random.seed(0)\n'
        assert len(run_rule("REPRO001", source)) == 1

    def test_randomness_rule_skips_tests(self):
        source = "import random\n"
        assert run_rule("REPRO001", source, "tests/test_x.py") == []

    def test_wallclock_only_on_cost_path(self):
        source = '"""M."""\nimport time\n_ = time.time()\n'
        assert len(run_rule("REPRO002", source, "src/repro/core/x.py")) == 1
        assert len(run_rule("REPRO002", source, "src/repro/parallel/x.py")) == 1
        assert len(run_rule("REPRO002", source, "src/repro/streaming/x.py")) == 1
        assert run_rule("REPRO002", source, "src/repro/synth/x.py") == []

    def test_print_exempt_in_cli_modules(self):
        source = '"""M."""\nprint("hi")\n'
        assert len(run_rule("REPRO004", source, "src/repro/core/x.py")) == 1
        assert run_rule("REPRO004", source, "src/repro/core/__main__.py") == []
        assert run_rule("REPRO004", source, "src/repro/lint/cli.py") == []

    def test_float_eq_only_core(self):
        source = '"""M."""\nOK = 1.0 == 2.0\n'
        assert len(run_rule("REPRO006", source, "src/repro/core/x.py")) == 1
        assert run_rule("REPRO006", source, "src/repro/metrics/x.py") == []

    def test_int_equality_not_flagged(self):
        source = '"""M."""\nOK = 1 == 2\n'
        assert run_rule("REPRO006", source, "src/repro/core/x.py") == []

    def test_protocol_stub_exempt_from_docs(self):
        source = textwrap.dedent(
            """\
            \"\"\"M.\"\"\"

            class P:
                \"\"\"P.\"\"\"

                def run(self) -> None: ...
            """
        )
        assert run_rule("REPRO007", source) == []

    def test_private_names_exempt_from_docs(self):
        source = '"""M."""\n\ndef _helper(x):\n    return x\n'
        assert run_rule("REPRO007", source) == []

    def test_all_duplicate_flagged(self):
        source = '"""M."""\nX = 1\n__all__ = ["X", "X"]\n'
        violations = run_rule("REPRO008", source)
        assert len(violations) == 1
        assert "duplicate" in violations[0].message

    def test_module_level_ledger_flagged(self):
        """A ``DecisionLedger()`` singleton is REPRO010's, exempt only in
        ``provenance``; telemetry types stay exempt only in ``telemetry``."""
        source = textwrap.dedent(
            """\
            \"\"\"M.\"\"\"
            from repro.provenance import DecisionLedger

            LEDGER = DecisionLedger()
            """
        )
        assert len(run_rule("REPRO010", source, "src/repro/core/x.py")) == 1
        assert len(
            run_rule("REPRO010", source, "src/repro/telemetry/x.py")
        ) == 1
        assert run_rule("REPRO010", source, "src/repro/provenance/x.py") == []
        telemetry = '"""M."""\nTELEMETRY = Telemetry()\n'
        assert len(
            run_rule("REPRO010", telemetry, "src/repro/provenance/x.py")
        ) == 1
        assert (
            run_rule("REPRO010", telemetry, "src/repro/telemetry/x.py") == []
        )

    def test_mutable_default_in_tests_flagged(self):
        source = "def f(xs=[]):\n    return xs\n"
        assert len(run_rule("REPRO003", source, "tests/test_x.py")) == 1


class TestContextClassification:
    def test_library_cost_path(self):
        ctx = context_for_path("src/repro/core/tmerge.py")
        assert ctx.is_library and ctx.is_cost_path and not ctx.is_test
        assert ctx.subpackage == "core"
        assert ctx.module_parts == ("repro", "core", "tmerge")

    def test_non_cost_library(self):
        ctx = context_for_path("src/repro/synth/world.py")
        assert ctx.is_library and not ctx.is_cost_path

    def test_tests_and_benchmarks(self):
        assert context_for_path("tests/test_tmerge.py").is_test
        assert context_for_path("benchmarks/test_fig3_rec_k.py").is_test
        assert not context_for_path("tests/test_tmerge.py").is_library

    def test_outside_everything(self):
        ctx = context_for_path("examples/quickstart.py")
        assert not ctx.is_library and not ctx.is_test

    def test_cli_and_init_flags(self):
        assert context_for_path("src/repro/lint/__main__.py").is_cli
        assert context_for_path("src/repro/core/__init__.py").is_init


class TestEngine:
    def test_lint_source_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:", "src/repro/core/x.py")

    def test_lint_paths_reports_parse_errors(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        report = lint_paths([tmp_path])
        assert not report.ok
        assert len(report.parse_errors) == 1

    def test_lint_paths_skips_caches(self, tmp_path):
        cache = tmp_path / "__pycache__" / "junk.py"
        cache.parent.mkdir()
        cache.write_text("from os import *\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 0

    def test_overlapping_paths_deduplicated(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("from os import *\n")
        report = lint_paths([tmp_path, target])
        assert report.files_checked == 1
        assert len(report.violations) == 1

    def test_overlapping_paths_dedupe_via_resolved_paths(self, tmp_path):
        """The same file reached twice is yielded once."""
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("x = 1\n")
        found = list(iter_python_files([tmp_path, pkg, pkg / "mod.py"]))
        assert len(found) == 1

    def test_directly_passed_skip_dir_is_not_walked(self, tmp_path):
        for name in ("__pycache__", ".hidden", "fixtures"):
            bad = tmp_path / name
            bad.mkdir()
            (bad / "mod.py").write_text("x = 1\n")
            assert list(iter_python_files([bad])) == []

    def test_directly_passed_file_inside_skip_dir_is_honoured(self, tmp_path):
        """Naming a concrete ``*.py`` file is an explicit request."""
        bad = tmp_path / "fixtures"
        bad.mkdir()
        target = bad / "mod.py"
        target.write_text("x = 1\n")
        assert list(iter_python_files([target])) == [target]

    def test_fixtures_is_a_skip_dir(self):
        """Repo-wide lint walks must not descend into fixture trees."""
        walked = list(iter_python_files([REPO_ROOT / "tests"]))
        assert walked
        assert not any("fixtures" in path.parts for path in walked)


@pytest.fixture
def fixture_tree(tmp_path):
    """A tmp tree with every rule's fixtures under src/repro paths."""

    def build(kind: str) -> Path:
        root = tmp_path / kind
        for rule in ALL_RULES:
            source = (
                rule.violating_example
                if kind == "violating"
                else rule.clean_example
            )
            rel = Path(rule.example_path.replace("example", rule.rule_id.lower()))
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        return root

    return build


class TestCli:
    def test_nonzero_on_violating_fixtures(self, fixture_tree, capsys):
        root = fixture_tree("violating")
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "problem(s)" in out

    def test_zero_on_clean_fixtures(self, fixture_tree, capsys):
        root = fixture_tree("clean")
        assert main([str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_every_rule_appears_in_violating_run(self, fixture_tree, capsys):
        main([str(fixture_tree("violating"))])
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out, f"{rule_id} missing from CLI output"

    def test_select_limits_rules(self, fixture_tree, capsys):
        root = fixture_tree("violating")
        assert main(["--select", "REPRO005", str(root)]) == 1
        out = capsys.readouterr().out
        assert "REPRO005" in out
        assert "REPRO001" not in out

    def test_select_unknown_rule_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "NOPE", "src"])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_list_rules_has_no_flow_diagnostics(self, capsys):
        """Only the per-file rules are listed; REPRO101–106 are gone, and
        REPRO011 is folded into REPRO010."""
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REPRO001", "REPRO010"):
            assert rule_id in out
        for rule_id in ("REPRO011", "REPRO101", "REPRO106"):
            assert rule_id not in out

    def test_check_docs_accepts_design_md(self, capsys, monkeypatch):
        """The committed DESIGN.md names every shipped rule id."""
        monkeypatch.chdir(REPO_ROOT)
        code = main(["--list-rules", "--check-docs", "DESIGN.md"])
        assert code == 0, capsys.readouterr().out

    def test_check_docs_flags_drift(self, tmp_path, capsys):
        """A doc missing a shipped id (or citing a ghost id) fails."""
        doc = tmp_path / "doc.md"
        doc.write_text("Only REPRO001 and the ghost REPRO999 here.")
        assert main(["--list-rules", "--check-docs", str(doc)]) == 1
        out = capsys.readouterr().out
        assert "REPRO010" in out  # reported missing
        assert "REPRO999" in out  # reported unknown

    def test_quiet_suppresses_details(self, fixture_tree, capsys):
        root = fixture_tree("violating")
        assert main(["--quiet", str(root)]) == 1
        out = capsys.readouterr().out
        assert "REPRO001" not in out
        assert "problem(s)" in out
