"""Meta-tests: the documentation's claims about the repository hold.

These guard against docs drifting from code: every bench DESIGN.md's
experiment index references must exist, its module map must name every
subpackage and the constants it quotes must match the code, every README
example must exist and be runnable-looking, and the public API exports
everything __all__ promises.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Constants DESIGN.md quotes as ``module.NAME = value`` (module relative
#: to ``repro``); each quote must match the code.
QUOTED_CONSTANTS = {
    "core.tmerge.CHECKPOINT_VERSION",
    "streaming.service.CHECKPOINT_VERSION",
    "core.thompson.GROUP_MIN_LIVE",
    "core.thompson.HEAVY_SHAPE",
    "resilience.checkpoint.JOURNAL_COMPACT_FLOOR",
}


class TestDesignDocument:
    def test_referenced_benches_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        benches = set(re.findall(r"benchmarks/(test_\w+\.py)", text))
        assert benches, "DESIGN.md should reference bench files"
        for bench in benches:
            assert (REPO / "benchmarks" / bench).exists(), bench

    def test_paper_match_confirmed(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "matches the target paper" in text

    def test_module_map_names_every_subpackage(self):
        text = (REPO / "DESIGN.md").read_text()
        section = text.split("## 3. Module map", 1)[1].split("\n## ", 1)[0]
        mapped = set(re.findall(r"^  (\w+)/", section, re.MULTILINE))
        subpackages = {
            init.parent.name
            for init in (REPO / "src" / "repro").glob("*/__init__.py")
        }
        assert mapped == subpackages

    def test_quoted_constants_match_the_code(self):
        import importlib

        text = (REPO / "DESIGN.md").read_text()
        quoted = re.findall(r"\b((?:[a-z_]+\.)+[A-Z][A-Z_]*) = (\d+)\b", text)
        assert {name for name, _ in quoted} >= QUOTED_CONSTANTS
        for name, value in quoted:
            module, attr = name.rsplit(".", 1)
            actual = getattr(importlib.import_module(f"repro.{module}"), attr)
            assert actual == int(value), f"DESIGN.md quotes {name} = {value}"


class TestReadme:
    def test_examples_exist(self):
        text = (REPO / "README.md").read_text()
        scripts = set(re.findall(r"`(\w+\.py)`", text))
        example_files = {p.name for p in (REPO / "examples").glob("*.py")}
        referenced_examples = scripts & example_files | {
            s for s in scripts if (REPO / "examples" / s).exists()
        }
        assert "quickstart.py" in referenced_examples
        # Every example on disk is documented.
        for name in example_files:
            assert name in text, f"{name} missing from README"

    def test_bench_table_complete(self):
        text = (REPO / "README.md").read_text()
        for bench in (REPO / "benchmarks").glob("test_*.py"):
            assert bench.name in text, f"{bench.name} missing from README"


class TestPublicApi:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        import importlib

        for package in (
            "repro.geometry",
            "repro.synth",
            "repro.detect",
            "repro.track",
            "repro.reid",
            "repro.core",
            "repro.metrics",
            "repro.query",
            "repro.experiments",
            "repro.io",
            "repro.analysis",
            "repro.lint",
            "repro.parallel",
            "repro.provenance",
            "repro.streaming",
        ):
            module = importlib.import_module(package)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{package}.{name}"

    def test_public_callables_documented(self):
        """Every public class/function in the top-level API has a docstring."""
        import repro

        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"{name} lacks a docstring"


class TestNoCompiledArtifacts:
    """Compiled/caching artifacts must never be committed (PR 6 tracked
    87 ``.pyc`` files by accident; this is the regression stop)."""

    BANNED = ("__pycache__", ".pyc", ".pyo", ".pytest_cache", ".hypothesis")

    def _tracked_files(self):
        import subprocess

        try:
            out = subprocess.run(
                ["git", "ls-files"],
                cwd=REPO,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("git unavailable")
        return out.splitlines()

    def test_no_compiled_artifacts_tracked(self):
        offenders = [
            path
            for path in self._tracked_files()
            if any(marker in path for marker in self.BANNED)
        ]
        assert not offenders, (
            f"compiled artifacts tracked by git: {offenders[:5]} "
            f"(+{max(0, len(offenders) - 5)} more) — "
            "remove them and keep .gitignore covering them"
        )

    def test_gitignore_covers_artifacts(self):
        text = (REPO / ".gitignore").read_text()
        for pattern in ("__pycache__/", ".pytest_cache/", ".hypothesis/",
                        ".benchmarks/"):
            assert pattern in text, f".gitignore missing {pattern}"
        assert "*.py[cod]" in text or "*.pyc" in text


class TestLinter:
    """The repo's own linter passes on the repo's own code."""

    def test_src_repro_is_lint_clean(self):
        from repro.lint import lint_paths

        report = lint_paths([REPO / "src" / "repro"])
        rendered = "\n".join(v.render() for v in report.violations)
        assert report.ok, f"lint violations in src/repro:\n{rendered}"
        assert report.files_checked > 50

    def test_tests_and_benchmarks_are_lint_clean(self):
        """Also the examples, the top-level API's callers."""
        from repro.lint import lint_paths

        report = lint_paths(
            [REPO / "tests", REPO / "benchmarks", REPO / "examples"]
        )
        rendered = "\n".join(v.render() for v in report.violations)
        assert report.ok, f"lint violations:\n{rendered}"


class TestExperimentsDocument:
    def test_every_figure_covered(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for fig in range(3, 14):
            assert f"Figure {fig}" in text, f"Figure {fig} missing"
        assert "Table II" in text


class TestE2eTracerTargets:
    """Every function the end-to-end tracer wraps still exists, or its
    layer's metrics would silently turn "unattributed"."""

    def test_every_wrap_target_resolves(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "e2e_tracer", REPO / "benchmarks" / "e2e" / "tracer.py"
        )
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        missing = [
            f"{module}:{attribute}"
            for _, module, attribute, _ in tracer.WRAPS
            if tracer._resolve(module, attribute) is None
        ]
        assert tracer.WRAPS
        assert missing == []
