"""Machine-readable benchmark summaries and the CI regression gate.

The benchmark suite (``benchmarks/``) writes a ``bench_summary.json``
recording, per figure benchmark, the three numbers the project treats as
its performance contract: recall (REC), ReID invocations and simulated
milliseconds.  CI uploads the file as an artifact and
:func:`compare_summaries` gates merges against the committed baseline
(``benchmarks/results/baseline_summary.json``): recall may not drop, and
ReID invocations may not grow, by more than the tolerance (5% by
default).  Simulated milliseconds are recorded for inspection but not
gated — they track invocations closely and double-gating one regression
would double the noise surface.

The baseline-refresh procedure is documented in DESIGN.md §12.2 and the
README's Observability walkthrough: re-run the smoke benchmarks, inspect
the diff, and commit the regenerated file alongside the change that
legitimately moved the numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Format version stamped into every summary file.
SCHEMA_VERSION = 1

#: Default relative tolerance of the regression gate.
DEFAULT_TOLERANCE = 0.05

#: The per-benchmark metrics a summary records.
METRIC_KEYS = ("recall", "reid_invocations", "simulated_ms")


class BenchSummary:
    """An ordered collection of per-benchmark metric records."""

    def __init__(self) -> None:
        self.benchmarks: dict[str, dict[str, object]] = {}

    def add(
        self,
        name: str,
        recall: float,
        reid_invocations: float,
        simulated_ms: float,
        extras: dict[str, float] | None = None,
    ) -> None:
        """Record one benchmark's metrics (re-adding a name overwrites).

        ``extras`` carries ungated, machine-specific observations (e.g.
        the parallel engine's wall-clock speedup); the gate compares
        only :data:`METRIC_KEYS` and ignores them entirely.
        """
        record = {
            "recall": float(recall),
            "reid_invocations": float(reid_invocations),
            "simulated_ms": float(simulated_ms),
        }
        if extras:
            record["extras"] = {
                key: float(value) for key, value in sorted(extras.items())
            }
        self.benchmarks[name] = record

    def to_dict(self) -> dict:
        """The JSON document this summary serializes to."""
        return {
            "schema": SCHEMA_VERSION,
            "benchmarks": {
                name: dict(metrics)
                for name, metrics in sorted(self.benchmarks.items())
            },
        }

    def write(self, path: str | Path) -> Path:
        """Write the summary as pretty-printed JSON; return the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_dict(cls, document: dict) -> "BenchSummary":
        """Rebuild a summary from a parsed JSON document."""
        schema = int(document.get("schema", 0))
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported bench summary schema {schema} "
                f"(expected {SCHEMA_VERSION})"
            )
        summary = cls()
        for name, metrics in document.get("benchmarks", {}).items():
            missing = [key for key in METRIC_KEYS if key not in metrics]
            if missing:
                raise ValueError(
                    f"benchmark {name!r} is missing metrics: {missing}"
                )
            summary.add(
                name,
                recall=metrics["recall"],
                reid_invocations=metrics["reid_invocations"],
                simulated_ms=metrics["simulated_ms"],
                extras=metrics.get("extras"),
            )
        return summary

    @classmethod
    def load(cls, path: str | Path) -> "BenchSummary":
        """Load a summary previously written by :meth:`write`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def compare_summaries(
    current: BenchSummary,
    baseline: BenchSummary,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Gate ``current`` against ``baseline``; return failure descriptions.

    A benchmark fails the gate when:

    * it exists in the baseline but is missing from the current run;
    * its recall dropped by more than ``tolerance`` (relative); or
    * its ReID-invocation count grew by more than ``tolerance``
      (relative).

    Benchmarks present only in the current run pass (they have no
    baseline yet — refresh the baseline to start gating them).  An empty
    return value means the gate passes.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    failures: list[str] = []
    for name, base in sorted(baseline.benchmarks.items()):
        now = current.benchmarks.get(name)
        if now is None:
            failures.append(
                f"{name}: present in baseline but missing from this run"
            )
            continue
        recall_floor = base["recall"] * (1.0 - tolerance)
        if now["recall"] < recall_floor:
            failures.append(
                f"{name}: recall regressed {base['recall']:.4f} -> "
                f"{now['recall']:.4f} (floor {recall_floor:.4f} at "
                f"{tolerance:.0%} tolerance)"
            )
        invocation_ceiling = base["reid_invocations"] * (1.0 + tolerance)
        if now["reid_invocations"] > invocation_ceiling:
            failures.append(
                f"{name}: reid_invocations regressed "
                f"{base['reid_invocations']:.0f} -> "
                f"{now['reid_invocations']:.0f} (ceiling "
                f"{invocation_ceiling:.0f} at {tolerance:.0%} tolerance)"
            )
    return failures


def gate_summary_files(
    current_path: str | Path,
    baseline_path: str | Path,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """File-level wrapper around :func:`compare_summaries` for the CLI."""
    current = BenchSummary.load(current_path)
    baseline = BenchSummary.load(baseline_path)
    return compare_summaries(current, baseline, tolerance=tolerance)
