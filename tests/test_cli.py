"""Tests for the python -m repro.experiments CLI."""

import pytest

from repro.experiments.__main__ import COMMANDS, FIGURES, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            if name != "list":
                assert name in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_every_figure_registered(self):
        figures = {f"fig{i}" for i in range(3, 14)}
        assert set(FIGURES) == figures
        assert set(COMMANDS) == figures | {
            "faults",
            "telemetry",
            "serve",
            "monitor",
            "explain",
            "gate",
            "scenarios",
            "list",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--videos", "3"],
            ["fig4", "--videos", "3"],
            ["gate", "--frames", "10"],
            ["explain", "--ledger", "x.jsonl", "--pair", "1", "2",
             "--steps", "1"],
            ["telemetry", "--synthetic"],
            ["monitor", "--kill-after", "1"],
        ],
        ids=["serve-videos", "fig4-videos", "gate-frames", "explain-steps",
             "telemetry-synthetic", "monitor-kill-after"],
    )
    def test_subcommand_rejects_options_it_does_not_read(self, argv):
        with pytest.raises(SystemExit):
            main(argv)


class TestObservabilityCli:
    """serve export flags, explain, and monitor subcommands."""

    @pytest.fixture(scope="class")
    def exports(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-exports")
        ledger = directory / "ledger.jsonl"
        metrics = directory / "metrics.prom"
        status = main([
            "serve", "--frames", "300", "--window-length", "100",
            "--ledger-out", str(ledger), "--metrics-out", str(metrics),
        ])
        assert status == 0
        return ledger, metrics

    def test_serve_exports_ledger_jsonl(self, exports):
        from repro.provenance import load_events_jsonl

        ledger, _ = exports
        events = load_events_jsonl(str(ledger))
        assert events
        kinds = {event.kind for event in events}
        assert "window" in kinds and "final" in kinds

    def test_serve_exports_parseable_openmetrics(self, exports):
        from repro.telemetry import parse_openmetrics

        _, metrics = exports
        samples = parse_openmetrics(metrics.read_text())
        assert samples
        assert any(name.startswith("repro_stream") for name in samples)

    def test_explain_renders_chain(self, exports, capsys):
        from repro.provenance import load_events_jsonl

        ledger, _ = exports
        events = load_events_jsonl(str(ledger))
        window_event = next(
            e for e in events if e.kind == "window" and e.data["pairs"]
        )
        a, b = window_event.data["pairs"][0]
        status = main([
            "explain", "--ledger", str(ledger),
            "--pair", str(a), str(b),
            "--window", str(window_event.window),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert f"{a}-{b}" in out or f"({a}, {b})" in out

    def test_explain_unknown_pair_fails(self, exports, capsys):
        ledger, _ = exports
        status = main([
            "explain", "--ledger", str(ledger),
            "--pair", "999991", "999992",
        ])
        assert status == 1
        assert "not found" in capsys.readouterr().err

    def test_explain_requires_ledger_and_pair(self):
        with pytest.raises(SystemExit):
            main(["explain"])

    def test_explain_requires_pair(self, exports):
        ledger, _ = exports
        with pytest.raises(SystemExit):
            main(["explain", "--ledger", str(ledger)])

    def test_monitor_renders_dashboard(self, capsys):
        status = main([
            "monitor", "--frames", "200", "--window-length", "100",
            "--steps", "2",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "watermark" in out
        assert "p50" in out
