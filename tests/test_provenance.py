"""Unit tests for the merge-decision provenance layer.

Covers the ledger container (bounded capacity, window stamping, absorb
re-sequencing, state round-trip, JSONL export/import), the event schema
validation, and the decision-chain reconstruction (`explain_pair`) over
hand-built event logs where every verdict branch is known exactly.  The
end-to-end bit-transparency and checkpoint guarantees live in
``tests/test_provenance_equivalence.py``.
"""

import json

import pytest

from repro.provenance import (
    EVENT_FINAL,
    EVENT_KINDS,
    EVENT_SAMPLE,
    EVENT_ULB,
    EVENT_WINDOW,
    VERDICT_CANDIDATE,
    VERDICT_NOT_SELECTED,
    VERDICT_ULB_ACCEPTED,
    VERDICT_ULB_REJECTED,
    DecisionEvent,
    DecisionLedger,
    events_from_jsonl,
    explain_pair,
    load_events_jsonl,
    windows_containing,
)


class TestDecisionEvent:
    def test_round_trip(self):
        event = DecisionEvent(
            seq=3, kind=EVENT_SAMPLE, window=1, tau=7,
            data={"arms": [0, 2], "theta": [0.5, 0.25]},
        )
        clone = DecisionEvent.from_dict(event.to_dict())
        assert clone == event

    def test_to_dict_is_pure_json(self):
        event = DecisionEvent(seq=0, kind=EVENT_WINDOW, window=0)
        json.dumps(event.to_dict())  # must not raise

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DecisionEvent(seq=0, kind="telepathy", window=0)

    def test_kinds_registry_complete(self):
        assert EVENT_WINDOW in EVENT_KINDS
        assert EVENT_FINAL in EVENT_KINDS


class TestDecisionLedger:
    def test_record_stamps_window_and_seq(self):
        ledger = DecisionLedger()
        ledger.begin_window(4)
        first = ledger.record(EVENT_WINDOW, n_pairs=3)
        second = ledger.record(EVENT_SAMPLE, tau=1, arms=[0])
        assert (first.seq, second.seq) == (0, 1)
        assert first.window == second.window == 4
        assert second.tau == 1

    def test_capacity_drops_oldest(self):
        ledger = DecisionLedger(max_events=3)
        for tau in range(5):
            ledger.record(EVENT_SAMPLE, tau=tau)
        assert len(ledger) == 3
        assert ledger.n_recorded == 5
        assert ledger.n_dropped == 2
        assert [e.tau for e in ledger] == [2, 3, 4]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            DecisionLedger(max_events=0)

    def test_events_for_window(self):
        ledger = DecisionLedger()
        ledger.begin_window(0)
        ledger.record(EVENT_WINDOW)
        ledger.begin_window(1)
        ledger.record(EVENT_WINDOW)
        ledger.record(EVENT_FINAL, chosen=[])
        assert len(ledger.events_for_window(0)) == 1
        assert len(ledger.events_for_window(1)) == 2

    def test_absorb_reassigns_seq_keeps_windows(self):
        worker = DecisionLedger()
        worker.begin_window(2)
        worker.record(EVENT_WINDOW, n_pairs=1)
        worker.record(EVENT_FINAL, chosen=[0])

        main = DecisionLedger()
        main.record(EVENT_SAMPLE, tau=0)
        main.absorb(worker.to_dicts())
        assert [e.seq for e in main] == [0, 1, 2]
        assert [e.window for e in main] == [None, 2, 2]
        assert [e.kind for e in main] == [
            EVENT_SAMPLE, EVENT_WINDOW, EVENT_FINAL,
        ]

    def test_state_round_trip_is_wholesale(self):
        ledger = DecisionLedger(max_events=10)
        ledger.begin_window(1)
        ledger.record(EVENT_WINDOW, n_pairs=2)
        snapshot = ledger.state_dict()
        json.dumps(snapshot)  # checkpoint payloads must be pure JSON

        # Post-snapshot divergence must be wiped by the restore.
        ledger.record(EVENT_FINAL, chosen=[9])
        ledger.load_state_dict(snapshot)
        assert len(ledger) == 1
        assert ledger.n_recorded == 1
        assert ledger.current_window == 1
        assert ledger.state_dict() == snapshot

    def test_jsonl_round_trip(self, tmp_path):
        ledger = DecisionLedger()
        ledger.begin_window(0)
        ledger.record(EVENT_WINDOW, pairs=[[1, 2]], n_pairs=1)
        ledger.record(
            EVENT_SAMPLE, tau=1, arms=[0], theta=[0.125],
            observed=[0], d_norm=[0.5],
            posterior_before=[[1, 1]], posterior_after=[[1, 2]],
        )
        path = tmp_path / "ledger.jsonl"
        assert ledger.export_jsonl(str(path)) == 2
        loaded = load_events_jsonl(str(path))
        assert loaded == ledger.events
        assert events_from_jsonl(ledger.to_jsonl()) == ledger.events


def _synthetic_window_events():
    """A hand-built single-window log with every verdict represented.

    Four pairs: arm 0 is chosen via ULB acceptance, arm 1 is ULB
    rejected, arm 2 is chosen by final posterior ranking, arm 3 loses.
    """
    ledger = DecisionLedger()
    ledger.begin_window(0)
    ledger.record(
        EVENT_WINDOW,
        pairs=[[10, 11], [10, 12], [11, 12], [12, 13]],
        n_pairs=4, budget=2, batch=1, seed=3,
    )
    ledger.record(
        EVENT_SAMPLE, tau=1, arms=[0], theta=[0.2],
        observed=[0], d_norm=[0.1],
        posterior_before=[[1.0, 1.0]], posterior_after=[[1.0, 2.0]],
    )
    ledger.record(
        EVENT_SAMPLE, tau=2, arms=[1], theta=[0.4],
        observed=[1], d_norm=[0.9],
        posterior_before=[[1.0, 1.0]], posterior_after=[[2.0, 1.0]],
    )
    ledger.record(
        EVENT_ULB, tau=3, accepted=[0], rejected=[1],
        radius={"0": 0.05, "1": 0.04}, k_count=2,
    )
    ledger.record(
        EVENT_FINAL, chosen=[0, 2], means=[0.2, 0.9, 0.3, 0.8],
        ulb_accepted=[0], ulb_rejected=[1],
        n_pairs=4, iterations=3, degraded=False,
    )
    return ledger.events


class TestExplain:
    def test_windows_containing_is_order_insensitive(self):
        events = _synthetic_window_events()
        assert windows_containing(events, (12, 10)) == [0]
        assert windows_containing(events, (99, 100)) == []

    def test_ulb_accepted_chain(self):
        chain = explain_pair(_synthetic_window_events(), (10, 11))
        assert chain.window == 0
        assert chain.arm == 0
        assert chain.verdict == VERDICT_ULB_ACCEPTED
        assert chain.final_score == 0.2
        assert chain.n_observations == 1
        kinds = [step.kind for step in chain.steps]
        assert kinds == [EVENT_WINDOW, EVENT_SAMPLE, EVENT_ULB, EVENT_FINAL]
        assert "ULB accepted" in chain.steps[2].summary
        assert "verdict" in chain.render()

    def test_ulb_rejected_chain(self):
        chain = explain_pair(_synthetic_window_events(), (10, 12))
        assert chain.verdict == VERDICT_ULB_REJECTED
        assert "ULB rejected" in chain.steps[2].summary

    def test_plain_candidate_and_loser(self):
        events = _synthetic_window_events()
        assert explain_pair(events, (11, 12)).verdict == VERDICT_CANDIDATE
        assert explain_pair(events, (12, 13)).verdict == VERDICT_NOT_SELECTED

    def test_unknown_pair_raises_key_error(self):
        with pytest.raises(KeyError):
            explain_pair(_synthetic_window_events(), (1, 2))

    def test_ambiguous_window_requires_explicit_choice(self):
        events = _synthetic_window_events()
        shifted = []
        for event in _synthetic_window_events():
            clone = DecisionEvent.from_dict(event.to_dict())
            clone.window = 1
            shifted.append(clone)
        both = events + shifted
        with pytest.raises(ValueError):
            explain_pair(both, (10, 11))
        chain = explain_pair(both, (10, 11), window=1)
        assert chain.window == 1

    def test_wrong_window_raises_key_error(self):
        with pytest.raises(KeyError):
            explain_pair(_synthetic_window_events(), (10, 11), window=5)


class TestExampleScript:
    def test_decision_provenance_example_runs(self, capsys):
        import importlib.util
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "decision_provenance.py"
        )
        spec = importlib.util.spec_from_file_location(
            "decision_provenance_example", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main(n_frames=300)
        out = capsys.readouterr().out
        assert "ACCEPTED" in out and "PRUNED" in out
        assert "verdict" in out
