"""Unit tests for the merge-decision provenance layer.

Covers the ledger container (bounded capacity, window stamping, absorb
re-sequencing, state round-trip, JSONL export/import), the event schema
validation and the columnar ``sample`` block, and the decision-chain
reconstruction (`explain_pair`) over hand-built event logs where every
verdict branch is known exactly, plus chains pinned from seeded runs
(``fixtures/explain_golden.json``).  The end-to-end bit-transparency
and checkpoint guarantees live in
``tests/test_provenance_equivalence.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.provenance import (
    EVENT_FAULT,
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
    SampleBlock,
    events_from_jsonl,
    explain_pair,
    load_events_jsonl,
    sample_rows,
    windows_containing,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _add_row(ledger, tau, arms, theta, d_norm, hit, observed=None):
    """Append one iteration to ``ledger``'s open sample block (every
    selected arm observed unless ``observed`` says otherwise)."""
    observed = arms if observed is None else observed
    ledger.samples.add(
        tau,
        np.asarray(arms, dtype=np.int64),
        np.asarray(theta, dtype=np.float64),
        np.asarray(observed, dtype=np.int64),
        np.asarray(d_norm, dtype=np.float64),
        np.asarray(hit, dtype=bool),
    )


class TestDecisionEvent:
    def test_round_trip(self):
        event = DecisionEvent(
            seq=3, kind=EVENT_SAMPLE, window=1, tau=7,
            data={
                "tau": [7], "n_arms": [2], "n_observed": [2],
                "arms": [0, 2], "theta": [0.5, 0.25], "observed": [0, 2],
                "d_norm": [0.1, 0.9], "hit": [0, 1],
            },
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
        _add_row(ledger, 1, [0], [0.5], [0.25], [False])
        ledger.close_samples()
        second = ledger.events[-1]
        assert (first.seq, second.seq) == (0, 1)
        assert first.window == second.window == 4
        assert second.kind == EVENT_SAMPLE
        assert second.tau == 1

    def test_capacity_drops_oldest(self):
        ledger = DecisionLedger(max_events=3)
        for tau in range(5):
            _add_row(ledger, tau, [0], [0.5], [0.25], [False])
            ledger.close_samples()
        assert len(ledger) == 3
        assert ledger.n_recorded == 5
        assert ledger.n_dropped == 2
        assert [e.tau for e in ledger] == [2, 3, 4]

    def test_capacity_counts_a_block_as_one_event(self):
        ledger = DecisionLedger(max_events=2)
        ledger.record(EVENT_WINDOW, n_pairs=1)
        for tau in range(1, 51):
            _add_row(ledger, tau, [0], [0.5], [0.25], [False])
        ledger.record(EVENT_FINAL, chosen=[0])
        assert [e.kind for e in ledger] == [EVENT_SAMPLE, EVENT_FINAL]
        assert ledger.n_dropped == 1
        assert ledger.events[0].data["tau"] == list(range(1, 51))

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
        _add_row(main, 0, [0], [0.5], [0.25], [False])
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
        _add_row(ledger, 1, [0], [0.125], [0.5], [False])
        _add_row(ledger, 2, [0], [0.25], [0.75], [True])
        ledger.close_samples()
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
        prior_alpha=[1.0, 1.0, 1.0, 1.0], prior_beta=[1.0, 1.0, 2.0, 1.0],
    )
    _add_row(ledger, 1, [0], [0.2], [0.1], [False])
    _add_row(ledger, 2, [1], [0.4], [0.9], [True])
    # The ULB event closes the open block: both rows are one event.
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

    def test_posteriors_rebuilt_from_prior_and_hits(self):
        chain = explain_pair(_synthetic_window_events(), (10, 12))
        sample = chain.steps[1].detail
        assert sample["posterior_before"] == [1.0, 1.0]
        assert sample["posterior_after"] == [2.0, 1.0]
        assert chain.steps[1].tau == 2
        assert "0.5000 -> 0.6667" in chain.steps[1].summary

    def test_each_window_event_resets_the_posterior(self):
        """A crashed window restarted from scratch logs a second
        ``window`` event; the retry's posteriors start from the prior."""
        ledger = DecisionLedger()
        ledger.begin_window(0)
        for attempt in range(2):
            ledger.record(
                EVENT_WINDOW, pairs=[[1, 2]], n_pairs=1, budget=1,
                batch=None, seed=0, prior_alpha=[1.0], prior_beta=[2.0],
            )
            _add_row(ledger, 1, [0], [0.3], [0.8], [True])
            _add_row(ledger, 2, [0], [0.2], [0.1], [False])
            if attempt == 0:
                ledger.close_samples()  # the crash
        ledger.record(EVENT_FAULT, reason="window_crash", resumed=False)
        assert windows_containing(ledger.events, (1, 2)) == [0]
        chain = explain_pair(ledger.events, (1, 2))
        samples = [s.detail for s in chain.steps if s.kind == EVENT_SAMPLE]
        assert [d["posterior_before"] for d in samples] == [
            [1.0, 2.0], [2.0, 2.0], [1.0, 2.0], [2.0, 2.0],
        ]
        assert samples[-1]["posterior_after"] == [2.0, 3.0]
        assert chain.n_observations == 4

    def test_window_step_leaves_out_the_priors(self):
        chain = explain_pair(_synthetic_window_events(), (10, 11))
        assert "prior_alpha" not in chain.steps[0].detail
        assert chain.steps[0].detail["pairs"][0] == [10, 11]


class TestSampleBlock:
    def test_rows_round_trip_through_the_columns(self):
        ledger = DecisionLedger()
        _add_row(ledger, 1, [3, 1], [0.125, 0.5], [0.25, 0.75],
                 [False, True])
        _add_row(ledger, 2, [2, 0], [0.0625, 0.25], [0.5], [True],
                 observed=[0])
        ledger.close_samples()
        (event,) = ledger.events
        assert event.kind == EVENT_SAMPLE and event.tau == 2
        assert event.data == {
            "tau": [1, 2], "n_arms": [2, 2], "n_observed": [2, 1],
            "arms": [3, 1, 2, 0], "theta": [0.125, 0.5, 0.0625, 0.25],
            "observed": [3, 1, 0], "d_norm": [0.25, 0.75, 0.5],
            "hit": [0, 1, 1],
        }
        assert all(type(hit) is int for hit in event.data["hit"])
        json.dumps(event.to_dict())  # pure JSON
        rows = list(sample_rows(event.data))
        assert [row.tau for row in rows] == [1, 2]
        assert rows[1].arms == [2, 0] and rows[1].observed == [0]
        assert rows[1].d_norm == [0.5] and rows[1].hit == [1]

    def test_empty_block_records_nothing(self):
        ledger = DecisionLedger()
        ledger.close_samples()
        assert len(ledger) == 0 and ledger.n_recorded == 0
        assert len(SampleBlock()) == 0

    def test_any_other_event_closes_the_block_first(self):
        ledger = DecisionLedger()
        _add_row(ledger, 5, [0], [0.5], [0.25], [False])
        ulb = ledger.record(EVENT_ULB, tau=5, accepted=[0], rejected=[],
                            radius={"0": 0.1}, k_count=1)
        assert [e.kind for e in ledger] == [EVENT_SAMPLE, EVENT_ULB]
        assert ulb.seq == 1
        assert len(ledger.samples) == 0

    def test_snapshot_holds_the_open_rows(self):
        ledger = DecisionLedger()
        _add_row(ledger, 1, [0], [0.5], [0.25], [False])
        state = ledger.state_dict()
        assert [e["kind"] for e in state["events"]] == [EVENT_SAMPLE]
        assert state["n_recorded"] == 1

    def test_restore_drops_the_open_rows(self):
        ledger = DecisionLedger()
        snapshot = ledger.state_dict()
        _add_row(ledger, 1, [0], [0.5], [0.25], [False])
        ledger.load_state_dict(snapshot)
        ledger.close_samples()
        assert len(ledger) == 0


class TestExplainGolden:
    """Chains captured from seeded runs before the ledger logged
    iterations as blocks: the block schema must rebuild every step
    (``tau``, ``kind``, ``summary``, ``detail``) exactly.  Regenerate
    with ``tests/fixtures/make_explain_golden.py``."""

    def test_block_schema_reproduces_the_pinned_chains(self):
        from fixtures.make_explain_golden import RUNS, build_golden

        golden = json.loads((FIXTURES / "explain_golden.json").read_text())
        assert set(golden) == set(RUNS)
        steps = {
            step["kind"]
            for chains in golden.values()
            for chain in chains
            for step in chain["steps"]
        }
        assert {EVENT_ULB, EVENT_FAULT, EVENT_SAMPLE} <= steps
        assert build_golden() == golden


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
