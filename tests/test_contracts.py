"""The runtime contract layer: no-ops when disabled, raises when enabled."""

from __future__ import annotations

import numpy as np
import pytest

from repro import contracts
from repro.core.tmerge import TMerge
from repro.core.ulb import UlbPruner
from repro.core.windows import partition_windows

from helpers import planted_pairs, stub_scorer


@pytest.fixture
def contracts_on():
    """Enable contracts for the duration of one test."""
    previous = contracts.set_enabled(True)
    yield
    contracts.set_enabled(previous)


@pytest.fixture
def contracts_off():
    """Force contracts off for the duration of one test."""
    previous = contracts.set_enabled(False)
    yield
    contracts.set_enabled(previous)


CORRUPT_CALLS = [
    lambda: contracts.check_beta_params(
        np.array([1.0, 0.0]), np.array([1.0, 1.0])
    ),
    lambda: contracts.check_beta_params(
        np.array([1.0, np.nan]), np.array([1.0, 1.0])
    ),
    lambda: contracts.check_beta_params(np.array([1.0]), np.array([1.0, 1.0])),
    lambda: contracts.check_normalized_distance(1.5),
    lambda: contracts.check_normalized_distance(-0.1),
    lambda: contracts.check_normalized_distance(float("nan")),
    lambda: contracts.check_normalized_distance(np.array([0.5, 2.0])),
    lambda: contracts.check_top_k_budget(-1, 10),
    lambda: contracts.check_top_k_budget(11, 10),
    lambda: contracts.check_ulb_partition({1, 2}, {2, 3}, 10),
    lambda: contracts.check_ulb_partition({12}, set(), 10),
    lambda: contracts.check_window_length(100, 80),
    lambda: contracts.check_window_length(100, 0),
]

VALID_CALLS = [
    lambda: contracts.check_beta_params(
        np.array([1.0, 2.5]), np.array([1.0, 1.0])
    ),
    lambda: contracts.check_normalized_distance(0.0),
    lambda: contracts.check_normalized_distance(1.0),
    lambda: contracts.check_normalized_distance(np.array([0.2, 0.8])),
    lambda: contracts.check_top_k_budget(0, 0),
    lambda: contracts.check_top_k_budget(5, 10),
    lambda: contracts.check_ulb_partition({1}, {2, 3}, 10),
    lambda: contracts.check_window_length(160, 80),
]


class TestGate:
    @pytest.mark.parametrize("call", CORRUPT_CALLS)
    def test_disabled_checks_are_noops(self, contracts_off, call):
        call()  # must not raise

    @pytest.mark.parametrize("call", CORRUPT_CALLS)
    def test_enabled_checks_raise(self, contracts_on, call):
        with pytest.raises(contracts.ContractViolation):
            call()

    @pytest.mark.parametrize("call", VALID_CALLS)
    def test_enabled_checks_pass_valid_state(self, contracts_on, call):
        call()

    def test_violation_is_assertion_error(self):
        assert issubclass(contracts.ContractViolation, AssertionError)

    def test_refresh_from_env(self, monkeypatch):
        previous = contracts.ENABLED
        try:
            monkeypatch.setenv(contracts.ENV_VAR, "1")
            assert contracts.refresh_from_env() is True
            assert contracts.enabled() is True
            monkeypatch.setenv(contracts.ENV_VAR, "0")
            assert contracts.refresh_from_env() is False
            monkeypatch.delenv(contracts.ENV_VAR)
            assert contracts.refresh_from_env() is False
        finally:
            contracts.set_enabled(previous)

    def test_set_enabled_returns_previous(self):
        previous = contracts.set_enabled(True)
        try:
            assert contracts.set_enabled(False) is True
        finally:
            contracts.set_enabled(previous)


class TestWiring:
    """Contracts fire (or stay silent) at the real call sites."""

    def test_tmerge_runs_clean_under_contracts(self, contracts_on):
        pairs, planted = planted_pairs()
        result = TMerge(k=0.2, tau_max=300, seed=3).run(pairs, stub_scorer())
        assert planted in result.candidate_keys

    def test_ulb_pruner_checked_on_update(self, contracts_on):
        pruner = UlbPruner(n_arms=4, k_count=1, radius_scale=0.2)
        # Corrupt the state behind the pruner's back; the next update's
        # contract pass must catch the accepted/rejected overlap.
        pruner.accepted = {0}
        pruner.rejected = {0}
        means = np.array([0.1, 0.5, 0.6, 0.9])
        pulls = np.array([50, 50, 50, 50])
        with pytest.raises(contracts.ContractViolation):
            pruner.update(means, pulls, total_rounds=200)

    def test_partition_windows_enforces_l_max(self, contracts_on):
        with pytest.raises(contracts.ContractViolation):
            partition_windows(1000, 100, l_max=80)

    def test_partition_windows_accepts_valid_l_max(self, contracts_on):
        windows = partition_windows(1000, 200, l_max=100)
        assert windows[0].length == 200

    def test_partition_windows_ignores_l_max_when_disabled(
        self, contracts_off
    ):
        windows = partition_windows(1000, 100, l_max=80)
        assert windows  # constraint violated but contracts are off

    def test_tmerge_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            TMerge(ulb_scale=0.0)
        with pytest.raises(ValueError):
            TMerge(ulb_scale=-1.0)
        with pytest.raises(ValueError):
            TMerge(thr_s=-5.0)
