"""Resilience layer: retry, circuit breaking, validation, checkpointing.

Everything here operates on the *simulated* clock
(:class:`~repro.reid.cost.CostModel`) so that fault handling is part of
the reproducible experiment, not a source of wall-time nondeterminism.
See DESIGN.md §10 for the failure model this layer implements.
"""

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.resilience.checkpoint import (
    CheckpointStore,
    capture_scorer_state,
    encode_generator_state,
    restore_generator_state,
    restore_scorer_state,
)
from repro.resilience.errors import (
    REID_UNAVAILABLE,
    CircuitOpenError,
    CorruptFeatureError,
    ReidUnavailableError,
    ResilienceError,
    RetriesExhaustedError,
)
from repro.resilience.retry import RetryPolicy, retry_call
from repro.resilience.scorer import ResilienceConfig, ResilientReidScorer

__all__ = [
    "BreakerPolicy",
    "CheckpointStore",
    "CircuitBreaker",
    "CircuitOpenError",
    "CLOSED",
    "CorruptFeatureError",
    "HALF_OPEN",
    "OPEN",
    "REID_UNAVAILABLE",
    "ReidUnavailableError",
    "ResilienceConfig",
    "ResilienceError",
    "ResilientReidScorer",
    "RetriesExhaustedError",
    "RetryPolicy",
    "capture_scorer_state",
    "encode_generator_state",
    "restore_generator_state",
    "restore_scorer_state",
    "retry_call",
]
