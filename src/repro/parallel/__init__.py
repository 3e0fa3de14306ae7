"""The window runner: every window of a batch run goes through here.

Public surface:

* :func:`~repro.parallel.executor.run_windows` — the one window loop
  behind the ingestion pipeline and the experiment sweeps, in the
  shared-runtime regime (``n_workers=None``: one ReID runtime threaded
  through the windows in order) or the window-local regime (integer
  ``n_workers``: each window a pure function of ``(seed, index)``,
  dealt round-robin over an inline shard or a process/thread pool).
* :func:`~repro.parallel.executor.build_shard_tasks` /
  :class:`~repro.parallel.executor.ParallelExecutor` — the pool task
  builder and fan-out the streaming service shares.
* :func:`~repro.parallel.executor.single_window_seeds` — one window's
  seed substreams, addressed by spawn key.

See DESIGN.md §8 for the determinism argument.
"""

from repro.parallel.executor import (
    BACKENDS,
    ParallelExecutor,
    ShardTask,
    WindowOutcome,
    WindowRun,
    WindowSeeds,
    WindowTask,
    build_shard_tasks,
    execute_shard,
    run_windows,
    single_window_seeds,
)

__all__ = [
    "BACKENDS",
    "ParallelExecutor",
    "ShardTask",
    "WindowOutcome",
    "WindowRun",
    "WindowSeeds",
    "WindowTask",
    "build_shard_tasks",
    "execute_shard",
    "run_windows",
    "single_window_seeds",
]
