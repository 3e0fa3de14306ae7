"""The window runner: every window of a batch run goes through here.

Public surface:

* :func:`~repro.parallel.executor.run_windows` — the one window loop
  behind the ingestion pipeline and the experiment sweeps, in the
  shared-runtime regime (no executor: one ReID runtime threaded
  through the windows in order) or the window-local regime (on a
  ``ParallelExecutor``: each window a pure function of ``(seed, index)``
  and one task, run inline or sent longest first over a process/thread
  pool).
* :func:`~repro.parallel.executor.build_window_tasks` /
  :class:`~repro.parallel.executor.ParallelExecutor` — the task builder
  and the pool owner (``close()`` or ``with``); the pipeline, the
  sweeps and the streaming service each hold one.
* :func:`~repro.parallel.executor.single_window_seeds` — one window's
  seed substreams, addressed by spawn key.

See DESIGN.md §8 for the determinism argument.
"""

from repro.parallel.executor import (
    BACKENDS,
    ParallelExecutor,
    WindowOutcome,
    WindowRun,
    WindowSeeds,
    WindowTask,
    build_window_tasks,
    execute_shard,
    run_windows,
    single_window_seeds,
)

__all__ = [
    "BACKENDS",
    "ParallelExecutor",
    "WindowOutcome",
    "WindowRun",
    "WindowSeeds",
    "WindowTask",
    "build_window_tasks",
    "execute_shard",
    "run_windows",
    "single_window_seeds",
]
