#!/usr/bin/env python3
"""End-to-end benchmark of the TMerge reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
        [--trace [0|1]] [--scale full|smoke] [--out results.jsonl]

Without ``--workload`` every workload runs, each in a fresh process.  A
run prints every metric by name with its unit; the last line of a
single-workload run is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``BENCHMARK.json``
end-to-end metrics, or its per-layer metrics with ``--trace``).  A traced
run also writes ``benchmarks/e2e/results/trace_<workload>.jsonl``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the arguments or the source tree are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: Fresh set-up processes probed before, and again after, the timed
#: phase; ``setup_s`` is the median of both groups, so a second-long
#: slowdown of the shared host does not decide it.
SETUP_PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    """The command line (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0, help="time budget of a run"
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="append one JSON record per workload")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    """Run the benchmark; return the exit status."""
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.probe:
        workload = workloads.scaled(
            workloads.WORKLOADS[args.workload], args.scale
        )
        workloads.build(workload, str(WORK / "probe"), args.seed)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        return run_all(args, workloads.WORKLOADS)
    return run_one(args)


def run_all(args, names) -> int:
    """Run every workload in its own fresh process."""
    status = 0
    for name in names:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--scale", args.scale,
        ]
        if args.out:
            command += ["--out", args.out]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def measure_setup(args) -> list[float]:
    """Wall seconds from spawning a fresh process until it is ready."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            code = probe.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code}")
        samples.append(ready - start)
    return samples


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_traced(args, workload, inputs, ready, spool: str):
    """One untraced pass, then one traced pass; the per-layer metrics.

    Returns:
        ``(metrics, layer table, [untraced outcome, traced outcome])``.
    """
    import metrics as catalogue
    import workloads
    from tracer import Tracer

    untraced = workloads.run(
        workload, ready("untraced"), inputs, args.seconds, passes=1
    )
    tracer = Tracer(spool)
    target = ready("traced")
    with tracer.installed():
        outcome = workloads.run(
            workload, target, inputs, args.seconds, tracer=tracer, passes=1
        )
    values, table = catalogue.layer_metrics(
        workload, tracer, outcome, untraced.busy_s
    )
    RESULTS.mkdir(exist_ok=True)
    tracer.write(str(RESULTS / f"trace_{workload.name}.jsonl"), table, values)
    for layer, row in sorted(table.items()):
        print(f"{workload.name:24} self {layer:22} {row['self_s']:>14.6f} s")
    for missing in tracer.unattributed:
        print(f"{workload.name:24} unattributed {missing}")
    return values, table, [untraced, outcome]


def run_one(args) -> int:
    """Measure one workload, print its metrics, return the exit status."""
    import numpy

    import metrics as catalogue
    import workloads

    workload = workloads.scaled(workloads.WORKLOADS[args.workload], args.scale)
    setup = measure_setup(args)
    inputs = workloads.make_inputs(workload, args.seed, args.seconds)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:

        def ready(name: str):
            return workloads.build(
                workload, os.path.join(work, name), args.seed
            )

        if args.trace:
            values, table, outcomes = run_traced(
                args, workload, inputs, ready, os.path.join(work, "spool")
            )
            reported = catalogue.LAYERS
        else:
            outcomes = [
                workloads.run(workload, ready("store"), inputs, args.seconds)
            ]
            values, table = dict(outcomes[0].metrics), None
            reported = catalogue.END_TO_END
    setup += measure_setup(args)
    outcome = outcomes[-1]
    attempted = sum(o.checks.attempted for o in outcomes)
    failed = sum(o.checks.failed for o in outcomes)
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = peak_rss_mb()
    values["fail_rate"] = failed / attempted if attempted else 1.0
    shown = {
        m.name: values[m.name]
        for m in reported
        if catalogue.applies(m, workload)
    }

    for name, value in shown.items():
        print(
            f"{workload.name:24} {name:28} {value:>16.6f} "
            f"{catalogue.UNITS[name]}"
        )
    print(f"{workload.name:24} digest {outcome.digest}")
    for each in outcomes:
        for failure in each.checks.failures:
            print(f"{workload.name:24} CHECK FAILED: {failure}")

    if args.out:
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": bool(args.trace),
            "digest": outcome.digest,
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": shown,
            "layers": table,
            "setup_samples": setup,
            "env": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = bench["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {
                "value": values[m["name"]],
                "unit": catalogue.UNITS[m["name"]],
            }
            for m in listed
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
