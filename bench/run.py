"""Layered benchmark of the mcf package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the program is imported from its
``src`` directory.  One process runs one workload (see ``workloads.py``) in
rounds until ``--seconds`` is used up (at least one round).  A round is

1. a set-up: a fresh import of mcf, the catalog builds and the inputs
   generated from the seed;
2. a pass over the workload's ops.  Each op is timed over its call into
   mcf; its output check runs after the call, untimed;
3. with ``--trace 1``, a second pass with the layers' public functions
   rebound to span-recording wrappers (``tracing.py``).

Times are process CPU seconds, which leave out the time the process waits
for a CPU.  On a shared machine that wait comes and goes with the load of
other tenants and moves wall-clock times by tens of percent; the program is
single-threaded and does no I/O, so without it CPU time is its wall time.

- ``setup_s``: the median set-up.
- ``cpu_s``: the sum over the ops of each op's median time across passes, so
  a burst of load during one pass moves it less than it moves that pass.
- ``peak_rss_mb``: the maximum resident set of the process.

The traced passes give the per-layer metrics (spans are wall-clock), and the
spans of the last one are written to ``.bench_out/``.  ``trace_overhead_s``
is the wall-clock sum of op medians traced minus untraced.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (ops over all passes) and ``metrics``, which are
the ``end_to_end`` metrics of BENCHMARK.json without tracing and its
``per_layer`` metrics with it.  The line before it records the seed, the
input sizes, the machine, the library versions and the wall-clock times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WALL, CPU = 0, 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for testing the benchmark")
    return p.parse_args(argv)


@contextmanager
def _paused(tracer):
    if tracer is None:
        yield
        return
    tracer.uninstall()
    try:
        yield
    finally:
        tracer.install()


def run_pass(ops, tracer=None):
    """Run every op once.

    Returns the (wall, cpu) seconds of each op and the failure messages.
    """
    times = []
    failures = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            w0, c0 = perf_counter(), process_time()
            try:
                result = op.call()
            except Exception as exc:  # an op that raises counts as failed
                times.append((perf_counter() - w0, process_time() - c0))
                failures.append(f"{op.name}: raised {exc!r}")
                continue
            times.append((perf_counter() - w0, process_time() - c0))
            with _paused(tracer):
                try:
                    problem = op.check(result)
                except Exception as exc:
                    problem = f"check raised {exc!r}"
            if problem:
                failures.append(f"{op.name}: {problem}")
            del result
    finally:
        if tracer is not None:
            tracer.uninstall()
    return times, failures


def _median(values):
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _op_medians(passes, clock):
    """Sum over the ops of each op's median time across passes."""
    return sum(statistics.median(t[clock] for t in op) for op in zip(*passes))


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _versions():
    out = {"python": platform.python_version()}
    for dist in ("numpy", "click"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = None
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mcf" / "__init__.py").is_file():
        print(f"error: no mcf package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = _spec()
    size = workloads.SIZES[args.workload][args.size]
    build = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2**64

    tracer = tracing.Tracer() if args.trace else None
    setup, plain, traced, layers, failures = [], [], [], [], []
    attempted = 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        c0 = process_time()
        ctx = workloads.Context(seed)
        ops = build(ctx, size)
        setup.append(process_time() - c0)
        times, failed = run_pass(ops)
        plain.append(times)
        failures += failed
        attempted += len(ops)
        if tracer is not None:
            ctx.tracer = tracer
            times, failed = run_pass(ops, tracer)
            traced.append(times)
            failures += failed
            attempted += len(ops)
            layers.append(tracing.layer_metrics(
                tracer.spans, tracer.counters, sum(t[WALL] for t in times)))
        round_s = perf_counter() - t0
        if perf_counter() - start + round_s > args.seconds:
            break

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            "cpu_s": _op_medians(plain, CPU),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = spec["end_to_end"]
    else:
        # counters repeat exactly from pass to pass; times take the median
        values = {k: _median([m[k] for m in layers]) for k in layers[0]}
        values["trace_overhead_s"] = _op_medians(traced, WALL) - _op_medians(plain, WALL)
        wanted = spec["per_layer"]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{seed}.tsv")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "size": args.size,
        "sizes": size,
        "ops_per_pass": len(ops),
        "passes": len(plain),
        "wall_s": _op_medians(plain, WALL),
        "pass_wall_s": [sum(t[WALL] for t in p) for p in plain],
        "pass_cpu_s": [sum(t[CPU] for t in p) for p in plain],
        "setup_cpu_s": setup,
        "nproc": len(os.sched_getaffinity(0)),
        **_versions(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
