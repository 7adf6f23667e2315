"""Print every end-to-end and per-layer metric of every workload.

    python3 bench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs ``bench/run.py`` for each workload twice, each time in its own process:
once without tracing (end-to-end metrics) and once with it (per-layer
metrics).  Prints each metric by name with its unit, ``failed_ops`` (the
share of attempted ops that raised or failed their output check), ``wall_s``
(the wall-clock counterpart of ``cpu_s``) and the share of the traced pass
each layer spent in its own code.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}")
    info, result = proc.stdout.splitlines()[-2:]
    return json.loads(info)["info"], json.loads(result)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)
    for workload in args.workload or names:
        info, plain = run(workload, args.seed, args.seconds, 0)
        _, traced = run(workload, args.seed, args.seconds, 1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        print(f"== {workload} (seed {args.seed}; medians over {info['passes']} "
              "passes and as many set-ups)")
        rows = [("failed_ops", failed / attempted, "share"),
                ("wall_s", info["wall_s"], "s")]
        for result in (plain, traced):
            rows += [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        for name, value, unit in rows:
            print(f"  {name:32s} {value:14.6g} {unit}")
        m = traced["metrics"]
        total = sum(m[f"{layer}.busy_s"]["value"] for layer in LAYERS) + m["other_s"]["value"]
        shares = ", ".join(f"{layer} {m[f'{layer}.busy_s']['value'] / total:.2f}"
                           for layer in LAYERS)
        print(f"  self-time shares: {shares}, other {m['other_s']['value'] / total:.2f}")


if __name__ == "__main__":
    main()
