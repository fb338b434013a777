"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 2025 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a run that pairs every
traced repetition with an untraced one.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 1 when any correctness check failed.  Spans, counters and the
environment fingerprint are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread: the program does no linear algebra, and the
# run must not start more threads than the machine has cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402,F401  -- fails fast outside a full checkout

from perfbench import campaign, paper_scale, serve_steady, stream_replay  # noqa: E402
from perfbench.common import (  # noqa: E402
    OUT_DIR,
    CounterLedger,
    Recorder,
    RunContext,
    environment,
    log,
)

WORKLOADS = {
    "campaign": campaign,
    "paper_scale": paper_scale,
    "stream_replay": stream_replay,
    "serve_steady": serve_steady,
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metrics_block(values: dict, specs: list, exercised: tuple) -> dict:
    """``{name: {value, unit}}`` for every metric of ``specs``.

    A per-layer metric of a layer the workload never calls reads 0; a
    metric the workload says it measures but did not is a bug.
    """
    missing = [n for n in exercised if n not in values]
    if missing:
        raise RuntimeError(f"workload did not measure: {', '.join(missing)}")
    return {
        s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]}
        for s in specs
    }


def run_one(args, spec: dict) -> int:
    module = WORKLOADS[args.workload]
    env = environment()
    log("# env " + json.dumps(env, sort_keys=True))
    ctx = RunContext(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size=args.size,
        recorder=Recorder(enabled=False),
        ledger=CounterLedger(args.workload, args.size, args.seed, env["code_sha256"]),
    )
    started = time.perf_counter()
    outcome = module.run(ctx)
    for problem in ctx.ledger.check():
        outcome.failed += 1
        outcome.problems.append(problem)

    if ctx.trace:
        values = dict(ctx.ledger.current.get(str(args.seed), {}))
        values.update(outcome.layers)
        values["trace.spans"] = len(ctx.recorder.spans)
        values["trace.program_spans"] = len(ctx.program_spans)
        metrics = metrics_block(values, spec["per_layer"], module.LAYERS)
    else:
        metrics = metrics_block(
            outcome.end_to_end, spec["end_to_end"], tuple(s["name"] for s in spec["end_to_end"])
        )
    for name, m in metrics.items():
        log(f"{args.workload:>14}  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for name, (value, unit) in outcome.extra.items():
        log(f"{args.workload:>14}  {name:<28} {value:>14.6g} {unit}")
    for problem in outcome.problems:
        log(f"CHECK FAILED: {problem}")

    stamp = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    ctx.recorder.dump(OUT_DIR / "traces" / f"{stamp}.json", {
        "env": env,
        "args": vars(args),
        "elapsed_s": time.perf_counter() - started,
        "result": result,
        "problems": outcome.problems,
        "extra": outcome.extra,
        "program_spans": ctx.program_spans,
    })
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so no heap or peak RSS carries over."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            log(f"CHECK FAILED: {name} printed no result (exit {proc.returncode})")
            merged["correct"] = False
            merged["failed"] += 1
            status = status or 1
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
