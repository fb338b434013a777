"""Smoke self-test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

* every workload, untraced and traced, emits every metric of
  ``BENCHMARK.json`` with its unit, passes its checks and exits 0;
* every per-layer metric is measured by at least one workload;
* a deliberately wrong expected count makes a check fail — directly,
  and end to end through a tampered counter ledger, where the run must
  still print its result and exit 1;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
  the command exits non-zero without printing a result.

Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import campaign, paper_scale, serve_steady, stream_replay  # noqa: E402
from perfbench.common import OUT_DIR, CounterLedger, Outcome, environment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {"campaign": campaign, "paper_scale": paper_scale,
             "stream_replay": stream_replay, "serve_steady": serve_steady}
SEED = 7
#: Long enough for serve_steady's traced half to offer 200+ requests.
SECONDS = 6


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(SEED),
           "--seconds", str(SECONDS), "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_emission() -> None:
    for name in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", name, "--trace", trace)
            assert proc.returncode == 0, (name, trace, proc.stdout[-2000:], proc.stderr[-2000:])
            result = result_of(proc)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], float)
            if key == "end_to_end":
                zero = [n for n, m in result["metrics"].items() if m["value"] <= 0]
                assert not zero, (name, zero)
            print(f"ok  {name:<14} trace={trace}  {len(got)} metrics, "
                  f"{result['attempted']} checked operations", flush=True)


def check_layer_coverage() -> None:
    measured = {n for m in WORKLOADS.values() for n in m.LAYERS}
    measured |= {"trace.spans", "trace.program_spans"}
    names = {m["name"] for m in SPEC["per_layer"]}
    assert measured == names, measured ^ names
    print("ok  every per-layer metric is measured by some workload")


def check_wrong_expectations() -> None:
    from repro.workload.scale import ScaleConfig, synthesize
    from perfbench.common import Recorder

    ds = synthesize(ScaleConfig(n_jobs=paper_scale.N_JOBS["tiny"], seed=SEED))
    artifacts, report, pairs, _, _ = paper_scale.pipeline(ds, Recorder(enabled=False))
    assert not paper_scale.expected_counts_hold(report, ds.expected_matches)
    wrong = dict(ds.expected_matches, exact=ds.expected_matches["exact"] + 1)
    assert paper_scale.expected_counts_hold(report, wrong)
    rm3_zero = campaign.zero_threshold_pairs(ds.known_sites, artifacts)
    assert not campaign.ladder_nests(pairs, rm3_zero)
    assert campaign.ladder_nests(dict(pairs, rm1=pairs["rm1"][1:]), rm3_zero)
    out = Outcome()
    out.check(False, "deliberate")
    assert (out.attempted, out.failed) == (1, 1)
    print("ok  wrong expected counts and broken nesting fail their checks")


def check_tampered_ledger() -> None:
    """A stored expected count that the run cannot meet fails the run."""
    ledger = CounterLedger("paper_scale", "tiny", SEED, environment()["code_sha256"])
    stored = json.loads(ledger.path.read_text())  # written by check_emission
    good = json.dumps(stored)
    stored[str(SEED)]["columnar.exact_jobs"] += 1
    ledger.path.write_text(json.dumps(stored))
    try:
        proc = bench("--workload", "paper_scale", "--trace", "0")
    finally:
        ledger.path.write_text(good)
    result = result_of(proc)
    assert proc.returncode == 1 and not result["correct"] and result["failed"] >= 1, result
    assert "columnar.exact_jobs" in proc.stdout
    print("ok  a wrong expected count in the ledger fails the run with exit 1")


def check_bare_directory() -> None:
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench("--workload", "campaign", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print("ok  without the program the command fails and prints no result")


def main() -> int:
    try:
        check_layer_coverage()
        check_emission()
        check_wrong_expectations()
        check_tampered_ledger()
        check_bare_directory()
    except AssertionError as exc:
        print(f"SMOKE FAILED: {exc!r}", flush=True)
        return 1
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
