"""Benchmark fixtures.

One full 8-day study (the §5 configuration) is simulated once per
session and shared by every table/figure benchmark; each benchmark then
times the *analysis* it reproduces and writes a paper-vs-measured
comparison artifact under ``benchmarks/results/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.exec.executor import Executor, make_executor
from repro.reporting.export import to_json_file
from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.scenarios.threemonth import ThreeMonthConfig, ThreeMonthStudy

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--workers", type=int, default=1, metavar="N",
        help="processes for executor-driven benchmarks (1 = serial; "
             "matching output is identical either way)")


@pytest.fixture(scope="session")
def workers(request) -> int:
    return request.config.getoption("--workers")


@pytest.fixture(scope="session")
def executor(workers) -> Executor:
    """The scheduling policy selected by ``--workers``."""
    ex = make_executor(workers)
    yield ex
    ex.close()  # the parallel pool persists across benchmarks until here


@pytest.fixture(scope="session")
def eightday() -> EightDayStudy:
    """The §5 campaign at laptop scale (8 simulated days)."""
    cfg = EightDayConfig(seed=2025, days=8.0)
    return EightDayStudy(cfg).run()


@pytest.fixture(scope="session")
def eightday_report(eightday):
    return eightday.matching_report()


@pytest.fixture(scope="session")
def threemonth() -> ThreeMonthStudy:
    """The Fig 3 campaign (scaled window; see DESIGN.md)."""
    return ThreeMonthStudy(ThreeMonthConfig()).run()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def write_comparison(name: str, paper: dict, measured: dict, notes: str = "") -> None:
    """Persist one experiment's paper-vs-measured record."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    to_json_file(RESULTS_DIR / f"{name}.json", {
        "experiment": name,
        "paper": paper,
        "measured": measured,
        "notes": notes,
    })
