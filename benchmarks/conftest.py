"""Benchmark-harness fixtures.

Every benchmark regenerates one of the paper's evaluation artifacts
(Figures 1-3 or a theorem's empirical content) and reports it as an
ASCII table.  The ``report`` fixture collects those tables; they are
written to ``benchmarks/results/<test>.txt`` immediately (or to the
directory given by ``--results-dir``) and echoed in the terminal
summary (``pytest_terminal_summary`` runs outside pytest's output
capture, so the tables always appear in
``pytest benchmarks/ --benchmark-only`` output).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
_REPORTS: list[tuple[str, str]] = []


def pytest_addoption(parser):
    parser.addoption(
        "--results-dir", type=Path, default=RESULTS_DIR,
        help="directory the reproduction tables are written to "
             "(default: benchmarks/results)")


@pytest.fixture
def report(request):
    """Collect table/figure text for the experiment summary."""
    chunks: list[str] = []

    def emit(text: str) -> None:
        chunks.append(text)

    yield emit

    if not chunks:
        return
    body = "\n\n".join(chunks)
    results_dir = request.config.getoption("--results-dir")
    results_dir.mkdir(parents=True, exist_ok=True)
    name = request.node.name.replace("/", "_")
    (results_dir / f"{name}.txt").write_text(body + "\n")
    _REPORTS.append((request.node.name, body))


def pytest_terminal_summary(terminalreporter, config):
    if not _REPORTS:
        return
    tr = terminalreporter
    tr.section("paper reproduction tables")
    for name, body in _REPORTS:
        tr.write_line("")
        tr.write_line(f"--- {name} " + "-" * max(0, 66 - len(name)))
        for line in body.splitlines():
            tr.write_line(line)
    tr.write_line("")
    tr.write_line(f"(also written to {config.getoption('--results-dir')}/)")
