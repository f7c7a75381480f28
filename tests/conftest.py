"""Shared test plumbing.

The acceptance tests report one PASS/FAIL line per criterion; those
lines are collected here and echoed in the terminal summary so they are
visible on a plain pytest run.
"""

import os

import pytest

ACCEPTANCE_LINES: list[tuple[str, bool, str]] = []


@pytest.fixture
def acceptance(request):
    """Yields a record(passed, detail) callable; guarantees one summary line.

    If the test body errors out before recording, a FAIL line is still
    emitted at teardown so every criterion shows up in the summary.
    """
    slot: dict = {}

    def record(passed: bool, detail: str = ""):
        slot["result"] = (bool(passed), detail)
        assert passed, detail

    yield record

    name = request.node.name
    if "result" in slot:
        passed, detail = slot["result"]
    else:
        passed, detail = False, "errored before recording a result"
    ACCEPTANCE_LINES.append((name, passed, detail))


def pytest_configure(config):
    """Let the CLI tests' child processes import zeonalg from this checkout."""
    paths = [str(config.rootpath / "src"), os.environ.get("PYTHONPATH")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, passed, detail in ACCEPTANCE_LINES:
        tag = "PASS" if passed else "FAIL"
        line = f"[{tag}] {name}"
        if detail:
            line += f": {detail}"
        terminalreporter.write_line(line)
