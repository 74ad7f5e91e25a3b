"""Shared test plumbing: the acceptance-criteria result board and a reward defined outside ``rts``.

Acceptance tests report one line per criterion through record_criterion;
the lines are printed in the terminal summary so a full run always ends
with a visible pass/fail scoreboard, even under output capture.
"""

import numpy as np


class RowReward:
    """Scores each row with ``fn``: the protocol ``evaluate_reward`` reads, ``dim`` (None for any) and ``evaluate``."""

    def __init__(self, fn, dim=None):
        self.fn = fn
        self.dim = dim

    def evaluate(self, x):
        return np.array([float(self.fn(row)) for row in x])

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(index: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES[index] = f"criterion {index} ({name}): {status} | {detail}"


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for index in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[index])
