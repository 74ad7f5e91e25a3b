"""Shared test plumbing: the acceptance-criteria result board, a reward defined outside ``rts`` and a model-row count.

Acceptance tests report one line per criterion through record_criterion;
the lines are printed in the terminal summary so a full run always ends
with a visible pass/fail scoreboard, even under output capture.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import rts.sim


class RowReward:
    """Scores each row with ``fn``: the protocol ``evaluate_reward`` reads, ``dim`` (None for any) and ``evaluate``."""

    def __init__(self, fn, dim=None):
        self.fn = fn
        self.dim = dim

    def evaluate(self, x):
        return np.array([float(self.fn(row)) for row in x])


@pytest.fixture
def model_rows(monkeypatch):
    """Counts the NFEs the mixture model spends, one per row of each velocity or clean-estimate call, in ``count``.

    Every model call of ``rts`` goes through ``sim._velocity`` or
    ``sim._clean``; the fixture wraps both, so the count does not depend on
    any counter of the code under test.
    """
    rows = SimpleNamespace(count=0)
    for name in ("_velocity", "_clean"):

        def counted(model, x, t, kernel=getattr(rts.sim, name)):
            rows.count += math.prod(x.shape[:-1])
            return kernel(model, x, t)

        monkeypatch.setattr(rts.sim, name, counted)
    return rows


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
