"""Shared test plumbing: the criteria board, the criterion-7/8 testbed, a reward defined outside ``rts``, a model-row
count, a tangent projection.

Acceptance tests report one line per criterion through record_criterion;
the lines are printed in the terminal summary so a full run always ends
with a visible pass/fail scoreboard, even under output capture.

The criterion-7/8 testbed has one definition, the plain data of
``benchmarks/testbed.py`` that the in-process workloads and
``tools/repeat_rows.py`` also read. ``criterion7_setup`` builds its model,
solver, reward and full rts config from that data; ``criterion7_variants``
gives its six methods at the matched budget ``testbed.BUDGET_NFE``, run over
``STREAMS``; ``LEDGER_CONFIGS`` are the configs whose NFE ledger criterion 6
and ``TestNfeLedger`` hold exact.
"""

import dataclasses
import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

import rts.sim
from rts import (
    MixtureModel,
    ModePreferenceReward,
    RngStream,
    RtsConfig,
    SearchConfig,
    SolverSpec,
    run_bon,
    run_bon_block,
    run_free,
    run_free_block,
    run_rts,
    run_rts_block,
    run_zo,
    run_zo_block,
)

# loaded by its file path, as tools/repeat_rows.py loads it, so that the tests leave sys.path as it was
_TESTBED = importlib.util.spec_from_file_location(
    "testbed", Path(__file__).resolve().parents[1] / "benchmarks" / "testbed.py")
testbed = importlib.util.module_from_spec(_TESTBED)
_TESTBED.loader.exec_module(testbed)

# the criterion-7/8 replicate seeds
STREAMS = [RngStream(seed) for seed in range(200)]


class Criterion7(NamedTuple):
    model: MixtureModel
    spec: SolverSpec
    reward: ModePreferenceReward
    cfg: RtsConfig


def criterion7_setup() -> Criterion7:
    """The criterion-7/8 testbed, built anew: four corners, 16-step SDE, the mode-preference reward, full rts config."""
    model = MixtureModel(**testbed.MIXTURE)
    reward = ModePreferenceReward(model=model, preferred=testbed.PREFERRED, sharpness=testbed.SHARPNESS)
    cfg = RtsConfig(
        search_init=SearchConfig(**testbed.SEARCH_INIT),
        search_inter=SearchConfig(**testbed.SEARCH_INTER),
        k_keysteps=testbed.K_KEYSTEPS,
        eval_steps_init=testbed.EVAL_STEPS_INIT,
    )
    return Criterion7(model, SolverSpec(**testbed.SOLVER), reward, cfg)


def criterion7_variants(budget_nfe=None):
    """The six criterion-7/8 variants as (block call, one-seed call) pairs; the rts family capped at ``budget_nfe``.

    bon and zo spend the matched budget ``testbed.BUDGET_NFE`` in full denoises.
    """
    model, spec, reward, full = criterion7_setup()
    off = SearchConfig(rounds=0)
    configs = {
        "rts": full,
        "init": dataclasses.replace(full, search_inter=off, k_keysteps=0),
        "inter": dataclasses.replace(full, search_init=off, eval_steps_init=None),
    }
    matched, step_tau = testbed.BUDGET_NFE, testbed.ZO_STEP_TAU
    variants = {
        name: (lambda streams, cfg=dataclasses.replace(cfg, budget_nfe=budget_nfe): run_rts_block(
            model, spec, reward, cfg, streams),
               lambda stream, cfg=dataclasses.replace(cfg, budget_nfe=budget_nfe): run_rts(
            model, spec, reward, cfg, stream))
        for name, cfg in configs.items()
    }
    variants["bon"] = (lambda streams: run_bon_block(model, spec, reward, matched, streams),
                       lambda stream: run_bon(model, spec, reward, matched, stream))
    variants["zo"] = (lambda streams: run_zo_block(model, spec, reward, matched, step_tau, streams),
                      lambda stream: run_zo(model, spec, reward, matched, step_tau, stream))
    variants["free"] = (lambda streams: run_free_block(model, spec, reward, streams),
                        lambda stream: run_free(model, spec, reward, stream))
    return variants


def worst_case_positions(steps, k):
    """Key-step positions maximizing re-simulation cost in the NFE ledger."""
    return [1] + list(range(steps - k + 1, steps))


# (solver, rts config) pairs whose run spends exactly what expected_rts_nfe says, the criterion-7 config among them
LEDGER_CONFIGS = [
    (SolverSpec(mode="ode", steps=8), RtsConfig(search_init=SearchConfig(n_neighbors=3, rounds=4), k_keysteps=6)),
    (criterion7_setup().spec, RtsConfig(search_init=SearchConfig(n_neighbors=3, rounds=4), k_keysteps=6)),
    (criterion7_setup().spec, criterion7_setup().cfg),
    (SolverSpec(mode="sde", steps=12, churn=0.5), RtsConfig(search_init=SearchConfig(n_neighbors=3, rounds=0),
                                                            k_keysteps=4)),
    (SolverSpec(mode="sde", steps=8, churn=0.3), RtsConfig(search_init=SearchConfig(n_neighbors=4, rounds=2),
                                                           k_keysteps=0)),
    (SolverSpec(mode="sde", steps=10, churn=0.6), RtsConfig(search_init=SearchConfig(n_neighbors=1, rounds=1),
                                                            search_inter=SearchConfig(n_neighbors=2, rounds=2),
                                                            k_keysteps=2)),
    (SolverSpec(mode="ode", steps=6), RtsConfig(search_init=SearchConfig(n_neighbors=2, rounds=2), eval_steps_init=3)),
    (SolverSpec(mode="sde", steps=2, churn=0.4), RtsConfig(search_init=SearchConfig(n_neighbors=2, rounds=2),
                                                           k_keysteps=6, eval_steps_init=1)),
]


def tangent_part(w, u):
    """Each row of ``w`` with its part along the unit direction ``u`` removed twice, bit for bit as the samplers do."""
    for _ in range(2):
        w = w - np.vecdot(w, u)[..., None] * u
    return w


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
