"""The criterion-7/8 testbed as plain data, shared by every workload.

Four-corner mixture at d=2, 16-step SDE with churn 0.4, rare preferred
mode. Kept free of numpy so the orchestrator can write the CLI config
without importing the package under test.
"""

from __future__ import annotations

DIMENSION = 2
SOLVER = {"mode": "sde", "steps": 16, "churn": 0.4}
MIXTURE = {
    "weights": [0.1, 0.3, 0.3, 0.3],
    "means": [[1.5, 1.5], [-1.5, 1.5], [-1.5, -1.5], [1.5, -1.5]],
    "stddevs": [0.6, 0.6, 0.6, 0.6],
}
PREFERRED = 0
SHARPNESS = 2.0
SEARCH_INIT = {"n_neighbors": 2, "rounds": 6, "tau": 0.7}
SEARCH_INTER = {"n_neighbors": 4, "rounds": 3, "tau": 0.8}
K_KEYSTEPS = 6
EVAL_STEPS_INIT = 2
ZO_STEP_TAU = 0.9
# Matched budget of criteria 7/8: expected_rts_nfe of the full config at
# the costliest key positions (1 and the last five interior steps). The
# in-process workloads recompute it and fail a check if it drifts.
BUDGET_NFE = 238


def cli_config(seed: int, replicates: int, out: str) -> dict:
    """The testbed as an ``rts run`` config (method rts, one worker)."""
    return {
        "dimension": DIMENSION,
        "solver": dict(SOLVER),
        "mixture": {key: list(value) for key, value in MIXTURE.items()},
        "reward": {"kind": "mode_preference", "preferred": PREFERRED, "sharpness": SHARPNESS},
        "method": "rts",
        "seed": seed,
        "replicates": replicates,
        "out": out,
        "search_init": dict(SEARCH_INIT),
        "search_inter": dict(SEARCH_INTER),
        "k_keysteps": K_KEYSTEPS,
        "eval_steps_init": EVAL_STEPS_INIT,
    }
