"""Tests for the package root: its exports resolve lazily, each to the object in its home module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rts

# every name the package root exported when it imported its modules eagerly, by home module
EXPORTS = {
    "core": (
        "BudgetError", "ConfigError", "DegeneratePerturbationError", "DimensionError",
        "Latent", "NonFiniteError", "PreconditionError", "RngStream", "RtsError", "StreamBlock", "as_latent",
        "sample_gaussian",
    ),
    "keysteps": ("KeyStepSet", "curvature", "project_trajectory", "select_key_steps"),
    "pipeline": (
        "BON", "FREE", "METHODS", "RTS", "ZO", "RtsConfig", "RunResult", "expected_rts_nfe", "run_bon",
        "run_bon_block", "run_free", "run_free_block", "run_rts", "run_rts_block", "run_zo", "run_zo_block",
    ),
    "search": ("Evaluator", "RoundSummary", "SearchConfig", "SearchState", "coarse_round", "fine_round", "run_search"),
    "sim": (
        "ODE", "SDE", "MixtureModel", "ModePreferenceReward", "QuadraticReward", "RewardModel", "SolverSpec",
        "denoise", "evaluate_reward", "marginal_velocity", "nearest_mode", "one_step_clean_estimate",
    ),
    "sphere": ("NeighborSet", "guided_spherical_sample", "random_spherical_sample", "tangent_project"),
    "surrogate": ("estimate_gradient",),
}


def _in_fresh_interpreter(code: str) -> str:
    package_root = str(Path(rts.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_importing_the_package_loads_none_of_its_modules():
    code = "import sys\nimport rts\nprint(sorted(name for name in sys.modules if name.startswith('rts.')))"
    assert _in_fresh_interpreter(code) == "[]"


def test_every_export_is_the_object_of_its_home_module():
    exported = {name for names in EXPORTS.values() for name in names}
    assert set(rts.__all__) == exported
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"rts.{module}")
        for name in names:
            assert getattr(rts, name) is getattr(home, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rts.no_such_name  # noqa: B018
