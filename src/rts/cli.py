"""Command-line front end: run experiments, summarize results, export trajectories.

Subcommands:
    run                execute the configured method for each replicate and
                       append one JSON record per line to the output file,
                       each flushed in replicate order as soon as it is done
    report             aggregate a results file into per-method statistics
                       with pairwise one-sided Wilcoxon comparisons; a file
                       that repeats a (method, seed, overrides), or a record
                       field of the wrong type, is refused
    export-trajectory  run a single denoise and write its 3-D projection,
                       per-step curvature, and key-step flags as CSV

Configs are JSON with a strict schema: unknown keys are rejected with the
offending dotted path, so a misspelled field fails loudly instead of being
silently ignored. Command-line KEY=VALUE overrides use the same dotted paths
(e.g. ``search_init.alpha=0.65``) and are echoed into every output record.

Exit codes: 0 success, 2 config error, 3 runtime error.

Only ``report`` loads scipy, at its first comparison. Importing this module
loads the standard library, numpy and the package alone, so ``run``, its
spawned workers and ``export-trajectory`` start without scipy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import reprlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from multiprocessing import get_context

import numpy as np

from .core import ConfigError, NoiseTrajectory, PreconditionError, RngStream, RtsError, sample_gaussian
from .keysteps import curvature, project_trajectory, select_key_steps
from .pipeline import (
    BON,
    FREE,
    METHODS,
    RTS,
    ZO,
    RtsConfig,
    RunResult,
    denoise_count,
    run_bon,
    run_free,
    run_rts,
    run_zo,
)
from .search import MAX_NEIGHBORS, SearchConfig
from .sim import (
    MAX_STEPS,
    MixtureModel,
    ModePreferenceReward,
    QuadraticReward,
    SolverSpec,
    denoise,
    nearest_mode,
)

WORKER_ENV = "RTS_MAX_WORKERS"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the range of a float
        return False


# the fields of a results record that ``rts report`` reads: what each must be
_RECORD_FIELDS = {
    "method": ("a string", lambda value: isinstance(value, str)),
    "seed": ("an integer", _is_int),
    "final_reward": ("a finite number", _is_finite_number),
    "nfe_used": ("an integer", _is_int),
    "truncated": ("a boolean", lambda value: isinstance(value, bool)),
}

_SOLVER_KEYS = {"mode", "steps", "churn"}
_MIXTURE_KEYS = {"weights", "means", "stddevs"}
_SEARCH_KEYS = {"n_neighbors", "rounds", "tau", "alpha", "track_global_best"}
_REWARD_KINDS = {"mode_preference", "quadratic"}
_TOP_REQUIRED = ("dimension", "solver", "mixture", "reward", "method", "seed", "replicates")
_TOP_OPTIONAL = {
    "out": "results.jsonl",
    "workers": 1,
    "budget_nfe": None,
    "search_init": {},
    "search_inter": {},
    "k_keysteps": 6,
    "eval_steps_init": None,
    "eval_steps_inter": 1,
    "resample_inter_fresh": True,
    "zo_step_tau": 0.9,
}


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"config error at '{path}': {message}")


def _expect(value, types, path: str, description: str):
    # bool is an int subclass; reject it where an int is expected
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise _fail(path, f"expected {description}, got a boolean")
    if not isinstance(value, types):
        raise _fail(path, f"expected {description}, got {type(value).__name__}")
    return value


def _number(value, path: str) -> float:
    """A finite JSON number as a float; integers too large for a float count as infinite."""
    _expect(value, (int, float), path, "a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _fail(path, "must be a finite number")
    return number


def _numbers(value, path: str) -> list[float]:
    _expect(value, list, path, "a list")
    return [_number(item, f"{path}[{i}]") for i, item in enumerate(value)]


def _count(value, path: str, limit: int) -> int:
    _expect(value, int, path, "an integer")
    if not 1 <= value <= limit:
        raise _fail(path, f"must lie in [1, {limit}]")
    return value


def _check_keys(section: dict, allowed: set, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise _fail(f"{path}.{key}" if path else key, "unknown key")


def validate_config(raw: dict) -> dict:
    """Normalize a parsed config dict, rejecting unknown or ill-typed keys.

    Returns a fully populated plain dict (defaults applied). Value-level
    constraints that the domain constructors already enforce (weight sums,
    tau ranges, ...) are left to them; see build_experiment.
    """
    _expect(raw, dict, "<root>", "an object")
    _check_keys(raw, set(_TOP_REQUIRED) | set(_TOP_OPTIONAL), "")
    for key in _TOP_REQUIRED:
        if key not in raw:
            raise _fail(key, "required key is missing")
    cfg = dict(_TOP_OPTIONAL)
    cfg.update(raw)

    _expect(cfg["dimension"], int, "dimension", "an integer")
    if cfg["dimension"] < 2:
        raise _fail("dimension", "must be >= 2")

    solver = _expect(cfg["solver"], dict, "solver", "an object")
    _check_keys(solver, _SOLVER_KEYS, "solver")
    for key in ("mode", "steps"):
        if key not in solver:
            raise _fail(f"solver.{key}", "required key is missing")
    _expect(solver["mode"], str, "solver.mode", "a string")
    cfg["solver"] = {"mode": solver["mode"], "steps": _count(solver["steps"], "solver.steps", MAX_STEPS),
                     "churn": _number(solver.get("churn", 0.0), "solver.churn")}

    mixture = _expect(cfg["mixture"], dict, "mixture", "an object")
    _check_keys(mixture, _MIXTURE_KEYS, "mixture")
    for key in _MIXTURE_KEYS:
        if key not in mixture:
            raise _fail(f"mixture.{key}", "required key is missing")
    rows = _expect(mixture["means"], list, "mixture.means", "a list")
    means = [_numbers(row, f"mixture.means[{i}]") for i, row in enumerate(rows)]
    for i, row in enumerate(means):
        if len(row) != len(means[0]):
            raise _fail(f"mixture.means[{i}]", f"has {len(row)} coordinates, row 0 has {len(means[0])}")
    cfg["mixture"] = {"weights": _numbers(mixture["weights"], "mixture.weights"), "means": means,
                      "stddevs": _numbers(mixture["stddevs"], "mixture.stddevs")}

    reward = _expect(cfg["reward"], dict, "reward", "an object")
    kind = reward.get("kind")
    if not isinstance(kind, str) or kind not in _REWARD_KINDS:
        raise _fail("reward.kind", f"must be one of {sorted(_REWARD_KINDS)}")
    if kind == "mode_preference":
        _check_keys(reward, {"kind", "preferred", "sharpness"}, "reward")
        _expect(reward.get("preferred", 0), int, "reward.preferred", "an integer")
        cfg["reward"] = {"kind": kind, "preferred": reward.get("preferred", 0),
                         "sharpness": _number(reward.get("sharpness", 1.0), "reward.sharpness")}
    else:
        _check_keys(reward, {"kind", "target"}, "reward")
        if "target" not in reward:
            raise _fail("reward.target", "required key is missing")
        cfg["reward"] = {"kind": kind, "target": _numbers(reward["target"], "reward.target")}

    _expect(cfg["method"], str, "method", "a string")
    if cfg["method"] not in METHODS:
        raise _fail("method", f"must be one of {sorted(METHODS)}")
    _expect(cfg["seed"], int, "seed", "an integer")
    if not 0 <= cfg["seed"] < 2**64:
        raise _fail("seed", "must fit in an unsigned 64-bit integer")
    _expect(cfg["replicates"], int, "replicates", "an integer")
    if cfg["replicates"] < 1:
        raise _fail("replicates", "must be >= 1")
    if cfg["seed"] + cfg["replicates"] > 2**64:
        raise _fail("replicates", "seed + replicates - 1 must fit in an unsigned 64-bit integer")
    _expect(cfg["out"], str, "out", "a string")
    _expect(cfg["workers"], int, "workers", "an integer")
    if cfg["workers"] < 1:
        raise _fail("workers", "must be >= 1")
    if cfg["budget_nfe"] is not None:
        _expect(cfg["budget_nfe"], int, "budget_nfe", "an integer or null")

    for name in ("search_init", "search_inter"):
        section = _expect(cfg[name], dict, name, "an object")
        _check_keys(section, _SEARCH_KEYS, name)
        for key, value in section.items():
            path = f"{name}.{key}"
            if key == "n_neighbors":
                _count(value, path, MAX_NEIGHBORS)
            elif key == "rounds":
                _expect(value, int, path, "an integer")
            elif key == "track_global_best":
                _expect(value, bool, path, "a boolean")
            else:
                _number(value, path)
    _expect(cfg["k_keysteps"], int, "k_keysteps", "an integer")
    if cfg["eval_steps_init"] is not None:
        _count(cfg["eval_steps_init"], "eval_steps_init", MAX_STEPS)
    _expect(cfg["eval_steps_inter"], int, "eval_steps_inter", "an integer")
    _expect(cfg["resample_inter_fresh"], bool, "resample_inter_fresh", "a boolean")
    cfg["zo_step_tau"] = _number(cfg["zo_step_tau"], "zo_step_tau")
    return cfg


def parse_override(text: str) -> tuple[str, object]:
    """Parse KEY=VALUE; the value is JSON if it parses, a bare string otherwise."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"override '{text}' is not of the form KEY=VALUE")
    try:
        return key, json.loads(value)
    except ValueError:  # not JSON, or an integer past Python's digit limit
        return key, value


def apply_overrides(raw: dict, overrides: dict) -> dict:
    """Set dotted-path overrides into a copy of the raw config dict."""
    merged = json.loads(json.dumps(raw))  # deep copy of plain JSON data
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = merged
        for i, part in enumerate(parts[:-1]):
            child = node.get(part)
            if child is None:
                child = node[part] = {}
            elif not isinstance(child, dict):
                raise _fail(".".join(parts[: i + 1]), "cannot override inside a non-object value")
            node = child
        node[parts[-1]] = value
    return merged


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Read, override, and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config '{path}' is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise ConfigError(f"config '{path}' is not valid JSON: {exc}") from exc
    if overrides:
        raw = apply_overrides(raw, overrides)
    return validate_config(raw)


def build_experiment(cfg: dict):
    """Construct (model, spec, reward, rts_config) from a validated config.

    Domain constructors do the value-level validation; their complaints are
    surfaced as config errors because they stem from config values.
    """
    try:
        model = MixtureModel(
            weights=cfg["mixture"]["weights"],
            means=cfg["mixture"]["means"],
            stddevs=cfg["mixture"]["stddevs"],
        )
        if model.dim != cfg["dimension"]:
            raise _fail("mixture.means", f"dimension {model.dim} != configured {cfg['dimension']}")
        spec = SolverSpec(
            mode=cfg["solver"]["mode"],
            steps=cfg["solver"]["steps"],
            churn=cfg["solver"]["churn"],
        )
        if cfg["reward"]["kind"] == "mode_preference":
            reward = ModePreferenceReward(
                model=model,
                preferred=cfg["reward"]["preferred"],
                sharpness=cfg["reward"]["sharpness"],
            )
        else:
            reward = QuadraticReward(target=np.asarray(cfg["reward"]["target"], dtype=np.float64))
            if reward.target.shape[0] != cfg["dimension"]:
                raise _fail("reward.target", f"dimension {reward.target.shape[0]} != configured {cfg['dimension']}")
        rts_cfg = RtsConfig(
            search_init=SearchConfig(**cfg["search_init"]),
            search_inter=SearchConfig(**{"rounds": 2, **cfg["search_inter"]}),
            k_keysteps=cfg["k_keysteps"],
            eval_steps_init=cfg["eval_steps_init"],
            eval_steps_inter=cfg["eval_steps_inter"],
            budget_nfe=cfg["budget_nfe"],
            resample_inter_fresh=cfg["resample_inter_fresh"],
        )
    except RtsError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"config error: {exc}") from exc
    return model, spec, reward, rts_cfg


def _result_record(result: RunResult, reward_cfg: dict, model: MixtureModel,
                   overrides: dict, wall_ms: float) -> dict:
    hit = None
    if reward_cfg["kind"] == "mode_preference":
        hit = nearest_mode(model, result.final_sample) == reward_cfg["preferred"]
    key_steps = [] if result.key_steps is None else list(result.key_steps.indices)
    return {
        "method": result.method,
        "seed": result.seed,
        "nfe_used": result.nfe_used,
        "final_reward": result.final_reward,
        "final_sample": [float(v) for v in result.final_sample],
        "rounds": result.round_history,
        "key_steps": key_steps,
        "truncated": result.truncated,
        "hit": hit,
        "nfe_breakdown": result.nfe_breakdown,
        "overrides": overrides,
        "wall_ms": wall_ms,
    }


def _check_budget(cfg: dict, spec: SolverSpec) -> None:
    """Refuse a bon or zo run without a budget, or with one for too many denoises."""
    method, budget = cfg["method"], cfg["budget_nfe"]
    if method not in (BON, ZO):
        return
    if budget is None:
        raise _fail("budget_nfe", f"required for method '{method}'")
    try:
        denoise_count(method, spec, budget)
    except PreconditionError as exc:
        raise _fail("budget_nfe", str(exc)) from exc


def run_replicate(cfg: dict, index: int, overrides: dict) -> dict:
    """Execute one replicate (seed = base seed + index) and build its record."""
    model, spec, reward, rts_cfg = build_experiment(cfg)
    _check_budget(cfg, spec)
    stream = RngStream(root_seed=cfg["seed"] + index, path=())
    method = cfg["method"]
    start = time.perf_counter()
    if method == RTS:
        result = run_rts(model, spec, reward, rts_cfg, stream)
    elif method == BON:
        result = run_bon(model, spec, reward, cfg["budget_nfe"], stream)
    elif method == ZO:
        result = run_zo(model, spec, reward, cfg["budget_nfe"], cfg["zo_step_tau"], stream)
    else:
        result = run_free(model, spec, reward, stream)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return _result_record(result, cfg["reward"], model, overrides, wall_ms)


def _worker_count(cfg: dict) -> int:
    limit = cfg["workers"]
    env = os.environ.get(WORKER_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigError(f"{WORKER_ENV} must be an integer, got '{env}'") from exc
        if cap < 1:
            raise ConfigError(f"{WORKER_ENV} must be >= 1, got {cap}")
        limit = min(limit, cap)
    return min(limit, cfg["replicates"])


def _append_records(path: str, records) -> None:
    """Append each record as one JSON line and flush it as soon as it arrives.

    A replicate that fails ends the run, and every record before it stays
    in the file.
    """
    try:
        sink = open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise RtsError(f"cannot write output '{path}': {exc}") from exc
    with sink:
        for record in records:
            try:
                sink.write(json.dumps(record) + "\n")
                sink.flush()
            except OSError as exc:
                raise RtsError(f"cannot write output '{path}': {exc}") from exc


def cmd_run(config_path: str, overrides: dict) -> int:
    cfg = load_config(config_path, overrides)
    _, spec, _, _ = build_experiment(cfg)  # fail on bad values before any work is queued
    _check_budget(cfg, spec)
    workers = _worker_count(cfg)
    indices = range(cfg["replicates"])
    if workers == 1:
        _append_records(cfg["out"], (run_replicate(cfg, i, overrides) for i in indices))
    else:
        # spawn keeps worker state identical to a fresh interpreter; map yields
        # records in submission order so the output is deterministic
        executor = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
        try:
            _append_records(cfg["out"], executor.map(run_replicate, repeat(cfg), indices, repeat(overrides)))
        finally:
            executor.shutdown(cancel_futures=True)
    print(f"wrote {cfg['replicates']} record(s) to {cfg['out']}")
    return 0


def _load_records(results_path: str) -> list[dict]:
    """Parse a results file, rejecting non-records and repeated (method, seed, overrides)."""
    try:
        with open(results_path, encoding="utf-8") as handle:
            lines = [(lineno, line) for lineno, line in enumerate(handle, start=1) if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read results '{results_path}': {exc}") from exc
    if not lines:
        raise ConfigError(f"results file '{results_path}' is empty")
    records = []
    for lineno, line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"results line {lineno} is not valid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer past Python's digit limit
            raise ConfigError(f"results line {lineno} is not valid JSON: {exc}") from exc
    first_line: dict[str, int] = {}
    for (lineno, _), record in zip(lines, records):
        if not isinstance(record, dict) or any(key not in record for key in _RECORD_FIELDS):
            raise ConfigError(f"results line {lineno} is not a record with keys {', '.join(_RECORD_FIELDS)}")
        for key, (description, valid) in _RECORD_FIELDS.items():
            if not valid(record[key]):
                raise ConfigError(f"results line {lineno} key '{key}': expected {description}, "
                                  f"got {reprlib.repr(record[key])}")
        if record.get("hit") is not None and not isinstance(record["hit"], bool):
            raise ConfigError(f"results line {lineno} key 'hit': expected a boolean or null, "
                              f"got {reprlib.repr(record['hit'])}")
        run = json.dumps([record["method"], record["seed"], record.get("overrides")], sort_keys=True)
        if run in first_line:
            raise ConfigError(f"results line {lineno} repeats the method, seed and overrides "
                              f"of line {first_line[run]}")
        first_line[run] = lineno
    return records


def _one_sided_p(a: list[dict], b: list[dict]) -> float:
    """P-value for 'method a beats method b', paired by seed when possible."""
    # imported here: scipy.stats takes most of a second to load, and only report needs it
    from scipy import stats

    by_seed_a = {r["seed"]: r["final_reward"] for r in a}
    by_seed_b = {r["seed"]: r["final_reward"] for r in b}
    shared = sorted(set(by_seed_a) & set(by_seed_b))
    if len(shared) >= 5 and len(shared) == len(by_seed_a) == len(by_seed_b):
        diff = np.array([by_seed_a[s] - by_seed_b[s] for s in shared])
        if np.all(diff == 0.0):
            return 0.5
        return float(stats.wilcoxon(diff, zero_method="zsplit", alternative="greater").pvalue)
    x = np.array([r["final_reward"] for r in a])
    y = np.array([r["final_reward"] for r in b])
    if np.all(x[:, None] == y[None, :]):
        return 0.5
    return float(stats.mannwhitneyu(x, y, alternative="greater").pvalue)


def summarize(records: list[dict]) -> dict:
    """Per-method statistics plus pairwise one-sided comparisons."""
    groups: dict[str, list[dict]] = {}
    for record in records:
        groups.setdefault(record["method"], []).append(record)
    methods = sorted(groups)
    table = {}
    for method in methods:
        rewards = np.array([r["final_reward"] for r in groups[method]])
        hits = [r["hit"] for r in groups[method] if r.get("hit") is not None]
        table[method] = {
            "n": len(rewards),
            "mean_reward": float(np.mean(rewards)),
            "stddev_reward": float(np.std(rewards, ddof=1)) if len(rewards) > 1 else 0.0,
            "mean_nfe": float(np.mean([r["nfe_used"] for r in groups[method]])),
            "hit_rate": float(np.mean(hits)) if hits else None,
            "truncated": int(sum(bool(r["truncated"]) for r in groups[method])),
        }
    comparisons = {}
    for a in methods:
        for b in methods:
            if a != b:
                comparisons[f"{a}>{b}"] = _one_sided_p(groups[a], groups[b])
    return {"methods": table, "comparisons": comparisons}


def _format_summary(summary: dict) -> str:
    lines = [f"{'method':<8} {'n':>5} {'mean_reward':>14} {'stddev':>12} "
             f"{'mean_nfe':>10} {'hit_rate':>9} {'trunc':>6}"]
    for method, row in summary["methods"].items():
        hit = "-" if row["hit_rate"] is None else f"{row['hit_rate']:.3f}"
        lines.append(
            f"{method:<8} {row['n']:>5} {row['mean_reward']:>14.6f} "
            f"{row['stddev_reward']:>12.6f} {row['mean_nfe']:>10.1f} {hit:>9} "
            f"{row['truncated']:>6}"
        )
    if summary["comparisons"]:
        lines.append("")
        lines.append("one-sided p-values (row beats column):")
        for pair, p in summary["comparisons"].items():
            lines.append(f"  {pair:<16} p = {p:.6g}")
    return "\n".join(lines)


def cmd_report(results_path: str, table_path: str | None) -> int:
    records = _load_records(results_path)
    summary = summarize(records)
    print(_format_summary(summary))
    out = table_path if table_path is not None else results_path + ".summary.json"
    try:
        with open(out, "w", encoding="utf-8") as sink:
            json.dump(summary, sink, indent=2)
            sink.write("\n")
    except OSError as exc:
        raise RtsError(f"cannot write summary '{out}': {exc}") from exc
    print(f"\nsummary table written to {out}")
    return 0


def export_trajectory(cfg: dict) -> tuple[NoiseTrajectory, list[dict]]:
    """Run one denoise and tabulate its projected path for plotting."""
    model, spec, _, rts_cfg = build_experiment(cfg)
    if spec.steps < 3:
        # the 3-D projection needs at least four points
        raise _fail("solver.steps", f"export-trajectory needs at least 3 steps, got {spec.steps}")
    stream = RngStream(root_seed=cfg["seed"], path=())
    z = sample_gaussian(stream.child(0), model.dim)
    traj = denoise(model, spec, z, stream=stream.child(1))
    proj = project_trajectory(traj)
    interior = traj.steps - 1
    k = min(rts_cfg.k_keysteps, interior)
    selected = set(select_key_steps(proj, k).indices) if k > 0 else set()
    rows = []
    for step in range(traj.steps + 1):
        curv = curvature(proj.points, step) if 0 < step < traj.steps else 0.0
        rows.append({
            "step": step,
            "t": float(traj.step_times[step]),
            "p1": float(proj.points[step, 0]),
            "p2": float(proj.points[step, 1]),
            "p3": float(proj.points[step, 2]),
            "curvature": float(curv),
            "selected": int(step in selected),
        })
    return traj, rows


def cmd_export(config_path: str, out_path: str, overrides: dict) -> int:
    cfg = load_config(config_path, overrides)
    _, rows = export_trajectory(cfg)
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as sink:
            writer = csv.DictWriter(
                sink, fieldnames=["step", "t", "p1", "p2", "p3", "curvature", "selected"]
            )
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise RtsError(f"cannot write export '{out_path}': {exc}") from exc
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rts",
        description="Reward-guided trajectory search over sampler noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the configured experiment")
    run.add_argument("--config", required=True, help="path to a JSON config file")
    run.add_argument("--seed", type=int, help="override the base seed")
    run.add_argument("--replicates", type=int, help="override the replicate count")
    run.add_argument("--method", choices=sorted(METHODS), help="override the method")
    run.add_argument("--budget", type=int, help="override the NFE budget")
    run.add_argument("--out", help="override the output path")
    run.add_argument("--workers", type=int, help="override the worker count")
    run.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                     help="dotted-path config overrides")

    report = sub.add_parser("report", help="summarize a results file")
    report.add_argument("results", help="path to a line-delimited results file")
    report.add_argument("--out", help="path for the machine-readable summary table")

    export = sub.add_parser("export-trajectory", help="write one projected trajectory as CSV")
    export.add_argument("--config", required=True, help="path to a JSON config file")
    export.add_argument("--out", required=True, help="path for the CSV output")
    export.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                        help="dotted-path config overrides")
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides: dict[str, object] = {}
    for text in getattr(args, "overrides", []) or []:
        key, value = parse_override(text)
        overrides[key] = value
    flag_map = {"seed": "seed", "replicates": "replicates", "method": "method",
                "budget": "budget_nfe", "out": "out", "workers": "workers"}
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # parse_known_args lets KEY=VALUE overrides appear between flags; anything
    # left over that is not of that form is still a usage error
    args, extras = parser.parse_known_args(argv)
    for text in extras:
        if text.startswith("-") or "=" not in text:
            parser.error(f"unrecognized argument: {text}")
    if extras and args.command == "report":
        parser.error(f"report takes no overrides: {extras[0]}")
    if extras:
        args.overrides = list(getattr(args, "overrides", []) or []) + extras
    try:
        if args.command == "run":
            return cmd_run(args.config, _collect_overrides(args))
        if args.command == "report":
            return cmd_report(args.results, args.out)
        overrides = _collect_overrides(args)
        overrides.pop("out", None)  # --out names the CSV, not a config key
        return cmd_export(args.config, args.out, overrides)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except RtsError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
