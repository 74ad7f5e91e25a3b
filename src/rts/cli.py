"""Command-line front end: run experiments, summarize results, export trajectories.

Subcommands:
    run                execute the configured method for each replicate and
                       append one JSON record per line to the output file:
                       the replicates run in contiguous blocks, each block in
                       lockstep, and every block's records are flushed in
                       replicate order as soon as the block is done
    report             aggregate a results file into per-method statistics
                       with pairwise one-sided rank-test p-values; a file
                       that repeats a (method, seed, config), or a record
                       field of the wrong type, is refused
    export-trajectory  run a single denoise and write its 3-D projection,
                       per-step curvature, and key-step flags as CSV

``CONFIG_SCHEMA`` is the one place that defines each config key's kind,
bounds and default, and ``report`` checks record fields with the same kinds.
Unknown keys are rejected with the offending dotted path, so a misspelled
field fails loudly instead of being silently ignored. Command-line KEY=VALUE
overrides use the same dotted paths (e.g. ``search_init.alpha=0.65``), may
stand anywhere among the flags, and are echoed into every output record,
next to ``config``, a hash of the validated config that ``report`` keys
duplicates on.

Exit codes: 0 success, 2 config error, 3 runtime error.

``run`` splits the replicates into contiguous blocks, about one per worker,
of at most ``MAX_BLOCK`` replicates and of at most ``BLOCK_BYTES`` of arrays
by an estimate from the config. With more than one worker the blocks go to
worker processes: on CPython 3.11 on Linux they are forked from this one and
start with numpy and the package already imported, elsewhere they are
spawned (``START_METHOD``). The parent writes each block's records in
replicate order.
A failing block ends the run, and the records of every block before it
stay. A record's ``wall_ms`` is its block's wall time over the block's size,
so the sum over records is still the compute time.

Every subcommand, ``report`` included, loads the standard library, numpy and
the package alone, so each starts in a fraction of a second. ``report``
takes its p-values from ``ranktests``, imported at its first comparison.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import reprlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from itertools import repeat
from multiprocessing import get_context

import numpy as np

from .core import ConfigError, PreconditionError, RngStream, RtsError, sample_gaussian
from .keysteps import curvature, project_trajectory, select_key_steps
from .pipeline import (
    BON,
    FREE,
    METHODS,
    RTS,
    ZO,
    RtsConfig,
    RunResult,
    check_rts_budget,
    denoise_count,
    run_bon_block,
    run_free_block,
    run_rts_block,
    run_zo_block,
)
from .search import MAX_NEIGHBORS, SearchConfig
from .sim import (
    MAX_STEPS,
    ODE,
    SDE,
    MixtureModel,
    ModePreferenceReward,
    QuadraticReward,
    SolverSpec,
    denoise,
    nearest_mode,
)

WORKER_ENV = "RTS_MAX_WORKERS"

# Most worker processes a run may ask for. The pool starts one per block up
# to this count, so an absurd count is refused up front instead of starting
# thousands of processes.
MAX_WORKERS = 256

# Most replicates one block runs in lockstep. A larger block still runs
# faster per seed (rts on the d = 2 cli config: 1.3 ms per seed at 64 seeds,
# 0.84 ms at 256, one core of a 2-vCPU x86 host), but records are written per
# block, so the cap bounds the work a failing or interrupted run loses.
MAX_BLOCK = 64

# Most bytes of arrays one block may hold at once, by ``_seed_bytes``: a
# best-of-N seed at d = 1024 with 50 steps and 200 candidates holds about
# 160 MB, so such a run goes one seed per block, while a d = 2 block of 64
# rts seeds holds well under a megabyte.
BLOCK_BYTES = 64 * 2**20

# fork is checked on CPython 3.11 on Linux: the pool forks every worker at its
# first task, before it starts its manager thread, and the OpenBLAS that
# numpy's wheels ship joins its threads in its own fork handler, so the
# process has one thread at each fork. Other interpreters and platforms,
# where this is unchecked, spawn the workers, each importing numpy and the
# package afresh.
START_METHOD = "fork" if sys.platform == "linux" and sys.version_info[:2] == (3, 11) else "spawn"


class _Invalid(ConfigError):
    """A config error at a dotted path: ``_Invalid(path, message)``."""

    def __str__(self) -> str:
        return "config error at '{}': {}".format(*self.args)


def _got(value) -> str:
    try:
        return "a boolean" if isinstance(value, bool) else reprlib.repr(value)
    except ValueError:  # holds an integer past Python's digit limit
        return type(value).__name__


# Kinds: each checks one JSON value found at a dotted path and returns it
# normalized, or raises _Invalid at that path.
def _instance(types, description: str):
    def check(value, path: str):
        if not isinstance(value, types):
            raise _Invalid(path, f"expected {description}, got {_got(value)}")
        return value

    return check


_boolean = _instance(bool, "a boolean")
_string = _instance(str, "a string")
_list = _instance(list, "a list")
_object = _instance(dict, "an object")


def _integer(low: int | None = None, high: int | None = None):
    def check(value, path: str) -> int:
        # bool is an int subclass; it is never an integer here
        if isinstance(value, bool) or not isinstance(value, int):
            raise _Invalid(path, f"expected an integer, got {_got(value)}")
        if (low is not None and value < low) or (high is not None and value > high):
            raise _Invalid(path, f"must be >= {low}" if high is None else f"must lie in [{low}, {high}]")
        return value

    return check


def _number(value, path: str) -> float:
    """A finite JSON number as a float; integers too large for a float count as infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Invalid(path, f"expected a number, got {_got(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise _Invalid(path, "must be a finite number")
    return number


def _fraction(value, path: str) -> float:
    if not 0.0 <= (number := _number(value, path)) <= 1.0:
        raise _Invalid(path, "must lie in [0, 1]")
    return number


def _numbers(value, path: str) -> list[float]:
    return [_number(item, f"{path}[{i}]") for i, item in enumerate(_list(value, path))]


def _matrix(value, path: str) -> list[list[float]]:
    """A list of number lists, each as long as the first."""
    rows = [_numbers(row, f"{path}[{i}]") for i, row in enumerate(_list(value, path))]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise _Invalid(f"{path}[{i}]", f"has {len(row)} coordinates, row 0 has {len(rows[0])}")
    return rows


def _choice(*options: str):
    def check(value, path: str) -> str:
        if not isinstance(value, str) or value not in options:
            raise _Invalid(path, f"must be one of {sorted(options)}, got {_got(value)}")
        return value

    return check


def _nullable(kind):
    return lambda value, path: None if value is None else kind(value, path)


REQUIRED = object()  # default of a key that must be given


class _Tagged(dict):
    """Alternative sections, one per value of their ``kind`` key."""


def _tagged(**variants: dict) -> _Tagged:
    tag = (_choice(*variants), REQUIRED)
    return _Tagged({name: {"kind": tag, **section} for name, section in variants.items()})


def _search(phase: SearchConfig) -> dict:
    """SearchConfig's arguments, each defaulting to its value in ``phase``."""
    kinds = {"n_neighbors": _integer(1, MAX_NEIGHBORS), "rounds": _integer(), "tau": _number, "alpha": _number,
             "track_global_best": _boolean}
    return {key: (kind, getattr(phase, key)) for key, kind in kinds.items()}


# Every config key as (kind, default); a dict kind is a section of keys. The
# keys of a section are the argument names of the constructor it feeds, and
# the top-level keys include RtsConfig's, so build_experiment passes them on.
# A default that a constructor also has is read from it, never restated.
CONFIG_SCHEMA = {
    "dimension": (_integer(2), REQUIRED),
    "solver": ({"mode": (_choice(ODE, SDE), REQUIRED), "steps": (_integer(1, MAX_STEPS), REQUIRED),
                "churn": (_number, SolverSpec.churn)}, REQUIRED),
    "mixture": ({"weights": (_numbers, REQUIRED), "means": (_matrix, REQUIRED), "stddevs": (_numbers, REQUIRED)},
                REQUIRED),
    "reward": (_tagged(mode_preference={"preferred": (_integer(), 0), "sharpness": (_number, 1.0)},
                       quadratic={"target": (_numbers, REQUIRED)}), REQUIRED),
    "method": (_choice(*METHODS), REQUIRED),
    "seed": (_integer(0, 2**64 - 1), REQUIRED),
    "replicates": (_integer(1), REQUIRED),
    "out": (_string, "results.jsonl"),
    "workers": (_integer(1, MAX_WORKERS), 1),
    "budget_nfe": (_nullable(_integer()), RtsConfig.budget_nfe),
    "search_init": (_search(RtsConfig.search_init), {}),
    "search_inter": (_search(RtsConfig.search_inter), {}),
    "k_keysteps": (_integer(), RtsConfig.k_keysteps),
    "eval_steps_init": (_nullable(_integer(1, MAX_STEPS)), RtsConfig.eval_steps_init),
    "eval_steps_inter": (_integer(), RtsConfig.eval_steps_inter),
    "resample_inter_fresh": (_boolean, RtsConfig.resample_inter_fresh),
    "zo_step_tau": (_fraction, 0.9),
}

# the fields of a results record that ``rts report`` reads
_RECORD_SCHEMA = {
    "method": (_string, REQUIRED),
    "seed": (_integer(), REQUIRED),
    "final_reward": (_number, REQUIRED),
    "nfe_used": (_integer(), REQUIRED),
    "truncated": (_boolean, REQUIRED),
    "hit": (_nullable(_boolean), None),
    "config": (_nullable(_string), None),
}


def _walk(schema: dict, raw, path: str) -> dict:
    """Check an object against a section of the schema; return it with defaults applied."""
    section = _object(raw, path or "<root>")
    for key in section:
        if key not in schema:
            raise _Invalid(f"{path}.{key}" if path else key, "unknown key")
    checked = {}
    for key, (kind, default) in schema.items():
        at = f"{path}.{key}" if path else key
        value = section.get(key, default)
        if value is REQUIRED:
            raise _Invalid(at, "required key is missing")
        if isinstance(kind, _Tagged):  # the variant that the value's kind names
            kind = kind[_choice(*kind)(_object(value, at).get("kind"), f"{at}.kind")]
        checked[key] = _walk(kind, value, at) if isinstance(kind, dict) else kind(value, at)
    return checked


def validate_config(raw: dict) -> dict:
    """Check a parsed config against ``CONFIG_SCHEMA``; return it with defaults applied.

    Value-level constraints that the domain constructors already enforce
    (weight sums, tau ranges, ...) are left to them; see build_experiment.
    """
    cfg = _walk(CONFIG_SCHEMA, raw, "")
    if cfg["seed"] + cfg["replicates"] > 2**64:
        raise _Invalid("replicates", "seed + replicates - 1 must fit in an unsigned 64-bit integer")
    return cfg


def _json(text: str, where: str | None = None):
    """Parse JSON text; text that is not JSON raises a ConfigError naming ``where`` or, without it, is a bare string."""
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed, or an integer past Python's digit limit
        if where is None:
            return text
        raise ConfigError(f"{where} is not valid JSON: {exc}") from exc


def parse_override(text: str) -> tuple[str, object]:
    """Parse KEY=VALUE; the value is JSON if it parses, a bare string otherwise."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"override '{text}' is not of the form KEY=VALUE")
    return key, _json(value)


def apply_overrides(raw: dict, overrides: dict) -> dict:
    """Set dotted-path overrides into a copy of the raw config dict."""
    merged = json.loads(json.dumps(_object(raw, "<root>")))  # deep copy of plain JSON data
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = merged
        for i, part in enumerate(parts[:-1]):
            child = node.get(part)
            if child is None:
                child = node[part] = {}
            elif not isinstance(child, dict):
                raise _Invalid(".".join(parts[: i + 1]), "cannot override inside a non-object value")
            node = child
        node[parts[-1]] = value
    return merged


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Read, override, and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = _json(handle.read(), f"config '{path}'")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from exc
    return validate_config(apply_overrides(raw, overrides or {}))


def build_experiment(cfg: dict):
    """Construct (model, spec, reward, rts_config) from a validated config.

    Domain constructors do the value-level validation; their complaints are
    surfaced as config errors because they stem from config values.
    """
    try:
        model = MixtureModel(**cfg["mixture"])
        if model.dim != cfg["dimension"]:
            raise _Invalid("mixture.means", f"dimension {model.dim} != configured {cfg['dimension']}")
        spec = SolverSpec(**cfg["solver"])
        rest = dict(cfg["reward"])
        if rest.pop("kind") == "mode_preference":
            reward = ModePreferenceReward(model=model, **rest)
        else:
            reward = QuadraticReward(**rest)
            if reward.target.shape[0] != cfg["dimension"]:
                raise _Invalid("reward.target", f"dimension {reward.target.shape[0]} != configured {cfg['dimension']}")
        search = {name: SearchConfig(**cfg[name]) for name in ("search_init", "search_inter")}
        rts_cfg = RtsConfig(**{f.name: search.get(f.name, cfg[f.name]) for f in fields(RtsConfig)})
    except RtsError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"config error: {exc}") from exc
    return model, spec, reward, rts_cfg


# keys that pick the seeds and the output of a run, not what each replicate computes
_RUN_KEYS = ("seed", "replicates", "out", "workers")


def _config_hash(cfg: dict) -> str:
    """16 hex digits of blake2b over the validated config less ``_RUN_KEYS``."""
    kept = {key: value for key, value in cfg.items() if key not in _RUN_KEYS}
    return hashlib.blake2b(json.dumps(kept, sort_keys=True).encode(), digest_size=8).hexdigest()


def _result_record(result: RunResult, cfg: dict, model: MixtureModel, overrides: dict, wall_ms: float) -> dict:
    hit = None
    if cfg["reward"]["kind"] == "mode_preference":
        hit = nearest_mode(model, result.final_sample) == cfg["reward"]["preferred"]
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
        "config": _config_hash(cfg),
        "overrides": overrides,
        "wall_ms": wall_ms,
    }


def _check_budget(cfg: dict, spec: SolverSpec, rts_cfg: RtsConfig) -> None:
    """Refuse a budget the method cannot run on, before any work: too small (exit 3), missing or too large (2)."""
    method, budget = cfg["method"], cfg["budget_nfe"]
    if method == RTS:
        check_rts_budget(rts_cfg, spec)
    if method not in (BON, ZO):
        return
    if budget is None:
        raise _Invalid("budget_nfe", f"required for method '{method}'")
    try:
        denoise_count(method, spec, budget)
    except PreconditionError as exc:
        raise _Invalid("budget_nfe", str(exc)) from exc


def run_block(cfg: dict, indices: range, overrides: dict) -> list[dict]:
    """Execute the replicates ``indices`` (seed = base seed + index) in lockstep; their records in order.

    ``cmd_run`` checked the budget. Each record's ``wall_ms`` is the block's
    wall time over its size.
    """
    model, spec, reward, rts_cfg = build_experiment(cfg)
    streams = [RngStream(root_seed=cfg["seed"] + index, path=()) for index in indices]
    method = cfg["method"]
    start = time.perf_counter()
    if method == RTS:
        results = run_rts_block(model, spec, reward, rts_cfg, streams)
    elif method == BON:
        results = run_bon_block(model, spec, reward, cfg["budget_nfe"], streams)
    elif method == ZO:
        results = run_zo_block(model, spec, reward, cfg["budget_nfe"], cfg["zo_step_tau"], streams)
    else:
        results = run_free_block(model, spec, reward, streams)
    wall_ms = (time.perf_counter() - start) * 1000.0 / len(streams)
    return [_result_record(result, cfg, model, overrides, wall_ms) for result in results]


def run_replicate(cfg: dict, index: int, overrides: dict) -> dict:
    """Execute one replicate and build its record: the block of this one index."""
    return run_block(cfg, range(index, index + 1), overrides)[0]


def _worker_count(cfg: dict) -> int:
    """The configured workers, capped by the replicates and by ``RTS_MAX_WORKERS`` when it is set."""
    limit = min(cfg["workers"], cfg["replicates"])
    env = os.environ.get(WORKER_ENV)
    if env is not None:
        limit = min(limit, _integer(1)(_json(env), WORKER_ENV))
    return limit


def _refuse_overwrite(out: str, source: str, what: str) -> None:
    """Refuse an output path that names the input file ``source`` itself."""
    if os.path.exists(out) and os.path.samefile(out, source):
        raise ConfigError(f"'{out}' would overwrite the {what}; choose another --out")


def _seed_bytes(cfg: dict, spec: SolverSpec, rts_cfg: RtsConfig) -> int:
    """About the most bytes of arrays one seed of a block holds at once.

    Each row a seed carries through the solver keeps an ``(L + 1, d)`` path
    and ``(L - 1, d)`` churn noises of float64. A best-of-N seed carries its
    candidates; an rts seed its best row and the neighbors of two rounds, the
    latest one and the one being scored.
    """
    if cfg["method"] == BON:
        rows = denoise_count(BON, spec, cfg["budget_nfe"])
    elif cfg["method"] == RTS:
        rows = 2 * max(rts_cfg.search_init.n_neighbors, rts_cfg.search_inter.n_neighbors) + 1
    else:
        rows = 1
    return rows * 2 * spec.steps * cfg["dimension"] * 8


def _blocks(replicates: int, workers: int, seed_bytes: int) -> list[range]:
    """Contiguous blocks of replicate indices, about one per worker, of at most ``MAX_BLOCK`` seeds and
    ``BLOCK_BYTES`` of arrays each."""
    size = max(1, min(MAX_BLOCK, -(-replicates // workers), BLOCK_BYTES // seed_bytes))
    return [range(first, min(first + size, replicates)) for first in range(0, replicates, size)]


def _append_records(path: str, blocks) -> None:
    """Append each block's records as JSON lines and flush them as soon as the block arrives.

    A block that fails ends the run, and every record of the blocks before
    it stays in the file.
    """
    try:
        sink = open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise RtsError(f"cannot write output '{path}': {exc}") from exc
    with sink:
        for records in blocks:
            try:
                sink.writelines(json.dumps(record) + "\n" for record in records)
                sink.flush()
            except OSError as exc:
                raise RtsError(f"cannot write output '{path}': {exc}") from exc


def cmd_run(config_path: str, overrides: dict) -> int:
    cfg = load_config(config_path, overrides)
    _refuse_overwrite(cfg["out"], config_path, "config it was run from")
    _, spec, _, rts_cfg = build_experiment(cfg)  # fail on bad values before any work is queued
    _check_budget(cfg, spec, rts_cfg)
    workers = _worker_count(cfg)
    blocks = _blocks(cfg["replicates"], workers, _seed_bytes(cfg, spec, rts_cfg))
    workers = min(workers, len(blocks))
    if workers == 1:
        _append_records(cfg["out"], (run_block(cfg, block, overrides) for block in blocks))
    else:
        # Each worker runs one contiguous block at a time in lockstep; see
        # START_METHOD for how the workers start. map yields the blocks in
        # replicate order, so the output is deterministic. Shutting down
        # cancels the blocks not yet started and waits for every worker, so
        # none outlives the run.
        executor = ProcessPoolExecutor(max_workers=workers, mp_context=get_context(START_METHOD))
        try:
            _append_records(cfg["out"], executor.map(run_block, repeat(cfg), blocks, repeat(overrides)))
        finally:
            executor.shutdown(cancel_futures=True)
    print(f"wrote {cfg['replicates']} record(s) to {cfg['out']}")
    return 0


def _load_records(results_path: str) -> list[dict]:
    """Parse a results file, rejecting non-records and repeated (method, seed, config)."""
    try:
        with open(results_path, encoding="utf-8") as handle:
            lines = [(lineno, line) for lineno, line in enumerate(handle, start=1) if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read results '{results_path}': {exc}") from exc
    if not lines:
        raise ConfigError(f"results file '{results_path}' is empty")
    records = [_json(line, f"results line {lineno}") for lineno, line in lines]
    required = [key for key, (_, default) in _RECORD_SCHEMA.items() if default is REQUIRED]
    first_line: dict[tuple, int] = {}
    for (lineno, _), record in zip(lines, records):
        if not isinstance(record, dict) or any(key not in record for key in required):
            raise ConfigError(f"results line {lineno} is not a record with keys {', '.join(required)}")
        try:
            for key, (kind, default) in _RECORD_SCHEMA.items():
                kind(record.get(key, default), key)
        except _Invalid as exc:
            raise ConfigError("results line {} key '{}': {}".format(lineno, *exc.args)) from None
        run = (record["method"], record["seed"], record.get("config"))
        if run in first_line:
            raise ConfigError(f"results line {lineno} repeats the method, seed and config of line {first_line[run]}")
        first_line[run] = lineno
    return records


def _one_sided_p(a: list[dict], b: list[dict]) -> float:
    """P-value for 'method a beats method b', paired by seed when each method has one record per shared seed."""
    # imported here: only report uses it, so run and its workers never load it
    from .ranktests import mann_whitney_greater, wilcoxon_greater

    by_seed_a = {r["seed"]: r["final_reward"] for r in a}
    by_seed_b = {r["seed"]: r["final_reward"] for r in b}
    shared = sorted(set(by_seed_a) & set(by_seed_b))
    if len(shared) >= 5 and len(shared) == len(by_seed_a) == len(by_seed_b) == len(a) == len(b):
        diff = np.array([by_seed_a[s] - by_seed_b[s] for s in shared])
        if np.all(diff == 0.0):
            return 0.5
        return wilcoxon_greater(diff)
    x = np.array([r["final_reward"] for r in a])
    y = np.array([r["final_reward"] for r in b])
    if np.all(x[:, None] == y[None, :]):
        return 0.5
    return mann_whitney_greater(x, y)


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
    out = table_path if table_path is not None else results_path + ".summary.json"
    _refuse_overwrite(out, results_path, "results it summarizes")
    summary = summarize(records)
    print(_format_summary(summary))
    try:
        with open(out, "w", encoding="utf-8") as sink:
            json.dump(summary, sink, indent=2)
            sink.write("\n")
    except OSError as exc:
        raise RtsError(f"cannot write summary '{out}': {exc}") from exc
    print(f"\nsummary table written to {out}")
    return 0


def export_trajectory(cfg: dict) -> list[tuple]:
    """Run one denoise and tabulate its projected path: step, t, p1-p3, curvature, selected."""
    model, spec, _, rts_cfg = build_experiment(cfg)
    if spec.steps < 3:
        # the 3-D projection needs at least four points
        raise _Invalid("solver.steps", f"export-trajectory needs at least 3 steps, got {spec.steps}")
    stream = RngStream(root_seed=cfg["seed"], path=())
    z = sample_gaussian(stream.child(0), model.dim)
    points = project_trajectory(denoise(model, spec, z, stream=stream.child(1))[0])
    k = min(rts_cfg.k_keysteps, spec.steps - 1)
    selected = np.zeros(spec.steps + 1, dtype=int)
    if k > 0:
        selected[list(select_key_steps(points, k).indices)] = 1
    columns = (range(spec.steps + 1), spec.time_grid.tolist(), *points.T.tolist(),
               curvature(points).tolist(), selected.tolist())
    return list(zip(*columns))


def cmd_export(config_path: str, out_path: str, overrides: dict) -> int:
    cfg = load_config(config_path, overrides)
    _refuse_overwrite(out_path, config_path, "config it was exported from")
    rows = export_trajectory(cfg)
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as sink:
            writer = csv.writer(sink)
            writer.writerow(["step", "t", "p1", "p2", "p3", "curvature", "selected"])
            writer.writerows(rows)
    except OSError as exc:
        raise RtsError(f"cannot write export '{out_path}': {exc}") from exc
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


# (flag, config key, type) of each flag of ``run``; the schema checks the values like any override
_RUN_FLAGS = (("--seed", "seed", int), ("--replicates", "replicates", int), ("--method", "method", str),
              ("--budget", "budget_nfe", int), ("--out", "out", str), ("--workers", "workers", int))

_OVERRIDE_HELP = "KEY=VALUE arguments, anywhere among the flags, override dotted config paths (e.g. solver.steps=12)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rts",
        description="Reward-guided trajectory search over sampler noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the configured experiment", epilog=_OVERRIDE_HELP)
    run.add_argument("--config", required=True, help="path to a JSON config file")
    for flag, key, kind in _RUN_FLAGS:
        run.add_argument(flag, dest=key, type=kind, help=f"override the config's {key}")

    report = sub.add_parser("report", help="summarize a results file")
    report.add_argument("results", help="path to a line-delimited results file")
    report.add_argument("--out", dest="table", help="path for the machine-readable summary table")

    export = sub.add_parser("export-trajectory", help="write one projected trajectory as CSV",
                            epilog=_OVERRIDE_HELP)
    export.add_argument("--config", required=True, help="path to a JSON config file")
    export.add_argument("--out", dest="csv", required=True, help="path for the CSV output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    # every KEY=VALUE override is a leftover of parse_known_args, so it may stand
    # anywhere among the flags; a leftover flag, or any leftover of report, is a usage error
    args, extras = parser.parse_known_args(argv)
    extras = [text for text in extras if text != "--"]  # "--" ends the flags; it is no override
    for text in extras:
        if text.startswith("-") or args.command == "report":
            parser.error(f"unrecognized argument: {text}")
    try:
        if args.command == "report":
            return cmd_report(args.results, args.table)
        overrides = dict(parse_override(text) for text in extras)
        if args.command == "export-trajectory":
            return cmd_export(args.config, args.csv, overrides)
        flags = {key: getattr(args, key) for _, key, _ in _RUN_FLAGS}
        overrides.update((key, value) for key, value in flags.items() if value is not None)
        return cmd_run(args.config, overrides)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except RtsError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
