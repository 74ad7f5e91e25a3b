"""Command-line front end: run experiments, summarize results, export trajectories.

Subcommands:
    run                execute the configured method for each replicate and
                       append one JSON record per line to the output file:
                       the replicates run in contiguous blocks, each block in
                       lockstep, and every block's records are flushed in
                       replicate order as soon as the block is done
    report             aggregate a results file into per-method statistics
                       with pairwise one-sided p-values (``rts.report``)
    export-trajectory  run a single denoise and write its 3-D projection,
                       per-step curvature, and key-step flags as CSV

``config_schema()`` is the one place that defines each config key's kind,
bounds and default; ``report`` checks records with the same ``rts.schema``
kinds. Unknown keys are rejected with the offending dotted path, so a misspelled
field fails loudly instead of being silently ignored. Command-line KEY=VALUE
overrides use the same dotted paths (e.g. ``search_init.alpha=0.65``), may
stand anywhere among the flags, and are echoed into every output record,
next to ``config``, a hash of the validated config that ``report`` keys
duplicates on.

Exit codes: 0 success, 2 config error, 3 runtime error.

``run`` splits the replicates into contiguous blocks, about one per worker,
of at most ``MAX_BLOCK`` replicates and of at most ``BLOCK_BYTES`` of arrays
by an estimate from the config. With W workers, W processes compute: this
one runs blocks 0, W, 2W, ... and a pool of W - 1 workers runs the others.
On CPython 3.11 on Linux the workers are forked from this process and start
with numpy and the package imported, elsewhere they are spawned
(``START_METHOD``). This process writes each block's records in replicate
order as each block is done. A failing block ends the run, and the records
of every block before it stay. A record's ``wall_ms`` is its block's wall
time over the block's size, so the sum over records is the compute time.

Each subcommand loads the standard library and the modules of the package
that it runs. ``report`` loads ``errors``, ``schema``, ``report`` and
``ranktests``: not numpy, not ``core``, no solver module, no worker pool,
and not this module a second time under ``python -m``. ``run`` and
``export-trajectory`` load numpy and the solver at the first validation of
a config; ``run`` loads the pool and ``numpy.random`` before its first
fork, so a forked worker imports nothing. With no bytecode cache on a
2-vCPU x86 host, where ``import numpy`` takes 160-190 ms, ``rts report``
on a 200-record file takes 90-105 ms (190-215 ms when it loaded numpy),
a one-replicate ``rts run`` or ``rts export-trajectory`` 290-300 ms.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from .errors import ConfigError, PreconditionError, RtsError
from .schema import (
    REQUIRED,
    _choice,
    _fraction,
    _integer,
    _Invalid,
    _json,
    _matrix,
    _nullable,
    _number,
    _numbers,
    _object,
    _refuse_overwrite,
    _string,
    _tagged,
    _walk,
    _write,
)

if TYPE_CHECKING:  # the solver, which only run and export-trajectory import
    from .pipeline import RtsConfig, RunResult
    from .sim import MixtureModel, SolverSpec

# Most worker processes a run may ask for. The run computes in its own and in
# a pool of one fewer, so an absurd count is refused up front instead of
# starting thousands of processes.
MAX_WORKERS = 256

# Most replicates a run may ask for: the run builds, and its pool submits,
# every block up front, so 10**10 replicates would take about 19 GB first.
MAX_REPLICATES = 10**7

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


@functools.cache
def config_schema() -> dict:
    """Every config key as (kind, default); a dict kind is a section of keys.

    The keys of a section are the argument names of the constructor it
    feeds, and the top-level keys include RtsConfig's, so build_experiment
    passes them on. A default that a constructor also has is read from it,
    never restated, so the schema is built at the first validation.
    """
    from .pipeline import METHODS, RtsConfig
    from .search import MAX_NEIGHBORS
    from .sim import MAX_STEPS, ODE, SDE, SolverSpec

    def search(phase) -> dict:  # SearchConfig's arguments, each defaulting to its value in ``phase``
        kinds = {"n_neighbors": _integer(1, MAX_NEIGHBORS), "rounds": _integer(), "tau": _number, "alpha": _number}
        return {key: (kind, getattr(phase, key)) for key, kind in kinds.items()}

    return {
        "dimension": (_integer(2), REQUIRED),
        "solver": ({"mode": (_choice(ODE, SDE), REQUIRED), "steps": (_integer(1, MAX_STEPS), REQUIRED),
                    "churn": (_number, SolverSpec.churn)}, REQUIRED),
        "mixture": ({"weights": (_numbers, REQUIRED), "means": (_matrix, REQUIRED), "stddevs": (_numbers, REQUIRED)},
                    REQUIRED),
        "reward": (_tagged(mode_preference={"preferred": (_integer(), 0), "sharpness": (_number, 1.0)},
                           quadratic={"target": (_numbers, REQUIRED)}), REQUIRED),
        "method": (_choice(*METHODS), REQUIRED),
        "seed": (_integer(0, 2**64 - 1), REQUIRED),
        "replicates": (_integer(1, MAX_REPLICATES), REQUIRED),
        "out": (_string, "results.jsonl"),
        "workers": (_integer(1, MAX_WORKERS), 1),
        "budget_nfe": (_nullable(_integer()), RtsConfig.budget_nfe),
        "search_init": (search(RtsConfig.search_init), {}),
        "search_inter": (search(RtsConfig.search_inter), {}),
        "k_keysteps": (_integer(), RtsConfig.k_keysteps),
        "eval_steps_init": (_nullable(_integer(1, MAX_STEPS)), RtsConfig.eval_steps_init),
        "zo_step_tau": (_fraction, 0.9),
    }


def validate_config(raw: dict) -> dict:
    """Check a parsed config against ``config_schema()``; return it with defaults applied.

    Value-level constraints that the domain constructors already enforce
    (weight sums, tau ranges, ...) are left to them; see build_experiment.
    """
    cfg = _walk(config_schema(), raw, "")
    if cfg["seed"] + cfg["replicates"] > 2**64:
        raise _Invalid("replicates", "seed + replicates - 1 must fit in an unsigned 64-bit integer")
    return cfg


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
    from dataclasses import fields

    from .pipeline import RtsConfig
    from .search import SearchConfig
    from .sim import MixtureModel, ModePreferenceReward, QuadraticReward, SolverSpec

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
    import hashlib

    kept = {key: value for key, value in cfg.items() if key not in _RUN_KEYS}
    return hashlib.blake2b(json.dumps(kept, sort_keys=True).encode(), digest_size=8).hexdigest()


def _result_record(result: RunResult, cfg: dict, model: MixtureModel, config: str, overrides: dict,
                   wall_ms: float) -> dict:
    from .sim import nearest_mode

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
        "config": config,
        "overrides": overrides,
        "wall_ms": wall_ms,
    }


def run_block(cfg: dict, indices: range, overrides: dict, config: str) -> list[dict]:
    """Execute the replicates ``indices`` (seed = base seed + index) in lockstep; their records in order.

    ``cmd_run`` checked the budget and hashed the config into ``config``, once a run. Each record's ``wall_ms``
    is the block's wall time over its size.
    """
    from .core import RngStream
    from .pipeline import BON, RTS, ZO, run_bon_block, run_free_block, run_rts_block, run_zo_block

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
    return [_result_record(result, cfg, model, config, overrides, wall_ms) for result in results]


def run_replicate(cfg: dict, index: int, overrides: dict) -> dict:
    """Execute one replicate and build its record: the block of this one index."""
    return run_block(cfg, range(index, index + 1), overrides, _config_hash(cfg))[0]


def _seed_bytes(cfg: dict, spec: SolverSpec, rts_cfg: RtsConfig) -> int:
    """About the most bytes of arrays one seed of a block holds at once.

    Each row a seed carries through the solver keeps an ``(L + 1, d)`` path
    and ``(L - 1, d)`` churn noises of float64. A best-of-N seed carries its
    candidates. An rts seed counts ``2n + 2`` rows for n neighbors, about
    what the round being scored, its best row and the solver's temporaries
    hold: by ``tracemalloc``, an 8-seed block at d = 512 and 20 steps peaked
    at 3.5 rows a seed with n = 1, 4.8 with n = 2, 6.0 with n = 3 and 9.8
    with n = 6.
    """
    from .pipeline import BON, RTS, denoise_count

    if cfg["method"] == BON:
        rows = denoise_count(BON, spec, cfg["budget_nfe"])
    elif cfg["method"] == RTS:
        rows = 2 * max(rts_cfg.search_init.n_neighbors, rts_cfg.search_inter.n_neighbors) + 2
    else:
        rows = 1
    return rows * 2 * spec.steps * cfg["dimension"] * 8


def _blocks(replicates: int, workers: int, seed_bytes: int) -> list[range]:
    """Contiguous blocks of replicate indices, about one per worker, of at most ``MAX_BLOCK`` seeds and
    ``BLOCK_BYTES`` of arrays each."""
    size = max(1, min(MAX_BLOCK, -(-replicates // workers), BLOCK_BYTES // seed_bytes))
    return [range(first, min(first + size, replicates)) for first in range(0, replicates, size)]


def cmd_run(config_path: str, overrides: dict) -> int:
    cfg = load_config(config_path, overrides)
    _refuse_overwrite(cfg["out"], config_path, "config it was run from")
    _, spec, _, rts_cfg = build_experiment(cfg)  # fail on bad values before any work is queued
    from .pipeline import check_budget

    try:  # a budget too small exits 3, a missing or too large one 2, before any work
        check_budget(cfg["method"], spec, rts_cfg, cfg["budget_nfe"])
    except PreconditionError as exc:
        raise _Invalid("budget_nfe", str(exc)) from exc
    blocks = _blocks(cfg["replicates"], cfg["workers"], _seed_bytes(cfg, spec, rts_cfg))
    workers = min(cfg["workers"], len(blocks))
    config = _config_hash(cfg)
    _write(cfg["out"], "", "output", "a")  # an output that cannot be opened fails before any block runs
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        import numpy.random  # noqa: F401  (the first draw would load it; a forked worker starts with it)

        pool = ProcessPoolExecutor(max_workers=workers - 1, mp_context=get_context(START_METHOD))
    try:
        # Every pool block is submitted before this process runs its first, so the pool forks every worker
        # before this process computes anything (see START_METHOD). Each block's records are appended, one
        # ``_write``, as soon as the block is done; shutting down cancels the blocks not yet started and waits
        # for every worker, so none outlives the run.
        pooled = {i: pool.submit(run_block, cfg, block, overrides, config)
                  for i, block in enumerate(blocks) if i % workers}
        for i, block in enumerate(blocks):
            records = pooled[i].result() if i in pooled else run_block(cfg, block, overrides, config)
            _write(cfg["out"], "".join(json.dumps(record) + "\n" for record in records), "output", "a")
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    print(f"wrote {cfg['replicates']} record(s) to {cfg['out']}")
    return 0


def export_trajectory(cfg: dict) -> list[tuple]:
    """Run one denoise and tabulate its projected path: step, t, p1-p3, curvature, selected."""
    import numpy as np

    from .core import RngStream, sample_gaussian
    from .keysteps import curvature, project_trajectory, select_key_steps
    from .sim import denoise

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
    import csv
    import io

    cfg = load_config(config_path, overrides)
    _refuse_overwrite(out_path, config_path, "config it was exported from")
    rows = export_trajectory(cfg)
    text = io.StringIO()
    csv.writer(text).writerows([("step", "t", "p1", "p2", "p3", "curvature", "selected"), *rows])
    _write(out_path, text.getvalue(), "export")
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
    # numpy's OpenBLAS reads this when numpy loads, which no command has done yet. Its
    # threads would spin between seeds for the one BLAS call, a small SVD a seed; a user's value wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
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
            from .report import cmd_report

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
