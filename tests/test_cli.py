"""Tests for the command-line front end: configs, runs, reports, exports."""

import concurrent.futures
import csv
import functools
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

import rts.cli
import rts.schema
from conftest import STREAMS, criterion7_variants, testbed
from rts import ConfigError, RngStream, RtsError
from rts.cli import (
    apply_overrides,
    build_experiment,
    main,
    parse_override,
    validate_config,
)
from rts.pipeline import run_zo_block
from rts.ranktests import _u_counts, mann_whitney_greater
from rts.report import summarize

_RUN_BLOCK = rts.cli.run_block
_CONFIG_HASH = rts.cli._config_hash


def _run_block_failing_at(failing: int, cfg: dict, indices: range, overrides: dict, config: str) -> list[dict]:
    """``rts.cli.run_block``, failing for the block that holds replicate ``failing``.

    A module-level function, so that a worker process, forked or spawned,
    unpickles it by name.
    """
    if failing in indices:
        raise RtsError(f"replicate {failing} failed")
    return _RUN_BLOCK(cfg, indices, overrides, config)


def _run_block_recorded(calls: list, cfg: dict, indices: range, overrides: dict, config: str) -> list[dict]:
    """``rts.cli.run_block``, appending ``indices`` to ``calls`` first.

    A worker process receives ``calls`` pickled, so only the blocks that the
    ``rts run`` process computes itself reach the caller's list.
    """
    calls.append(indices)
    return _RUN_BLOCK(cfg, indices, overrides, config)


# JSON nesting far past the interpreter's recursion limit, which json.loads reaches as a RecursionError
_DEEP = 10**5


def base_config(out, **extra):
    cfg = {
        "dimension": 2,
        "solver": {"mode": "sde", "steps": 8, "churn": 0.4},
        "mixture": dict(testbed.MIXTURE),
        "reward": {"kind": "mode_preference", "preferred": 0, "sharpness": 2.0},
        "method": "free",
        "seed": 0,
        "replicates": 2,
        "out": str(out),
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, name="config.json", **extra):
    out = tmp_path / "results.jsonl"
    path = tmp_path / name
    path.write_text(json.dumps(base_config(out, **extra)))
    return str(path), str(out)


def read_records(out):
    with open(out, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestValidateConfig:
    def test_defaults_applied(self):
        cfg = validate_config(base_config("r.jsonl"))
        assert cfg["workers"] == 1
        assert cfg["budget_nfe"] is None
        assert cfg["search_init"] == {"n_neighbors": 3, "rounds": 4, "tau": 0.9, "alpha": 0.7}
        assert cfg["search_inter"] == {**cfg["search_init"], "rounds": 2}
        assert cfg["k_keysteps"] == 6
        assert cfg["zo_step_tau"] == 0.9

    def test_unknown_top_level_key_names_path(self):
        raw = base_config("r.jsonl")
        raw["stepz"] = 4
        with pytest.raises(ConfigError, match="stepz"):
            validate_config(raw)

    def test_unknown_nested_key_names_dotted_path(self):
        raw = base_config("r.jsonl")
        raw["solver"]["stepz"] = 4
        with pytest.raises(ConfigError, match=r"solver\.stepz"):
            validate_config(raw)

    def test_missing_required_key(self):
        raw = base_config("r.jsonl")
        del raw["mixture"]
        with pytest.raises(ConfigError, match="mixture"):
            validate_config(raw)

    def test_boolean_rejected_where_integer_expected(self):
        raw = base_config("r.jsonl")
        raw["solver"]["steps"] = True
        with pytest.raises(ConfigError, match="boolean"):
            validate_config(raw)

    def test_unknown_reward_kind(self):
        raw = base_config("r.jsonl")
        raw["reward"] = {"kind": "likes"}
        with pytest.raises(ConfigError, match=r"reward\.kind"):
            validate_config(raw)

    def test_unknown_method(self):
        raw = base_config("r.jsonl", method="anneal")
        with pytest.raises(ConfigError, match="method"):
            validate_config(raw)

    def test_unknown_search_key(self):
        raw = base_config("r.jsonl", search_init={"neighbours": 3})
        with pytest.raises(ConfigError, match=r"search_init\.neighbours"):
            validate_config(raw)

    @pytest.mark.parametrize(
        "field,value",
        [("seed", -1), ("seed", 2**64), ("replicates", 0), ("workers", 0), ("dimension", 1)],
    )
    def test_out_of_range_values(self, field, value):
        raw = base_config("r.jsonl", **{field: value})
        with pytest.raises(ConfigError, match=field):
            validate_config(raw)

    @pytest.mark.parametrize("field", ["method", "mixture"])
    def test_integer_past_digit_limit_of_wrong_kind_names_path(self, field):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            validate_config(base_config("r.jsonl", **{field: 10**5000}))

    def test_replicates_at_the_cap_are_valid(self):
        validate_config(base_config("r.jsonl", replicates=rts.cli.MAX_REPLICATES))
        with pytest.raises(ConfigError, match="replicates"):
            validate_config(base_config("r.jsonl", replicates=rts.cli.MAX_REPLICATES + 1))

    def test_last_replicate_seed_must_fit_u64(self):
        validate_config(base_config("r.jsonl", seed=2**64 - 2, replicates=2))
        with pytest.raises(ConfigError, match="replicates"):
            validate_config(base_config("r.jsonl", seed=2**64 - 2, replicates=3))


class TestOverrides:
    def test_json_values_parse(self):
        assert parse_override("search_init.alpha=0.65") == ("search_init.alpha", 0.65)
        assert parse_override("replicates=3") == ("replicates", 3)
        assert parse_override("search_inter.track_global_best=false") == ("search_inter.track_global_best", False)

    def test_bare_strings_pass_through(self):
        assert parse_override("method=free") == ("method", "free")
        assert parse_override("solver.mode=sde") == ("solver.mode", "sde")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            parse_override("replicates")

    def test_dotted_paths_reach_nested_sections(self):
        raw = base_config("r.jsonl")
        merged = apply_overrides(raw, {"solver.steps": 16, "search_init.tau": 0.7})
        assert merged["solver"]["steps"] == 16
        assert merged["search_init"] == {"tau": 0.7}
        assert raw["solver"]["steps"] == 8  # original untouched

    def test_override_inside_scalar_rejected(self):
        raw = base_config("r.jsonl")
        with pytest.raises(ConfigError, match="seed"):
            apply_overrides(raw, {"seed.low": 1})


class TestRunCommand:
    def test_free_run_writes_records(self, tmp_path, capsys):
        config, out = write_config(tmp_path)
        assert main(["run", "--config", config]) == 0
        records = read_records(out)
        assert len(records) == 2
        for index, record in enumerate(records):
            assert record["method"] == "free"
            assert record["seed"] == index
            assert record["nfe_used"] == 16
            assert record["hit"] in (True, False)
            assert record["truncated"] is False
        assert "wrote 2 record(s)" in capsys.readouterr().out

    def test_zo_run_writes_the_records_of_run_zo_block(self, tmp_path):
        config, _ = write_config(tmp_path, method="zo", budget_nfe=64, replicates=3)
        model, spec, reward, _ = build_experiment(validate_config(json.loads(Path(config).read_text())))
        runs = {}
        for tau, overrides in ((0.9, []), (0.5, ["zo_step_tau=0.5"])):
            out = tmp_path / f"zo-{tau}.jsonl"
            assert main(["run", "--config", config, "--out", str(out), *overrides]) == 0
            runs[tau] = [(r.method, r.seed, r.final_reward, r.final_sample.tolist(), r.nfe_used, r.truncated)
                         for r in run_zo_block(model, spec, reward, 64, tau, [RngStream(seed) for seed in range(3)])]
            assert [(r["method"], r["seed"], r["final_reward"], r["final_sample"], r["nfe_used"], r["truncated"])
                    for r in read_records(out)] == runs[tau]
        assert runs[0.9] != runs[0.5]

    def test_rts_without_interior_steps_reports_empty_key_steps(self, tmp_path):
        config, out = write_config(
            tmp_path,
            solver={"mode": "ode", "steps": 4},
            method="rts",
            replicates=1,
            search_init={"n_neighbors": 2, "rounds": 2},
        )
        assert main(["run", "--config", config]) == 0
        assert read_records(out)[0]["key_steps"] == []

    def test_rts_sde_with_two_steps_skips_intermediate_phase(self, tmp_path):
        config, out = write_config(
            tmp_path,
            solver={"mode": "sde", "steps": 2, "churn": 0.4},
            method="rts",
            replicates=1,
            search_init={"n_neighbors": 2, "rounds": 2},
            eval_steps_init=1,
        )
        assert main(["run", "--config", config]) == 0
        record = read_records(out)[0]
        assert record["key_steps"] == []
        assert record["truncated"] is False

    def test_out_naming_the_config_exits_2_and_leaves_it_unchanged(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, replicates=1)
        before = Path(config).read_bytes()
        link = tmp_path / "link.json"
        link.symlink_to(config)
        for target in (config, str(link)):
            assert main(["run", "--config", config, "--out", target]) == 2
            assert "would overwrite the config" in capsys.readouterr().err
        assert Path(config).read_bytes() == before
        assert main(["run", "--config", config]) == 0

    def test_run_appends_to_existing_results(self, tmp_path):
        config, out = write_config(tmp_path, replicates=1)
        assert main(["run", "--config", config]) == 0
        assert main(["run", "--config", config]) == 0
        assert len(read_records(out)) == 2

    def test_reruns_identical_except_wall_time(self, tmp_path):
        config, _ = write_config(tmp_path, method="rts", replicates=2)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert main(["run", "--config", config, "--out", str(first)]) == 0
        assert main(["run", "--config", config, "--out", str(second)]) == 0
        a, b = read_records(first), read_records(second)
        for left, right in zip(a, b):
            left.pop("wall_ms")
            right.pop("wall_ms")
            # overrides echo the differing --out flags; everything else matches
            assert left.pop("overrides") == {"out": str(first)}
            assert right.pop("overrides") == {"out": str(second)}
            assert left == right

    def test_parallel_run_matches_serial(self, tmp_path):
        config, _ = write_config(tmp_path, replicates=4)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        assert main(["run", "--config", config, "--out", str(serial), "workers=1"]) == 0
        assert main(["run", "--config", config, "--out", str(parallel), "workers=3"]) == 0
        a, b = read_records(serial), read_records(parallel)
        assert len(a) == len(b) == 4
        for left, right in zip(a, b):
            for record in (left, right):
                record.pop("wall_ms")
                record.pop("overrides")
            assert left == right

    def test_worker_env_var_is_not_read(self, tmp_path, monkeypatch):
        # RTS_MAX_WORKERS once capped the worker count and refused "0"; the CLI now reads no environment variable
        config, out = write_config(tmp_path)
        plain = tmp_path / "plain.jsonl"
        assert main(["run", "--config", config, "--out", str(plain)]) == 0
        monkeypatch.setenv("RTS_MAX_WORKERS", "0")
        assert main(["run", "--config", config]) == 0
        a, b = read_records(plain), read_records(out)
        assert len(a) == len(b) == 2
        for left, right in zip(a, b):
            for record in (left, right):
                record.pop("wall_ms")
                record.pop("overrides")
            assert left == right

    # resample_inter_fresh, track_global_best and eval_steps_inter are no keys: the key-step search always
    # resamples fresh, every search returns its best row of all rounds, and a key-step candidate is always scored
    # by one clean estimate
    @pytest.mark.parametrize("section, key", [("solver", "typo"), (None, "resample_inter_fresh"),
                                              ("search_init", "track_global_best"),
                                              ("search_inter", "track_global_best"), (None, "eval_steps_inter")])
    def test_unknown_config_key_exits_2_with_dotted_path(self, tmp_path, capsys, section, key):
        raw = base_config(tmp_path / "r.jsonl")
        (raw.setdefault(section, {}) if section else raw)[key] = True
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"'{section + '.' if section else ''}{key}'" in err and "unknown key" in err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert main(["run", "--config", str(config)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_nested_too_deep_to_parse_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"typo": ' + "[" * _DEEP + "]" * _DEEP + "}")
        assert main(["run", "--config", str(config)]) == 2
        assert f"config '{config}' is not valid JSON" in capsys.readouterr().err

    def test_override_nested_too_deep_to_parse_is_a_bare_string(self, tmp_path, capsys):
        # a value that does not parse passes as a string, so the unknown key is what is refused
        config, _ = write_config(tmp_path)
        assert main(["run", "--config", config, "a=" + "[" * _DEEP + "]" * _DEEP]) == 2
        err = capsys.readouterr().err
        assert "'a'" in err and "unknown key" in err

    def test_seed_overflow_exits_2_before_any_record(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, seed=2**64 - 1, replicates=2)
        assert main(["run", "--config", config]) == 2
        assert "replicates" in capsys.readouterr().err
        assert not (tmp_path / "results.jsonl").exists()

    @staticmethod
    def fail_block_of(monkeypatch, failing: int) -> None:
        """Make the block holding replicate ``failing`` raise, in whichever process runs it."""
        monkeypatch.setattr(rts.cli, "run_block", functools.partial(_run_block_failing_at, failing))

    @staticmethod
    def assert_kept_records_match(kept, whole) -> None:
        for left, right in zip(kept, whole):
            for record in (left, right):
                record.pop("wall_ms")
                record.pop("overrides")
            assert json.dumps(left) == json.dumps(right)

    @pytest.fixture(params=["fork", "spawn"])
    def start_method(self, request, monkeypatch):
        """Start the workers of parallel runs with each start method, whichever this interpreter uses."""
        if request.param not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {request.param} start method here")
        monkeypatch.setattr(rts.cli, "START_METHOD", request.param)

    def test_failing_replicate_keeps_the_records_before_it(self, tmp_path, monkeypatch, capsys):
        # the run process computes the block [0, 2) and its one pool worker [2, 4), which fails
        config, out = write_config(tmp_path, method="rts", replicates=4, workers=2)
        whole = tmp_path / "whole.jsonl"
        assert main(["run", "--config", config, "--out", str(whole)]) == 0
        self.fail_block_of(monkeypatch, 2)
        assert main(["run", "--config", config]) == 3
        assert "replicate 2 failed" in capsys.readouterr().err
        kept = read_records(out)
        assert [record["seed"] for record in kept] == [0, 1]
        self.assert_kept_records_match(kept, read_records(whole))

    def test_failing_block_of_a_serial_run_keeps_the_blocks_before_it(self, tmp_path, monkeypatch, capsys):
        replicates = rts.cli.MAX_BLOCK + 2
        config, out = write_config(tmp_path, replicates=replicates, workers=1)
        whole = tmp_path / "whole.jsonl"
        assert main(["run", "--config", config, "--out", str(whole)]) == 0
        self.fail_block_of(monkeypatch, replicates - 1)
        assert main(["run", "--config", config]) == 3
        assert f"replicate {replicates - 1} failed" in capsys.readouterr().err
        kept = read_records(out)
        assert [record["seed"] for record in kept] == list(range(rts.cli.MAX_BLOCK))
        self.assert_kept_records_match(kept, read_records(whole))

    def test_no_worker_outlives_a_failing_parallel_run(self, tmp_path, monkeypatch, start_method):
        config, out = write_config(tmp_path, method="rts", replicates=6, workers=3)
        self.fail_block_of(monkeypatch, 3)
        assert main(["run", "--config", config]) == 3
        assert multiprocessing.active_children() == []
        assert [record["seed"] for record in read_records(out)] == [0, 1]

    @pytest.mark.parametrize("workers, failing, kept", [(2, 0, []), (3, 0, []), (2, 3, [0, 1, 2]), (3, 3, [0, 1])],
                             ids=["w2-run", "w3-run", "w2-worker", "w3-worker"])
    def test_a_failing_block_keeps_the_blocks_before_it_and_no_worker(self, tmp_path, monkeypatch, capsys,
                                                                      start_method, workers, failing, kept):
        # 6 replicates: blocks [0, 3), [3, 6) on 2 workers, [0, 2), [2, 4), [4, 6) on 3; block 0 fails in the
        # run process, the block holding replicate 3 in a pool worker
        config, out = write_config(tmp_path, method="rts", replicates=6, workers=workers)
        self.fail_block_of(monkeypatch, failing)
        assert main(["run", "--config", config]) == 3
        assert f"replicate {failing} failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert [record["seed"] for record in read_records(out)] == kept

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_pool_of_one_worker_fewer_gets_its_blocks_before_the_run_computes(self, tmp_path, monkeypatch,
                                                                                workers):
        events = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                events.append(("pool", kwargs["max_workers"]))
                super().__init__(*args, **kwargs)

            def submit(self, fn, cfg, indices, overrides, config):
                events.append(("submit", indices))
                return super().submit(fn, cfg, indices, overrides, config)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        monkeypatch.setattr(rts.cli, "MAX_BLOCK", 2)
        monkeypatch.setattr(rts.cli, "run_block", functools.partial(_run_block_recorded, events))
        config, out = write_config(tmp_path, replicates=7, workers=workers)
        assert main(["run", "--config", config]) == 0
        blocks = [range(0, 2), range(2, 4), range(4, 6), range(6, 7)]
        pool = [("pool", workers - 1), *(("submit", block) for i, block in enumerate(blocks) if i % workers)]
        assert events == (pool if workers > 1 else []) + blocks[::workers]
        assert [record["seed"] for record in read_records(out)] == list(range(7))

    @pytest.mark.parametrize("workers, max_block, computed", [
        (1, 2, [(0, 2), (2, 4), (4, 6), (6, 7)]),
        (2, None, [(0, 4)]),  # blocks [0, 4), [4, 7)
        (3, None, [(0, 3)]),  # [0, 3), [3, 6), [6, 7)
        (2, 2, [(0, 2), (4, 6)]),  # [0, 2), [2, 4), [4, 6), [6, 7)
        (3, 2, [(0, 2), (6, 7)]),
    ], ids=["w1-block2", "w2", "w3", "w2-block2", "w3-block2"])
    def test_the_run_process_computes_every_workers_th_block(self, tmp_path, monkeypatch, start_method, workers,
                                                             max_block, computed):
        if max_block is not None:
            monkeypatch.setattr(rts.cli, "MAX_BLOCK", max_block)
        calls = []
        monkeypatch.setattr(rts.cli, "run_block", functools.partial(_run_block_recorded, calls))
        config, out = write_config(tmp_path, method="rts", replicates=7, budget_nfe=295, workers=workers)
        assert main(["run", "--config", config]) == 0
        assert calls == [range(*bounds) for bounds in computed]
        cfg = rts.cli.load_config(config)
        alone = [_RUN_BLOCK(cfg, range(i, i + 1), {}, _CONFIG_HASH(cfg))[0] for i in range(7)]
        self.assert_kept_records_match(read_records(out), alone)
        assert len(read_records(out)) == 7

    def test_a_run_hashes_its_config_once(self, tmp_path, monkeypatch):
        # 5 replicates in blocks of at most 2: three blocks, one hash
        hashes = []
        monkeypatch.setattr(rts.cli, "MAX_BLOCK", 2)
        monkeypatch.setattr(rts.cli, "_config_hash", lambda cfg: hashes.append(cfg) or _CONFIG_HASH(cfg))
        config, out = write_config(tmp_path, replicates=5, workers=1)
        assert main(["run", "--config", config]) == 0
        assert len(hashes) == 1
        assert {record["config"] for record in read_records(out)} == {_CONFIG_HASH(hashes[0])}

    @pytest.mark.parametrize("method, budget", [("rts", 295), ("bon", 64)])
    def test_uneven_blocks_write_the_records_of_one_block(self, tmp_path, method, budget, start_method):
        # 7 replicates on 1, 2 and 3 workers: blocks [0, 7); [0, 4), [4, 7); [0, 3), [3, 6), [6, 7)
        config, _ = write_config(tmp_path, method=method, replicates=7, budget_nfe=budget)
        runs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"workers{workers}.jsonl"
            assert main(["run", "--config", config, "--out", str(out), f"workers={workers}"]) == 0
            records = read_records(out)
            for record in records:
                record.pop("wall_ms")
                record.pop("overrides")
            runs.append([json.dumps(record) for record in records])
        assert len(runs[0]) == 7 and runs[0] == runs[1] == runs[2]
        cfg = rts.cli.load_config(config)
        for index, line in enumerate(runs[0]):
            alone = rts.cli.run_replicate(cfg, index, {})
            alone.pop("wall_ms")
            alone.pop("overrides")
            assert line == json.dumps(alone)
        if method == "rts":  # the budget cuts some seeds short and not others
            truncated = {json.loads(line)["truncated"] for line in runs[0]}
            assert truncated == {True, False}

    def test_a_block_holds_at_most_block_bytes_of_arrays(self, tmp_path):
        # best-of-N at d = 1024, 50 steps and 200 candidates: 160 MB a seed, so one seed a block
        dim = 1024
        config, _ = write_config(
            tmp_path, dimension=dim, method="bon", budget_nfe=200 * 2 * 50, replicates=8, workers=2,
            solver={"mode": "sde", "steps": 50, "churn": 0.4},
            mixture={"weights": [1.0], "means": [[0.0] * dim], "stddevs": [1.0]},
        )
        cfg = rts.cli.load_config(config)
        _, spec, _, rts_cfg = rts.cli.build_experiment(cfg)
        seed_bytes = rts.cli._seed_bytes(cfg, spec, rts_cfg)
        assert seed_bytes == 200 * (51 + 49) * dim * 8
        assert rts.cli._blocks(8, 2, seed_bytes) == [range(i, i + 1) for i in range(8)]
        three = rts.cli.BLOCK_BYTES // 3
        assert rts.cli._blocks(10, 2, three) == [range(0, 3), range(3, 6), range(6, 9), range(9, 10)]
        assert rts.cli._blocks(10, 2, 1) == [range(0, 5), range(5, 10)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_an_rts_block_peaks_within_its_seed_bytes(self, tmp_path, n):
        # an 8-seed rts block at d = 512 and 20 steps peaks at about 3.5, 4.8 and 6.0 rows a seed for n = 1, 2, 3
        dim, size = 512, 8
        config, _ = write_config(
            tmp_path, dimension=dim, method="rts", replicates=size, solver={"mode": "sde", "steps": 20, "churn": 0.4},
            mixture={"weights": [0.5, 0.5], "means": [[1.0] * dim, [-1.0] * dim], "stddevs": [1.0, 1.0]},
            search_init={"n_neighbors": n}, search_inter={"n_neighbors": n},
        )
        cfg = rts.cli.load_config(config)
        model, spec, reward, rts_cfg = rts.cli.build_experiment(cfg)
        streams = [RngStream(seed) for seed in range(size)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rts.run_rts_block(model, spec, reward, rts_cfg, streams)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= size * rts.cli._seed_bytes(cfg, spec, rts_cfg)

    @pytest.mark.parametrize("method", ["bon", "zo"])
    def test_budget_past_denoise_bound_exits_2_before_any_record(self, tmp_path, capsys, method):
        config, out = write_config(tmp_path, method=method)
        assert main(["run", "--config", config, "budget_nfe=" + str(10**30)]) == 2
        assert "'budget_nfe'" in capsys.readouterr().err
        assert not (tmp_path / "results.jsonl").exists()

    @pytest.mark.parametrize("args", [["workers=4096"], ["--workers", str(rts.cli.MAX_WORKERS + 1)]])
    def test_workers_above_the_cap_exit_2_before_the_output_is_opened(self, tmp_path, capsys, args):
        config, out = write_config(tmp_path)
        assert main(["run", "--config", config, "replicates=4096", *args]) == 2
        assert f"config error at 'workers': must lie in [1, {rts.cli.MAX_WORKERS}]" in capsys.readouterr().err
        assert not Path(out).exists()

    @pytest.mark.parametrize("args", [[f"replicates={rts.cli.MAX_REPLICATES + 1}"], ["--replicates", str(10**10)]])
    def test_replicates_above_the_cap_exit_2_before_the_output_is_opened(self, tmp_path, capsys, args):
        # blocks are built, and submitted to the pool, all at once, so an absurd count would exhaust memory
        config, out = write_config(tmp_path)
        assert main(["run", "--config", config, *args]) == 2
        assert f"config error at 'replicates': must lie in [1, {rts.cli.MAX_REPLICATES}]" in capsys.readouterr().err
        assert not Path(out).exists()

    def test_workers_at_the_cap_run(self, tmp_path):
        # one replicate caps the pool at one worker, so the run stays in this process
        config, out = write_config(tmp_path)
        assert main(["run", "--config", config, f"workers={rts.cli.MAX_WORKERS}", "replicates=1"]) == 0
        assert len(read_records(out)) == 1

    def test_rts_budget_below_one_candidate_exits_3_before_the_output_is_opened(self, tmp_path, capsys):
        config, out = write_config(tmp_path, method="rts")
        assert main(["run", "--config", config, "--budget", "5"]) == 3
        assert "budget 5 cannot cover one scored candidate (16 NFEs)" in capsys.readouterr().err
        assert not Path(out).exists()

    def test_free_budget_below_one_denoise_exits_3_before_the_output_is_opened(self, tmp_path, capsys):
        from rts.search import MAX_NEIGHBORS

        config, out = write_config(tmp_path, method="free", replicates=2)
        one_denoise = 2 * 8
        assert main(["run", "--config", config, "--budget", str(one_denoise - 1)]) == 3
        assert "free budget 15 is below 1 denoise(s) of 16 NFEs" in capsys.readouterr().err
        assert not Path(out).exists()
        # one denoise is enough, and a budget past the bon and zo denoise bound is no error for free
        for budget in (one_denoise, one_denoise * (MAX_NEIGHBORS + 1)):
            assert main(["run", "--config", config, "--budget", str(budget)]) == 0
        assert [record["nfe_used"] for record in read_records(out)] == [one_denoise] * 4

    @pytest.mark.parametrize("tau", ["1.5", "-0.1"])
    def test_zo_step_tau_outside_unit_interval_exits_2_before_the_output_is_opened(self, tmp_path, capsys, tau):
        config, out = write_config(tmp_path)
        assert main(["run", "--config", config, "--method", "zo", "--budget", "64", "zo_step_tau=" + tau]) == 2
        assert "config error at 'zo_step_tau': must lie in [0, 1]" in capsys.readouterr().err
        assert not Path(out).exists()

    @pytest.mark.parametrize("override,message", [
        ("reward.sharpness=1e-200", "2·sharpness² a normal float"),
        ("mixture.stddevs=[0.6,1e-200,0.6,0.6]", "squares that are normal floats"),
        ("mixture.stddevs=[0.6,1e200,0.6,0.6]", "squares that are normal floats"),
        ("mixture.means=[[1e200,1.5],[-1.5,1.5],[-1.5,-1.5],[1.5,-1.5]]", "magnitude below 1e+150"),
    ])
    def test_scale_outside_the_float_range_exits_2_before_the_output_is_opened(self, tmp_path, capsys, override,
                                                                                message):
        # each ran: a sharpness of 1e-200 wrote rewards of 0.0 with exit 0, the others ended in exit 3
        config, out = write_config(tmp_path)
        assert main(["run", "--config", config, override]) == 2
        assert message in capsys.readouterr().err
        assert not Path(out).exists()

    def test_means_whose_key_step_curvature_overflows_exit_3(self, tmp_path, capsys):
        # means within the mixture's bound, whose projected trajectories overflow the curvature; before: numpy
        # RuntimeWarnings, exit 0 and key steps picked from NaN curvatures
        means = [[1e149, 1e149], [-1e149, 1e149], [-1e149, -1e149], [1e149, -1e149]]
        config, _ = write_config(tmp_path, method="rts", mixture=dict(testbed.MIXTURE, means=means))
        assert main(["run", "--config", config]) == 3
        assert "runtime error: curvature overflows" in capsys.readouterr().err

    def test_quadratic_target_of_wrong_dimension_exits_2(self, tmp_path, capsys):
        reward = {"kind": "quadratic", "target": [0.0, 0.0, 0.0]}
        config, _ = write_config(tmp_path, reward=reward)
        assert main(["run", "--config", config]) == 2
        assert "reward.target" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override,path",
        [
            ('mixture.weights=["a",0.5]', "mixture.weights[0]"),
            ("mixture.means=[[1,0],[3]]", "mixture.means[1]"),
            ("mixture.stddevs=[0.6,NaN,0.6,0.6]", "mixture.stddevs[1]"),
            ('reward={"kind":"quadratic","target":["x",0]}', "reward.target[0]"),
            ("solver.churn=1e999", "solver.churn"),
            ("solver.steps=100000000000", "solver.steps"),
            ("eval_steps_init=100000000000", "eval_steps_init"),
            ("search_init.n_neighbors=100000000000", "search_init.n_neighbors"),
            pytest.param("seed=1" + "0" * 5000, "seed", id="seed-past-digit-limit"),
        ],
    )
    def test_malformed_value_exits_2_at_its_path(self, tmp_path, capsys, override, path):
        config, out = write_config(tmp_path)
        assert main(["run", "--config", config, override]) == 2
        assert f"'{path}'" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["[1]", '"x"'])
    @pytest.mark.parametrize("override", ["seed=1", "solver.steps=3"])
    def test_config_that_is_not_an_object_exits_2_with_overrides(self, tmp_path, capsys, content, override):
        config = tmp_path / "config.json"
        config.write_text(content)
        for args in ([], [override]):
            assert main(["run", "--config", str(config), *args]) == 2
            assert "config error at '<root>': expected an object" in capsys.readouterr().err

    def test_budget_required_for_bon_exits_2(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, method="bon")
        assert main(["run", "--config", config]) == 2
        assert "budget_nfe" in capsys.readouterr().err

    def test_overrides_interleave_with_flags_and_are_echoed(self, tmp_path):
        config, out = write_config(tmp_path)
        code = main(
            ["run", "--config", config, "solver.churn=0.5", "--replicates", "1", "seed=7"]
        )
        assert code == 0
        record = read_records(out)[0]
        assert record["seed"] == 7
        # KEY=VALUE tokens in argv order, then the flags
        assert list(record["overrides"].items()) == [("solver.churn", 0.5), ("seed", 7), ("replicates", 1)]

    def test_flags_are_echoed_after_overrides_in_flag_order(self, tmp_path):
        config, out = write_config(tmp_path, method="bon")
        argv = ["run", "--workers", "1", "--out", out, "--budget", "32", "--method", "free", "--replicates", "1",
                "--seed", "3", "--config", config, "solver.churn=0.5"]
        assert main(argv) == 0
        overrides = read_records(out)[0]["overrides"]
        assert list(overrides) == ["solver.churn", "seed", "replicates", "method", "budget_nfe", "out", "workers"]

    def test_double_dash_ends_the_flags(self, tmp_path):
        config, out = write_config(tmp_path)
        assert main(["run", "--config", config, "--replicates", "1", "--", "seed=3"]) == 0
        assert read_records(out)[0]["overrides"] == {"seed": 3, "replicates": 1}

    @pytest.mark.parametrize("command", ["run", "export-trajectory"])
    def test_malformed_override_before_the_flags_exits_2(self, tmp_path, capsys, command):
        config, _ = write_config(tmp_path)
        out = ["--out", str(tmp_path / "t.csv")] if command == "export-trajectory" else []
        assert main([command, "a=1", "--config", config, *out, "replicates"]) == 2
        assert "'replicates' is not of the form KEY=VALUE" in capsys.readouterr().err

    def test_unknown_method_flag_exits_2_naming_method(self, tmp_path, capsys):
        config, out = write_config(tmp_path)
        assert main(["run", "--config", config, "--method", "nope"]) == 2
        assert "config error at 'method'" in capsys.readouterr().err
        assert not Path(out).exists()

    @pytest.mark.parametrize("command", ["run", "export-trajectory"])
    def test_help_shows_key_value_usage(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "KEY=VALUE" in capsys.readouterr().out

    def test_malformed_positional_argument_exits_2(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        assert main(["run", "--config", config, "replicates"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        config, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--config", config, "--turbo"])
        assert excinfo.value.code == 2

    def test_override_changes_behavior(self, tmp_path):
        config, out = write_config(tmp_path, replicates=1)
        assert main(["run", "--config", config, "solver.steps=12"]) == 0
        assert read_records(out)[0]["nfe_used"] == 24

    def test_the_criterion_7_config_writes_criterion_7s_rewards(self, tmp_path):
        # the testbed as a user writes it, at its matched budget: each record's reward is the rts block's, bit for bit
        out = tmp_path / "results.jsonl"
        config = tmp_path / "config.json"
        raw = dict(testbed.cli_config(seed=0, replicates=8, out=str(out)), budget_nfe=testbed.BUDGET_NFE)
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config)]) == 0
        block, _ = criterion7_variants()["rts"]
        expected = [result.final_reward for result in block(STREAMS[:8])]
        assert [record["final_reward"] for record in read_records(out)] == expected


class TestReportCommand:
    def _results_with_two_methods(self, tmp_path):
        config, out = write_config(tmp_path, replicates=6)
        assert main(["run", "--config", config]) == 0
        assert main(["run", "--config", config, "method=bon", "budget_nfe=32"]) == 0
        return out

    def test_report_prints_table_and_writes_summary(self, tmp_path, capsys):
        out = self._results_with_two_methods(tmp_path)
        summary_path = tmp_path / "summary.json"
        assert main(["report", out, "--out", str(summary_path)]) == 0
        text = capsys.readouterr().out
        assert "free" in text and "bon" in text
        assert "one-sided p-values" in text
        summary = json.loads(summary_path.read_text())
        assert set(summary["methods"]) == {"bon", "free"}
        assert summary["methods"]["free"]["n"] == 6
        assert summary["methods"]["bon"]["mean_nfe"] == 32.0
        for p in summary["comparisons"].values():
            assert 0.0 <= p <= 1.0

    def test_identical_rewards_report_half_p_value(self, tmp_path):
        results = tmp_path / "results.jsonl"
        rows = []
        for method in ("alpha", "beta"):
            for seed in range(6):
                rows.append(
                    {
                        "method": method,
                        "seed": seed,
                        "final_reward": 1.25,
                        "nfe_used": 10,
                        "truncated": False,
                        "hit": None,
                    }
                )
        results.write_text("".join(json.dumps(r) + "\n" for r in rows))
        summary_path = tmp_path / "summary.json"
        assert main(["report", str(results), "--out", str(summary_path)]) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["comparisons"]["alpha>beta"] == 0.5
        assert summary["comparisons"]["beta>alpha"] == 0.5

    @staticmethod
    def _records(method, seeds, rewards):
        return [{"method": method, "seed": seed, "final_reward": reward, "nfe_used": 10, "truncated": False}
                for seed, reward in zip(seeds, rewards)]

    def _check_p_values(self, tmp_path, records, expected):
        assert summarize(records)["comparisons"] == expected
        results = tmp_path / "results.jsonl"
        results.write_text("".join(json.dumps(r) + "\n" for r in records))
        summary_path = tmp_path / "summary.json"
        assert main(["report", str(results), "--out", str(summary_path)]) == 0
        assert json.loads(summary_path.read_text())["comparisons"] == expected

    def test_shared_seeds_give_the_paired_wilcoxon_p_value(self, tmp_path):
        a = [0.9, 0.4, 0.75, 0.6, 0.8, 0.3, 0.55, 0.7]
        b = [0.5, 0.45, 0.2, 0.3, 0.1, 0.25, 0.25, 0.3]
        seeds = range(8)
        diff = np.array(a) - np.array(b)
        expected = {
            "alpha>beta": float(stats.wilcoxon(diff, zero_method="zsplit", alternative="greater").pvalue),
            "beta>alpha": float(stats.wilcoxon(-diff, zero_method="zsplit", alternative="greater").pvalue),
        }
        assert expected["alpha>beta"] < 0.05 < expected["beta>alpha"]
        self._check_p_values(tmp_path, self._records("alpha", seeds, a) + self._records("beta", seeds, b), expected)

    def test_disjoint_seeds_give_the_mann_whitney_p_value(self, tmp_path):
        a = [0.9, 0.4, 0.75, 0.6, 0.8, 0.3]
        b = [0.5, 0.45, 0.2, 0.1, 0.35]
        expected = {
            "alpha>beta": float(stats.mannwhitneyu(a, b, alternative="greater").pvalue),
            "beta>alpha": float(stats.mannwhitneyu(b, a, alternative="greater").pvalue),
        }
        assert expected["alpha>beta"] < 0.05 < expected["beta>alpha"]
        records = self._records("alpha", range(6), a) + self._records("beta", range(100, 105), b)
        self._check_p_values(tmp_path, records, expected)

    def test_two_configs_over_the_same_seeds_give_the_mann_whitney_p_value(self, tmp_path):
        # alpha has two records per seed; pairing by seed would keep one of them
        rng = np.random.default_rng(5)
        first, second, b = rng.uniform(0.0, 0.5, 10), rng.uniform(0.5, 1.0, 10), rng.uniform(0.2, 0.8, 10)
        alpha = [{**r, "config": c} for rows, c in ((first, "c1"), (second, "c2"))
                 for r in self._records("alpha", range(10), rows)]
        a = np.concatenate([first, second])
        expected = {
            "alpha>beta": float(stats.mannwhitneyu(a, b, alternative="greater").pvalue),
            "beta>alpha": float(stats.mannwhitneyu(b, a, alternative="greater").pvalue),
        }
        self._check_p_values(tmp_path, alpha + self._records("beta", range(10), b), expected)

    def test_identical_rewards_over_disjoint_seeds_report_half_p_value(self, tmp_path):
        records = self._records("alpha", range(6), [1.25] * 6) + self._records("beta", range(100, 105), [1.25] * 5)
        self._check_p_values(tmp_path, records, {"alpha>beta": 0.5, "beta>alpha": 0.5})

    def test_single_record_has_zero_stddev(self, tmp_path):
        config, out = write_config(tmp_path, replicates=1)
        assert main(["run", "--config", config]) == 0
        summary_path = tmp_path / "summary.json"
        assert main(["report", out, "--out", str(summary_path)]) == 0
        summary = json.loads(summary_path.read_text())
        assert summary["methods"]["free"]["stddev_reward"] == 0.0

    def test_default_summary_path_derives_from_results(self, tmp_path):
        config, out = write_config(tmp_path, replicates=1)
        assert main(["run", "--config", config]) == 0
        assert main(["report", out]) == 0
        assert (tmp_path / "results.jsonl.summary.json").exists()

    def test_empty_results_file_exits_2(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results.write_text("")
        assert main(["report", str(results)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_missing_results_file_exits_2(self, tmp_path):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2

    def test_results_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results.write_bytes(b"\xff\xfe")
        assert main(["report", str(results)]) == 2
        assert f"cannot read results '{results}'" in capsys.readouterr().err

    def test_summary_onto_the_results_file_exits_2_leaving_it_untouched(self, tmp_path, capsys):
        config, out = write_config(tmp_path, replicates=1)
        assert main(["run", "--config", config]) == 0
        before = Path(out).read_bytes()
        link = tmp_path / "link.jsonl"
        link.symlink_to(out)
        for target in (out, str(link)):
            assert main(["report", out, "--out", target]) == 2
            assert "would overwrite the results" in capsys.readouterr().err
        assert Path(out).read_bytes() == before
        assert main(["report", out]) == 0

    def test_corrupt_results_line_exits_2(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results.write_text('{"method": "free"}\n{oops\n')
        assert main(["report", str(results)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_results_line_nested_too_deep_to_parse_exits_2(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results.write_text("[" * _DEEP + "]" * _DEEP + "\n")
        assert main(["report", str(results)]) == 2
        assert "results line 1 is not valid JSON" in capsys.readouterr().err

    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        huge = "1" + "0" * 5000
        results = tmp_path / "results.jsonl"
        results.write_text('{"seed": ' + huge + "}\n")
        assert main(["report", str(results)]) == 2
        assert "line 1 is not valid JSON" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text('{"seed": ' + huge + "}")
        assert main(["run", "--config", str(config)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("rewards, nfe_used, statistic", [
        ([1e308, 1e308], 10, "mean_reward"),
        ([-1.7e308, 1.7e308], 10, "stddev_reward"),
        ([0.5, 0.25], 10**400, "mean_nfe"),
    ], ids=["mean_reward", "stddev_reward", "mean_nfe"])
    def test_finite_values_whose_statistic_overflows_exit_2_naming_it(self, tmp_path, capsys, rewards, nfe_used,
                                                                      statistic):
        # each value passes the record check; their mean or spread is past the largest float
        results = tmp_path / "results.jsonl"
        records = [{**r, "nfe_used": nfe_used} for r in self._records("alpha", range(2), rewards)]
        records += self._records("beta", range(2), [0.5, 0.25])
        results.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["report", str(results)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"method 'alpha': {statistic} overflows a float\n"
        assert captured.out == ""
        assert not Path(f"{results}.summary.json").exists()

    def test_duplicate_records_exit_2_naming_both_lines(self, tmp_path, capsys):
        config, out = write_config(tmp_path, replicates=2)
        assert main(["run", "--config", config]) == 0
        assert main(["run", "--config", config]) == 0
        assert main(["report", out]) == 2
        assert "line 3 repeats the method, seed and config of line 1" in capsys.readouterr().err

    def test_configs_that_differ_only_in_tau_are_not_duplicates(self, tmp_path):
        search = {"n_neighbors": 2, "rounds": 2}
        first, out = write_config(tmp_path, "a.json", method="rts", search_init={**search, "tau": 0.9})
        second, _ = write_config(tmp_path, "b.json", method="rts", search_init={**search, "tau": 0.8})
        assert main(["run", "--config", first]) == 0
        assert main(["run", "--config", second]) == 0
        records = read_records(out)
        assert records[0]["overrides"] == records[2]["overrides"] == {}
        assert re.fullmatch("[0-9a-f]{16}", records[0]["config"])
        assert records[0]["config"] == records[1]["config"] != records[2]["config"]
        summary_path = tmp_path / "summary.json"
        assert main(["report", out, "--out", str(summary_path)]) == 0
        assert json.loads(summary_path.read_text())["methods"]["rts"]["n"] == 4

    def test_rerun_with_other_run_keys_is_a_duplicate(self, tmp_path, capsys):
        config, out = write_config(tmp_path, replicates=2)
        assert main(["run", "--config", config]) == 0
        # the echoed workers differ, and the rerun computes in two processes
        assert main(["run", "--config", config, "--workers", "2", "replicates=3", "seed=0"]) == 0
        records = read_records(out)
        assert records[0]["overrides"] == {} and records[2]["overrides"] == {"replicates": 3, "seed": 0, "workers": 2}
        assert records[0]["config"] == records[2]["config"]
        assert main(["report", out]) == 2
        assert "line 3 repeats the method, seed and config of line 1" in capsys.readouterr().err

    def test_record_without_config_keys_as_null(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        rows = self._records("free", [0, 1], [0.5, 0.5])
        results.write_text("".join(json.dumps(r) + "\n" for r in rows + [{**rows[0], "config": "0" * 16}, rows[1]]))
        assert main(["report", str(results)]) == 2
        assert "line 4 repeats the method, seed and config of line 2" in capsys.readouterr().err

    def test_defaults_written_out_hash_as_the_bare_config(self, tmp_path, capsys):
        config, out = write_config(tmp_path, method="rts")
        assert main(["run", "--config", config]) == 0
        spelled = ["search_init.alpha=0.7", "search_inter.rounds=2"]
        assert main(["run", "--config", config, *spelled]) == 0
        records = read_records(out)
        assert records[2]["overrides"] == {"search_init.alpha": 0.7, "search_inter.rounds": 2}
        assert records[0]["config"] == records[2]["config"]
        assert main(["report", out]) == 2
        assert "line 3 repeats the method, seed and config of line 1" in capsys.readouterr().err

    def test_records_of_other_overrides_are_not_duplicates(self, tmp_path):
        config, out = write_config(tmp_path, replicates=2)
        assert main(["run", "--config", config]) == 0
        assert main(["run", "--config", config, "solver.churn=0.5"]) == 0
        summary_path = tmp_path / "summary.json"
        assert main(["report", out, "--out", str(summary_path)]) == 0
        assert json.loads(summary_path.read_text())["methods"]["free"]["n"] == 4

    def test_line_that_is_not_a_record_exits_2(self, tmp_path, capsys):
        results = tmp_path / "results.jsonl"
        results.write_text('\n[1, 2]\n')
        assert main(["report", str(results)]) == 2
        assert "line 2 is not a record" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("method", None),
            ("method", 3),
            ("seed", "0"),
            ("seed", True),
            ("seed", 1.5),
            ("seed", -3),
            ("seed", 2**64),
            ("nfe_used", None),
            ("nfe_used", False),
            ("nfe_used", -10),
            ("final_reward", None),
            ("final_reward", "0.5"),
            ("final_reward", True),
            ("final_reward", float("nan")),
            ("final_reward", float("inf")),
            ("final_reward", 10**400),
            ("truncated", 0),
            ("truncated", None),
            ("hit", "yes"),
            ("config", 3),
        ],
    )
    def test_record_field_of_wrong_type_exits_2_naming_line_and_key(self, tmp_path, capsys, key, value):
        good = {"method": "free", "seed": 0, "final_reward": 0.5, "nfe_used": 16, "truncated": False, "hit": True}
        results = tmp_path / "results.jsonl"
        results.write_text(json.dumps(good) + "\n" + json.dumps({**good, "seed": 1, key: value}) + "\n")
        assert main(["report", str(results)]) == 2
        assert f"results line 2 key '{key}'" in capsys.readouterr().err

    def test_report_rejects_overrides(self, tmp_path):
        config, out = write_config(tmp_path, replicates=1)
        assert main(["run", "--config", config]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["report", out, "seed=3"])
        assert excinfo.value.code == 2


def _assert_matches(actual, expected, exact):
    # exact and permutation p-values are count ratios, computed as scipy computes them
    if exact:
        assert actual == expected
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0)


def _average_ranks(values):
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group], counts


def _wilcoxon_normal_reference(diff):
    """The normal approximation's p-value in numpy arithmetic, which the report's equals bit for bit."""
    n = diff.size
    ranks, counts = _average_ranks(np.abs(diff))
    r_plus = ranks[diff > 0].sum() + ranks[diff == 0].sum() / 2
    variance = (n * (n + 1.0) * (2.0 * n + 1.0) - np.sum(counts**3 - counts) / 2) / 24
    return 0.5 * math.erfc((r_plus - n * (n + 1.0) * 0.25) / math.sqrt(variance) / math.sqrt(2.0))


def _mann_whitney_normal_reference(x, y):
    """The normal approximation's p-value in numpy arithmetic, which the report's equals bit for bit."""
    n1, n2 = x.size, y.size
    n = n1 + n2
    ranks, counts = _average_ranks(np.concatenate([x, y]))
    u = ranks[:n1].sum() - n1 * (n1 + 1) / 2
    scale = math.sqrt(n1 * n2 / 12 * ((n + 1) - np.sum(counts**3 - counts) / (n * (n - 1))))
    return 0.5 * math.erfc((u - n1 * n2 / 2 - 0.5) / scale / math.sqrt(2.0))


class TestRankTestsMatchScipy:
    """Each report p-value equals scipy 1.17's default on the branch scipy takes.

    Bit for bit on the exact and permutation branches, within rtol 1e-12 on the
    asymptotic ones (and there bit for bit the same formulas in numpy), for
    both directions of every pair.
    """

    # Wilcoxon (seeds shared): exact up to 50 pairs without ties or zeros,
    # every sign flip up to 13, else asymptotic; 'zero' adds one zero
    # difference to distinct ones, 'zeros' several to tied ones.
    @pytest.mark.parametrize("n, kind", [
        *[(n, kind) for n in (5, 8) for kind in ("distinct", "ties", "zero", "zeros")],
        (13, "distinct"), (13, "zeros"),
        *[(n, kind) for n in (14, 30, 50, 51, 80) for kind in ("distinct", "ties", "zero", "zeros")],
    ])
    def test_paired_wilcoxon(self, n, kind):
        rng = np.random.default_rng(n)
        magnitudes = rng.standard_normal(n) if kind in ("distinct", "zero") else rng.integers(1, 4, n) * 0.25
        diff = magnitudes * rng.choice([-1.0, 1.0], n)
        diff[:{"zero": 1, "zeros": 3}.get(kind, 0)] = 0.0
        b = rng.integers(0, 8, n) / 8
        a = b + diff
        diff = a - b  # the differences report forms
        exact = n <= 13 or (n <= 50 and kind == "distinct")
        records = TestReportCommand._records("alpha", range(n), a) + TestReportCommand._records("beta", range(n), b)
        comparisons = summarize(records)["comparisons"]
        for pair, d in (("alpha>beta", diff), ("beta>alpha", -diff)):
            expected = float(stats.wilcoxon(d, zero_method="zsplit", alternative="greater").pvalue)
            _assert_matches(comparisons[pair], expected, exact)
            assert exact or comparisons[pair] == _wilcoxon_normal_reference(d)

    # Mann-Whitney (seeds disjoint): exact when either sample has at most 8
    # values and none tie, else asymptotic.
    @pytest.mark.parametrize("n1, n2", [(1, 6), (3, 5), (8, 8), (8, 40), (5, 300), (9, 9), (9, 30), (40, 25)])
    @pytest.mark.parametrize("kind", ["distinct", "ties"])
    def test_unpaired_mann_whitney(self, n1, n2, kind):
        rng = np.random.default_rng(100 * n1 + n2)
        x, y = (rng.standard_normal(size) if kind == "distinct" else rng.integers(0, 3, size) * 0.25
                for size in (n1, n2))
        exact = (n1 <= 8 or n2 <= 8) and kind == "distinct"
        records = TestReportCommand._records("alpha", range(n1), x) + TestReportCommand._records("beta", range(-n2, 0), y)
        comparisons = summarize(records)["comparisons"]
        for pair, first, second in (("alpha>beta", x, y), ("beta>alpha", y, x)):
            expected = float(stats.mannwhitneyu(first, second, alternative="greater").pvalue)
            _assert_matches(comparisons[pair], expected, exact)
            assert exact or comparisons[pair] == _mann_whitney_normal_reference(first, second)


class TestMannWhitneyCounts:
    """The exact U counts are Python integers: exact past 2**53, and in time linear in the tail."""

    def test_count_vector_past_2_53_sums_exactly_to_the_binomial(self):
        # a recursion whose float sums pass 2**53 here (j · ways[j] does) loses the last bits of most counts
        ways = _u_counts(8, 600, 8 * 600)
        assert math.comb(608, 8) > 2**53
        assert sum(ways) == math.comb(608, 8)
        assert ways == ways[::-1]  # U and n1·n2 − U are equally likely

    @pytest.mark.parametrize("small, large", [(1, 1), (1, 6), (2, 3), (3, 3), (3, 7), (4, 6), (5, 5), (6, 8)])
    def test_counts_match_brute_force(self, small, large):
        # the i-th smallest of the small sample, at position p_i of the merged order, is above p_i − i others
        tally = Counter(sum(position - i for i, position in enumerate(chosen))
                        for chosen in itertools.combinations(range(small + large), small))
        expected = [tally[u] for u in range(small * large + 1)]
        assert _u_counts(small, large, small * large) == expected
        top = small * large // 3
        assert _u_counts(small, large, top) == expected[:top + 1]

    def test_eight_against_twenty_thousand_is_fast_and_matches_scipy(self):
        rng = np.random.default_rng(21)
        x, y = rng.standard_normal(8) + 0.2, rng.standard_normal(20000)
        start = time.perf_counter()
        p = mann_whitney_greater(x.tolist(), y.tolist())
        assert time.perf_counter() - start < 1.0
        assert 0.05 < p < 0.95  # a tail that ends far from either end of the U range
        expected = float(stats.mannwhitneyu(x, y, alternative="greater").pvalue)
        np.testing.assert_allclose(p, expected, rtol=1e-12, atol=0)


class TestReportStatistics:
    """The per-method statistics, from exactly rounded sums, against numpy's."""

    @pytest.mark.parametrize("seed", range(8))
    def test_mean_and_stddev_are_within_two_ulp_of_numpy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 500))
        rewards = rng.uniform(0.0, 1.0, n) ** rng.uniform(0.2, 5.0) * 10.0 ** rng.integers(-3, 4)
        row = summarize(TestReportCommand._records("alpha", range(n), rewards.tolist()))["methods"]["alpha"]
        for actual, expected in ((row["mean_reward"], np.mean(rewards)),
                                 (row["stddev_reward"], np.std(rewards, ddof=1))):
            assert abs(actual - float(expected)) <= 2 * math.ulp(float(expected))

    @pytest.mark.parametrize("seed", range(8))
    def test_hit_rate_and_mean_nfe_equal_numpy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 500))
        nfe = rng.integers(0, 10**6, n)
        hits = [None if draw < 0.2 else bool(draw < 0.6) for draw in rng.random(n)]
        records = [{"method": "alpha", "seed": s, "final_reward": 0.5, "nfe_used": int(f), "truncated": False,
                    "hit": h} for s, f, h in zip(range(n), nfe, hits)]
        row = summarize(records)["methods"]["alpha"]
        assert row["mean_nfe"] == float(np.mean(nfe))
        known = [h for h in hits if h is not None]
        assert row["hit_rate"] == (float(np.mean(known)) if known else None)

    def test_a_hundred_thousand_records_are_reported_in_under_two_seconds(self, tmp_path):
        rng = np.random.default_rng(3)
        results = tmp_path / "results.jsonl"
        with open(results, "w", encoding="utf-8") as sink:
            for method in ("bon", "rts"):
                for seed, reward in enumerate(rng.random(50_000).tolist()):
                    sink.write(json.dumps({"method": method, "seed": seed, "final_reward": reward, "nfe_used": 238,
                                           "truncated": False, "hit": reward > 0.5,
                                           "config": "0123456789abcdef"}) + "\n")
        summary_path = tmp_path / "summary.json"
        start = time.perf_counter()
        assert main(["report", str(results), "--out", str(summary_path)]) == 0
        assert time.perf_counter() - start < 2.0
        summary = json.loads(summary_path.read_text())
        assert summary["methods"]["rts"]["n"] == 50_000
        assert set(summary["comparisons"]) == {"bon>rts", "rts>bon"}


# Cython-compiled extensions (numpy.random's) register these runtime modules
_CYTHON_RUNTIME = re.compile(r"cython_runtime|_cython_[0-9_]+")


def _modules_loaded_by(statements: str) -> set[str]:
    """The modules that ``statements`` load in a fresh interpreter, beyond those that site loads before them."""
    # a fresh interpreter, so what earlier tests imported does not count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statements}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    loaded = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True,
                            check=True).stdout.splitlines()[-1].split()
    return set(loaded)


def _package_env() -> dict:
    package_root = str(Path(rts.cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def _foreign_modules(statements: str) -> list[str]:
    """Top-level modules outside the stdlib, numpy and rts that ``statements`` load in a fresh interpreter."""
    loaded = {name.partition(".")[0] for name in _modules_loaded_by(statements)}
    assert "rts" in loaded
    return sorted(
        name for name in loaded
        if name not in sys.stdlib_module_names and name not in ("numpy", "rts")
        and name != "__mp_main__"  # multiprocessing's alias of __main__
        and not _CYTHON_RUNTIME.fullmatch(name)
    )


def _report_statements(results) -> str:
    """``python -m rts.cli report RESULTS`` as statements: rts.cli runs as __main__, as under -m."""
    return (
        "import runpy\n"
        f"sys.argv = ['rts', 'report', {str(results)!r}]\n"
        "try:\n"
        "    runpy.run_module('rts.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )


def _results_for_both_rank_tests(tmp_path) -> Path:
    # alpha and beta share seeds (Wilcoxon), gamma shares none (Mann-Whitney)
    results = tmp_path / "results.jsonl"
    records = (TestReportCommand._records("alpha", range(6), [0.9, 0.4, 0.75, 0.6, 0.8, 0.3])
               + TestReportCommand._records("beta", range(6), [0.5, 0.45, 0.2, 0.3, 0.1, 0.25])
               + TestReportCommand._records("gamma", range(100, 105), [0.5, 0.45, 0.2, 0.1, 0.35]))
    results.write_text("".join(json.dumps(r) + "\n" for r in records))
    return results


def test_importing_the_cli_loads_only_stdlib_numpy_and_rts():
    assert _foreign_modules("import rts.cli") == []


def test_report_loads_only_stdlib_numpy_and_rts(tmp_path):
    results = _results_for_both_rank_tests(tmp_path)
    statements = f"import rts.cli\nassert rts.cli.main(['report', {str(results)!r}]) == 0"
    assert _foreign_modules(statements) == []
    assert set(json.loads(Path(f"{results}.summary.json").read_text())["comparisons"]) == {
        f"{a}>{b}" for a in ("alpha", "beta", "gamma") for b in ("alpha", "beta", "gamma") if a != b}


# what only ``rts run`` and ``rts export-trajectory`` need
_SOLVER_MODULES = ("rts.core", "rts.pipeline", "rts.sim", "rts.search", "rts.sphere", "rts.surrogate",
                   "rts.keysteps", "numpy.random", "multiprocessing", "concurrent.futures")


def test_report_loads_neither_the_solver_nor_the_cli_a_second_time(tmp_path):
    results = _results_for_both_rank_tests(tmp_path)
    loaded = _modules_loaded_by(_report_statements(results))
    assert {"rts.report", "rts.ranktests"} <= loaded
    assert sorted(loaded.intersection(_SOLVER_MODULES)) == []
    assert sorted(name for name in loaded if name.partition(".")[0] == "numpy") == []
    # under -m, rts.cli is __main__; importing it would compile and run the module again
    assert "rts.cli" not in loaded
    assert len(json.loads(Path(f"{results}.summary.json").read_text())["comparisons"]) == 6


@pytest.mark.skipif(rts.cli.START_METHOD != "fork", reason="spawned workers import the package afresh")
def test_forked_workers_import_nothing(tmp_path):
    # -X importtime lists every module a process imports, on stderr, which
    # forked workers share; a module a worker imported after the fork would
    # be listed once more for each worker
    config, out = write_config(tmp_path, method="rts", replicates=4)
    argv = [sys.executable, "-X", "importtime", "-m", "rts.cli", "run", "--config", config, "--workers", "2"]
    done = subprocess.run(argv, env=_package_env(), capture_output=True, text=True, check=True)
    listed = Counter(line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                     if line.startswith("import time:"))
    ours = {name: count for name, count in listed.items() if name == "rts" or name.startswith("rts.")}
    assert set(ours) >= {"rts", "rts.errors", "rts.core", "rts.schema", "rts.pipeline", "rts.sim", "rts.search",
                         "rts.sphere", "rts.surrogate", "rts.keysteps"}
    assert set(ours.values()) == {1}
    assert listed["numpy.random"] == 1
    assert len(read_records(out)) == 4


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the thread count from /proc")
@pytest.mark.parametrize("setting", [None, "2"], ids=["unset", "set by the user"])
def test_the_entry_point_runs_blas_on_one_thread_unless_told_otherwise(tmp_path, setting):
    # a fresh interpreter: OpenBLAS starts its threads when numpy loads, which main does here
    config, _ = write_config(tmp_path)
    statements = (
        "import os, re\n"
        "from rts.cli import main\n"
        f"assert main(['export-trajectory', '--config', {config!r}, '--out', {str(tmp_path / 't.csv')!r}]) == 0\n"
        "status = open('/proc/self/status').read()\n"
        "print(re.search(r'^Threads:\\s*(\\d+)', status, re.M).group(1), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    env = {key: value for key, value in _package_env().items() if key != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    done = subprocess.run([sys.executable, "-c", statements], env=env, capture_output=True, text=True, check=True)
    threads, kept = done.stdout.splitlines()[-1].split()
    if setting is None:
        assert (threads, kept) == ("1", "1")
    else:
        assert kept == setting


class TestExportTrajectory:
    def _export(self, tmp_path, *overrides, **extra):
        config, _ = write_config(tmp_path, **extra)
        out = tmp_path / "trajectory.csv"
        code = main(["export-trajectory", "--config", config, "--out", str(out), *overrides])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as handle:
            return list(csv.DictReader(handle))

    def test_row_count_and_schema(self, tmp_path):
        rows = self._export(tmp_path)
        assert len(rows) == 9  # steps + 1 points
        assert list(rows[0]) == ["step", "t", "p1", "p2", "p3", "curvature", "selected"]
        assert float(rows[0]["t"]) == 1.0
        assert float(rows[-1]["t"]) == 0.0

    def test_selected_count_matches_k_and_skips_endpoints(self, tmp_path):
        rows = self._export(tmp_path)
        selected = [int(r["selected"]) for r in rows]
        assert sum(selected) == 6
        assert selected[0] == 0 and selected[-1] == 0

    def test_endpoint_curvature_is_zero(self, tmp_path):
        rows = self._export(tmp_path)
        assert float(rows[0]["curvature"]) == 0.0
        assert float(rows[-1]["curvature"]) == 0.0
        interior = [float(r["curvature"]) for r in rows[1:-1]]
        assert all(c >= 0.0 for c in interior)

    def test_export_is_deterministic(self, tmp_path):
        first = self._export(tmp_path)
        second = self._export(tmp_path)
        assert first == second

    def test_out_naming_the_config_exits_2_and_leaves_it_unchanged(self, tmp_path, capsys):
        config, _ = write_config(tmp_path)
        before = Path(config).read_bytes()
        assert main(["export-trajectory", "--config", config, "--out", config]) == 2
        assert "would overwrite the config" in capsys.readouterr().err
        assert Path(config).read_bytes() == before
        assert main(["export-trajectory", "--config", config, "--out", str(tmp_path / "t.csv")]) == 0

    def test_too_few_steps_exits_2_at_solver_steps(self, tmp_path, capsys):
        config, _ = write_config(tmp_path, solver={"mode": "sde", "steps": 2, "churn": 0.4})
        out = tmp_path / "trajectory.csv"
        assert main(["export-trajectory", "--config", config, "--out", str(out)]) == 2
        assert "solver.steps" in capsys.readouterr().err
        assert not out.exists()

    def test_overrides_apply_to_export(self, tmp_path):
        rows = self._export(tmp_path, "solver.steps=12", "k_keysteps=2")
        assert len(rows) == 13
        assert sum(int(r["selected"]) for r in rows) == 2


_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device that is always full")


def _cli(*args) -> subprocess.CompletedProcess:
    """``python -m rts.cli ARGS`` in a fresh interpreter, so that stderr shows whatever escapes ``main``."""
    return subprocess.run([sys.executable, "-m", "rts.cli", *args], env=_package_env(), capture_output=True,
                          text=True)


class TestOutputWrites:
    """Every output file goes through ``rts.schema._write``: a failing open, write or close exits 3."""

    @_DEV_FULL
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_run_into_a_full_disk_exits_3_without_a_traceback(self, tmp_path, workers):
        config, _ = write_config(tmp_path, replicates=4)
        done = _cli("run", "--config", config, "--out", "/dev/full", "--workers", workers)
        assert done.returncode == 3
        assert "runtime error: cannot write output '/dev/full'" in done.stderr and "Traceback" not in done.stderr

    @_DEV_FULL
    def test_export_into_a_full_disk_exits_3_without_a_traceback(self, tmp_path):
        config, _ = write_config(tmp_path)
        done = _cli("export-trajectory", "--config", config, "--out", "/dev/full")
        assert done.returncode == 3
        assert "runtime error: cannot write export '/dev/full'" in done.stderr and "Traceback" not in done.stderr

    @_DEV_FULL
    def test_report_into_a_full_disk_exits_3_without_a_traceback(self, tmp_path):
        results = _results_for_both_rank_tests(tmp_path)
        done = _cli("report", str(results), "--out", "/dev/full")
        assert done.returncode == 3
        assert "runtime error: cannot write summary '/dev/full'" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize("workers", [1, 2])
    def test_output_that_cannot_be_opened_exits_3_before_any_block_runs(self, tmp_path, monkeypatch, capsys,
                                                                        workers):
        def no_block(*args, **kwargs):
            raise AssertionError("a block was started")

        monkeypatch.setattr(rts.cli, "run_block", no_block)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_block)
        config, _ = write_config(tmp_path, replicates=4, workers=workers)
        out = tmp_path / "absent" / "results.jsonl"
        assert main(["run", "--config", config, "--out", str(out)]) == 3
        assert f"runtime error: cannot write output '{out}'" in capsys.readouterr().err

    @_DEV_FULL
    def test_a_close_that_fails_at_the_second_block_keeps_the_first(self, tmp_path, monkeypatch, capsys):
        # the open before any block, the first block's, then the second block's, whose close flushes into a
        # full device
        config, out = write_config(tmp_path, replicates=rts.cli.MAX_BLOCK + 2, workers=1)
        whole = tmp_path / "whole.jsonl"
        assert main(["run", "--config", config, "--out", str(whole)]) == 0
        opened = []

        def open_full_third(path, *args, **kwargs):
            opened.append(path)
            return open("/dev/full" if len(opened) == 3 else path, *args, **kwargs)

        monkeypatch.setattr(rts.schema, "open", open_full_third, raising=False)
        assert main(["run", "--config", config]) == 3
        assert f"runtime error: cannot write output '{out}'" in capsys.readouterr().err
        assert opened == [out] * 3
        kept = read_records(out)
        assert [record["seed"] for record in kept] == list(range(rts.cli.MAX_BLOCK))
        TestRunCommand.assert_kept_records_match(kept, read_records(whole))


# JSON values of the wrong type or out of range for any key: scalars with
# NaN, ±Infinity and integers past the range of a float or a u64, flat lists
# and ragged nested lists of them.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=2), st.integers(-3, 3), st.floats(),
    st.sampled_from([2**64, 10**400, -(10**400), 1e308]),
)
_JUNK = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3), st.lists(st.lists(_SCALARS, max_size=3), max_size=3))
_NOT_INT = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.floats(), st.lists(_SCALARS, max_size=2))
_NUMBERS = st.lists(st.one_of(st.floats(-3.0, 3.0), _SCALARS), max_size=5)
# step and neighbour counts far past any schedule; their arrays cannot be allocated
_ABSURD = st.integers(10**11, 10**18)


def _small_count(high):
    """Values for a key that sizes the work of a run (rounds, budget,
    replicates, workers): a large valid one is a legal request for a long
    run, or for that many worker processes, not a malformed config."""
    return st.one_of(_NOT_INT, st.integers(-2, high))


_OVERRIDES = {
    "dimension": st.one_of(_JUNK, st.integers(-1, 4)),
    "solver.mode": st.one_of(_JUNK, st.sampled_from(["ode", "sde"])),
    "solver.steps": st.one_of(_NOT_INT, st.integers(-1, 4), _ABSURD),
    "solver.churn": st.one_of(_JUNK, st.floats(0.0, 2.0)),
    "mixture.weights": st.one_of(_JUNK, _NUMBERS),
    "mixture.means": st.one_of(_JUNK, st.lists(_NUMBERS, max_size=5)),
    "mixture.stddevs": st.one_of(_JUNK, _NUMBERS),
    "reward.kind": st.one_of(_JUNK, st.sampled_from(["quadratic", "mode_preference"])),
    "reward.target": st.one_of(_JUNK, _NUMBERS),
    "reward.preferred": st.one_of(_JUNK, st.integers(-2, 4)),
    "reward.sharpness": _JUNK,
    "method": st.one_of(_JUNK, st.sampled_from(["rts", "bon", "zo", "free"])),
    "seed": st.one_of(_JUNK, st.integers(-1, 2**64)),
    "replicates": _small_count(2),
    "workers": _small_count(1),
    "budget_nfe": _small_count(200),
    "search_init.n_neighbors": st.one_of(_NOT_INT, st.integers(-1, 3), _ABSURD),
    "search_init.rounds": _small_count(2),
    "search_init.tau": _JUNK,
    "search_inter.alpha": _JUNK,
    "k_keysteps": st.one_of(_JUNK, st.integers(-1, 10**18)),
    "eval_steps_init": st.one_of(_NOT_INT, st.integers(-1, 4), _ABSURD),
    "zo_step_tau": _JUNK,
    "search_init.typo": _JUNK,
}


def _leaf_paths(schema, prefix=""):
    for key, (kind, _) in schema.items():
        if isinstance(kind, rts.schema._Tagged):
            for variant in kind.values():
                yield from _leaf_paths(variant, f"{prefix}{key}.")
        elif isinstance(kind, dict):
            yield from _leaf_paths(kind, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_config_key_is_fuzzed():
    # out is left out: random strings there would write files into the working directory
    fuzzed = set(_OVERRIDES) | {"out"}
    # both search phases share one section schema, so either one's key covers both
    for key in list(fuzzed):
        for a, b in (("search_init.", "search_inter."), ("search_inter.", "search_init.")):
            if key.startswith(a):
                fuzzed.add(b + key[len(a):])
    paths = set(_leaf_paths(rts.cli.config_schema()))
    assert len(paths) == 28
    assert sorted(paths - fuzzed) == []


@st.composite
def _override_args(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_OVERRIDES)), min_size=1, max_size=3, unique=True))
    return [f"{key}={json.dumps(draw(_OVERRIDES[key]))}" for key in keys]


class TestConfigProperty:
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(args=_override_args())
    def test_any_override_runs_or_fails_typed(self, tmp_path, capsys, args):
        """Random overrides of a small rts config end in success (0), a config
        error (2) or a runtime error (3), never an untyped exception."""
        config, out = write_config(
            tmp_path, method="rts", replicates=1, budget_nfe=60, solver={"mode": "sde", "steps": 3, "churn": 0.4},
            search_init={"n_neighbors": 2, "rounds": 1}, search_inter={"n_neighbors": 2, "rounds": 1},
        )
        code = main(["run", "--config", config, *args])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        if code == 2:
            assert err.startswith("config error")
