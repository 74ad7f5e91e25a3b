"""Tests for the command-line front end: configs, runs, reports, exports."""

import csv
import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

import rts.cli
from rts import ConfigError, RtsError
from rts.cli import (
    WORKER_ENV,
    apply_overrides,
    main,
    parse_override,
    summarize,
    validate_config,
)

FOUR_CORNERS = {
    "weights": [0.1, 0.3, 0.3, 0.3],
    "means": [[1.5, 1.5], [-1.5, 1.5], [-1.5, -1.5], [1.5, -1.5]],
    "stddevs": [0.6, 0.6, 0.6, 0.6],
}


_RUN_BLOCK = rts.cli.run_block


def _run_block_failing_at(failing: int, cfg: dict, indices: range, overrides: dict) -> list[dict]:
    """``rts.cli.run_block``, failing for the block that holds replicate ``failing``.

    A module-level function, so that a worker process, forked or spawned,
    unpickles it by name.
    """
    if failing in indices:
        raise RtsError(f"replicate {failing} failed")
    return _RUN_BLOCK(cfg, indices, overrides)


def base_config(out, **extra):
    cfg = {
        "dimension": 2,
        "solver": {"mode": "sde", "steps": 8, "churn": 0.4},
        "mixture": dict(FOUR_CORNERS),
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
        assert cfg["search_init"] == {"n_neighbors": 3, "rounds": 4, "tau": 0.9, "alpha": 0.7, "track_global_best": True}
        assert cfg["search_inter"] == {**cfg["search_init"], "rounds": 2}
        assert cfg["k_keysteps"] == 6
        assert cfg["eval_steps_inter"] == 1
        assert cfg["resample_inter_fresh"] is True
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

    def test_last_replicate_seed_must_fit_u64(self):
        validate_config(base_config("r.jsonl", seed=2**64 - 2, replicates=2))
        with pytest.raises(ConfigError, match="replicates"):
            validate_config(base_config("r.jsonl", seed=2**64 - 2, replicates=3))


class TestOverrides:
    def test_json_values_parse(self):
        assert parse_override("search_init.alpha=0.65") == ("search_init.alpha", 0.65)
        assert parse_override("replicates=3") == ("replicates", 3)
        assert parse_override("resample_inter_fresh=false") == ("resample_inter_fresh", False)

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

    def test_worker_env_cap_must_be_positive_integer(self, tmp_path, monkeypatch, capsys):
        config, _ = write_config(tmp_path)
        monkeypatch.setenv(WORKER_ENV, "zero")
        assert main(["run", "--config", config]) == 2
        assert WORKER_ENV in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "2.5", "true", "[2]"])
    def test_worker_env_cap_is_parsed_and_checked_like_an_override(self, tmp_path, monkeypatch, capsys, value):
        config, out = write_config(tmp_path)
        monkeypatch.setenv(WORKER_ENV, value)
        assert main(["run", "--config", config]) == 2
        assert f"config error at '{WORKER_ENV}'" in capsys.readouterr().err
        assert not Path(out).exists()

    def test_unknown_config_key_exits_2_with_dotted_path(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        raw = base_config(out)
        raw["solver"]["typo"] = 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config)]) == 2
        assert "solver.typo" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert main(["run", "--config", str(config)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

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
        # two workers run the blocks [0, 2) and [2, 4); the second fails in its worker
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

    @pytest.mark.parametrize("tau", ["1.5", "-0.1"])
    def test_zo_step_tau_outside_unit_interval_exits_2_before_the_output_is_opened(self, tmp_path, capsys, tau):
        config, out = write_config(tmp_path)
        assert main(["run", "--config", config, "--method", "zo", "--budget", "64", "zo_step_tau=" + tau]) == 2
        assert "config error at 'zo_step_tau': must lie in [0, 1]" in capsys.readouterr().err
        assert not Path(out).exists()

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

    def test_rerun_with_other_run_keys_is_a_duplicate(self, tmp_path, monkeypatch, capsys):
        config, out = write_config(tmp_path, replicates=2)
        assert main(["run", "--config", config]) == 0
        # the echoed workers differ; the cap keeps the rerun in this process
        monkeypatch.setenv(WORKER_ENV, "1")
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
        spelled = ["search_init.alpha=0.7", "search_inter.track_global_best=true"]
        assert main(["run", "--config", config, *spelled]) == 0
        records = read_records(out)
        assert records[2]["overrides"] == {"search_init.alpha": 0.7, "search_inter.track_global_best": True}
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
            ("nfe_used", None),
            ("nfe_used", False),
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


class TestRankTestsMatchScipy:
    """Each report p-value equals scipy 1.17's default on the branch scipy takes.

    Bit for bit on the exact and permutation branches, within rtol 1e-12 on the
    asymptotic ones, for both directions of every pair.
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


# Cython-compiled extensions (numpy.random's) register these runtime modules
_CYTHON_RUNTIME = re.compile(r"cython_runtime|_cython_[0-9_]+")


def _foreign_modules(statements: str) -> list[str]:
    """Top-level modules outside the stdlib, numpy and rts that ``statements`` load in a fresh interpreter."""
    # a fresh interpreter, so what earlier tests imported does not count;
    # the diff ignores whatever site loads before the statements
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statements}\n"
        "print(' '.join(sorted({name.partition('.')[0] for name in set(sys.modules) - before})))\n"
    )
    package_root = str(Path(rts.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            check=True).stdout.splitlines()[-1].split()
    assert "rts" in loaded
    return [
        name for name in loaded
        if name not in sys.stdlib_module_names and name not in ("numpy", "rts")
        and name != "__mp_main__"  # multiprocessing's alias of __main__
        and not _CYTHON_RUNTIME.fullmatch(name)
    ]


def test_importing_the_cli_loads_only_stdlib_numpy_and_rts():
    assert _foreign_modules("import rts.cli") == []


def test_report_loads_only_stdlib_numpy_and_rts(tmp_path):
    # alpha and beta share seeds (Wilcoxon), gamma shares none (Mann-Whitney)
    results = tmp_path / "results.jsonl"
    records = (TestReportCommand._records("alpha", range(6), [0.9, 0.4, 0.75, 0.6, 0.8, 0.3])
               + TestReportCommand._records("beta", range(6), [0.5, 0.45, 0.2, 0.3, 0.1, 0.25])
               + TestReportCommand._records("gamma", range(100, 105), [0.5, 0.45, 0.2, 0.1, 0.35]))
    results.write_text("".join(json.dumps(r) + "\n" for r in records))
    statements = f"import rts.cli\nassert rts.cli.main(['report', {str(results)!r}]) == 0"
    assert _foreign_modules(statements) == []
    assert set(json.loads(Path(f"{results}.summary.json").read_text())["comparisons"]) == {
        f"{a}>{b}" for a in ("alpha", "beta", "gamma") for b in ("alpha", "beta", "gamma") if a != b}


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
    "search_inter.track_global_best": _JUNK,
    "k_keysteps": st.one_of(_JUNK, st.integers(-1, 10**18)),
    "eval_steps_init": st.one_of(_NOT_INT, st.integers(-1, 4), _ABSURD),
    "eval_steps_inter": st.one_of(_JUNK, st.integers(-1, 10**18)),
    "resample_inter_fresh": _JUNK,
    "zo_step_tau": _JUNK,
    "search_init.typo": _JUNK,
}


def _leaf_paths(schema, prefix=""):
    for key, (kind, _) in schema.items():
        if isinstance(kind, rts.cli._Tagged):
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
    paths = set(_leaf_paths(rts.cli.CONFIG_SCHEMA))
    assert len(paths) == 32
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
