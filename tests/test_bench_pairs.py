"""Tests for the benchmark pairing script, tools/bench_pairs.py, on synthetic runs."""

import importlib.util
import json
import os
import subprocess

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def runs(parent, change, extra=None):
    """Alternating pair records with one metric, as the script writes them."""
    records = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        order = [("parent", p), ("change", c)] if pair % 2 == 0 else [("change", c), ("parent", p)]
        for side, value in order:
            records.append({"pair": pair, "side": side, "metrics": {"seeds_per_s": value, **(extra or {})}})
    return records


class TestQuartiles:
    @pytest.mark.parametrize("values", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0, 3.0], list(np.linspace(0, 1, 10) ** 2)])
    def test_match_numpy_percentiles(self, values):
        got = bench_pairs.quartiles(values)
        expected = np.percentile(values, [25, 50, 75])
        assert [got["q1"], got["median"], got["q3"]] == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestSummarize:
    def test_counts_and_ratio(self):
        summary = bench_pairs.summarize(runs([10.0, 12.0, 11.0, 9.0, 10.0], [11.0, 13.0, 10.0, 12.0, 10.0]))
        entry = summary["seeds_per_s"]
        assert entry["pairs"] == 5
        assert entry["change_above_parent"] == 3
        assert entry["change_below_parent"] == 1  # the tie in the last pair counts for neither
        assert entry["parent"] == {"q1": 10.0, "median": 10.0, "q3": 11.0}
        assert entry["change"] == {"q1": 10.0, "median": 11.0, "q3": 12.0}
        assert entry["ratio_of_medians"] == pytest.approx(1.1)

    def test_a_pair_with_one_side_is_left_out(self):
        records = runs([10.0, 12.0], [20.0, 24.0])
        records.append({"pair": 2, "side": "parent", "metrics": {"seeds_per_s": 1.0}})
        entry = bench_pairs.summarize(records)["seeds_per_s"]
        assert entry["pairs"] == 2
        assert entry["ratio_of_medians"] == pytest.approx(2.0)

    def test_every_metric_is_summarized(self):
        summary = bench_pairs.summarize(runs([1.0], [2.0], extra={"peak_rss_mb": 40.0}))
        assert set(summary) == {"seeds_per_s", "peak_rss_mb"}
        assert summary["peak_rss_mb"]["ratio_of_medians"] == 1.0

    def test_reproduces_a_committed_summary(self):
        with open(os.path.join(ROOT, "BENCH_16.json")) as handle:
            record = json.load(handle)
        for workload, pairs in record["pairs"].items():
            summary = bench_pairs.summarize(pairs)
            assert summary.keys() == record["summary"][workload].keys()
            for name, entry in record["summary"][workload].items():
                for key, value in entry.items():
                    assert summary[name][key] == (pytest.approx(value, rel=1e-12) if not isinstance(value, dict)
                                                  else {q: pytest.approx(v, rel=1e-12) for q, v in value.items()})


class TestVerdict:
    END_TO_END = {"seeds_per_s": {"better": "higher", "bound": 0.25}, "peak_rss_mb": {"better": "lower", "bound": 0.1}}

    @pytest.mark.parametrize("parent, change, better, bound, worse_by, within", [
        (100.0, 80.0, "higher", 0.25, 0.2, True),
        (100.0, 70.0, "higher", 0.25, 0.3, False),
        (100.0, 130.0, "higher", 0.25, 0.0, True),
        (40.0, 46.0, "lower", 0.1, 0.15, False),
        (40.0, 42.0, "lower", 0.1, 0.05, True),
        (40.0, 30.0, "lower", 0.1, 0.0, True),
        (0.0, 0.0, "higher", 0.25, 0.0, True),
        (0.0, 1.0, "lower", 0.25, None, False),
    ])
    def test_shortfall_in_the_worse_direction(self, parent, change, better, bound, worse_by, within):
        got = bench_pairs.verdict(parent, change, better=better, bound=bound)
        assert got == {"worse_by": pytest.approx(worse_by, rel=1e-12) if worse_by else worse_by,
                       "within_bound": within}

    def test_summary_gives_each_declared_metric_its_verdict(self):
        records = runs([10.0, 12.0, 11.0], [8.0, 8.5, 9.0], extra={"peak_rss_mb": 40.0, "error_rate": 0.0})
        summary = bench_pairs.summarize(records, self.END_TO_END)
        assert summary["seeds_per_s"]["worse_by"] == pytest.approx(2.5 / 11)
        assert summary["seeds_per_s"]["within_bound"] is True
        assert (summary["peak_rss_mb"]["worse_by"], summary["peak_rss_mb"]["within_bound"]) == (0.0, True)
        assert "worse_by" not in summary["error_rate"]  # not an end-to-end metric

    def test_reads_the_declared_metrics_of_the_repository(self):
        declared = bench_pairs.end_to_end_metrics(ROOT)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            names = [metric["name"] for metric in json.load(handle)["end_to_end"]]
        assert list(declared) == names
        assert declared["seeds_per_s"] == {"better": "higher", "bound": 0.25}


def completed(side, outputs, attempted=10, failed=0, pair=0):
    """A completed run's record with its outputs line and counts."""
    return {"pair": pair, "side": side, "correct": True, "attempted": attempted, "failed": failed,
            "outputs": outputs, "metrics": {"seeds_per_s": 1.0}}


class TestOutputsVerdict:
    def test_one_line_everywhere_is_equal(self):
        runs = [completed("parent", "a"), completed("change", "a"), completed("change", "a", pair=1),
                completed("parent", "a", pair=1)]
        assert bench_pairs.outputs_verdict(runs) == {"parent": ["a"], "change": ["a"], "equal": True}

    def test_each_side_lists_its_distinct_lines_in_the_order_printed(self):
        runs = [completed("parent", "b"), completed("change", "c"), completed("change", "a", pair=1),
                completed("parent", "b", pair=1), completed("parent", "a", pair=2)]
        assert bench_pairs.outputs_verdict(runs) == {"parent": ["b", "a"], "change": ["c", "a"], "equal": False}

    def test_sides_that_differ_are_not_equal(self):
        runs = [completed("parent", "a"), completed("change", "b")]
        assert bench_pairs.outputs_verdict(runs)["equal"] is False

    def test_a_missing_line_or_no_completed_run_is_not_equal(self):
        assert bench_pairs.outputs_verdict([completed("parent", None), completed("change", None)])["equal"] is False
        failed = [{"pair": 0, "side": "parent", "returncode": 1, "stderr_tail": ""}]
        assert bench_pairs.outputs_verdict(failed) == {"parent": [], "change": [], "equal": False}

    def test_a_run_that_exited_non_zero_is_left_out(self):
        runs = [completed("parent", "a"), completed("change", "a"),
                {"pair": 1, "side": "change", "returncode": 1, "stderr_tail": ""}]
        assert bench_pairs.outputs_verdict(runs) == {"parent": ["a"], "change": ["a"], "equal": True}


class TestFailedShare:
    def test_sums_failed_over_attempted_per_side(self):
        runs = [completed("parent", "a", attempted=10, failed=1), completed("parent", "a", attempted=30, failed=0),
                completed("change", "a", attempted=20, failed=0), completed("change", "a", attempted=20, failed=0),
                {"pair": 2, "side": "change", "returncode": 1, "stderr_tail": ""}]
        assert bench_pairs.failed_share(runs) == {"parent": 0.025, "change": 0.0}

    def test_a_side_without_a_completed_run_has_no_share(self):
        runs = [completed("parent", "a", attempted=4, failed=4), {"pair": 0, "side": "change", "returncode": 1}]
        assert bench_pairs.failed_share(runs) == {"parent": 1.0, "change": None}


class TestParseRun:
    def test_reads_the_last_json_line_and_the_outputs_line(self):
        stdout = "\n".join([
            "seeds_per_s   30.1 1/s",
            'deterministic outputs: {"budget": 238, "digest": "5a6346a1b787e064"}',
            json.dumps({"correct": True, "attempted": 12, "failed": 0,
                        "metrics": {"seeds_per_s": {"value": 30.1, "unit": "1/s"}}}),
        ])
        run = bench_pairs.parse_run(stdout + "\n")
        assert run == {"correct": True, "attempted": 12, "failed": 0,
                       "outputs": '{"budget": 238, "digest": "5a6346a1b787e064"}',
                       "metrics": {"seeds_per_s": 30.1}, "details": {"seeds_per_s": ""}}

    def test_keeps_each_metric_lines_detail(self):
        # the benchmark's table: name, value, unit, better, detail
        stdout = "\n".join([
            "metric                                            value unit          better  detail",
            "seeds_per_s                                       107.6 1/s           higher  median over 21 sweeps of 100 "
            "seeds at reference host speed; raw 109.3/s at host factor 0.989; sweep wall median 0.914938 s, n=21",
            "peak_rss_mb                                       96.84 MB            lower   ",
            "error_rate                                            0 share         lower   0 failed of 3416 runs",
            json.dumps({"correct": True, "attempted": 3416, "failed": 0, "metrics": {
                name: {"value": value, "unit": unit}
                for name, value, unit in (("seeds_per_s", 107.6, "1/s"), ("peak_rss_mb", 96.84, "MB"),
                                          ("error_rate", 0.0, "share"))}}),
        ])
        assert bench_pairs.parse_run(stdout)["details"] == {
            "seeds_per_s": "median over 21 sweeps of 100 seeds at reference host speed; raw 109.3/s at host factor "
                           "0.989; sweep wall median 0.914938 s, n=21",
            "peak_rss_mb": "",
            "error_rate": "0 failed of 3416 runs",
        }

    def test_empty_output_is_an_error(self):
        with pytest.raises(ValueError):
            bench_pairs.parse_run("")


class TestFailedRun:
    def test_a_run_that_exits_non_zero_is_recorded_and_the_series_goes_on(self, tmp_path, monkeypatch):
        result = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                             "metrics": {"seeds_per_s": {"value": 10.0, "unit": "1/s"}}})
        calls = []

        def fake_run(argv, cwd, **kwargs):
            calls.append(cwd)
            if len(calls) == 2:  # pair 0, the change
                return subprocess.CompletedProcess(argv, 1, stdout="", stderr="x" * 5000 + "Traceback: boom\n")
            return subprocess.CompletedProcess(argv, 0, stdout=result + "\n", stderr="")

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        monkeypatch.chdir(tmp_path)  # the checkouts P and C, of which the change's declares the metrics
        (tmp_path / "C").mkdir()
        (tmp_path / "C" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
        out = tmp_path / "bench.json"
        argv = ["--parent", "P", "--change", "C", "--workload", "cli-sweep", "--pairs", "3", "--out", str(out),
                "--host", "test host", "--parent-commit", "0" * 40]
        assert bench_pairs.main(argv) == 0
        assert calls == ["P", "C", "C", "P", "P", "C"]
        runs = json.loads(out.read_text())["pairs"]["cli-sweep"]
        failed = runs[1]
        assert failed == {"pair": 0, "side": "change", "returncode": 1,
                          "stderr_tail": ("x" * 5000 + "Traceback: boom\n")[-bench_pairs.STDERR_TAIL:]}
        assert all("metrics" in run for i, run in enumerate(runs) if i != 1)
        entry = json.loads(out.read_text())["summary"]["cli-sweep"]["seeds_per_s"]
        assert entry["pairs"] == 2  # the pair with the failed run is left out
        record = json.loads(out.read_text())
        assert record["outputs"]["cli-sweep"] == {"parent": [None], "change": [None], "equal": False}
        assert record["failed_share"]["cli-sweep"] == {"parent": 0.0, "change": 0.0}


class TestSeries:
    def test_records_the_verdict_and_each_sides_bytecode_cache(self, tmp_path, monkeypatch):
        for side in ("parent", "change"):
            (tmp_path / side / "src" / "rts").mkdir(parents=True)
            (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(
                {"end_to_end": [{"name": "seeds_per_s", "better": "higher", "bound": 0.25}]}))
        (tmp_path / "change" / "src" / "rts" / "__pycache__").mkdir()
        rates = {str(tmp_path / "parent"): 10.0, str(tmp_path / "change"): 9.0}

        def fake_run(argv, cwd, **kwargs):
            result = {"correct": True, "attempted": 4, "failed": int(cwd.endswith("change")),
                      "metrics": {"seeds_per_s": {"value": rates[cwd], "unit": "1/s"}}}
            stdout = f'deterministic outputs: {{"digest": "d"}}\n{json.dumps(result)}\n'
            return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                                 "--workload", "testbed-d2", "--pairs", "2", "--out", str(out),
                                 "--host", "test host", "--parent-commit", "0" * 40]) == 0
        record = json.loads(out.read_text())
        assert record["pycache_at_start"] == {"testbed-d2": {"parent": False, "change": True}}
        entry = record["summary"]["testbed-d2"]["seeds_per_s"]
        assert entry["worse_by"] == pytest.approx(0.1)
        assert entry["within_bound"] is True
        line = '{"digest": "d"}'
        assert record["outputs"] == {"testbed-d2": {"parent": [line], "change": [line], "equal": True}}
        assert record["failed_share"] == {"testbed-d2": {"parent": 0.0, "change": 0.25}}
