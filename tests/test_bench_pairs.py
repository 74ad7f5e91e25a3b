"""Tests for the benchmark pairing script, tools/bench_pairs.py, on synthetic runs."""

import importlib.util
import json
import os

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
                       "metrics": {"seeds_per_s": 30.1}}

    def test_empty_output_is_an_error(self):
        with pytest.raises(ValueError):
            bench_pairs.parse_run("")
