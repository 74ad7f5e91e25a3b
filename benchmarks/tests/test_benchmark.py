"""Tests of the benchmark itself: statistics, host gauge, span accounting, names, smoke runs.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import benchstats  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# The benchmark contract's charsets for metric names and units.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert benchstats.tail_percentile(list(range(n))) == expected


def test_describe_reports_median_tail_and_count():
    text = benchstats.describe([float(i) for i in range(1, 201)], "ms")
    assert text.startswith("median 100.5 ms, p95 ")
    assert text.endswith("n=200")
    assert benchstats.describe([1.0, 3.0], "s") == "median 2 s, n=2"


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    trace = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["d", 5.0, 9.0, 0, 0, None],
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 4.0]
    assert spans.by_name(trace)["a"] == (1, 3.0)


def test_phase_seconds_follow_spans_under_run_rts():
    trace = [
        ["pipeline.run_rts", 0.0, 10.0, -1, 0, None],
        ["search.run_search", 0.0, 2.0, 0, 0, "init"],
        ["sim.denoise", 2.0, 3.0, 0, 0, "sample"],
        ["keysteps.select_key_steps", 3.0, 3.5, 0, 0, None],
        ["sim.heun_step", 3.5, 4.0, 0, 0, None],
        ["search.run_search", 4.0, 8.0, 0, 0, "inter"],
        ["sim.denoise", 8.0, 9.0, 0, 0, "replay"],
        ["sim.denoise", 0.5, 1.0, 1, 0, "sample"],  # inside the init search, not a phase
    ]
    assert spans.phase_seconds(trace) == {
        "init_search": 2.0, "record": 1.0, "inter_search": 5.0, "final": 1.0,
    }


def test_host_gauge_scales_each_piece_by_its_neighbouring_probes():
    import hostspeed

    gauge = hostspeed.Gauge("d2")
    ref = hostspeed.REFERENCE_S["d2"]
    gauge.probes = [ref, 1.5 * ref, 2.0 * ref]
    assert gauge.factor(0) == pytest.approx(1.25)
    assert gauge.factor(1) == pytest.approx(1.75)
    assert gauge.median_factor() == pytest.approx(1.5)
    assert hostspeed.loop("d1024") == hostspeed.loop("d1024")  # fixed work, same every time


def test_host_sampler_probes_while_other_work_runs():
    import time

    import hostspeed

    with hostspeed.Sampler() as sampler:
        time.sleep(3 * hostspeed.SAMPLE_PERIOD_S)
    assert len(sampler.samples) >= 2
    assert 0.5 <= sampler.available <= 1.0
    assert sampler.factor() > 0.0
    assert hostspeed.stolen_s() >= 0.0


def test_tracer_wraps_every_binding_and_restores_them():
    import rts
    from rts import core, pipeline, search, sim

    originals = (rts.run_rts, pipeline.run_search, search.run_search, sim.sample_gaussian,
                 core.sample_gaussian)
    tracer = spans.Tracer()
    with tracer.installed():
        assert pipeline.run_search.__wrapped__ is search.run_search.__wrapped__ is originals[2]
        assert rts.run_rts.__wrapped__ is originals[0]
        assert sim.sample_gaussian.__wrapped__ is core.sample_gaussian.__wrapped__
        model = sim.MixtureModel(weights=[0.5, 0.5], means=[[1.0, 1.0], [-1.0, -1.0]], stddevs=[0.5, 0.5])
        spec = sim.SolverSpec(mode="sde", steps=4, churn=0.4)
        reward = sim.ModePreferenceReward(model=model, preferred=0, sharpness=1.0)
        cfg = pipeline.RtsConfig(search_init=search.SearchConfig(n_neighbors=2, rounds=2),
                                 search_inter=search.SearchConfig(n_neighbors=2, rounds=2), k_keysteps=1)
        tracer.run_id = 7
        result = rts.run_rts(model, spec, reward, cfg, core.RngStream(7))
    assert (rts.run_rts, pipeline.run_search, search.run_search, sim.sample_gaussian,
            core.sample_gaussian) == originals
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"pipeline.run_rts", "search.run_search", "sim.denoise", "sim.heun_step"} <= names
    assert {span[spans.RUN] for span in tracer.spans} == {7}
    assert tracer.rts_results == [result]
    metrics = spans.layer_metrics(tracer, seeds=1)
    ledger = {phase: metrics[f"pipeline.nfe.{phase}"] for phase in spans.PHASES}
    assert ledger == {phase: result.nfe_breakdown[phase] for phase in spans.PHASES}
    evaluations = tracer.counts["evaluations.init"] + tracer.counts["evaluations.inter"]
    assert metrics["search.evaluations"] == evaluations > 0
    top = [span for span in tracer.spans if span[spans.PARENT] < 0]
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(sum(s[spans.END] - s[spans.START] for s in top))


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_follow_the_charset():
    spec = _benchmark_json()
    entries = spec["end_to_end"] + spec["per_layer"] + [{"name": w["name"]} for w in spec["workloads"]]
    for entry in entries:
        assert NAME_RE.match(entry["name"]), entry["name"]
        if "unit" in entry:
            assert UNIT_RE.match(entry["unit"]), entry["unit"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert not NAME_RE.match("bad name") and not NAME_RE.match("_lead")


def test_benchmark_json_matches_what_the_runner_prints():
    spec = _benchmark_json()
    assert {e["name"]: (e["unit"], e["better"]) for e in spec["end_to_end"]} == run.END_TO_END
    assert [e["name"] for e in spec["per_layer"]] == list(run.LAYER_METRICS)
    assert all((e["unit"], e["better"]) == (run.layer_unit(e["name"]), run.layer_better(e["name"]))
               for e in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


def _run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--quick"]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["testbed-d2", "highdim-d1024", "cli-sweep"])
def test_smoke_run_prints_every_metric(workload, trace):
    code, lines = _run_benchmark(workload, trace)
    assert code == 0, lines[-5:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {e["name"]: e["unit"] for e in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert any(line.startswith("error_rate ") for line in lines)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = _run_benchmark("testbed-d2", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
