"""Benchmark of the rts package: end-to-end metrics, or a traced per-layer ledger.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see benchmarks/README.md for why each exists):
    testbed-d2     criterion-7/8 testbed in-process, six method variants per seed
    highdim-d1024  d=1024, 64-component mixture in-process; rts, bon, free per seed
    cli-sweep      `rts run`, `rts run --method bon`, `rts report` as fresh
                   `python -m rts.cli` processes with two workers

Every measurement runs in a fresh interpreter with OPENBLAS_NUM_THREADS=1 and
OMP_NUM_THREADS=1. The report goes to stdout; its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The package is imported from ``src/`` of the checkout this
file sits in; without it the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import benchstats
import testbed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
SPANS_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("testbed-d2", "highdim-d1024", "cli-sweep")
CLI_REPLICATES = 100
CLI_WORKERS = 2
MIN_SWEEPS = 2
SETUP_REPEATS = {"testbed-d2": 11, "highdim-d1024": 11, "cli-sweep": 3}
# hostspeed loop whose cost profile matches each in-process workload
GAUGE_KIND = {"testbed-d2": "d2", "highdim-d1024": "d1024"}
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170.0
RSS_POLL_S = 0.02

# name -> (unit, better). error_rate is printed but not gated: it is 0 at a
# correct commit, so no relative bound applies; the ``failed`` and
# ``attempted`` fields of the JSON result carry it.
END_TO_END = {
    "seeds_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "mean_reward": ("reward", "higher"),
    "hit_rate": ("share", "higher"),
    "nfe_per_seed": ("NFE/seed", "lower"),
}
REPORT_ONLY = {"error_rate": ("share", "lower")}

_SPAN_CALLS = (
    "core.sample_gaussian", "sim.heun_step", "sim.one_step_clean_estimate", "sim.denoise",
    "sim.evaluate_reward", "sphere.random_spherical_sample", "sphere.guided_spherical_sample",
    "surrogate.estimate_gradient", "search.coarse_round", "search.fine_round",
    "keysteps.project_trajectory", "keysteps.select_key_steps", "cli.build_experiment",
)
_PHASES = ("init_search", "record", "inter_search", "final")
LAYER_METRICS = (
    [f"{name}.{kind}" for name in _SPAN_CALLS for kind in ("calls", "self_s")]
    + [f"pipeline.{name}.self_s" for name in ("run_rts", "run_bon", "run_zo", "run_free")]
    + ["cli.run_replicate.self_s"]
    + ["core.draw_us", "sim.model_call_us", "sim.denoise_us", "sphere.sample_us", "search.round_us"]
    + ["sphere.redraw_share", "search.evaluations", "search.repeat_eval_share",
       "search.guided_fallback_share"]
    + [f"pipeline.nfe.{phase}" for phase in _PHASES]
    + [f"pipeline.phase_s.{phase}" for phase in _PHASES]
    + ["pipeline.us_per_nfe", "pipeline.overhead_ratio", "pipeline.truncated_share"]
    + [f"pipeline.mean_reward.{name}" for name in ("init", "inter", "bon", "zo", "free")]
    + ["cli.import_s", "cli.parallel_efficiency", "cli.replicate_ms_p50", "cli.replicate_ms_p95",
       "cli.report_s", "cli.record_bytes"]
    + ["trace.overhead_ratio"]
)
# Layer metrics only the cli-sweep workload reaches; 0 elsewhere.
CLI_ONLY = {name for name in LAYER_METRICS if name.startswith("cli.")}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/seed"
    if name.endswith(".self_s") or name.startswith("pipeline.phase_s."):
        return "s/seed"
    if name.endswith("_us"):
        return "us"
    if name.startswith("pipeline.nfe."):
        return "NFE/seed"
    if name.startswith("pipeline.mean_reward."):
        return "reward"
    if name.endswith("_share") or name == "cli.parallel_efficiency":
        return "share"
    if name.endswith("overhead_ratio"):
        return "ratio"
    return {
        "search.evaluations": "evals/seed",
        "pipeline.us_per_nfe": "us/NFE",
        "cli.import_s": "s",
        "cli.report_s": "s",
        "cli.replicate_ms_p50": "ms",
        "cli.replicate_ms_p95": "ms",
        "cli.record_bytes": "bytes/record",
    }[name]


def layer_better(name: str) -> str:
    if name.startswith("pipeline.mean_reward.") or name == "cli.parallel_efficiency":
        return "higher"
    return "lower"


class BenchError(RuntimeError):
    """A measurement step could not run; the benchmark prints no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=SRC)
    env.pop("RTS_MAX_WORKERS", None)
    return env


def _last_json(stdout: str, what: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{what} printed no result") from exc


def run_child(mode: str, *options: str) -> dict:
    argv = [sys.executable, CHILD, mode, *options]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {mode} timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"child {mode} exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return _last_json(done.stdout, f"child {mode}")


def time_setup(*options: str) -> float:
    """Seconds from starting a fresh interpreter to its "ready" line."""
    argv = [sys.executable, CHILD, "setup", *options]
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        _, stderr = proc.communicate()
    finally:
        watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup exited with {proc.returncode}:\n{stderr[-2000:]}")
    return elapsed


def import_hostspeed():
    """The ``hostspeed`` module, with numpy in this process on one thread, as in the children."""
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    import hostspeed

    return hostspeed


def time_setups(kind: str, repeats: int, *options: str) -> tuple[list[float], list[float], float]:
    """Setup times scaled to the reference host speed, the raw ones, and the host factor.

    A ``hostspeed`` probe of ``kind`` runs in this process after each setup.
    """
    speed = import_hostspeed().Gauge(kind)
    raw = []
    for _ in range(repeats):
        raw.append(time_setup(*options))
        speed.mark()
    return [wall / speed.factor(i) for i, wall in enumerate(raw)], raw, speed.median_factor()


def _children(pid: int) -> list[int]:
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                kids.extend(int(k) for k in handle.read().split())
    except OSError:
        pass
    return kids


def tree_rss_kb(pid: int) -> int:
    """Resident set of ``pid`` and all its descendants, summed, from /proc."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
        pending.extend(_children(current))
    return total


def run_tracked(argv: list[str]) -> dict:
    """Run one command to completion; wall time and peak summed RSS of its tree."""
    peak = [0]
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    stop = threading.Event()

    def poll() -> None:
        while not stop.is_set():
            peak[0] = max(peak[0], tree_rss_kb(proc.pid))
            stop.wait(RSS_POLL_S)

    poller = threading.Thread(target=poll, daemon=True)
    poller.start()
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    finally:
        stop.set()
        poller.join()
    return {"wall_s": perf_counter() - start, "peak_kb": peak[0], "returncode": proc.returncode,
            "stdout": stdout, "stderr": stderr}


def cli_commands(config: str, workers: int) -> list[dict]:
    """The two `rts run` commands of a sweep, with the overrides they echo."""
    base = ["run", "--config", config, "--workers", str(workers)]
    budget = testbed.BUDGET_NFE
    return [
        {"argv": base, "overrides": {"workers": workers}, "budget": budget},
        {"argv": base + ["--method", "bon", "--budget", str(budget)],
         "overrides": {"method": "bon", "budget_nfe": budget, "workers": workers}, "budget": budget},
    ]


def read_records(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def cli_sweep(config: str, records: str) -> dict:
    """One sweep: rts run, bon run (same output file), report; each a fresh process."""
    for path in (records, records + ".summary.json"):
        if os.path.exists(path):
            os.remove(path)
    commands = [[sys.executable, "-m", "rts.cli", *c["argv"], "--out", records]
                for c in cli_commands(config, CLI_WORKERS)]
    commands.append([sys.executable, "-m", "rts.cli", "report", records])
    start = perf_counter()
    steps = [run_tracked(argv) for argv in commands]
    wall = perf_counter() - start
    failures = [f"{' '.join(argv[3:5])} exited with {step['returncode']}: {step['stderr'][-500:]}"
                for argv, step in zip(commands, steps) if step["returncode"] != 0]
    return {
        "wall_s": wall,
        "steps": steps,
        "peak_kb": max(step["peak_kb"] for step in steps),
        "records": read_records(records),
        "failures": failures,
    }


def _deterministic(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in record.items() if k != "wall_ms"} for record in records]


def _write_cli_config(tmp: str, seed: int, replicates: int) -> tuple[str, str]:
    records = os.path.join(tmp, "records.jsonl")
    config = os.path.join(tmp, "config.json")
    with open(config, "w", encoding="utf-8") as sink:
        json.dump(testbed.cli_config(seed * CLI_REPLICATES, replicates, records), sink)
    return config, records


def _commands_for_check(config: str, records: str) -> str:
    commands = cli_commands(config, CLI_WORKERS)
    for command in commands:
        command["overrides"]["out"] = records
    return json.dumps(commands)


def end_to_end_inprocess(args) -> dict:
    repeats = 1 if args.quick else SETUP_REPEATS[args.workload]
    setups, raw_setups, setup_factor = time_setups(GAUGE_KIND[args.workload], repeats, "--workload",
                                                   args.workload, "--seed", str(args.seed))
    options = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    result = run_child("measure", *options, *(["--quick"] if args.quick else []))
    walls_ms = [w * 1000.0 for w in result["seed_walls_s"]]
    chunks = len(walls_ms) // result["chunk_seeds"]
    seeds = result["seeds"]
    return {
        "values": {
            "seeds_per_s": result["seeds_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "mean_reward": result["mean_reward"],
            "hit_rate": result["hit_rate"],
            "nfe_per_seed": result["nfe_per_seed"],
        },
        "details": {
            "seeds_per_s": f"median over {chunks} chunks of {result['chunk_seeds']} seeds at reference "
                           f"host speed; raw {result['wall_seeds_per_s']:.4g}/s at host factor "
                           f"{result['host_factor']:.3f}; per-seed wall " + benchstats.describe(walls_ms, "ms"),
            "setup_s": f"fresh interpreters at reference host speed: {benchstats.describe(setups, 's')}; "
                       f"raw {benchstats.describe(raw_setups, 's')} at host factor {setup_factor:.3f}",
            "peak_rss_mb": "ru_maxrss of the measuring process",
            "mean_reward": f"rts over replicate seeds {result['first_seed']}..{result['first_seed'] + seeds - 1}",
            "hit_rate": "rts samples nearest the preferred mode",
            "nfe_per_seed": "all variants, summed per seed",
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "environment": result["environment"],
        "outputs": {
            "digest": result["digest"],
            "budget": result["budget"],
            "mean_reward": result["variant_mean_reward"],
            "hit_rate": result["variant_hit_rate"],
        },
    }


def end_to_end_cli(args, tmp: str) -> dict:
    replicates = 4 if args.quick else CLI_REPLICATES
    config, records = _write_cli_config(tmp, args.seed, replicates)
    repeats = 1 if args.quick else SETUP_REPEATS["cli-sweep"]
    hostspeed = import_hostspeed()
    setups, raw_setups, factors = [], [], []
    for _ in range(repeats):
        with hostspeed.Sampler() as sampler:
            raw_setups.append(time_setup("--workload", "cli-sweep", "--config", config,
                                         "--workers", str(CLI_WORKERS)))
        setups.append(raw_setups[-1] / sampler.factor())
        factors.append(sampler.factor())
    sweeps = []
    first_records = os.path.join(tmp, "first.jsonl")
    start = perf_counter()
    # at least MIN_SWEEPS (a single sweep spreads too much), then another only
    # while it is expected to end within --seconds
    min_sweeps = 1 if args.quick else MIN_SWEEPS
    while len(sweeps) < min_sweeps or (not args.quick and perf_counter() - start
                                       + statistics.median([s["wall_s"] for s in sweeps]) <= args.seconds):
        with hostspeed.Sampler() as sampler:
            sweeps.append(cli_sweep(config, records))
        sweeps[-1]["host_factor"] = sampler.factor()
        if len(sweeps) == 1 and os.path.exists(records):
            shutil.copyfile(records, first_records)
    problems = [failure for sweep in sweeps for failure in sweep["failures"]]
    reference = _deterministic(sweeps[0]["records"])
    problems += ["a later sweep's records differ from the first sweep's"
                 for sweep in sweeps[1:] if _deterministic(sweep["records"]) != reference]
    failed = len(problems)
    attempted = len(sweeps) * (2 * replicates + 1)
    check = run_child("cli-check", "--config", config, "--records", first_records,
                      "--commands", _commands_for_check(config, records))
    attempted += check["attempted"]
    failed += check["failed"]
    problems.extend(check["problems"])
    rates = [replicates / sweep["wall_s"] * sweep["host_factor"] for sweep in sweeps]
    raw_rate = replicates / statistics.median([sweep["wall_s"] for sweep in sweeps])
    sweep_factor = statistics.median([sweep["host_factor"] for sweep in sweeps])
    peaks_mb = [sweep["peak_kb"] / 1024.0 for sweep in sweeps]
    return {
        "values": {
            "seeds_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(peaks_mb),
            "mean_reward": check["mean_reward"],
            "hit_rate": check["hit_rate"],
            "nfe_per_seed": check["nfe_per_seed"],
        },
        "details": {
            "seeds_per_s": f"median over {len(sweeps)} sweeps of {replicates} seeds at reference host "
                           f"speed; raw {raw_rate:.4g}/s at host factor {sweep_factor:.3f}; sweep wall "
                           + benchstats.describe([s["wall_s"] for s in sweeps], "s"),
            "setup_s": f"import rts.cli, build, spawn {CLI_WORKERS} workers, at reference host speed: "
                       + benchstats.describe(setups, "s") + f"; raw {benchstats.describe(raw_setups, 's')} "
                       f"at host factor {statistics.median(factors):.3f}",
            "peak_rss_mb": "summed VmRSS of the command's process tree, polled every "
                           f"{RSS_POLL_S * 1000:.0f} ms; median over sweeps",
            "mean_reward": f"rts records, seeds {args.seed * CLI_REPLICATES}.."
                           f"{args.seed * CLI_REPLICATES + replicates - 1}",
            "hit_rate": "rts records with hit true",
            "nfe_per_seed": "rts + bon records, summed per seed",
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "environment": check["environment"],
        "outputs": {"digest": check["digest"], "budget": testbed.BUDGET_NFE},
    }


def layers_inprocess(args) -> dict:
    result = run_child("trace", "--workload", args.workload, "--seed", str(args.seed),
                       "--spans-dir", SPANS_DIR, *(["--quick"] if args.quick else []))
    metrics = dict.fromkeys(CLI_ONLY, 0.0)
    metrics.update(result["metrics"])
    return {**result, "metrics": metrics}


def layers_cli(args, tmp: str) -> dict:
    replicates = 4 if args.quick else CLI_REPLICATES
    config, records = _write_cli_config(tmp, args.seed, replicates)
    imports = [run_child("import")["import_s"] for _ in range(1 if args.quick else IMPORT_REPEATS)]
    sweep = cli_sweep(config, records)
    rts_run = sweep["steps"][0]
    walls_ms = [record["wall_ms"] for record in sweep["records"]]
    rts_ms = sum(record["wall_ms"] for record in sweep["records"] if record["method"] == "rts")
    size = os.path.getsize(records) if os.path.exists(records) else 0
    commands = json.dumps(cli_commands(config, 1))
    result = run_child("cli-trace", "--config", config, "--commands", commands, "--tmp", tmp,
                       "--workload", "cli-sweep", "--seed", str(args.seed), "--spans-dir", SPANS_DIR,
                       *(["--quick"] if args.quick else []))
    metrics = result["metrics"]
    metrics.update({
        "cli.import_s": statistics.median(imports),
        "cli.parallel_efficiency": rts_ms / 1000.0 / (CLI_WORKERS * rts_run["wall_s"]),
        "cli.replicate_ms_p50": benchstats.percentile(walls_ms, 50.0) if walls_ms else 0.0,
        "cli.replicate_ms_p95": benchstats.percentile(walls_ms, 95.0) if walls_ms else 0.0,
        "cli.report_s": sweep["steps"][2]["wall_s"],
        "cli.record_bytes": size / len(sweep["records"]) if sweep["records"] else 0.0,
    })
    problems = sweep["failures"]
    if len(sweep["records"]) != 2 * replicates:
        problems = problems + [f"sweep wrote {len(sweep['records'])} records, not {2 * replicates}"]
    result["failed"] += len(problems)
    result["attempted"] += 2 * replicates + 1
    result["problems"] = result["problems"] + problems
    result["replicate_tail"] = benchstats.describe(walls_ms, "ms")
    return result


def print_report(args, measured: dict, names, units) -> None:
    env = measured.get("environment", {})
    threads = ", ".join(f"{k}={v}" for k, v in env.get("threads", {}).items())
    print(f"rts benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced per-layer run' if args.trace else f'{args.seconds} s untraced run'}")
    print(f"environment: nproc {env.get('nproc')}, python {env.get('python')}, numpy {env.get('numpy')}, "
          f"{threads}; no CPU pinning or cache dropping (both need host privileges), so "
          f"figures are medians over repeats on a possibly shared machine")
    print(f"{'metric':<40} {'value':>14} {'unit':<13} {'better':<7} detail")
    details = measured.get("details", {})
    for name in names:
        unit, better = units[name]
        value = measured["metrics"][name]
        note = details.get(name, "")
        if args.trace and args.workload != "cli-sweep" and name in CLI_ONLY:
            note = "not exercised by this workload"
        print(f"{name:<40} {value:>14.6g} {unit:<13} {better:<7} {note}")
    for line in measured.get("notes", []):
        print(line)
    for problem in measured["problems"][:10]:
        print(f"check failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "rts", "__init__.py")):
        print(f"no rts package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        if args.trace:
            measured = layers_cli(args, tmp) if args.workload == "cli-sweep" else layers_inprocess(args)
        else:
            measured = end_to_end_cli(args, tmp) if args.workload == "cli-sweep" else end_to_end_inprocess(args)
    except BenchError as exc:
        print(f"benchmark step failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        names = list(LAYER_METRICS)
        units = {name: (layer_unit(name), layer_better(name)) for name in names}
        printed = names
        measured["notes"] = [
            f"traced {measured['traced_seeds']} seeds, {measured['spans']} spans written to "
            f"{measured['spans_file']}",
            "repeat share by search phase: "
            + ", ".join(f"{k} {v:.3f}" for k, v in measured["repeat_share_by_phase"].items()),
        ] + ([f"cli replicate wall: {measured['replicate_tail']}"] if "replicate_tail" in measured else [])
    else:
        names = list(END_TO_END)
        units = {**END_TO_END, **REPORT_ONLY}
        printed = names + list(REPORT_ONLY)
        measured["metrics"] = dict(measured["values"], error_rate=measured["failed"] / max(measured["attempted"], 1))
        measured["details"]["error_rate"] = f"{measured['failed']} failed of {measured['attempted']} runs"
        measured["notes"] = [f"deterministic outputs: {json.dumps(measured['outputs'], sort_keys=True)}"]
    print_report(args, measured, printed, units)
    result = {
        "correct": measured["failed"] == 0,
        "attempted": int(measured["attempted"]),
        "failed": int(measured["failed"]),
        "metrics": {name: {"value": float(measured["metrics"][name]), "unit": units[name][0]} for name in names},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
