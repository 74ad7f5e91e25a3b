"""One measurement in a fresh interpreter; ``run.py`` starts it and reads its last line.

Modes:
    setup      import and build a workload, print "ready" (the parent times it)
    measure    timed in-process run: warm-up, then chunks of seeds until the time
               is up, a ``hostspeed`` probe after each chunk
    trace      untraced then traced pass over a few seeds, plus micro timings
    import     time ``import rts.cli`` alone
    cli-check  re-run a CLI sweep's replicates in-process and check the records
    cli-trace  in-process one-worker ``rts run`` passes, untraced then traced

Only the standard library is imported at module level: ``setup`` for
``cli-sweep`` spawns pool workers, which re-import this file, and they must
pay for ``rts.cli`` alone, as the CLI's own workers do.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHUNK_SEEDS = {"testbed-d2": 10, "highdim-d1024": 2}
GAUGE_KIND = {"testbed-d2": "d2", "highdim-d1024": "d1024"}
TRACE_SEEDS = {"testbed-d2": 40, "highdim-d1024": 4, "cli-sweep": 20}
QUICK_BLOCK = {"testbed-d2": 4, "highdim-d1024": 2}
MICRO_BUDGET_S = 0.25


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _worker_ready(barrier) -> None:
    import rts.cli  # noqa: F401  (what every CLI worker imports first)

    barrier.wait()


def _noop() -> None:
    return None


def mode_setup(args) -> None:
    if args.workload != "cli-sweep":
        import workloads

        workloads.BUILDERS[args.workload](args.seed)
        print("ready", flush=True)
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    import rts.cli as cli

    cli.build_experiment(cli.load_config(args.config))
    context = get_context("spawn")
    barrier = context.Barrier(args.workers)
    with ProcessPoolExecutor(args.workers, mp_context=context,
                             initializer=_worker_ready, initargs=(barrier,)) as pool:
        futures = [pool.submit(_noop) for _ in range(args.workers)]
        futures[0].result()  # a task runs only after every worker passed the barrier
        print("ready", flush=True)
        for future in futures:
            future.result()


def mode_measure(args) -> None:
    import numpy as np

    import hostspeed
    import testbed
    import workloads

    build = workloads.BUILDERS[args.workload]
    workload = build(args.seed, QUICK_BLOCK[args.workload]) if args.quick else build(args.seed)
    outcomes = workloads.Outcomes(workload)
    if workload.budget != testbed.BUDGET_NFE:
        outcomes.failed += 1
        outcomes.problems.append(f"matched budget {workload.budget} drifted from {testbed.BUDGET_NFE}")
    chunk = 1 if args.quick else CHUNK_SEEDS[args.workload]
    seeds = list(workload.seeds)

    workloads.run_seed(workload, seeds[0])  # warm-up, not timed
    gauge = hostspeed.Gauge(GAUGE_KIND[args.workload])
    walls, chunks, rates = [], [], []
    start = perf_counter()
    i = 0
    while True:
        seed = seeds[i % len(seeds)]
        began = perf_counter()
        runs = workloads.run_seed(workload, seed)
        walls.append(perf_counter() - began)
        i += 1
        if i % chunk == 0:
            gauge.mark()  # before the checks, so it sits next to the timed seeds
            chunks.append(sum(walls[-chunk:]))
            rates.append(chunk / chunks[-1] * gauge.factor(len(chunks) - 1))
        outcomes.add(seed, runs)
        if i >= len(seeds) and i % chunk == 0 and perf_counter() - start >= args.seconds:
            break
    emit({
        "seeds_per_s": float(np.median(rates)),
        "wall_seeds_per_s": chunk / float(np.median(chunks)),
        "host_factor": gauge.median_factor(),
        "seed_walls_s": walls,
        "chunk_seeds": chunk,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "problems": outcomes.problems[:10],
        "first_seed": seeds[0],
        "budget": workload.budget,
        "environment": environment(),
        **outcomes.summary(),
    })


def _rewards_by_variant(outcomes, names=("init", "inter", "bon", "zo", "free")) -> dict:
    means = outcomes.mean_rewards()
    return {f"pipeline.mean_reward.{name}": means.get(name, 0.0) for name in names}


def _finish_trace(tracer, metrics: dict, seeds: int, wall_u: float, wall_t: float, nfe: int,
                  model, spec, reward, args) -> dict:
    import spans
    import workloads

    metrics.update(spans.layer_metrics(tracer, seeds))
    metrics.update(workloads.micro_timings(model, spec, reward, 0.02 if args.quick else MICRO_BUDGET_S))
    metrics["pipeline.us_per_nfe"] = wall_u * 1e6 / nfe
    metrics["pipeline.overhead_ratio"] = metrics["pipeline.us_per_nfe"] / metrics["sim.model_call_us"]
    metrics["trace.overhead_ratio"] = wall_t / wall_u
    os.makedirs(args.spans_dir, exist_ok=True)
    path = os.path.join(args.spans_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(path)
    return {
        "metrics": metrics,
        "repeat_share_by_phase": spans.repeat_shares(tracer),
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(path, os.path.dirname(BENCH_DIR)),
        "traced_seeds": seeds,
        "environment": environment(),
    }


def mode_trace(args) -> None:
    import spans
    import workloads

    seeds_n = 1 if args.quick else TRACE_SEEDS[args.workload]
    workload = workloads.BUILDERS[args.workload](args.seed, seeds_n)
    seeds = list(workload.seeds)
    workloads.run_seed(workload, seeds[0])  # warm-up, not timed

    # untraced and traced runs of each seed alternate, so a drift in machine
    # speed hits both sides of trace.overhead_ratio alike
    tracer = spans.Tracer()
    untraced, traced = [], []
    wall_u = wall_t = 0.0
    for seed in seeds:
        start = perf_counter()
        untraced.append(workloads.run_seed(workload, seed))
        wall_u += perf_counter() - start
        tracer.run_id = seed
        with tracer.installed():
            start = perf_counter()
            traced.append(workloads.run_seed(workload, seed))
            wall_t += perf_counter() - start

    outcomes = workloads.Outcomes(workload)
    for seed, runs in zip(seeds + seeds, untraced + traced):
        outcomes.add(seed, runs)
    nfe = sum(r.nfe_used for runs in untraced for r in runs.values() if not isinstance(r, Exception))
    payload = _finish_trace(tracer, _rewards_by_variant(outcomes), len(seeds), wall_u, wall_t, nfe,
                            workload.model, workload.spec, workload.reward, args)
    payload.update(attempted=outcomes.attempted, failed=outcomes.failed, problems=outcomes.problems[:10])
    emit(payload)


def mode_import(args) -> None:
    start = perf_counter()
    import rts.cli  # noqa: F401

    emit({"import_s": perf_counter() - start})


def _read_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_records(records: list[dict], commands: list[dict], config: str) -> dict:
    """Output checks on CLI records, and equality with in-process replicates.

    ``commands`` lists each ``rts run`` in order with the overrides its
    flags echo into the records; the records file holds their outputs
    back to back.
    """
    import hashlib

    import numpy as np

    import rts.cli as cli
    from rts import pipeline, sim

    problems = []
    failed = 0
    digest = hashlib.sha256()
    rewards, hits, nfe = [], [], {}
    index = 0
    for command in commands:
        cfg = cli.load_config(config, command["overrides"])
        model, spec, reward, rts_cfg = cli.build_experiment(cfg)
        budget = cfg["budget_nfe"] if cfg["budget_nfe"] is not None else command["budget"]
        for replicate in range(cfg["replicates"]):
            record = records[index] if index < len(records) else None
            index += 1
            bad = []
            if record is None:
                bad.append(f"{cfg['method']} replicate {replicate} has no record")
            else:
                expected = cli.run_replicate(cfg, replicate, command["overrides"])
                got = {k: v for k, v in record.items() if k != "wall_ms"}
                expected.pop("wall_ms")
                if got != expected:
                    bad.append(f"{cfg['method']} replicate {replicate} differs from the in-process run")
                if record["nfe_used"] > budget:
                    bad.append(f"{cfg['method']} replicate {replicate} over budget")
                if record["method"] == pipeline.RTS and not record["truncated"]:
                    ledger = pipeline.expected_rts_nfe(rts_cfg, spec, record["key_steps"])
                    if {**record["nfe_breakdown"], "total": record["nfe_used"]} != ledger:
                        bad.append(f"rts replicate {replicate} ledger differs from expected_rts_nfe")
                sample = np.asarray(record["final_sample"], dtype=np.float64)
                if sim.evaluate_reward(reward, sample) != record["final_reward"]:
                    bad.append(f"{cfg['method']} replicate {replicate} reward does not re-score")
                digest.update((json.dumps(got, sort_keys=True) + "\n").encode())
                nfe[record["seed"]] = nfe.get(record["seed"], 0) + record["nfe_used"]
                if record["method"] == pipeline.RTS:
                    rewards.append(record["final_reward"])
                    hits.append(bool(record["hit"]))
            if bad:
                failed += 1
                problems.extend(bad)
    extra = len(records) - index
    if extra > 0:
        failed += extra
        problems.append(f"{extra} unexpected extra records")
    return {
        "attempted": index + max(extra, 0),
        "failed": failed,
        "problems": problems[:10],
        "digest": digest.hexdigest()[:16],
        "mean_reward": float(np.mean(rewards)) if rewards else 0.0,
        "hit_rate": float(np.mean(hits)) if hits else 0.0,
        "nfe_per_seed": float(np.mean(list(nfe.values()))) if nfe else 0.0,
    }


def mode_cli_check(args) -> None:
    commands = json.loads(args.commands)
    payload = check_records(_read_records(args.records), commands, args.config)
    payload["environment"] = environment()
    emit(payload)


def _with_output(commands: list[dict], out: str, replicates: int) -> list[dict]:
    """The commands writing ``replicates`` records to ``out``, as the CLI echoes them."""
    return [
        {
            "argv": command["argv"] + ["--out", out, "--replicates", str(replicates)],
            "overrides": {**command["overrides"], "out": out, "replicates": replicates},
            "budget": command["budget"],
        }
        for command in commands
    ]


def _outputs(records: list[dict]) -> list[dict]:
    """Records without timing and without the echoed overrides (output paths differ)."""
    return [{k: v for k, v in r.items() if k not in ("wall_ms", "overrides")} for r in records]


def mode_cli_trace(args) -> None:
    import spans

    import rts.cli as cli

    commands = json.loads(args.commands)
    replicates = 1 if args.quick else TRACE_SEEDS["cli-sweep"]

    def run(command: dict) -> float:
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(command["argv"])
        if code != 0:
            raise RuntimeError(f"rts {' '.join(command['argv'])} exited with {code}")
        return perf_counter() - start

    batches = {
        name: _with_output(commands, os.path.join(args.tmp, f"{name}.jsonl"), count)
        for name, count in (("warm", 1), ("untraced", replicates), ("traced", replicates))
    }
    for command in batches["warm"]:  # warm-up, not timed
        run(command)
    tracer = spans.Tracer()
    wall_u = wall_t = 0.0
    for plain, traced_command in zip(batches["untraced"], batches["traced"]):
        wall_u += run(plain)
        with tracer.installed():
            wall_t += run(traced_command)

    untraced = _read_records(batches["untraced"][0]["overrides"]["out"])
    traced = _read_records(batches["traced"][0]["overrides"]["out"])
    checks = check_records(untraced, batches["untraced"], args.config)
    same = _outputs(untraced) == _outputs(traced)
    nfe = sum(record["nfe_used"] for record in untraced)
    model, spec, reward, _ = cli.build_experiment(cli.load_config(args.config))
    metrics = {f"pipeline.mean_reward.{name}": 0.0 for name in ("init", "inter", "zo", "free")}
    bon = [r["final_reward"] for r in untraced if r["method"] == "bon"]
    metrics["pipeline.mean_reward.bon"] = sum(bon) / len(bon) if bon else 0.0
    payload = _finish_trace(tracer, metrics, replicates, wall_u, wall_t, nfe, model, spec, reward, args)
    payload.update(
        attempted=checks["attempted"] + 1,
        failed=checks["failed"] + (0 if same else 1),
        problems=checks["problems"] + ([] if same else ["traced records differ from untraced ones"]),
    )
    emit(payload)


MODES = {
    "setup": mode_setup,
    "measure": mode_measure,
    "trace": mode_trace,
    "import": mode_import,
    "cli-check": mode_cli_check,
    "cli-trace": mode_cli_trace,
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=sorted(MODES))
    parser.add_argument("--workload", default="cli-sweep")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--records")
    parser.add_argument("--commands", help="JSON list of {argv, overrides, budget}")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--tmp")
    parser.add_argument("--spans-dir")
    args = parser.parse_args(argv)
    MODES[args.mode](args)


if __name__ == "__main__":
    main()
