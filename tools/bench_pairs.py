"""Run the benchmark in two checkouts in alternating pairs and write a BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload testbed-d2 \
        --seed 1 --seconds 20 --pairs 5 --out BENCH_17.json --claim "..."

Each pair runs ``python3 benchmarks/run.py --workload W --seed N --seconds S``
once in each checkout, from that checkout's own tree; the side that runs
first switches every pair (the parent in pair 0), so a drift of the host's
speed falls on both sides alike. Each run's last stdout line is the
benchmark's JSON result. The output file holds every run under ``pairs``
and, per workload and end-to-end metric, the quartiles of each side, how
many pairs the change was above or below the parent and the ratio of the
medians (change over parent) under ``summary``. It is rewritten after every
pair, so an interrupted series keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

OUTPUTS_PREFIX = "deterministic outputs: "


def parse_run(stdout: str) -> dict:
    """One run's record from the benchmark's stdout: its JSON result line and its deterministic outputs line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    result = json.loads(lines[-1])
    outputs = next((line[len(OUTPUTS_PREFIX):] for line in lines if line.startswith(OUTPUTS_PREFIX)), None)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "outputs": outputs,
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark once in ``checkout`` and parse its result."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return parse_run(done.stdout)


def quartiles(values: list[float]) -> dict:
    """q1, median and q3 by linear interpolation between order statistics (numpy's default percentile)."""
    ordered = sorted(values)

    def at(fraction: float) -> float:
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return {"q1": at(0.25), "median": at(0.5), "q3": at(0.75)}


def summarize(runs: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the pairs with the change above or below the parent, the median ratio."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    complete = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
    summary = {}
    for name in (complete[0]["parent"] if complete else {}):
        parent = [sides["parent"][name] for sides in complete]
        change = [sides["change"][name] for sides in complete]
        parent_q, change_q = quartiles(parent), quartiles(change)
        summary[name] = {
            "parent": parent_q,
            "change": change_q,
            "change_above_parent": sum(c > p for p, c in zip(parent, change)),
            "change_below_parent": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(complete),
            "ratio_of_medians": change_q["median"] / parent_q["median"] if parent_q["median"] else None,
        }
    return summary


def default_host() -> str:
    import numpy

    return (f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, python {platform.python_version()}, "
            f"numpy {numpy.__version__}; each side runs from its own checkout, the side that runs first "
            f"switching every pair")


def _commit(checkout: str) -> str | None:
    done = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="a benchmark workload; repeatable")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--claim", default=None, help="the gain the change claims, in words")
    parser.add_argument("--host", default=None, help="a description of the host; by default from the platform")
    parser.add_argument("--parent-commit", default=None, help="by default the parent checkout's git HEAD")
    args = parser.parse_args(argv)

    seconds = f"{args.seconds:g}"
    record = {
        "command": f"python3 benchmarks/run.py --workload W --seed {args.seed} --seconds {seconds}",
        "host": args.host or default_host(),
        "parent": args.parent_commit or _commit(args.parent),
        "claim": args.claim,
        "pairs": {},
        "summary": {},
    }
    sides = {"parent": args.parent, "change": args.change}
    for workload in args.workload:
        runs = record["pairs"][workload] = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs.append({"pair": pair, "side": side, **run_side(sides[side], workload, args.seed, seconds)})
                print(f"{workload} pair {pair} {side}: seeds_per_s {runs[-1]['metrics'].get('seeds_per_s')}",
                      file=sys.stderr)
            record["summary"][workload] = summarize(runs)
            with open(args.out, "w") as handle:
                json.dump(record, handle, indent=1)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
