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
medians (change over parent) under ``summary``. Each end-to-end metric of
the change checkout's ``BENCHMARK.json`` also gets the no-regression
verdict: ``worse_by``, the relative shortfall of the change's median from
the parent's in the metric's worse direction (0 when it is not worse), and
``within_bound``, whether that shortfall is within the metric's ``bound``,
and the gain verdict ``gain_gate``: "met" when there are at least ten
complete pairs, the change is better in the metric's direction in at least
nine tenths of them and its median is past the parent's by more than the
parent's interquartile range; "too few pairs" under ten pairs; else "not
met".
``outputs`` holds, per workload, each side's distinct ``deterministic
outputs`` lines and ``equal``, whether every completed run printed one and
the same line. The cli-sweep line changes on every run, because
``benchmarks/child.py`` hashes each record with the temporary output path of
its run, so ``equal`` reads False there until ROADMAP item 9 lands.
``raw_seeds_per_s`` holds, per workload, the same summary of each run's raw
``seeds_per_s``, the rate before the benchmark's host factor, read from the
metric's detail (``raw <x>/s``): the host factor can spread more than a
change moves the rate. A run whose detail gives no raw rate, as in older
records, contributes nothing, so its pair is left out, and a workload with
no complete pair gets None. ``failed_share`` holds, per workload and side,
the runs the benchmark counted as failed over those it attempted, summed
over the completed runs.
``pycache_at_start`` records, per workload and side, whether the checkout
held any ``__pycache__`` under ``src/`` when the series started: the runs
write no bytecode, and a start-up time such as cli-sweep ``setup_s``
depends on whether the modules are compiled already. A run keeps each metric's
detail text (for ``seeds_per_s`` the raw rate, the host factor and the
sweep wall time). A run that exits non-zero is kept as its exit code and
the tail of its stderr, its pair is left out of the summary, and the series
goes on. The file is rewritten after every pair, so an interrupted series
keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys

OUTPUTS_PREFIX = "deterministic outputs: "
STDERR_TAIL = 2000  # characters of a failed run's stderr that its record keeps
GATE_PAIRS = 10  # the fewest complete pairs a claimed gain is judged on
RAW_RATE = re.compile(r"\braw ([0-9.eE+-]+)/s")  # in the seeds_per_s detail: "raw 109.3/s at host factor 0.989"


def parse_run(stdout: str) -> dict:
    """One run's record from the benchmark's stdout: its JSON result line, its metric lines' details and its
    deterministic outputs line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    result = json.loads(lines[-1])
    outputs = next((line[len(OUTPUTS_PREFIX):] for line in lines if line.startswith(OUTPUTS_PREFIX)), None)
    # each metric's table line: name, value, unit, better, then its detail (a raw rate, a host factor, a spread)
    details = {}
    for line in lines[:-1]:
        parts = line.split(None, 4)
        if parts and parts[0] in result["metrics"] and parts[0] not in details:
            details[parts[0]] = parts[4] if len(parts) == 5 else ""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "outputs": outputs,
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "details": details,
    }


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark once in ``checkout`` and parse its result; a run that exits non-zero is kept as its exit
    code and the tail of its stderr."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        return {"returncode": done.returncode, "stderr_tail": done.stderr[-STDERR_TAIL:]}
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


def summarize(runs: list[dict], end_to_end: dict | None = None) -> dict:
    """Per metric: both sides' quartiles, the pairs with the change above or below the parent, the median ratio,
    and for a metric of ``end_to_end`` (name to its ``better`` and ``bound``) the no-regression verdict."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        if "metrics" in run:  # a failed run leaves its pair incomplete
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
        if name in (end_to_end or {}):
            summary[name].update(verdict(parent_q["median"], change_q["median"], **end_to_end[name]))
            summary[name]["gain_gate"] = gain_gate(summary[name], end_to_end[name]["better"])
    return summary


def raw_rate_summary(runs: list[dict]) -> dict | None:
    """``summarize``'s entry for the raw ``seeds_per_s`` that each run's detail gives; None without a complete
    pair."""
    rated = []
    for run in runs:
        match = RAW_RATE.search(run.get("details", {}).get("seeds_per_s", ""))
        if match:
            rated.append({"pair": run["pair"], "side": run["side"], "metrics": {"raw": float(match.group(1))}})
    return summarize(rated).get("raw")


def outputs_verdict(runs: list[dict]) -> dict:
    """Each side's distinct ``deterministic outputs`` lines, in the order first printed, and whether every
    completed run printed one and the same line."""
    lines = {side: [run["outputs"] for run in runs if run["side"] == side and "metrics" in run]
             for side in ("parent", "change")}
    printed = lines["parent"] + lines["change"]
    return {**{side: list(dict.fromkeys(seen)) for side, seen in lines.items()},
            "equal": bool(printed) and None not in printed and len(set(printed)) == 1}


def failed_share(runs: list[dict]) -> dict:
    """Per side, the sum of ``failed`` over the sum of ``attempted`` of its completed runs; None when it has none."""
    shares = {}
    for side in ("parent", "change"):
        completed = [run for run in runs if run["side"] == side and "metrics" in run]
        attempted = sum(run["attempted"] for run in completed)
        shares[side] = sum(run["failed"] for run in completed) / attempted if attempted else None
    return shares


def verdict(parent: float, change: float, better: str, bound: float) -> dict:
    """How far the change's median falls short of the parent's, relative to it, and whether that is within
    ``bound``; a shortfall from a parent median of 0 has no relative size and is not within any bound."""
    shortfall = max(0.0, parent - change if better == "higher" else change - parent)
    if not shortfall:
        return {"worse_by": 0.0, "within_bound": True}
    worse_by = shortfall / abs(parent) if parent else None
    return {"worse_by": worse_by, "within_bound": worse_by is not None and worse_by <= bound}


def gain_gate(entry: dict, better: str) -> str:
    """The rule a claimed gain is judged by, read from a metric's ``summarize`` entry: "met" when it has at least
    ``GATE_PAIRS`` complete pairs, the change is better in the ``better`` direction in at least nine tenths of them
    and its median is past the parent's by more than the parent's interquartile range; "too few pairs" under
    ``GATE_PAIRS`` pairs; else "not met"."""
    if entry["pairs"] < GATE_PAIRS:
        return "too few pairs"
    parent, change = entry["parent"], entry["change"]
    higher = better == "higher"
    wins = entry["change_above_parent" if higher else "change_below_parent"]
    gap = change["median"] - parent["median"] if higher else parent["median"] - change["median"]
    return "met" if 10 * wins >= 9 * entry["pairs"] and gap > parent["q3"] - parent["q1"] else "not met"


def end_to_end_metrics(checkout: str) -> dict:
    """The end-to-end metrics of a checkout's ``BENCHMARK.json``: name to its ``better`` and ``bound``."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    return {metric["name"]: {"better": metric["better"], "bound": metric["bound"]} for metric in declared}


def has_pycache(checkout: str) -> bool:
    """Whether any directory under the checkout's ``src/`` holds a ``__pycache__``."""
    return any("__pycache__" in dirs for _, dirs, _ in os.walk(os.path.join(checkout, "src")))


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
        "pycache_at_start": {},
        "pairs": {},
        "summary": {},
        "raw_seeds_per_s": {},
        "outputs": {},
        "failed_share": {},
    }
    sides = {"parent": args.parent, "change": args.change}
    end_to_end = end_to_end_metrics(args.change)
    for workload in args.workload:
        record["pycache_at_start"][workload] = {side: has_pycache(checkout) for side, checkout in sides.items()}
        runs = record["pairs"][workload] = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs.append({"pair": pair, "side": side, **run_side(sides[side], workload, args.seed, seconds)})
                outcome = (f"seeds_per_s {runs[-1]['metrics'].get('seeds_per_s')}" if "metrics" in runs[-1]
                           else f"exited with {runs[-1]['returncode']}")
                print(f"{workload} pair {pair} {side}: {outcome}", file=sys.stderr)
            record["summary"][workload] = summarize(runs, end_to_end)
            record["raw_seeds_per_s"][workload] = raw_rate_summary(runs)
            record["outputs"][workload] = outputs_verdict(runs)
            record["failed_share"][workload] = failed_share(runs)
            with open(args.out, "w") as handle:
                json.dump(record, handle, indent=1)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
