"""``rts report``: aggregate a results file into per-method statistics.

Each ordered pair of methods gets the one-sided rank-test p-value of "row
beats column" from ``ranktests``. A file that repeats a (method, seed,
config), holds a record field of the wrong type, or whose rewards or NFE
counts make a statistic overflow a float, is refused with a config error
and no summary is written. The report loads the standard library, ``errors``,
``schema`` and ``ranktests`` only: no numpy and none of the solver. Means
and spreads come from exactly rounded sums (``math.fsum``, two passes).
"""

from __future__ import annotations

import json
import math

from .errors import ConfigError
from .ranktests import mann_whitney_greater, wilcoxon_greater
from .schema import (REQUIRED, _boolean, _Invalid, _integer, _json, _nullable, _number, _refuse_overwrite, _string,
                     _write)

# the fields of a results record that ``rts report`` reads
_RECORD_SCHEMA = {
    "method": (_string, REQUIRED),
    "seed": (_integer(0, 2**64 - 1), REQUIRED),
    "final_reward": (_number, REQUIRED),
    "nfe_used": (_integer(0), REQUIRED),
    "truncated": (_boolean, REQUIRED),
    "hit": (_nullable(_boolean), None),
    "config": (_nullable(_string), None),
}


def _load_records(results_path: str) -> list[dict]:
    """Parse a results file, rejecting non-records and repeated (method, seed, config)."""
    try:
        with open(results_path, encoding="utf-8") as handle:
            lines = [(lineno, line) for lineno, line in enumerate(handle, start=1) if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read results '{results_path}': {exc}") from exc
    if not lines:
        raise ConfigError(f"results file '{results_path}' is empty")
    records = [_json(line, f"results line {lineno}") for lineno, line in lines]
    required = [key for key, (_, default) in _RECORD_SCHEMA.items() if default is REQUIRED]
    first_line: dict[tuple, int] = {}
    for (lineno, _), record in zip(lines, records):
        if not isinstance(record, dict) or any(key not in record for key in required):
            raise ConfigError(f"results line {lineno} is not a record with keys {', '.join(required)}")
        try:
            for key, (kind, default) in _RECORD_SCHEMA.items():
                kind(record.get(key, default), key)
        except _Invalid as exc:
            raise ConfigError("results line {} key '{}': {}".format(lineno, *exc.args)) from None
        run = (record["method"], record["seed"], record.get("config"))
        if run in first_line:
            raise ConfigError(f"results line {lineno} repeats the method, seed and config of line {first_line[run]}")
        first_line[run] = lineno
    return records


def _one_sided_p(a: list[dict], b: list[dict]) -> float:
    """P-value for 'method a beats method b', paired by seed when each method has one record per shared seed."""
    by_seed_a = {r["seed"]: r["final_reward"] for r in a}
    by_seed_b = {r["seed"]: r["final_reward"] for r in b}
    shared = sorted(set(by_seed_a) & set(by_seed_b))
    if len(shared) >= 5 and len(shared) == len(by_seed_a) == len(by_seed_b) == len(a) == len(b):
        diff = [float(by_seed_a[s] - by_seed_b[s]) for s in shared]
        if not any(diff):
            return 0.5
        return wilcoxon_greater(diff)
    x = [float(r["final_reward"]) for r in a]
    y = [float(r["final_reward"]) for r in b]
    if len(set(x) | set(y)) == 1:
        return 0.5
    return mann_whitney_greater(x, y)


def _finite(method: str, statistic: str, compute) -> float:
    """``compute()``; finite values whose statistic overflows a float refuse the file."""
    try:
        value = compute()
    except OverflowError:  # a sum, square or quotient past the range of a float
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"method '{method}': {statistic} overflows a float")
    return value


def summarize(records: list[dict]) -> dict:
    """Per-method statistics plus pairwise one-sided comparisons."""
    groups: dict[str, list[dict]] = {}
    for record in records:
        groups.setdefault(record["method"], []).append(record)
    methods = sorted(groups)
    table = {}
    for method in methods:
        rewards = [float(r["final_reward"]) for r in groups[method]]
        nfe = [r["nfe_used"] for r in groups[method]]
        hits = [r["hit"] for r in groups[method] if r.get("hit") is not None]
        n = len(rewards)
        mean = _finite(method, "mean_reward", lambda: math.fsum(rewards) / n)
        table[method] = {
            "n": n,
            "mean_reward": mean,
            "stddev_reward": _finite(method, "stddev_reward", lambda: math.sqrt(
                math.fsum((v - mean) ** 2 for v in rewards) / (n - 1))) if n > 1 else 0.0,
            "mean_nfe": _finite(method, "mean_nfe", lambda: sum(nfe) / n),  # an exact sum, rounded once
            "hit_rate": sum(hits) / len(hits) if hits else None,
            "truncated": sum(bool(r["truncated"]) for r in groups[method]),
        }
    comparisons = {}
    for a in methods:
        for b in methods:
            if a != b:
                comparisons[f"{a}>{b}"] = _one_sided_p(groups[a], groups[b])
    return {"methods": table, "comparisons": comparisons}


def _format_summary(summary: dict) -> str:
    lines = [f"{'method':<8} {'n':>5} {'mean_reward':>14} {'stddev':>12} "
             f"{'mean_nfe':>10} {'hit_rate':>9} {'trunc':>6}"]
    for method, row in summary["methods"].items():
        hit = "-" if row["hit_rate"] is None else f"{row['hit_rate']:.3f}"
        lines.append(
            f"{method:<8} {row['n']:>5} {row['mean_reward']:>14.6f} "
            f"{row['stddev_reward']:>12.6f} {row['mean_nfe']:>10.1f} {hit:>9} "
            f"{row['truncated']:>6}"
        )
    if summary["comparisons"]:
        lines.append("")
        lines.append("one-sided p-values (row beats column):")
        for pair, p in summary["comparisons"].items():
            lines.append(f"  {pair:<16} p = {p:.6g}")
    return "\n".join(lines)


def cmd_report(results_path: str, table_path: str | None) -> int:
    records = _load_records(results_path)
    out = table_path if table_path is not None else results_path + ".summary.json"
    _refuse_overwrite(out, results_path, "results it summarizes")
    summary = summarize(records)
    print(_format_summary(summary))
    _write(out, json.dumps(summary, indent=2) + "\n", "summary")
    print(f"\nsummary table written to {out}")
    return 0
