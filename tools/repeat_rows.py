"""Count the rows that the searches of an rts run score more than once within the same search.

    PYTHONPATH=src python3 tools/repeat_rows.py --seeds 200

Runs rts on the criterion-7/8 testbed (``benchmarks/testbed.py``) at its
matched budget, for seeds 0 to N − 1 as one block. Each search, the initial
one and each key step's, counts per seed the rows it hands its evaluator and
those whose latent it has already scored. At d = 2 the cone at fixed cos τ
around a base holds two points, so a search often draws a row it scored
before.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys

import rts.pipeline
from rts.cli import build_experiment, validate_config
from rts.core import RngStream

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# loaded by its file path, so that importing this script leaves sys.path as it was
_SPEC = importlib.util.spec_from_file_location("testbed", os.path.join(ROOT, "benchmarks", "testbed.py"))
testbed = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(testbed)


def count_rows(seeds: int) -> dict:
    """Rows scored and rows repeated within their search, over the rts runs of seeds 0 to ``seeds`` − 1."""
    raw = dict(testbed.cli_config(seed=0, replicates=seeds, out="unused.jsonl"), budget_nfe=testbed.BUDGET_NFE)
    model, spec, reward, cfg = build_experiment(validate_config(raw))
    counts = {"rows": 0, "repeats": 0}
    search = rts.pipeline.run_search

    def counted_search(z0, search_cfg, evaluate, stream, **options):
        seen = [set() for _ in range(len(z0))]

        def counted(batch):
            for scored, rows in zip(seen, batch):
                for z in rows:
                    counts["repeats"] += z.tobytes() in scored
                    scored.add(z.tobytes())
            counts["rows"] += batch.shape[0] * batch.shape[1]
            return evaluate(batch)

        return search(z0, search_cfg, counted, stream, **options)

    rts.pipeline.run_search = counted_search
    try:
        results = rts.pipeline.run_rts_block(model, spec, reward, cfg, [RngStream(seed) for seed in range(seeds)])
    finally:
        rts.pipeline.run_search = search
    return {**counts, "seeds": seeds, "truncated": sum(result.truncated for result in results)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200)
    counts = count_rows(parser.parse_args(argv).seeds)
    print(f"{counts['rows']} rows, {counts['repeats']} repeats, {counts['truncated']} runs truncated; per seed "
          f"{counts['rows'] / counts['seeds']:.2f} rows, {counts['repeats'] / counts['seeds']:.2f} repeats")
    return 0


if __name__ == "__main__":
    sys.exit(main())
