"""In-memory span tracer around the public functions of the ``rts`` modules.

The tracer lives entirely in the benchmark: ``install`` replaces each target
function at every module binding that holds it (``pipeline``, ``search``,
``sphere``, ``sim`` and ``cli`` import several of them by name, and the
package root re-exports them), and ``uninstall`` puts the originals back.
Nothing under ``src/`` changes. A span is ``[name, start, end, parent,
run_id, tag]``; ``parent`` indexes the enclosing span (-1 at the top) and
``run_id`` is the replicate seed: set by the caller before each seed, or
taken from the arguments of ``cli.run_replicate``.

Beyond spans the tracer keeps counts that the layers do not report
themselves: evaluator calls and exact repeats per ``run_search``, tangent
draws and redraws inside ``sphere``, guided-sample fallbacks, and the
``run_rts`` results for the NFE ledger.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Module -> public functions that get a span. Span names drop the "rts."
# prefix, e.g. "sim.heun_step".
TARGETS = {
    "rts.core": ("sample_gaussian",),
    "rts.sim": ("heun_step", "one_step_clean_estimate", "denoise", "evaluate_reward"),
    "rts.sphere": ("random_spherical_sample", "guided_spherical_sample"),
    "rts.surrogate": ("estimate_gradient",),
    "rts.search": ("coarse_round", "fine_round", "run_search"),
    "rts.keysteps": ("project_trajectory", "select_key_steps"),
    "rts.pipeline": ("run_rts", "run_bon", "run_zo", "run_free"),
    "rts.cli": ("build_experiment", "run_replicate"),
}

NAME, START, END, PARENT, RUN, TAG = range(6)

# Spans directly under run_rts that make up each phase of its NFE ledger.
# run_search is split by its tag; denoise is "record" unless it replays
# injected noises, which only the final pass does.
PHASES = ("init_search", "record", "inter_search", "final")
_INTER_CHILDREN = {"sim.heun_step", "keysteps.project_trajectory", "keysteps.select_key_steps"}
# Entry points whose call count only restates the workload's seed count.
_SELF_TIME_ONLY = {
    "pipeline.run_rts", "pipeline.run_bon", "pipeline.run_zo", "pipeline.run_free", "cli.run_replicate",
}


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = None
        self.counts: Counter = Counter()
        self.rts_results: list = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap every binding of every target in the loaded ``rts`` modules."""
        originals = {}
        for module_name, functions in TARGETS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            for function in functions:
                fn = getattr(module, function)
                originals[id(fn)] = (f"{module_name[4:]}.{function}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name != "rts" and not module_name.startswith("rts."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[1] is value:
                    setattr(module, attr, self._wrap(hit[0], value, module_name))
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn, binding: str):
        spans, stack = self.spans, self._stack
        prepare = self._prepare_hook(name, binding)
        finish = self._finish_hook(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            if prepare is not None:
                args, kwargs = prepare(span, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if finish is not None:
                finish(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _prepare_hook(self, name: str, binding: str):
        if name == "search.run_search":
            return self._prepare_search
        if name == "sim.denoise":
            return _prepare_denoise
        if name == "core.sample_gaussian" and binding == "rts.sphere":
            return self._prepare_tangent_draw
        if name == "cli.run_replicate":
            return self._prepare_replicate
        return None

    def _finish_hook(self, name: str):
        if name == "search.fine_round":
            return self._finish_fine_round
        if name == "pipeline.run_rts":
            return self.rts_results.append
        return None

    def _prepare_search(self, span, args, kwargs):
        phase = "inter" if kwargs.get("start_from_z0") else "init"
        span[TAG] = phase
        if len(args) >= 3:
            args = args[:2] + (self._count_evaluations(args[2], phase),) + args[3:]
        else:
            kwargs = dict(kwargs, evaluate=self._count_evaluations(kwargs["evaluate"], phase))
        return args, kwargs

    def _count_evaluations(self, evaluate, phase: str):
        counts = self.counts
        seen: set[bytes] = set()

        def counted(z):
            key = z.tobytes()
            counts[f"evaluations.{phase}"] += 1
            if key in seen:
                counts[f"repeats.{phase}"] += 1
            else:
                seen.add(key)
            return evaluate(z)

        return counted

    def _prepare_tangent_draw(self, span, args, kwargs):
        # sphere draws tangent attempt a from stream.child(a); a > 0 is a redraw
        stream = args[0] if args else kwargs["stream"]
        self.counts["tangent_draws"] += 1
        if stream.path and stream.path[-1] > 0:
            self.counts["tangent_redraws"] += 1
        return args, kwargs

    def _prepare_replicate(self, span, args, kwargs):
        # run_replicate(cfg, index, overrides) runs replicate seed cfg["seed"] + index
        cfg, index = args[:2]
        self.run_id = span[RUN] = cfg["seed"] + index
        return args, kwargs

    def _finish_fine_round(self, state) -> None:
        self.counts["fine_rounds"] += 1
        if state.history and state.history[-1].guided_fallback:
            self.counts["guided_fallbacks"] += 1

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one array per span after a header."""
        with open(path, "w", encoding="utf-8") as sink:
            sink.write(json.dumps(["name", "start", "end", "parent", "run_id", "tag"]) + "\n")
            for span in self.spans:
                sink.write(json.dumps(span) + "\n")


def _prepare_denoise(span, args, kwargs):
    injected = args[3] if len(args) > 3 else kwargs.get("injected")
    span[TAG] = "replay" if injected is not None else "sample"
    return args, kwargs


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def by_name(spans) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self seconds)."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[NAME]] += 1
        self_s[span[NAME]] += own
    return {name: (calls[name], self_s[name]) for name in calls}


def phase_seconds(spans) -> dict[str, float]:
    """Wall seconds per ``nfe_breakdown`` phase, from spans directly under run_rts."""
    totals = dict.fromkeys(PHASES, 0.0)
    for span in spans:
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] != "pipeline.run_rts":
            continue
        name, wall = span[NAME], span[END] - span[START]
        if name == "search.run_search":
            totals["inter_search" if span[TAG] == "inter" else "init_search"] += wall
        elif name == "sim.denoise":
            totals["final" if span[TAG] == "replay" else "record"] += wall
        elif name in _INTER_CHILDREN:
            totals["inter_search"] += wall
    return totals


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, seeds: int) -> dict[str, float]:
    """Per-seed span counts and self times plus the tracer's ratios."""
    metrics: dict[str, float] = {}
    stats = by_name(tracer.spans)
    for module_name, functions in TARGETS.items():
        for function in functions:
            name = f"{module_name[4:]}.{function}"
            if name == "search.run_search":
                continue
            calls, own = stats.get(name, (0, 0.0))
            if name not in _SELF_TIME_ONLY:
                metrics[f"{name}.calls"] = calls / seeds
            metrics[f"{name}.self_s"] = own / seeds

    counts = tracer.counts
    evaluations = counts["evaluations.init"] + counts["evaluations.inter"]
    repeats = counts["repeats.init"] + counts["repeats.inter"]
    metrics["search.evaluations"] = evaluations / seeds
    metrics["search.repeat_eval_share"] = _share(repeats, evaluations)
    metrics["search.guided_fallback_share"] = _share(counts["guided_fallbacks"], counts["fine_rounds"])
    metrics["sphere.redraw_share"] = _share(counts["tangent_redraws"], counts["tangent_draws"])

    nfe = dict.fromkeys(PHASES, 0)
    for result in tracer.rts_results:
        for phase in PHASES:
            nfe[phase] += result.nfe_breakdown.get(phase, 0)
    for phase, seconds in phase_seconds(tracer.spans).items():
        metrics[f"pipeline.nfe.{phase}"] = nfe[phase] / seeds
        metrics[f"pipeline.phase_s.{phase}"] = seconds / seeds
    truncated = sum(bool(result.truncated) for result in tracer.rts_results)
    metrics["pipeline.truncated_share"] = _share(truncated, len(tracer.rts_results))
    return metrics


def repeat_shares(tracer: Tracer) -> dict[str, float]:
    """Repeat share per search phase, for the human-readable report."""
    counts = tracer.counts
    return {
        phase: _share(counts[f"repeats.{phase}"], counts[f"evaluations.{phase}"])
        for phase in ("init", "inter")
    }
