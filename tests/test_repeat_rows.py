"""Tests for the repeat-row count, tools/repeat_rows.py, whose figure README quotes."""

import importlib.util
import os
import sys

import rts.pipeline

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load():
    spec = importlib.util.spec_from_file_location("repeat_rows", os.path.join(ROOT, "tools", "repeat_rows.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


repeat_rows = _load()


def test_loading_the_tool_leaves_sys_path_as_it_was():
    path = list(sys.path)
    _load()
    assert sys.path == path


def test_count_over_200_seeds_is_the_readme_figure():
    # the count wraps rts.pipeline.run_search, so the pipeline must look it up at call time
    search = rts.pipeline.run_search
    counts = repeat_rows.count_rows(200)
    assert counts == {"rows": 19800, "repeats": 9799, "seeds": 200, "truncated": 0}
    assert rts.pipeline.run_search is search
