"""The benchmark tracer (opmxbench/spans.py) wraps names from outside.

It looks each traced name up in its owner's own namespace, so a refactor that
moves a method to a base class, or binds one function under several names,
breaks `--trace 1`.  These tests load the span table without installing it.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "opmxbench" / "spans.py"


def _span_table() -> dict:
    spec = importlib.util.spec_from_file_location("opmxbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_name_is_bound_on_its_owner():
    for name, targets in _span_table().items():
        for owner, attr in targets:
            assert attr in vars(owner), (name, owner.__name__, attr)


def test_module_functions_under_one_span_are_distinct_objects():
    for name, targets in _span_table().items():
        functions = [vars(owner)[attr] for owner, attr in targets
                     if not isinstance(owner, type)]
        assert len({id(f) for f in functions}) == len(functions), name
