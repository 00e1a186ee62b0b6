"""The benchmark's tracer (perfbench/tracer.py) wraps package functions
by name, reads the progression step from search_prime's first argument
(the context) and the search cap from its third; each name must
resolve, or tracing breaks without a failing test."""

import ast
import importlib
import inspect
from pathlib import Path

from constdeg.classfield import SearchCursor, search_prime

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def wrapped():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no WRAPPED table in the tracer")


def test_tracer_wrapped_names_resolve():
    table = wrapped()
    assert table
    for layer, names in table.items():
        module = importlib.import_module(f"constdeg.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_search_cursor_is_third_argument():
    params = list(inspect.signature(search_prime).parameters)
    assert params[0] == "ctx"  # the tracer's _step(args[0])
    assert params[2] == "cursor"
    assert SearchCursor(5).cap == 5
