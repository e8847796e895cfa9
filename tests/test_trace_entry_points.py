"""The benchmark tracer's entry points still name qform functions.

``perfbench/layertrace.py`` wraps every name in its ``ENTRY_POINTS`` table
when a benchmark run is traced.  A name that qform no longer has breaks
only traced runs, so this test reads the table, without importing the
benchmark, and resolves each name the way ``Tracer.install`` does.
"""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def entry_points():
    for node in ast.parse(LAYERTRACE.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no ENTRY_POINTS table in %s" % LAYERTRACE)


def resolves(module, attr):
    mod = importlib.import_module("qform." + module)
    if attr.startswith("*"):  # every function whose name ends in the suffix
        return any(name.endswith(attr[1:]) and callable(fn) for name, fn in vars(mod).items())
    if "." in attr:  # the class's own method, as Tracer.install patches it
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        return cls is not None and meth in vars(cls)
    return callable(getattr(mod, attr, None))


def test_every_traced_entry_point_resolves():
    table = entry_points()
    assert len(table) > 30
    missing = [prefix for prefix, (module, attr) in table.items() if not resolves(module, attr)]
    assert missing == []
