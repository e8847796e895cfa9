"""Robustness of ``cli.run``: any input document ends in a defined exit code.

Two kinds of input: arbitrary small JSON sent to every command that reads
``--input``, and the benchmark's own request documents (and the results
they produce, sent to ``validate``) with one field replaced or removed.
Every run must return 0, 2, 3 or 4 and print one JSON document; a raised
exception is a library bug, not invalid input.  A run that exits 2 with
an "error" also carries the JSON "path" of what failed.
"""

import contextlib
import io
import json
import random
import tempfile
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qform import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXIT_CODES = {0, 2, 3, 4}

# every command that reads its input document from --input (si, stable-class and oracle-si take flags)
INPUT_COMMANDS = sorted(
    name for name, cmd in cli.COMMANDS.items() if not any(opts.get("required") for _, opts in cmd.options)
)

KEYS = st.sampled_from(
    ["form", "group", "free_rank", "torsion", "lambda", "mu", "v", "subgroup", "generators", "lagrangian",
     "L", "V", "source", "target", "matrix", "moves", "letters", "command", "a", "b", "budget", "sequence",
     "kind", "triple", "formation", "iso"]
) | st.text(max_size=3)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from([2**64, -(2**70)])
    | st.text(max_size=4)
    | st.sampled_from(sorted(cli.COMMANDS))
)
JSON = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4), max_leaves=12
)


def run_on(argv, doc):
    """Exit code and stdout of ``cli.run`` on ``doc`` written as JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv + ["--input", str(path), "--node-limit", "200"])
    return code, out.getvalue()


@cache
def benchmark_documents():
    """[(argv, document)]: small benchmark requests, then validate on each one's result."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import gen
        import workloads

    rng = random.Random(3)
    reqs = [make() for make in workloads.COVERAGE]
    reqs += [gen.metabolic_request(rng, kind, 2) for kind in ("classify", "perp", "metabolic-basis")]
    reqs += [gen.stable_iso_request(rng, q=gen.Q_Z, m=1), gen.ru_wall_request(rng, False)]
    reqs += [gen.ltriv_request(rng, pick=2), gen.jacobi_request([], [], gen.Q_ZERO, [], ([], [], []))]
    docs = [(list(req.argv), req.doc) for req in reqs] + [(["kappa"], {"a": 6, "b": 10})]
    results = []
    for argv, doc in docs:
        code, out = run_on(argv, doc)
        assert code == 0, out
        if argv != ["validate"]:
            results.append((["validate"], json.loads(out)))
    return docs + results


def paths(doc, at=()):
    """Every position in ``doc`` as a tuple of keys and indices, the root first."""
    yield at
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from paths(doc[key], at + (key,))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from paths(item, at + (i,))


@st.composite
def mutated_documents(draw):
    """A benchmark document with the value at one drawn position replaced or removed."""
    argv, doc = draw(st.sampled_from(benchmark_documents()))
    doc = json.loads(json.dumps(doc))
    at = draw(st.sampled_from(list(paths(doc))))
    if not at:
        return argv, draw(JSON)
    parent = doc
    for step in at[:-1]:
        parent = parent[step]
    if draw(st.booleans()):
        parent[at[-1]] = draw(JSON)
    else:
        del parent[at[-1]]
    return argv, doc


def assert_defined_exit(argv, doc):
    """A defined exit code and one JSON document, which names a path when it reports an invalid input."""
    code, out = run_on(argv, doc)
    assert code in EXIT_CODES, out
    report = json.loads(out)
    if code == 2 and "error" in report:
        assert "path" in report, out


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(INPUT_COMMANDS), JSON)
def test_arbitrary_json_exits_with_a_defined_code(command, doc):
    assert_defined_exit([command], doc)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents())
def test_a_mutated_benchmark_document_exits_with_a_defined_code(case):
    assert_defined_exit(*case)
