"""The benchmark's coverage requests succeed through ``cli.run``.

Every workload of ``perfbench`` sends the requests in
``workloads.COVERAGE`` in each of its side batches: a move sequence with
one move of each kind, an RU word, ``bar`` and a classification over a
group with torsion.  A library change that makes one of them fail would
fail every benchmark run, so each is sent here as the benchmark sends it.
The benchmark's generators import no qform.
"""

import json
from pathlib import Path

import pytest

from qform import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def coverage_requests():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads

        return [make() for make in workloads.COVERAGE]


@pytest.mark.parametrize("req", coverage_requests(), ids=lambda req: req.kind)
def test_coverage_request_succeeds(req, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(req.doc, sort_keys=True, indent=2))
    code = cli.run(req.argv + ["--input", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0, doc
    assert doc["command"] == req.argv[0]
    if req.argv[0] == "validate":
        assert doc["ok"] is True, doc
