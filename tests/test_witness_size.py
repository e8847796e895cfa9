"""Witness size on scrambled inputs: ceilings on the largest entry of stable-iso answers.

``stable-iso`` over Q = Z on two ``gen.full_metabolic`` forms of rank 2m
(m = 4, 8, 12), built by ``gen.stable_iso_request`` with
``Random(1000 + m)`` and scrambled by 400 or 100 random basis operations
in place of the benchmark's 5.  The answer's largest entry, over ``iso``,
``source_lagrangian`` and ``target_lagrangian``, may shrink but must never
grow past the ceilings below; the input sizes are pinned too, so that a
change to the generator cannot move the probe.  Bits are counted by the
benchmark's own ``stats.max_bits``.
"""

import json
import random
from pathlib import Path

import pytest

from qform import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (scramble operations, m) -> (input bits, ceiling on the witness bits)
PROBE = {
    (400, 4): (38, 182),
    (400, 8): (26, 153),
    (400, 12): (22, 154),
    (100, 4): (12, 22),
    (100, 8): (10, 19),
    (100, 12): (9, 11),
}


@pytest.mark.parametrize("ops,m", list(PROBE))
def test_stable_iso_witness_bits_stay_under_their_ceiling(ops, m, tmp_path, capsys):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import gen
        from stats import max_bits

        scramble = gen.scramble
        mp.setattr(gen, "scramble", lambda lam, mu, subs, rng, _ops: scramble(lam, mu, subs, rng, ops))
        req = gen.stable_iso_request(random.Random(1000 + m), q=gen.Q_Z, m=m)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(req.doc))
    assert cli.run(req.argv + ["--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    input_bits, ceiling = PROBE[ops, m]
    assert max_bits(req.doc) == input_bits
    assert max_bits([out["iso"], out["source_lagrangian"], out["target_lagrangian"]]) <= ceiling
