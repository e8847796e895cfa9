"""Byte identity of the CLI's output on a fixed set of benchmark requests.

The requests come from ``perfbench/gen.py`` drawn in a fixed order from
``random.Random(1)``: stable-iso over each coefficient group, ru-wall on
H₂ and at rank 4, classify, perp and metabolic-basis at k = 4, ltriv on
each base class, the rank-0 jacobi triple and triple A with validate and
replay of each result, si, stable-class, kappa and oracle-si on one
rung-2 pair, and the coverage requests.  Each goes through ``cli.run``
as the benchmark sends it, and the exit code and the sha256 of its
standard output must equal the ones recorded in ``DIGESTS``.

A change to ``gen.py`` (which only a benchmark change makes) or a
deliberate change of the output format must re-record ``DIGESTS``;
``python tests/test_golden_outputs.py`` prints the current table.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def golden_requests():
    """[(name, request, source name or None)] in the order they are sent."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import gen
        import workloads

    rng = random.Random(1)
    out = [("stable-iso-%d" % i, gen.stable_iso_request(rng, q=q)) for i, q in enumerate(gen.STABLE_ISO_COEFFS)]
    out += [("ru-wall-h2", gen.ru_wall_request(rng, False)), ("ru-wall-rank4", gen.ru_wall_request(rng, True))]
    out += [(kind, gen.metabolic_request(rng, kind, 4)) for kind in ("classify", "perp", "metabolic-basis")]
    out += [("ltriv-%d" % pick, gen.ltriv_request(rng, pick=pick)) for pick in range(4)]
    out += [("jacobi-rank0", gen.jacobi_request([], [], gen.Q_ZERO, [], ([], [], [])))]
    out += [("jacobi-A", gen.geometric_double_request("A"))]
    a, b, r = gen.ladder_pair(rng, 2)
    out += [(req.kind, req) for req in gen.pair_requests(a, b, r, ["si", "stable-class", "kappa", "oracle-si"])]
    out += [("coverage-" + req.kind, req) for req in (make() for make in workloads.COVERAGE)]
    chained = []
    for name, req in out:
        chained.append((name, req, None))
        if req.kind == "jacobi":
            chained += [(name + "-validate", None, name), (name + "-replay", None, name)]
    return chained


def run_golden(workdir):
    """{name: (exit code, sha256 of stdout)} for every golden request, run in order."""
    from qform import cli

    texts, results = {}, {}
    for name, req, source in golden_requests():
        if source is not None:
            # validate re-checks the whole result; replay re-checks its move sequence
            path = workdir / ("%s.json" % name)
            doc = json.loads(texts[source])
            path.write_text(texts[source] if name.endswith("-validate") else json.dumps(doc["sequence"]))
            argv = ["validate", "--input", str(path)]
        elif req.doc is not None:
            path = workdir / ("%s.json" % name)
            path.write_text(json.dumps(req.doc, sort_keys=True, indent=2))
            argv = req.argv + ["--input", str(path)]
        else:
            argv = list(req.argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        texts[name] = out.getvalue()
        results[name] = (code, hashlib.sha256(texts[name].encode()).hexdigest())
    return results


DIGESTS = {
    "stable-iso-0": (0, "cb615ab107999962098ee0a33c7ed0dd7b5b817ea80e7425ef20eda31e01cbba"),
    "stable-iso-1": (0, "55248c4d36401d6d95f408346b21125c911a09c407fb41f74d83de7b096e1c12"),
    "stable-iso-2": (0, "c79ebbc1642e205d05ff70467f8ed05bcd836d03c36f40c8329d323359f06bec"),
    "stable-iso-3": (0, "c98c4067e829de9a9dd408e832946e1944fb828bd427dd28532bd18cb0d7d7d6"),
    "ru-wall-h2": (0, "4fa8543242f950114a067ef77dfdf73e43d927b0b6c780c3982f6bbbbd0851fc"),
    "ru-wall-rank4": (0, "8665f14cef134e43d29ff2f895b48447e16af2bf7fe96b25bab320cb45eaaf83"),
    "classify": (0, "9ddf97cade98958accf6599df6ab123209b721acf741c53b85e74f2a57bce7d0"),
    "perp": (0, "01bdce3caa9a49f24285d16332387ce2082efd0e2e95236db65d0eb40226f75d"),
    "metabolic-basis": (0, "b133e4b5594da83b56d8c6de623f8b8f4a3b0873a580ff25b2bdc091a063f7d9"),
    "ltriv-0": (0, "e68cb6ef43cb50146fa89b6be3e2562d84f544d0e08be7b3c2fed5b72ef42229"),
    "ltriv-1": (0, "fa8f96fa9a5d990a8d55c610a6e347cc9fc8911d6ee0f93a5fc90be7106d32d3"),
    "ltriv-2": (0, "605766a1121b574fafb906aa264910a08dad1790de00a49f0642311e1bcd9c8b"),
    "ltriv-3": (0, "2252323c1aaf64886578cb767a0181affc632fb23e668447b77837dad139f990"),
    "jacobi-rank0": (0, "2436461c0a544bd2761acc3209d1f1b1aeaaf5e8a66f62bf35a34b506c2e2f65"),
    "jacobi-rank0-validate": (0, "b5b989d7bb1bbcbe1d9da376384bd95324b2ed39f20cb3fc5e11b6d67726fd5a"),
    "jacobi-rank0-replay": (0, "39616c8f44bce16df19027912b3a430970c31c8c386f90dc6d5607ecf395d091"),
    "jacobi-A": (0, "db08e58e11ebeddcf6b1284d620f38f42c1ff9b45a5bab53c5ae01e0b185a8b1"),
    "jacobi-A-validate": (0, "b5b989d7bb1bbcbe1d9da376384bd95324b2ed39f20cb3fc5e11b6d67726fd5a"),
    "jacobi-A-replay": (0, "28f8baa4cb740344d32606784fba0a475a057d9c88423c21ab1cd98fd5bda6fe"),
    "si": (0, "0047b33d0819a9167790cb1fecd33c44cf6bdcaee3f3206b953bf23c0f0127a3"),
    "stable-class": (0, "af3ceff728644649d20c40286850f75d447d0db535ea142c19bcdc0b6f50f79b"),
    "kappa": (0, "2cfbdea3d54b00bd4ae386545ac2e36cdfeb13f8e7387372c695336b49fb3c48"),
    "oracle-si": (0, "bb7c1095207190269743eaaf88df4ddc9970bd17ba55e5ce7d333fcd3a68b8a8"),
    "coverage-moves": (0, "470b5288cc1a3a2ac315727af7ad710fa417bbc995cfa69116eb87befced261f"),
    "coverage-word": (0, "8864f5706ce6c5091faa5a8ff369368c0f294aff6890cb29a51e4ca1b24b2a9d"),
    "coverage-bar": (0, "624616c7f15cfd7e465b95dd83ae1d99598154e5d9fa1878668aaeb944cca214"),
    "coverage-torsion-classify": (0, "8c5b4a921a7b3aa446bc4011a23d0996d560547a470a24879a51e2618514d23b"),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_golden(tmp_path_factory.mktemp("golden"))


def test_the_request_set_is_the_recorded_one(outputs):
    assert sorted(outputs) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_is_byte_identical(outputs, name):
    assert outputs[name] == DIGESTS[name]


def test_certificate_results_encode_like_their_unshared_copies():
    """jacobi, ltriv and ru-wall results hold one dict per form object in several places.

    The encoder writes such a dict once and repeats its text, so each result must encode
    exactly as its copy with every container written out anew.
    """
    from qform import cli
    from qform.serialize import canonical_dumps

    built = 0
    for name, req, source in golden_requests():
        if source is None and req.kind in ("jacobi", "ltriv", "ru-wall"):
            result = cli.COMMANDS[req.kind].build(json.loads(json.dumps(req.doc)))
            assert canonical_dumps(result) == canonical_dumps(json.loads(json.dumps(result))), name
            built += 1
    assert built == 8


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        table = run_golden(Path(tmp))
    print("DIGESTS = {")
    for name, (code, digest) in table.items():
        print('    "%s": (%d, "%s"),' % (name, code, digest))
    print("}")
