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
    "stable-iso-0": (0, "9575e09dedd534a177dde0ffecc0c2138beb4aca8eb8c7a71eb255ad7539be79"),
    "stable-iso-1": (0, "c04240f2fe278baab08cba9f2e5bbb40dfc18e8f883a2450a27b07760ed07128"),
    "stable-iso-2": (0, "79674e62ffdffe4f4ff78e87381c487475605ad9eaaf311a1d9d1be2ccf55cbb"),
    "stable-iso-3": (0, "b6030e92473686dd6eb33411a55bc1f06c21bd7ba13fe6e52fb4a47b367c461c"),
    "ru-wall-h2": (0, "291423aeed8e0a939503b1538f7952d89ef1409ed6d7e9320c34526046395852"),
    "ru-wall-rank4": (0, "d293d51e2e890115e1905ccc5fcfcf09a60a41612ea3701bcd3ef8fda7e0b638"),
    "classify": (0, "ce5963b25f86f54c0af04385eb67032709d8f42e4bfc92def8aa620c183b51fb"),
    "perp": (0, "df43cbc1e3b094c5cfa476d4691115acff67d7d6ffb4e153ace75c7fcda88bd3"),
    "metabolic-basis": (0, "ed4dcc3c12c86f00c4a94db290d5324759887f93d75f748faa186403efef48d6"),
    "ltriv-0": (0, "aee611ad9fbf1e9d275149056c868ab37487d5a1c60d023b51933a9f169c80ec"),
    "ltriv-1": (0, "911a939a5ed1e76dce263a619b0c6c53849aed5b7ac665e59bd9050c32d39107"),
    "ltriv-2": (0, "32468f3fbd247ddb1097cf8f8d9f367d6a618e9d6c1a44a2c2f869c310ebf96c"),
    "ltriv-3": (0, "7d569216ce492447e06f500e31b5a7b664cd8b34de4fde2e091e5959e7a6cf5b"),
    "jacobi-rank0": (0, "2436461c0a544bd2761acc3209d1f1b1aeaaf5e8a66f62bf35a34b506c2e2f65"),
    "jacobi-rank0-validate": (0, "b5b989d7bb1bbcbe1d9da376384bd95324b2ed39f20cb3fc5e11b6d67726fd5a"),
    "jacobi-rank0-replay": (0, "39616c8f44bce16df19027912b3a430970c31c8c386f90dc6d5607ecf395d091"),
    "jacobi-A": (0, "27d4fc6e4fe85716f7454ca59eba8b301d59786d684047d7907490170f74bc38"),
    "jacobi-A-validate": (0, "b5b989d7bb1bbcbe1d9da376384bd95324b2ed39f20cb3fc5e11b6d67726fd5a"),
    "jacobi-A-replay": (0, "28f8baa4cb740344d32606784fba0a475a057d9c88423c21ab1cd98fd5bda6fe"),
    "si": (0, "aed7802d8b7c9f85dc71553a0050f474fe99c257b0b325c274f8236eca5e8c61"),
    "stable-class": (0, "af3ceff728644649d20c40286850f75d447d0db535ea142c19bcdc0b6f50f79b"),
    "kappa": (0, "a48bcb0650c1d7a411e72b5a867d6ac87e86d3cbf671ed12073e28842687f949"),
    "oracle-si": (0, "0351258b6cb93ed08df46f9efa53a0a2d5ad872ef85164ed093a65c75bed798f"),
    "coverage-moves": (0, "470b5288cc1a3a2ac315727af7ad710fa417bbc995cfa69116eb87befced261f"),
    "coverage-word": (0, "8864f5706ce6c5091faa5a8ff369368c0f294aff6890cb29a51e4ca1b24b2a9d"),
    "coverage-bar": (0, "12974aadb7fc13cb697a72fd5c1db5c834e35bd365673655dbdc4c6845c4f385"),
    "coverage-torsion-classify": (0, "cad4939b4746acef22a1192f065133710ddd91d189ee35e4489013af43fcd78c"),
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
