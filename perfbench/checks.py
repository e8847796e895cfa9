"""Answer checks that share no code with qform.

``check(request, output)`` returns None for a correct answer or a
one-line reason.  Only ``validate`` and ``replay`` outputs, and the
replay of an ltriv sequence, rely on the library's own re-checker; every
other fact is recomputed here from the generator's data.
"""

from __future__ import annotations

from math import gcd

from imath import block_diag, decimal_to_int, det, identity, mat_mul, mat_vec, same_lattice, transpose, unimodular_inverse


def ints(x):
    """Matrix, vector or scalar with decimal strings turned into ints."""
    if isinstance(x, list):
        return [ints(v) for v in x]
    return decimal_to_int(x) if isinstance(x, str) else x


def check(req, out):
    if out.get("command") != req.argv[0]:
        return "command field is %r" % out.get("command")
    fn = _CHECKS.get(req.kind)
    return fn(req, out) if fn else None


def _check_revalidation(req, out):
    want = {"validate": "jacobi result", "replay": "sequence"}.get(req.kind) or req.expect["kind"]
    if out.get("ok") is not True or out.get("kind") != want:
        return "re-check reported %r" % out
    return None


def _check_jacobi(req, out):
    if ints(out["form"]["lambda"]) != req.doc["form"]["lambda"]:
        return "result does not echo the input form"
    if not isinstance(out["sequence"]["moves"], list):
        return "no move sequence"
    return None


def _check_stable_iso(req, out):
    m = ints(out["iso"]["matrix"])
    src, tgt = out["iso"]["source"], out["iso"]["target"]
    ls, lt = ints(src["lambda"]), ints(tgt["lambda"])
    if abs(det(m)) != 1:
        return "iso matrix is not unimodular"
    if mat_mul(mat_mul(transpose(m), lt), m) != ls:
        return "iso does not pull the pairing back"
    if _reduce(mat_mul(ints(tgt["mu"]), m), src["target"]) != _reduce(ints(src["mu"]), src["target"]):
        return "iso does not pull mu back"
    n = len(req.doc["source"]["form"]["lambda"])
    if [row[:n] for row in ls[:n]] != req.doc["source"]["form"]["lambda"]:
        return "iso source does not start with the input form"
    moved = [mat_vec(m, g) for g in ints(out["source_lagrangian"]["generators"])]
    if not same_lattice(moved, ints(out["target_lagrangian"]["generators"]), len(lt)):
        return "transported source lagrangian differs from the target lagrangian"
    return None


def _reduce(mu_rows, q):
    free, tors = q["free_rank"], q["torsion"]
    return [row if t < free else [x % tors[t - free] for x in row] for t, row in enumerate(mu_rows)]


def _check_ru_wall(req, out):
    """The word's product equals Φ ⊕ Φ⁻¹ ⊕ id, with Φ⁻¹ computed here."""
    phi = req.expect["phi"]
    n = len(phi)
    expected = block_diag(phi, unimodular_inverse(phi), identity(n))
    product = identity(3 * n)
    for letter in out["word"]["letters"]:
        if letter["letter"] == "keep":
            g = ints(letter["iso"]["matrix"])
        else:
            w = ints(letter["witness"]["matrix"])
            sigma = identity(len(w))
            sigma[0], sigma[1] = sigma[1], sigma[0]
            g = mat_mul(mat_mul(unimodular_inverse(w), sigma), w)
        product = mat_mul(product, g)
    if product != expected:
        return "word does not evaluate to phi + phi^-1 + id"
    if ints(out["expected"]["matrix"]) != expected:
        return "stored expected iso is not phi + phi^-1 + id"
    return None


def _check_free_lagrangian(req, out):
    flags = ("isotropic", "mu_vanishes", "half_rank_summand", "free_lagrangian", "t_lagrangian")
    bad = [f for f in flags if out.get(f) is not True]
    return "generated lagrangian classified with %s false" % bad if bad else None


def _check_flags(req, out):
    got = {f: out.get(f) for f in req.expect["flags"]}
    return None if got == req.expect["flags"] else "flags %r, expected %r" % (got, req.expect["flags"])


def _check_perp(req, out):
    lagr = req.expect["lagrangian"]
    if not same_lattice(ints(out["perp"]["generators"]), lagr, len(req.expect["lambda"])):
        return "perp of the generated lagrangian is not the lagrangian"
    return None


def _check_metabolic_basis(req, out):
    lam, lagr = req.expect["lambda"], req.expect["lagrangian"]
    b = ints(out["basis"])
    diag = out["diag"]
    k = len(diag)
    if len(b) != 2 * k or k != len(lagr) or any(d not in (0, 1) for d in diag):
        return "basis has the wrong shape"
    if abs(det(b)) != 1:
        return "basis is not unimodular"
    normal = [[0] * k + identity(k)[i] for i in range(k)]
    normal += [identity(k)[i] + [diag[i] * int(i == j) for j in range(k)] for i in range(k)]
    if mat_mul(mat_mul(transpose(b), lam), b) != normal:
        return "basis does not bring the pairing to [[0, I], [I, D]]"
    if not same_lattice(transpose(b)[:k], lagr, 2 * k):
        return "first half of the basis does not span the lagrangian"
    return None


def _check_si(req, out):
    a, b, size = req.expect["a"], req.expect["b"], req.expect["size"]
    reps = [tuple(ints(p)) for p in out["reps"]]
    if out["size"] != size or len(set(reps)) != size:
        return "size %r, expected 2^(r-1) = %d" % (out["size"], size)
    if any(c * d != a * b or gcd(c, d) != gcd(a, b) for c, d in reps):
        return "a representative changes the product or the gcd"
    return None


def _check_stable_class(req, out):
    size = req.expect["size"]
    if out["Sst"] != size or out["classes"] != size:
        return "counts %r/%r, expected 2^(r-1) = %d" % (out["Sst"], out["classes"], size)
    return None


def _check_kappa(req, out):
    ab = req.expect["a"] * req.expect["b"]
    form = out["kappa"]
    if out["agree"] is not True:
        return "closed form and direct kappa disagree"
    if ints(form["lambda"]) != [[2 * ab]] or [[abs(x) for x in r] for r in ints(form["mu"])] != [[abs(2 * ab)]]:
        return "kappa is not ([[2ab]], ±2ab)"
    return None


_CHECKS = {
    "jacobi": _check_jacobi,
    "validate": _check_revalidation,
    "replay": _check_revalidation,
    "stable-iso": _check_stable_iso,
    "ru-wall": _check_ru_wall,
    "classify": _check_free_lagrangian,
    "torsion-classify": _check_flags,
    "moves": _check_revalidation,
    "word": _check_revalidation,
    "perp": _check_perp,
    "metabolic-basis": _check_metabolic_basis,
    "si": _check_si,
    "oracle-si": _check_si,
    "stable-class": _check_stable_class,
    "kappa": _check_kappa,
}
