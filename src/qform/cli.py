"""Command line front end.

Every subcommand prints exactly one canonical JSON document on standard
output.  Results echo the inputs they were computed from and embed the
witnesses they produced (isomorphism matrices, move sequences), so a
result document fed back through ``validate`` is re-checked from
scratch, without trusting anything stored in it.

Exit codes: 0 success, 2 validation or schema failure, 3 search budget
exhausted, 4 hypothesis violation.  Failures name the offending
condition in the "error" field of the report.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass
from typing import Callable

from . import oracle
from .construct import metabolic_basis, ru_wall_witness, ru_word_eval, stable_lagrangian_iso
from .errors import (
    DEFAULT_NODE_LIMIT,
    DimensionMismatch,
    HypothesisError,
    NoSolution,
    NodeLimitExceeded,
    NotASummand,
    NotWellDefined,
    QformError,
    SchemaError,
)
from .forms import form_validate, orthogonal_complement, subgroup_classify
from .lmonoid import (
    bar_reduce,
    is_elementary,
    jacobi_witness,
    l_group_trivialize,
    replay,
    zero_formation,
)
from .serialize import (
    NESTED_TOO_DEEPLY,
    _as_dict,
    _as_int,
    _as_int_list,
    _get,
    _read_parity,
    canonical_dumps,
    decimal_to_int,
    first_difference,
    form_from_doc,
    form_to_doc,
    formation_from_doc,
    formation_to_doc,
    group_from_doc,
    group_to_doc,
    iso_from_doc,
    iso_to_doc,
    loads_document,
    sequence_from_doc,
    sequence_to_doc,
    subgroup_from_doc,
    subgroup_to_doc,
    word_from_doc,
    word_to_doc,
)
from .stableclass import e_ab, kappa, kappa_ab, si_enumerate, stable_class_report

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_HYPOTHESIS = 4


# -- plumbing ----------------------------------------------------------


def _read_doc_and_text(args):
    """The input document and the text it was parsed from."""
    if not args.input:
        raise SchemaError("", "this subcommand needs --input FILE")
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError("", "cannot read input: %s" % exc) from None
    doc = loads_document(text)
    if args.strict and canonical_dumps(doc) != text:
        raise SchemaError("", "input is not in canonical form")
    return doc, text


def _read_doc(args):
    return _read_doc_and_text(args)[0]


_BUDGET_FIELDS = ("entry_bound", "max_stab", "node_limit")


def _budget(args) -> oracle.SearchBudget:
    """The budget flags; QFORM_NODE_LIMIT is read only when --node-limit is absent."""
    given = {name: value for name in _BUDGET_FIELDS if (value := getattr(args, name)) is not None}
    return oracle.SearchBudget(**given) if "node_limit" in given else oracle.default_budget(**given)


def _budget_from_doc(doc, path: str) -> oracle.SearchBudget:
    d = _as_dict(doc, path)
    fields = {name: _as_int(_get(d, name, path), path + "." + name) for name in _BUDGET_FIELDS}
    for name, value in fields.items():
        if value < 0:
            raise SchemaError(path + "." + name, "must be non-negative")
    return oracle.SearchBudget(**fields)


def _non_negative(text: str) -> int:
    """The argparse type of the budget flags: a non-negative integer of any size."""
    try:
        value = decimal_to_int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return value


def _schema_failure(exc: SchemaError) -> int:
    _emit({"error": str(exc), "path": exc.path})
    return EXIT_INVALID


def _emit_failure(payload: dict, exc: QformError) -> None:
    """The error document, with the JSON path of the object that failed when it is known."""
    if exc.path is not None:
        payload["path"] = exc.path
    _emit(payload)


def _emit(payload: dict, args=None) -> None:
    text = canonical_dumps(payload)
    sys.stdout.write(text)
    if args is not None and args.output:
        with open(args.output, "w") as fh:
            fh.write(text)


# -- result builders ---------------------------------------------------
#
# Each builder takes the parsed input document (result documents echo
# their inputs under the same keys, so ``validate`` can recompute with
# the same code) and returns the full payload.


def _report_doc(e) -> dict:
    """The fields of ``form_validate(e)``."""
    rep = form_validate(e)
    return {**asdict(rep), "torsion": list(rep.torsion)}


def _invariants_result(fdoc) -> dict:
    e = form_from_doc(fdoc, "input")
    return {"command": "invariants", "form": form_to_doc(e), **_report_doc(e)}


def _form_with_subgroups(doc, path: str, *names: str) -> tuple:
    """The form under "form" of the object at ``path``, then its subgroups under ``names``."""
    d = _as_dict(doc, path)
    e = form_from_doc(_get(d, "form", path), path + ".form")
    return (e, *(subgroup_from_doc(_get(d, name, path), e.group, path + "." + name) for name in names))


def _perp_result(doc) -> dict:
    e, s = _form_with_subgroups(doc, "input", "subgroup")
    return {
        "command": "perp",
        "form": form_to_doc(e),
        "subgroup": subgroup_to_doc(s),
        "perp": subgroup_to_doc(orthogonal_complement(e, s)),
    }


def _classify_result(doc) -> dict:
    e, s = _form_with_subgroups(doc, "input", "subgroup")
    flags = subgroup_classify(e, s)
    return {
        "command": "classify",
        "form": form_to_doc(e),
        "subgroup": subgroup_to_doc(s),
        "isotropic": flags.isotropic,
        "mu_vanishes": flags.mu_vanishes,
        "half_rank_summand": flags.half_rank_summand,
        "free_lagrangian": flags.free_lagrangian,
        "t_lagrangian": flags.t_lagrangian,
    }


def _metabolic_basis_result(doc) -> dict:
    e, l = _form_with_subgroups(doc, "input", "lagrangian")
    mb = metabolic_basis(e, l)
    return {
        "command": "metabolic-basis",
        "form": form_to_doc(e),
        "lagrangian": subgroup_to_doc(l),
        "basis": mb.basis.tolist(),
        "diag": list(mb.diag),
    }


def _stable_iso_result(doc) -> dict:
    d = _as_dict(doc, "input")
    sd = _as_dict(_get(d, "source", "input"), "input.source")
    td = _as_dict(_get(d, "target", "input"), "input.target")
    e, l = _form_with_subgroups(sd, "input.source", "lagrangian")
    e2, l2 = _form_with_subgroups(td, "input.target", "lagrangian")
    w = stable_lagrangian_iso(e, l, e2, l2)
    return {
        "command": "stable-iso",
        "source": {"form": form_to_doc(e), "lagrangian": subgroup_to_doc(l)},
        "target": {"form": form_to_doc(e2), "lagrangian": subgroup_to_doc(l2)},
        "k": w.k,
        "l": w.l,
        "iso": iso_to_doc(w.iso),
        "source_lagrangian": subgroup_to_doc(w.source_lagrangian),
        "target_lagrangian": subgroup_to_doc(w.target_lagrangian),
    }


def _ru_wall_result(doc) -> dict:
    e, l = _form_with_subgroups(doc, "input", "lagrangian")
    phi = iso_from_doc(_get(doc, "iso", "input"), "input.iso")
    w = ru_wall_witness(e, l, phi)
    return {
        "command": "ru-wall",
        "form": form_to_doc(e),
        "lagrangian": subgroup_to_doc(l),
        "iso": iso_to_doc(phi),
        "ambient": form_to_doc(w.ambient),
        "ambient_lagrangian": subgroup_to_doc(w.lagrangian),
        "word": word_to_doc(w.word),
        "expected": iso_to_doc(w.expected),
    }


def _zero_form_result(doc) -> dict:
    d = _as_dict(doc, "input")
    g = group_from_doc(_get(d, "group", "input"), "input.group")
    q = zero_formation(g, _read_parity(_get(d, "v", "input"), g, "input.v"))
    return {
        "command": "zero-form",
        "group": group_to_doc(g),
        "v": _as_int_list(d["v"], "input.v"),
        "formation": formation_to_doc(q),
    }


def _bar_result(qdoc) -> dict:
    q = formation_from_doc(qdoc, "input")
    return {
        "command": "bar",
        "formation": formation_to_doc(q),
        "reduced": formation_to_doc(bar_reduce(q)),
    }


def _elementary_result(qdoc) -> dict:
    q = formation_from_doc(qdoc, "input")
    return {
        "command": "elementary",
        "formation": formation_to_doc(q),
        "elementary": is_elementary(q),
    }


def _ltriv_result(qdoc) -> dict:
    q = formation_from_doc(qdoc, "input")
    t = l_group_trivialize(q)
    return {
        "command": "ltriv",
        "formation": formation_to_doc(q),
        "common": subgroup_to_doc(t.common),
        "complement": subgroup_to_doc(t.complement),
        "zero_part": formation_to_doc(t.zero_part),
        "hyperbolic_part": formation_to_doc(t.hyperbolic_part),
        "hyperbolic_witness": iso_to_doc(t.hyperbolic_witness),
        "sequence": sequence_to_doc(t.sequence),
    }


def _jacobi_result(doc) -> dict:
    e, ks, ls, vs = _form_with_subgroups(doc, "input", "K", "L", "V")
    w = jacobi_witness(e, ks, ls, vs)
    return {
        "command": "jacobi",
        "form": form_to_doc(e),
        "K": subgroup_to_doc(ks),
        "L": subgroup_to_doc(ls),
        "V": subgroup_to_doc(vs),
        "pairs": w.pairs,
        "phi": iso_to_doc(w.phi),
        "sequence": sequence_to_doc(w.sequence),
        "start_padding": formation_to_doc(w.start_padding),
        "end_paddings": [formation_to_doc(p) for p in w.end_paddings],
    }


def _kappa_result(doc) -> dict:
    d = _as_dict(doc, "input")
    if "form" in d or "lambda" in d:
        # either a bare form document or an echo wrapping one under "form"
        fdoc = _get(d, "form", "input") if "form" in d else d
        e = form_from_doc(fdoc, "input.form" if "form" in d else "input")
        return {"command": "kappa", "form": form_to_doc(e), "kappa": form_to_doc(kappa(e))}
    a = _as_int(_get(d, "a", "input"), "input.a")
    b = _as_int(_get(d, "b", "input"), "input.b")
    shortcut = kappa_ab(a, b)
    direct = kappa(e_ab(a, b))
    return {
        "command": "kappa",
        "a": a,
        "b": b,
        "kappa": form_to_doc(shortcut),
        "direct": form_to_doc(direct),
        "agree": shortcut == direct,
    }


def _si_result(doc, node_limit: int = DEFAULT_NODE_LIMIT, command: str = "si") -> dict:
    """The stable classes of E_{a,b}: by ``si_enumerate``, or by the oracle's scan for oracle-si."""
    d = _as_dict(doc, "input")
    a = _as_int(_get(d, "a", "input"), "input.a")
    b = _as_int(_get(d, "b", "input"), "input.b")
    rep = si_enumerate(a, b, node_limit) if command == "si" else oracle.brute_si(a, b)
    return {
        "command": command,
        "a": a,
        "b": b,
        "size": rep.size,
        "reps": [list(p) for p in rep.representatives],
    }


def _stable_class_result(doc, node_limit: int = DEFAULT_NODE_LIMIT) -> dict:
    d = _as_dict(doc, "input")
    rkq = _as_int(_get(d, "rkq", "input"), "input.rkq")
    a = _as_int(d.get("a", 0), "input.a")
    b = _as_int(d.get("b", 0), "input.b")
    counts = stable_class_report(rkq, a, b, node_limit)
    return {
        "command": "stable-class",
        "rkq": rkq,
        "a": a,
        "b": b,
        "Sst": counts.smoothings,
        "classes": counts.classes,
    }


def _oracle_lagrangians_result(fdoc, budget: oracle.SearchBudget) -> dict:
    e = form_from_doc(fdoc, "input")
    subs = oracle.enumerate_lagrangians(e, budget)
    return {
        "command": "oracle-lagrangians",
        "form": form_to_doc(e),
        "budget": asdict(budget),
        "count": len(subs),
        "lagrangians": [subgroup_to_doc(s) for s in subs],
    }


def _oracle_iso_result(doc, budget: oracle.SearchBudget) -> dict:
    d = _as_dict(doc, "input")
    e = form_from_doc(_get(d, "source", "input"), "input.source")
    f = form_from_doc(_get(d, "target", "input"), "input.target")
    found = oracle.search_isomorphism(e, f, budget)
    return {
        "command": "oracle-iso",
        "source": form_to_doc(e),
        "target": form_to_doc(f),
        "budget": asdict(budget),
        "found": found.iso is not None,
        "exhaustive": found.exhaustive,
        "nodes": found.nodes,
        "iso": iso_to_doc(found.iso) if found.iso is not None else None,
    }


# -- validate ----------------------------------------------------------


def _validate_doc(doc, text, node_limit: int):
    """Classify a document by shape and re-check it; returns (kind, ok, extra).

    ``text`` is the input ``doc`` was parsed from; ``node_limit`` bounds
    ``replay``'s stabilizations.  A command result is recomputed and
    encoded; when that encoding is the input text itself the stored
    document encodes to the same bytes, so it is encoded only when the two
    differ.  A stored result that differs is reported with the first JSON
    path where it differs from the recomputed one.
    """
    d = _as_dict(doc, "input")
    if "command" in d:
        name = d["command"]
        if name == "validate":
            raise SchemaError("input.command", "validation reports are not re-checkable")
        cmd = COMMANDS.get(name) if isinstance(name, str) else None
        if cmd is None:
            raise SchemaError("input.command", "unknown command %r" % name)
        inp = d if cmd.echo is None else _get(d, cmd.echo, "input")
        if cmd.budget == "search":
            fresh = cmd.build(inp, _budget_from_doc(_get(d, "budget", "input"), "input.budget"))
        else:
            fresh = cmd.build(inp)
        fresh_text = canonical_dumps(fresh)
        ok = fresh_text == text or fresh_text == canonical_dumps(d)
        reason = "stored results differ from recomputation"
        extra = {} if ok else {"reason": reason, "path": first_difference(d, fresh, "input")}
        return "%s result" % name, ok, extra
    if "lambda" in d:
        return "form", True, _report_doc(form_from_doc(d, "input"))
    if "form" in d and "L" in d and "V" in d:
        q = formation_from_doc(d, "input")
        return "formation", True, {"elementary": is_elementary(q)}
    if "source" in d and "matrix" in d:
        iso_from_doc(d, "input")
        return "iso", True, {}
    if "moves" in d:
        res = replay(sequence_from_doc(d, "input"), node_limit)
        extra = {"steps": res.steps}
        if not res.ok:
            extra["failed_index"] = res.failed_index
            extra["reason"] = res.reason
        return "sequence", res.ok, extra
    if "letters" in d:
        word = word_from_doc(d, "input")
        ru_word_eval(word)
        return "word", True, {"letters": len(word.letters)}
    if "free_rank" in d:
        group_from_doc(d, "input")
        return "group", True, {}
    if "generators" in d:
        raise SchemaError("input", "a bare subgroup has no ambient group; embed it in a larger document")
    raise SchemaError("input", "unrecognized document shape")


def _validate_result(doc_and_text, node_limit: int):
    kind, ok, extra = _validate_doc(*doc_and_text, node_limit)
    payload = {"command": "validate", "kind": kind, "ok": ok}
    payload.update(extra)
    return payload, (EXIT_OK if ok else EXIT_INVALID)


# -- the command table -------------------------------------------------


def _flags_doc(*names):
    """An input reader that builds the input document from the named flags."""
    return lambda args: {name: getattr(args, name) for name in names}


def _kappa_doc(args):
    if args.input:
        return _read_doc(args)
    if args.a is None or args.b is None:
        raise SchemaError("", "kappa needs either --input FILE or both --a and --b")
    return {"a": args.a, "b": args.b}


@dataclass(frozen=True)
class Command:
    """One subcommand: its help, extra options, input reader and result builder.

    ``build`` takes what ``read`` returns, the input document (``validate``
    reads the document and its text), plus, by ``budget``, the search
    budget ("search") or its node limit alone ("nodes") from the flags on
    the command line.  ``validate`` hands its node limit to ``replay``, and
    recomputes with the document's "budget" or the default node limit.  A
    result document echoes its input under ``echo``, or at its top level
    when ``echo`` is None.
    """

    help: str
    build: Callable
    read: Callable = _read_doc  # parsed arguments -> input document
    echo: str | None = None
    options: tuple = ()  # extra (flag, add_argument keywords) pairs
    budget: str | None = None  # "search", "nodes" or None


def _int_flag(text: str) -> int:
    """An integer flag of any size (argparse's ``type=int`` stops at 4300 digits)."""
    return decimal_to_int(text)


_int_flag.__name__ = "int"  # argparse names the type in "invalid int value" errors

_PAIR = (("--a", {"type": _int_flag, "required": True}), ("--b", {"type": _int_flag, "required": True}))

COMMANDS = {
    "validate": Command(
        "re-check any document produced by this tool", _validate_result, read=_read_doc_and_text, budget="nodes"
    ),
    "invariants": Command("evaluate all predicates of a form", _invariants_result, echo="form"),
    "perp": Command("orthogonal complement of a subgroup", _perp_result),
    "classify": Command("isotropy/lagrangian flags of a subgroup", _classify_result),
    "metabolic-basis": Command(
        "normal basis [[0,I],[I,D]] for a metabolic form", _metabolic_basis_result
    ),
    "stable-iso": Command("stable isomorphism matching two lagrangians", _stable_iso_result),
    "ru-wall": Command(
        "word in Keep/Flip letters evaluating to phi + phi^-1 + id", _ru_wall_result
    ),
    "zero-form": Command(
        "the zero-class quasi-formation of a coefficient group", _zero_form_result
    ),
    "bar": Command(
        "reduce a quasi-formation modulo carrier torsion", _bar_result, echo="formation"
    ),
    "elementary": Command(
        "test whether a quasi-formation splits as L + V", _elementary_result, echo="formation"
    ),
    "ltriv": Command(
        "split an invertible class into zero and hyperbolic parts", _ltriv_result, echo="formation"
    ),
    "jacobi": Command("move certificate for the triple composition identity", _jacobi_result),
    "kappa": Command(
        "form induced on the perp of ker mu", _kappa_result, read=_kappa_doc,
        options=(("--a", {"type": _int_flag, "default": None}), ("--b", {"type": _int_flag, "default": None})),
    ),
    "si": Command(
        "stable classes of the twisted plane E_{a,b}", _si_result,
        read=_flags_doc("a", "b"), options=_PAIR, budget="nodes",
    ),
    "stable-class": Command(
        "stable smoothing counts by coefficient rank", _stable_class_result,
        read=_flags_doc("rkq", "a", "b"),
        options=(
            ("--rkq", {"type": int, "required": True, "choices": (0, 1, 2)}),
            ("--a", {"type": _int_flag, "default": 0}),
            ("--b", {"type": _int_flag, "default": 0}),
        ),
        budget="nodes",
    ),
    "oracle-lagrangians": Command(
        "bounded search for free lagrangians", _oracle_lagrangians_result, echo="form", budget="search"
    ),
    "oracle-iso": Command(
        "bounded search for an isomorphism of forms", _oracle_iso_result, budget="search"
    ),
    "oracle-si": Command(
        "divisor-scan cross-check of the si enumeration", functools.partial(_si_result, command="oracle-si"),
        read=_flags_doc("a", "b"), options=_PAIR,
    ),
}


# -- parser ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that also puts a usage error on stdout as a JSON document.

    Subparsers are built by the same class, so every usage error (unknown
    command, bad or missing argument) writes {"error", "path": "argv"} before
    argparse prints the usage to stderr and exits 2.
    """

    def error(self, message):
        _emit({"error": message, "path": "argv"})
        super().error(message)


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qform",
        description="Exact computations with extended quadratic forms and quasi-formations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", metavar="FILE", help="JSON input document")
    common.add_argument("--output", metavar="FILE", help="also write the result here")
    common.add_argument("--entry-bound", type=_non_negative, default=None, metavar="N",
                        help="largest matrix entry tried by oracle searches")
    common.add_argument("--max-stab", type=_non_negative, default=None, metavar="N",
                        help="largest number of stabilizing planes tried")
    common.add_argument("--node-limit", type=_non_negative, default=None, metavar="N",
                        help="search node budget (default from QFORM_NODE_LIMIT)")
    common.add_argument("--strict", action="store_true",
                        help="reject input files that are not canonical JSON")

    sub = parser.add_subparsers(dest="cmd", required=True, metavar="command")
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=cmd.help)
        for flag, options in cmd.options:
            p.add_argument(flag, **options)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = COMMANDS[args.cmd]
    try:
        doc = cmd.read(args)
        if cmd.budget == "search":
            result = cmd.build(doc, _budget(args))
        elif cmd.budget == "nodes":
            result = cmd.build(doc, _budget(args).node_limit)
        else:
            result = cmd.build(doc)
    except RecursionError:
        # a document that parsed but is too deep for a later recursive step
        return _schema_failure(SchemaError("", NESTED_TOO_DEEPLY))
    except SchemaError as exc:
        return _schema_failure(exc)
    except NodeLimitExceeded as exc:
        _emit_failure({"error": str(exc)}, exc)
        return EXIT_BUDGET
    except HypothesisError as exc:
        _emit_failure({"error": exc.condition, "detail": str(exc)}, exc)
        return EXIT_HYPOTHESIS
    except NoSolution as exc:
        _emit_failure({"error": str(exc)}, exc)
        return EXIT_HYPOTHESIS
    except (DimensionMismatch, NotASummand, NotWellDefined) as exc:
        _emit_failure({"error": str(exc)}, exc)
        return EXIT_INVALID
    payload, code = result if isinstance(result, tuple) else (result, EXIT_OK)
    _emit(payload, args)
    return code


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
