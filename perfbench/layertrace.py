"""Spans around the public entry points of each qform layer.

``Tracer.install`` wraps each entry point listed in ``ENTRY_POINTS`` and
rebinds the wrapper wherever qform holds the original: on its class for
methods, and in every ``qform.*`` module that imported a function by
name.  Nothing under ``src/`` is edited; ``uninstall`` puts the originals
back.  Spans are kept in memory as flat integer records; after the run
they are written out and reduced to per-layer calls and self time.
"""

from __future__ import annotations

import sys
import time
from array import array

# metric prefix -> (module, attribute); "Class.method" patches the class,
# "*_suffix" wraps every function of the module whose name ends in _suffix
ENTRY_POINTS = {
    "intmat.mul": ("intmat", "IntMatrix.mul"),
    "intmat.det": ("intmat", "IntMatrix.det"),
    "intmat.inverse_unimodular": ("intmat", "IntMatrix.inverse_unimodular"),
    "intmat.smith_normal_form": ("intmat", "smith_normal_form"),
    "intmat.hermite_row_basis": ("intmat", "hermite_row_basis"),
    "intmat.int_solve": ("intmat", "int_solve"),
    "intmat.int_nullspace": ("intmat", "int_nullspace"),
    "intmat.lattice_contains": ("intmat", "lattice_contains"),
    "abelian.solve_in_group": ("abelian", "solve_in_group"),
    "abelian.invert_iso": ("abelian", "invert_iso"),
    "abelian.GroupHom.kernel": ("abelian", "GroupHom.kernel"),
    "abelian.SubgroupRep.from_elements": ("abelian", "SubgroupRep.from_elements"),
    "abelian.SubgroupRep.intersection": ("abelian", "SubgroupRep.intersection"),
    "abelian.SubgroupRep.transport": ("abelian", "SubgroupRep.transport"),
    "abelian.SubgroupRep.preimage": ("abelian", "SubgroupRep.preimage"),
    "abelian.direct_complement": ("abelian", "direct_complement"),
    "abelian.quotient_with_projection": ("abelian", "quotient_with_projection"),
    "forms.FormIso.__post_init__": ("forms", "FormIso.__post_init__"),
    "forms.EQForm.__post_init__": ("forms", "EQForm.__post_init__"),
    "forms.subgroup_classify": ("forms", "subgroup_classify"),
    "forms.orthogonal_complement": ("forms", "orthogonal_complement"),
    "forms.form_direct_sum": ("forms", "form_direct_sum"),
    "construct.stable_lagrangian_iso": ("construct", "stable_lagrangian_iso"),
    "construct.ru_wall_witness": ("construct", "ru_wall_witness"),
    "construct.ru_word_eval": ("construct", "ru_word_eval"),
    "construct.metabolic_basis": ("construct", "metabolic_basis"),
    "construct.is_hyperbolic_with_witness": ("construct", "is_hyperbolic_with_witness"),
    "lmonoid.apply_move": ("lmonoid", "apply_move"),  # split by move kind
    "lmonoid.replay": ("lmonoid", "replay"),
    "lmonoid.jacobi_witness": ("lmonoid", "jacobi_witness"),
    "lmonoid.l_group_trivialize": ("lmonoid", "l_group_trivialize"),
    "lmonoid.bar_reduce": ("lmonoid", "bar_reduce"),
    "stableclass.si_enumerate": ("stableclass", "si_enumerate"),
    "stableclass.stable_class_report": ("stableclass", "stable_class_report"),
    "stableclass.kappa": ("stableclass", "kappa"),
    "stableclass.kappa_ab": ("stableclass", "kappa_ab"),
    "oracle.brute_si": ("oracle", "brute_si"),
    "serialize.canonical_dumps": ("serialize", "canonical_dumps"),
    "serialize.loads_document": ("serialize", "loads_document"),
    "serialize.to_doc": ("serialize", "*_to_doc"),
    "serialize.from_doc": ("serialize", "*_from_doc"),
    "cli.run": ("cli", "run"),
}
MOVE_KINDS = ("Stab", "Destab", "FlipL", "ApplyIso")
BOOKKEEPING = "bench.bookkeeping"  # tracer work done inside a span, kept out of layer self time
FIELDS = 5  # name id, start ns, end ns, parent span index (-1 at top level), op index


def span_names():
    """Every span name a traced run can record, in report order."""
    names = []
    for prefix in ENTRY_POINTS:
        if prefix == "lmonoid.apply_move":
            names.extend("%s.%s" % (prefix, k) for k in MOVE_KINDS)
        else:
            names.append(prefix)
    return names


def self_times(spans):
    """Calls and self time per name from (name, start, end, parent) spans.

    A span's self time is its duration minus the time its child spans
    cover; spans of one thread nest, so children never overlap.
    Returns {name: (calls, self time)} in the units of start and end.
    """
    covered = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _), child in zip(spans, covered):
        calls, total = out.get(name, (0, 0))
        out[name] = (calls + 1, total + (end - start) - child)
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.records = array("q")
        self.stack = []
        self.op = -1
        self.snf_calls = 0
        self.snf_repeats = 0
        self.snf_max_bits = 0
        self.bytes_out = 0
        self._snf_seen = set()
        self._undo = []

    # -- span records --------------------------------------------------

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def start_op(self, index):
        self.op = index
        self._snf_seen = set()

    def spans(self):
        """All records as (name, start, end, parent, op) tuples."""
        r = self.records
        return [
            (self.names[r[i]], r[i + 1], r[i + 2], r[i + 3], r[i + 4])
            for i in range(0, len(r), FIELDS)
        ]

    def _timed(self, nid_of, fn, after=None):
        records, stack, clock = self.records, self.stack, time.perf_counter_ns
        bookkeeping = self.name_id(BOOKKEEPING)

        def wrapper(*args, **kwargs):
            index = len(records) // FIELDS
            records.extend((nid_of(args), clock(), 0, stack[-1] if stack else -1, self.op))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    inner = len(records) // FIELDS
                    records.extend((bookkeeping, clock(), 0, index, self.op))
                    after(args, result)
                    records[inner * FIELDS + 2] = clock()
                return result
            finally:
                stack.pop()
                records[index * FIELDS + 2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- layer-specific counters ---------------------------------------

    def _after_snf(self, args, dec):
        self.snf_calls += 1
        key = args[0].entries
        if key in self._snf_seen:
            self.snf_repeats += 1
        self._snf_seen.add(key)
        bits = max((abs(x).bit_length() for m in (dec.u, dec.v) for row in m.entries for x in row), default=0)
        self.snf_max_bits = max(self.snf_max_bits, bits)

    def _after_dumps(self, args, text):
        self.bytes_out += len(text.encode())

    # -- installing ----------------------------------------------------

    def install(self):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "qform" or name.startswith("qform."))
        }
        for prefix, (modname, attr) in ENTRY_POINTS.items():
            mod = modules["qform." + modname]
            if attr.startswith("*"):
                for fname, fn in list(vars(mod).items()):
                    if fname.endswith(attr[1:]) and callable(fn):
                        self._rebind(modules, fname, fn, self._wrap(prefix, fn))
            elif "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(prefix, raw.__func__))
                else:
                    new = self._wrap(prefix, raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
            else:
                fn = getattr(mod, attr)
                self._rebind(modules, attr, fn, self._wrap(prefix, fn))

    def _wrap(self, prefix, fn):
        if prefix == "lmonoid.apply_move":
            ids = {k: self.name_id("%s.%s" % (prefix, k)) for k in MOVE_KINDS}
            other = self.name_id(prefix + ".other")
            return self._timed(lambda args: ids.get(type(args[1]).__name__, other), fn)
        nid = self.name_id(prefix)
        after = {
            "intmat.smith_normal_form": self._after_snf,
            "serialize.canonical_dumps": self._after_dumps,
        }.get(prefix)
        return self._timed(lambda args: nid, fn, after)

    def _rebind(self, modules, name, fn, wrapper):
        for mod in modules.values():
            if vars(mod).get(name) is fn:
                setattr(mod, name, wrapper)
                self._undo.append((mod, name, fn))

    def uninstall(self):
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()
