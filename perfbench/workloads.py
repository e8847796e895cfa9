"""The three workloads: which requests a run sends, in which order.

A workload is a list of requests and the order in which one pass sends
them.  The runner repeats the pass until the measured time is used up.
Main requests are the workload's point; side requests are a light
stream of small inputs that gives every per-kind metric a value on
every workload.  A per-kind median uses main requests when the workload
has main requests of that kind, and side requests otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import gen

# every per-kind metric; kinds such as perp are timed but not reported
REPORTED_KINDS = ("jacobi", "validate", "replay", "stable-iso", "ru-wall", "ltriv", "classify", "si")
ALL_KINDS = REPORTED_KINDS + ("perp", "metabolic-basis", "stable-class", "kappa", "oracle-si")
# tiny side requests in every workload, so that every traced entry point runs
# in every workload: all four move kinds, an RU word, bar, and a form with torsion
COVERAGE = (gen.moves_request, gen.word_request, gen.bar_request, gen.torsion_classify_request)
SIDE_BATCHES = 24  # distinct side batches drawn per run; a median over fewer moves with the seed


@dataclass
class Workload:
    budget_s: float  # per-operation time limit; going over it is a failed operation
    requests: list = field(default_factory=list)
    order: list = field(default_factory=list)  # request indices of one pass
    warmup: list = field(default_factory=list)  # request indices run once before timing
    main_kinds: set = field(default_factory=set)
    probes: list = field(default_factory=list)  # known-defect probes, run after the timed loop

    def add(self, req):
        self.requests.append(req)
        return len(self.requests) - 1

    def add_jacobi(self, req):
        """A jacobi request followed by validate on its result and on its sequence."""
        j = self.add(req)
        v = self.add(gen.Request("validate", ["validate"], source=j, side=req.side))
        r = self.add(gen.Request("replay", ["validate"], source=j, side=req.side))
        return [j, v, r]


def _side_batch(w, rng, missing):
    """One small request of each kind in ``missing`` and the coverage requests."""
    out = []
    for kind in missing:
        if kind == "jacobi":
            # the rank-0 triple: the whole jacobi path at its smallest size
            out += w.add_jacobi(gen.jacobi_request([], [], gen.Q_ZERO, [], ([], [], []), side=True))
        elif kind == "stable-iso":
            out.append(w.add(gen.stable_iso_request(rng, q=gen.Q_Z, m=1, side=True)))
        elif kind == "ru-wall":
            out.append(w.add(gen.ru_wall_request(rng, rank4=False, side=True)))
        elif kind == "ltriv":
            out.append(w.add(gen.ltriv_request(rng, pick=0, q=gen.Q_Z, side=True)))
        elif kind in ("classify", "perp", "metabolic-basis"):
            out.append(w.add(gen.metabolic_request(rng, kind, 2, side=True)))
        elif kind in ("si", "stable-class", "kappa", "oracle-si"):
            a, b, r = gen.ladder_pair(rng, 2)
            out += [w.add(q) for q in gen.pair_requests(a, b, r, [kind], side=True)]
    return out + [w.add(make()) for make in COVERAGE]


def _side_batches(w, rng):
    """SIDE_BATCHES side batches; the first is also the warm-up."""
    missing = [k for k in ALL_KINDS if k not in w.main_kinds]
    batches = [_side_batch(w, rng, missing) for _ in range(SIDE_BATCHES)]
    w.warmup = batches[0]
    return batches


JACOBI_SIDE_BLOCK = 12  # side batches after each triple


def jacobi_certify(seed):
    """jacobi, validate and replay on the two geometric_double triples.

    A pass runs triple A in its plain basis and triple B in a
    seed-scrambled basis.  One pass takes about 30 s on a 2-core
    machine, more than a run's 20 s, so a run makes one pass; the other
    basis of each triple is left out to keep a run near 35 s.
    The side batches run as a block after each triple, so that a short
    side request seldom follows a long one.
    """
    rng = random.Random(seed)
    w = Workload(budget_s=120.0, main_kinds={"jacobi", "validate", "replay"})
    side = _side_batches(w, rng)
    for t, (name, scrambled) in enumerate((("A", False), ("B", True))):
        w.order += w.add_jacobi(gen.geometric_double_request(name, rng if scrambled else None))
        for b in range(JACOBI_SIDE_BLOCK):
            w.order += side[(t * JACOBI_SIDE_BLOCK + b) % len(side)]
    return w


# The form-batch mix gives every kind the same share of request time:
# a pass holds FORM_BATCH_SHARE_MS / FORM_BATCH_MEAN_MS[kind] requests of
# each kind.  Each mean is of 400 requests of that kind (600 for ru-wall)
# from these generators (seeds 5 and 6), run untraced on a 2-core x86-64
# machine with CPython 3.11.
FORM_BATCH_MEAN_MS = {
    "stable-iso": 16.5,
    "ru-wall": 72.3,
    "ltriv": 12.7,
    "classify": 9.0,
    "perp": 4.8,
    "metabolic-basis": 20.4,
}
FORM_BATCH_SHARE_MS = 1000
FORM_BATCH_SIDE_EVERY = 25


def form_batch_counts():
    return {kind: round(FORM_BATCH_SHARE_MS / ms) for kind, ms in FORM_BATCH_MEAN_MS.items()}


def form_batch_request(rng, kind, i):
    """The i-th generated request of ``kind`` in a form-batch pass.

    The size class of each request (coefficient group, base class, rank)
    goes round in turn with ``i``, so every seed holds the same number of
    each class and a per-kind median does not move with the seed's draw.
    """
    if kind == "stable-iso":
        return gen.stable_iso_request(rng, q=gen.STABLE_ISO_COEFFS[i % len(gen.STABLE_ISO_COEFFS)])
    if kind == "ru-wall":
        # a third on H2: the median then falls inside the rank-4 requests
        return gen.ru_wall_request(rng, rank4=i % 3 != 0)
    if kind == "ltriv":
        return gen.ltriv_request(rng, pick=i % 4)
    return gen.metabolic_request(rng, kind, 4 + i % 9)  # rank 8..24


def form_batch(seed):
    """A shuffled mix of short requests, a side batch after every 25."""
    rng = random.Random(seed)
    w = Workload(budget_s=10.0, main_kinds=set(FORM_BATCH_MEAN_MS))
    side = _side_batches(w, rng)
    labels = [(kind, i) for kind, count in form_batch_counts().items() for i in range(count)]
    rng.shuffle(labels)
    for n, (kind, i) in enumerate(labels):
        w.order.append(w.add(form_batch_request(rng, kind, i)))
        if (n + 1) % FORM_BATCH_SIDE_EVERY == 0:
            w.order += side[(n // FORM_BATCH_SIDE_EVERY) % len(side)]
    return w


LADDER_RUNGS = (2, 3, 4, 5, 6)  # second-largest prime about 10**rung
LADDERS_PER_PASS = 4
LADDER_SIDE_BLOCK = 3  # side batches after each ladder
SMOOTH_DIGITS = 4000  # below the 4300-digit int/str limit
SMOOTH_PAIRS = 2  # per ladder; seven pairs put the median si on the 10^5 rung
PROBE_RUNG = 8  # trial division here takes about ten times the budget at the seed
PROBE_DIGITS = 4500  # above the 4300-digit int/str limit


def si_ladder(seed):
    """si, stable-class and kappa up a ladder of growing prime factors.

    Each pass holds four ladders (rungs 10^2..10^6 and two smooth pairs of
    about 4000 digits), with oracle-si on the 10^2 rung, and three side
    batches after each ladder.  The probes are the known defects.
    """
    rng = random.Random(seed)
    w = Workload(budget_s=1.0, main_kinds={"si", "stable-class", "kappa", "oracle-si"})
    side = _side_batches(w, rng)
    for ladder in range(LADDERS_PER_PASS):
        for rung in LADDER_RUNGS:
            a, b, r = gen.ladder_pair(rng, rung)
            kinds = ["si", "stable-class", "kappa"] + (["oracle-si"] if rung == 2 else [])
            w.order += [w.add(q) for q in gen.pair_requests(a, b, r, kinds)]
        for _ in range(SMOOTH_PAIRS):
            a, b, r = gen.smooth_pair(rng, SMOOTH_DIGITS)
            w.order += [w.add(q) for q in gen.pair_requests(a, b, r, ["si", "stable-class", "kappa"])]
        for k in range(LADDER_SIDE_BLOCK):
            w.order += side[(ladder * LADDER_SIDE_BLOCK + k) % len(side)]
    a, b, r = gen.ladder_pair(rng, PROBE_RUNG)
    w.probes += gen.pair_requests(a, b, r, ["si"])
    a, b, r = gen.smooth_pair(rng, PROBE_DIGITS)
    w.probes += gen.pair_requests(a, b, r, ["si"])
    return w


WORKLOADS = {"jacobi-certify": jacobi_certify, "form-batch": form_batch, "si-ladder": si_ladder}

# The speed.LOOPS entry whose slowdown each workload's main stream follows;
# side requests and set-up, small object work everywhere, follow "objects".
# jacobi-certify works on rank-30 matrices and 3.7 MB documents, so much of
# its time waits on a large heap; si-ladder is trial division and
# big-integer arithmetic.
MAIN_LOOP = {"jacobi-certify": "heap", "form-batch": "objects", "si-ladder": "integers"}
