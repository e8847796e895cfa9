"""Summary statistics for one benchmark run."""

from __future__ import annotations

import math
import re
from fractions import Fraction

from imath import decimal_to_int

TAIL_LEVELS = ("50", "75", "90", "95", "99", "99.9")
MIN_BEYOND = 10
_DECIMAL = re.compile(r"-?[0-9]+")


def tail(samples):
    """The highest percentile that still has at least 10 samples above it.

    Returns (percentile, value, samples beyond it).  The value is the
    nearest-rank percentile of the sorted samples.  With too few samples
    for even the median to qualify, the maximum is returned as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if not n:
        raise ValueError("no samples")
    best = None
    for level in TAIL_LEVELS:
        rank = max(1, math.ceil(Fraction(level) * n / 100))
        if n - rank >= MIN_BEYOND:
            best = (float(level), xs[rank - 1], n - rank)
    return best if best is not None else (100.0, xs[-1], 0)


def max_bits(doc):
    """Largest bit length of any integer in a JSON document.

    Integers stored as decimal strings (the canonical form for values of
    2^53 and above) count as integers; booleans and other strings do not.
    """
    best = 0
    stack = [doc]
    while stack:
        x = stack.pop()
        if isinstance(x, bool):
            continue
        if isinstance(x, int):
            best = max(best, abs(x).bit_length())
        elif isinstance(x, str):
            if _DECIMAL.fullmatch(x):
                best = max(best, abs(decimal_to_int(x)).bit_length())
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
    return best
