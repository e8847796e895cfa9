"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import contextlib
import io
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import imath  # noqa: E402
import layertrace  # noqa: E402
import stats  # noqa: E402


# -- tail percentile -----------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    assert stats.tail(range(1, 21)) == (50.0, 10, 10)
    assert stats.tail(range(1, 201)) == (95.0, 190, 10)
    assert stats.tail(range(1, 1001)) == (99.0, 990, 10)
    assert stats.tail(range(1, 10001)) == (99.9, 9990, 10)


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3, 1, 2]) == (100.0, 3, 0)
    assert stats.tail(range(19)) == (100.0, 18, 0)


def test_tail_ignores_input_order():
    xs = list(range(500))
    random.Random(0).shuffle(xs)
    assert stats.tail(xs) == stats.tail(sorted(xs))


# -- self time of nested spans ---------------------------------------------


def test_self_time_subtracts_direct_children():
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 20, 30, 1),
        ("d", 50, 60, 0),
    ]
    assert layertrace.self_times(spans) == {"a": (1, 60), "b": (1, 20), "c": (1, 10), "d": (1, 10)}


def test_self_time_of_recursive_spans_adds_up_to_the_outer_duration():
    spans = [("f", 0, 100, -1), ("f", 10, 90, 0), ("f", 20, 30, 1), ("g", 40, 45, 1)]
    out = layertrace.self_times(spans)
    assert out["f"] == (3, 20 + 65 + 10)  # outer, middle less its two children, inner
    assert out["g"] == (1, 5)
    assert sum(total for _, total in out.values()) == 100


def test_tracer_spans_nest_and_uninstall_restores_the_library():
    from qform import abelian, cli, intmat

    original = intmat.int_solve
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert abelian.int_solve is intmat.int_solve is not original
        tracer.start_op(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["si", "--a=2", "--b=15"]) == 0
    finally:
        tracer.uninstall()
    assert abelian.int_solve is intmat.int_solve is original
    spans = tracer.spans()
    names = [s[0] for s in spans]
    assert names[0] == "cli.run" and spans[0][3] == -1
    assert "stableclass.si_enumerate" in names
    assert all(parent < i for i, (_, _, _, parent, _) in enumerate(spans))
    out = layertrace.self_times([s[:4] for s in spans])
    assert sum(total for _, total in out.values()) == spans[0][2] - spans[0][1]


# -- max_bits --------------------------------------------------------------


def test_max_bits_reads_integers_stored_as_decimal_strings():
    doc = {"a": "9007199254740993", "b": [1, -3], "c": "stable-iso", "d": True}
    assert stats.max_bits(doc) == 54
    assert stats.max_bits({"big": ["-1" + "0" * 5000]}) == (10**5000).bit_length()
    assert stats.max_bits({"flag": True, "text": "12a"}) == 0


def test_decimal_conversion_beyond_the_interpreter_limit():
    for n in (0, -7, 10**4000, 3**20000, -(7**12345), 10**9000 + 1):
        assert imath.decimal_to_int(imath.int_to_decimal(n)) == n


# -- generators and checks -------------------------------------------------


def test_random_unimodular_returns_its_inverse():
    rng = random.Random(3)
    for n in range(1, 7):
        u, ui = imath.random_unimodular(rng, n, 12)
        assert imath.mat_mul(u, ui) == imath.identity(n)
        assert imath.unimodular_inverse(u) == ui


def test_hnf_decides_lattice_equality():
    assert imath.hnf([[2, 4], [3, 6], [0, 5]], 2) == [(1, 2), (0, 5)]
    assert imath.same_lattice([[1, 1], [0, 2]], [[1, -1], [2, 0]], 2)
    assert not imath.same_lattice([[1, 0]], [[2, 0]], 2)


def test_si_check_rejects_a_wrong_count():
    (req,) = gen.pair_requests(6, 35, 4, ["si"])
    good = {"command": "si", "size": 8, "reps": [[6, 35], [1, 210], [2, 105], [3, 70], [5, 42], [7, 30], [10, 21], [14, 15]]}
    assert checks.check(req, good) is None
    bad = dict(good, size=4, reps=good["reps"][:4])
    assert checks.check(req, bad) is not None


# -- failed operations -----------------------------------------------------


class _FakeCli:
    """Answers si correctly, raises on kappa and exits 2 on stable-class."""

    def run(self, argv):
        if argv[0] == "kappa":
            raise ValueError("no kappa")
        if argv[0] == "stable-class":
            return 2
        reps = [[6, 35], [1, 210], [2, 105], [3, 70], [5, 42], [7, 30], [10, 21], [14, 15]]
        print('{"command": "si", "size": 8, "reps": %s}' % reps)
        return 0


def test_a_failed_operation_fails_the_run(tmp_path):
    import run
    import workloads

    w = workloads.Workload(budget_s=5.0)
    w.order = [w.add(q) for q in gen.pair_requests(6, 35, 4, ["si", "kappa", "stable-class"])]
    runner = run.Runner(_FakeCli(), w, tmp_path)
    ops, first_out, changed = run.timed_loop(runner, 1e-9)
    errors, _ = run.check_answers(runner, ops, first_out, changed)
    assert len(ops) == 3  # one pass
    assert sorted(set(errors)) == ["request 1 (kappa): ValueError: no kappa", "request 2 (stable-class): exit 2"]
    assert run.check_answers(runner, ops[:1], first_out, changed)[0] == []


def test_times_are_scaled_to_the_reference_speed():
    import speed

    sampler = speed.Sampler({"objects", "integers"})
    nominal = speed.LOOPS["integers"][1]
    # a sample of each loop every 0.1 s; the integer loop runs at half speed from t = 10 s
    for k in range(200):
        for name in sampler.names:
            sampler.starts[name].append(k * 10**8)
            sampler.durations[name].append(speed.LOOPS[name][1] * (2 if k >= 100 and name == "integers" else 1))
    sampler.durations["integers"][40] = 50 * nominal  # one outlier is outvoted by the median
    assert sampler.slowdown("integers", 4 * 10**9, 5 * 10**9) == 1.0
    assert sampler.slowdown("integers", 15 * 10**9, 16 * 10**9) == 2.0
    assert sampler.slowdown("objects", 15 * 10**9, 16 * 10**9) == 1.0
    # the sampler's own time, of every loop, is not the span's
    own = 10**9 - sum(sum(sampler.durations[name][150:160]) for name in sampler.names)
    assert sampler.scaled_s("integers", 15 * 10**9, 16 * 10**9) == own / 2 / 1e9
    assert sampler.scaled_s("objects", 15 * 10**9, 16 * 10**9) == own / 1e9
    assert sampler.slowdown("integers", 30 * 10**9, 31 * 10**9) == 2.0  # nothing close: the nearest sample


def test_the_sampler_runs_on_cpu_time():
    import time

    import speed

    sampler = speed.Sampler(set(speed.LOOPS))
    sampler.start()
    try:
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
    finally:
        sampler.stop()
    for name in speed.LOOPS:  # every loop is sampled in turn
        assert len(sampler.durations[name]) >= 2
        assert all(d > 0 for d in sampler.durations[name])


def test_throughput_counts_main_stream_runs():
    import run

    def op(index, side=False):
        return run.Op(index, 0, "si", side, None, 0, 0, 0)

    ops = [op(0), op(1), op(0), op(2, side=True)]
    assert run.ops_per_s(ops, [1.0, 0.5, 0.5, 9.0]) == 3 / 2.0
