#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for qform.

    python3 perfbench/run.py --workload jacobi-certify --seed 1 --seconds 20 --trace 0

Runs one workload in this single-threaded process as a closed loop with
one client: each request goes through ``qform.cli.run(argv)`` with input
documents written during set-up, and the next request starts only after
the previous one returned.  Whole passes over the workload's requests
repeat until ``--seconds`` of request time are used.  Times are taken at
a fixed reference speed (see speed.py).  Every answer is then checked
outside the timed region; a wrong answer or a failed
operation aborts the run with exit code 1 and no result.  The last line
of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
A fuller record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import imath  # noqa: E402
import stats  # noqa: E402
import layertrace  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while writing the benchmark; check later claims on it
SETUPS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_tail_ms": "ms",
    "out_bytes": "bytes",
    "max_bits": "bits",
    "peak_rss_mb": "MB",
    **{k.replace("-", "_") + "_ms": "ms" for k in workloads.REPORTED_KINDS},
}


class BudgetExceeded(BaseException):
    """Raised from the alarm handler when an operation overruns its budget."""


@dataclass
class Op:
    index: int  # request index
    pass_no: int
    kind: str
    side: bool
    failure: str | None
    nbytes: int
    start_ns: int
    end_ns: int

    @property
    def seconds(self):
        return (self.end_ns - self.start_ns) / 1e9


class Runner:
    """Sends requests to ``qform.cli.run`` and times them."""

    def __init__(self, cli, workload, workdir):
        self.cli = cli
        self.w = workload
        self.workdir = workdir
        self.tracer = None
        self.armed = False
        self.written = set()  # jacobi results already on disk
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            raise BudgetExceeded

    def path(self, index, suffix):
        return str(self.workdir / ("%d.%s.json" % (index, suffix)))

    def write_inputs(self):
        for i, req in enumerate(self.w.requests):
            if req.doc is not None:
                with open(self.path(i, "in"), "w") as fh:
                    json.dump(req.doc, fh, sort_keys=True, indent=2)

    def argv(self, index):
        req = self.w.requests[index]
        if req.source is not None:
            return req.argv + ["--input", self.path(req.source, "out" if req.kind == "validate" else "seq")]
        if req.doc is not None:
            return req.argv + ["--input", self.path(index, "in")]
        return list(req.argv)

    def execute(self, argv, op_index=-1):
        """Run one command; returns (failure or None, stdout, start_ns, end_ns)."""
        out, err = io.StringIO(), io.StringIO()
        failure = None
        gc.collect()  # the garbage of earlier requests is not this one's cost
        if self.tracer is not None:
            self.tracer.start_op(op_index)
        signal.setitimer(signal.ITIMER_REAL, self.w.budget_s)
        start = time.perf_counter_ns()
        try:
            self.armed = True
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(argv)
            if code != 0:
                failure = "exit %d" % code
        except BudgetExceeded:
            failure = "over the %g s budget" % self.w.budget_s
        except SystemExit as exc:
            failure = "argument error (exit %s): %s" % (exc.code, err.getvalue().strip()[-200:])
        except Exception as exc:  # an uncaught exception is a failed operation, not a crash
            failure = "%s: %s" % (type(exc).__name__, str(exc)[:200])
        finally:
            self.armed = False
            end = time.perf_counter_ns()
            signal.setitimer(signal.ITIMER_REAL, 0)
        return failure, out.getvalue(), start, end

    def request(self, index, pass_no, op_index=-1):
        """Run request ``index``; writes a jacobi result for its re-checks."""
        req = self.w.requests[index]
        if req.source is not None and req.source not in self.written:
            return Op(index, pass_no, req.kind, req.side, "its jacobi request failed", 0, 0, 0), ""
        failure, text, start, end = self.execute(self.argv(index), op_index)
        if req.kind == "jacobi" and failure is None and index not in self.written:
            with open(self.path(index, "out"), "w") as fh:
                fh.write(text)
            with open(self.path(index, "seq"), "w") as fh:
                json.dump(json.loads(text)["sequence"], fh)
            self.written.add(index)
        op = Op(index, pass_no, req.kind, req.side, failure, len(text.encode()), start, end)
        return op, text


# -- phases --------------------------------------------------------------


def load_cli():
    src = ROOT / "src"
    if not (src / "qform" / "cli.py").is_file():
        sys.exit("perfbench: no qform sources under %s" % src)
    sys.path.insert(0, str(src))
    from qform import cli

    return cli


def set_up(cli, name, seed, workdir):
    """Build the workload from the seed and write its documents.

    Repeated SETUPS times; returns the runner and the (start_ns, end_ns)
    span of every set-up.  The warm-up that follows is not part of it.
    """
    spans = []
    runner = None
    for _ in range(SETUPS):
        gc.collect()
        t0 = time.perf_counter_ns()
        w = workloads.WORKLOADS[name](seed)
        runner = Runner(cli, w, workdir)
        runner.write_inputs()
        spans.append((t0, time.perf_counter_ns()))
    for i in runner.w.warmup:  # every side code path runs once before timing
        runner.request(i, -1)
    gc.collect()
    gc.freeze()  # collections during the run scan only what the run allocates
    return runner, spans


def timed_loop(runner, seconds):
    """Whole passes until the request time reaches ``seconds``."""
    w = runner.w
    ops, first_out, changed = [], {}, []
    busy = 0.0
    pass_no = 0
    while busy < seconds:
        for index in w.order:
            op, text = runner.request(index, pass_no, len(ops))
            ops.append(op)
            busy += op.seconds
            if op.failure is None:
                if index not in first_out:
                    first_out[index] = text
                elif first_out[index] != text:
                    changed.append(index)
        pass_no += 1
    return ops, first_out, changed


def check_answers(runner, ops, first_out, changed):
    """Every failed operation and every wrong answer, found outside the timed region."""
    w = runner.w
    errors = ["request %d (%s): %s" % (o.index, o.kind, o.failure) for o in ops if o.failure]
    errors += ["request %d (%s): output changed between passes" % (i, w.requests[i].kind) for i in changed]
    max_bits = 0
    for index, text in first_out.items():
        req = w.requests[index]
        doc = json.loads(text)
        max_bits = max(max_bits, stats.max_bits(doc))
        reason = checks.check(req, doc)
        if reason is None and req.kind == "ltriv":
            reason = _replays(runner, index, doc["sequence"])
        if reason is not None:
            errors.append("request %d (%s): %s" % (index, req.kind, reason))
    return errors, max_bits


def _replays(runner, index, sequence):
    path = runner.path(index, "ltriv-seq")
    with open(path, "w") as fh:
        json.dump(sequence, fh)
    failure, text, _, _ = runner.execute(["validate", "--input", path])
    if failure is not None or json.loads(text).get("ok") is not True:
        return "sequence does not replay: %s" % (failure or text.strip())
    return None


def run_probes(runner):
    out = []
    for req in runner.w.probes:
        failure, _, start, end = runner.execute(req.argv)
        digits = len(imath.int_to_decimal(abs(req.expect["a"] * req.expect["b"])))
        out.append({"kind": req.kind, "ab_digits": digits, "seconds": (end - start) / 1e9, "failure": failure})
    return out


# -- metrics -------------------------------------------------------------


def ops_per_s(ops, seconds):
    """Main-stream runs per second; ``seconds[i]`` is the time of ``ops[i]``."""
    main = [s for o, s in zip(ops, seconds) if not o.side]
    return len(main) / sum(main)


def per_kind_ms(w, ops, seconds):
    """{kind: (median ms, runs)} over the main stream of a kind, or its side stream."""
    out = {}
    for kind in workloads.REPORTED_KINDS:
        side = kind not in w.main_kinds
        runs = [s for o, s in zip(ops, seconds) if o.kind == kind and o.side == side]
        out[kind] = (statistics.median(runs) * 1000, len(runs))
    return out


def end_to_end(w, ops, scaled, setup_scaled, max_bits, peak_rss_mb):
    """The end-to-end metrics; ``scaled[i]`` is ``ops[i]`` at reference speed."""
    main = [s for o, s in zip(ops, scaled) if not o.side]
    level, tail_value, beyond = stats.tail(main)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": ops_per_s(ops, scaled),
        "op_tail_ms": tail_value * 1000,
        "out_bytes": sum(o.nbytes for o in ops if o.pass_no == 0),
        "max_bits": max_bits,
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {}
    for kind, (ms, runs) in per_kind_ms(w, ops, scaled).items():
        values[kind.replace("-", "_") + "_ms"] = ms
        counts[kind] = {"runs": runs, "stream": "main" if kind in w.main_kinds else "side"}
    wall = [o.seconds for o in ops]
    busy = sum(main)
    share = {}
    for o, s in zip(ops, scaled):
        if not o.side:
            share[o.kind] = share.get(o.kind, 0) + s / busy
    notes = {
        "op_tail": {"percentile": level, "runs": len(main), "beyond": beyond},
        "per_kind": counts,
        "main_time_share": share,
        "wall_clock": {"ops_per_s": ops_per_s(ops, wall),
                       **{k + "_ms": ms for k, (ms, _) in per_kind_ms(w, ops, wall).items()}},
    }
    return values, notes


def per_layer(tracer, ops, probes):
    spans = tracer.spans()
    totals = layertrace.self_times([s[:4] for s in spans])
    values, units = {}, {}
    for name in layertrace.span_names():
        calls, self_ns = totals.get(name, (0, 0))
        values[name + ".calls"], units[name + ".calls"] = calls, "count"
        values[name + ".self_s"], units[name + ".self_s"] = self_ns / 1e9, "s"
    # time covered by the layer spans directly below each operation's cli.run span
    covered = {}
    for name, start, end, parent, op in spans:
        if parent >= 0 and spans[parent][3] < 0:
            covered[op] = covered.get(op, 0) + end - start
    extra = {
        "intmat.snf.max_bits": (tracer.snf_max_bits, "bits"),
        "intmat.snf.repeat_ratio": (tracer.snf_repeats / max(tracer.snf_calls, 1), "ratio"),
        "serialize.bytes_out": (tracer.bytes_out, "bytes"),
        "bench.unattributed_s": (sum((o.end_ns - o.start_ns) - covered.get(i, 0) for i, o in enumerate(ops)) / 1e9, "s"),
        "bench.bookkeeping_s": (totals.get(layertrace.BOOKKEEPING, (0, 0))[1] / 1e9, "s"),
        "bench.traced_ops_per_s": (ops_per_s(ops, [o.seconds for o in ops]), "1/s"),
        "bench.known_defect_failures": (sum(1 for p in probes if p["failure"]), "count"),
    }
    for name, (value, unit) in extra.items():
        values[name], units[name] = value, unit
    return values, units


# -- run metadata --------------------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qform").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "seed": args.seed,
        "held_out_seed": args.seed == HELD_OUT_SEED,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- main ----------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    meta = metadata(args)
    cli = load_cli()
    workdir = HERE / ".work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, meta, cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, meta, cli, workdir):
    # an untraced run samples the reference speed from set-up to the end of the loop
    main_loop = workloads.MAIN_LOOP[args.workload]
    sampler = None if args.trace else speed.Sampler({"objects", main_loop})
    tracer = None
    try:
        if sampler is not None:
            sampler.start()
        runner, setup_spans = set_up(cli, args.workload, args.seed, workdir)
        if args.trace:
            tracer = layertrace.Tracer()
            tracer.install()
            runner.tracer = tracer
        ops, first_out, changed = timed_loop(runner, args.seconds)
    finally:
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.uninstall()
            runner.tracer = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors, max_bits = check_answers(runner, ops, first_out, changed)
    if errors:
        for line in errors:
            print("perfbench: " + line, file=sys.stderr)
        return 1
    probes = run_probes(runner)
    meta["loadavg_end"] = os.getloadavg()
    record = {"meta": meta, "attempted": len(ops), "known_defect_probes": probes}
    if args.trace:
        values, units = per_layer(tracer, ops, probes)
        record["spans"] = len(tracer.records) // layertrace.FIELDS
        _write_spans(args, tracer)
        untraced = _load_result(args, trace=0)
        if untraced is not None:
            record["tracing_overhead"] = {
                "untraced_ops_per_s": untraced["wall_clock"]["ops_per_s"],
                "traced_ops_per_s": values["bench.traced_ops_per_s"],
            }
    else:
        scaled = [sampler.scaled_s("objects" if o.side else main_loop, o.start_ns, o.end_ns) for o in ops]
        setup_scaled = [sampler.scaled_s("objects", a, b) for a, b in setup_spans]
        values, notes = end_to_end(runner.w, ops, scaled, setup_scaled, max_bits, peak_rss_mb)
        record["reference_speed"] = {
            name: {"samples": len(sampler.durations[name]),
                   "median_ns": statistics.median(sampler.durations[name]),
                   "nominal_ns": speed.LOOPS[name][1]}
            for name in sampler.names
        }
        units = END_TO_END_UNITS
        record.update(notes)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    record["metrics"] = metrics
    _report(args, record)
    result = {"correct": True, "attempted": len(ops), "failed": 0, "metrics": metrics}
    print(json.dumps(result))
    return 0


def _result_path(args, trace):
    return HERE / "results" / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, trace))


def _load_result(args, trace):
    try:
        return json.loads(_result_path(args, trace).read_text())
    except (OSError, ValueError):
        return None


def _write_spans(args, tracer):
    """Every span of the traced loop, as flat records indexing ``names``."""
    path = HERE / "results" / ("%s-seed%d-spans.json" % (args.workload, args.seed))
    path.parent.mkdir(exist_ok=True)
    doc = {
        "fields": ["name", "start_ns", "end_ns", "parent", "op"],
        "names": tracer.names,
        "records": tracer.records.tolist(),
    }
    path.write_text(json.dumps(doc))


def _report(args, record):
    path = _result_path(args, args.trace)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    meta = record["meta"]
    print("perfbench %s seed=%d trace=%d python=%s nproc=%d load=%.2f->%.2f src=%s" % (
        args.workload, args.seed, args.trace, meta["python"], meta["nproc"],
        meta["loadavg_start"][0], meta["loadavg_end"][0], meta["src_sha256"][:12]))
    print("  fail_ratio 0/%d" % record["attempted"])
    if "op_tail" in record:
        t = record["op_tail"]
        for name, r in record["reference_speed"].items():
            print("  reference loop %s: %d samples, median %.0f us, nominal %.0f us" % (
                name, r["samples"], r["median_ns"] / 1e3, r["nominal_ns"] / 1e3))
        print("  wall-clock ops_per_s %.4g" % record["wall_clock"]["ops_per_s"])
        print("  op_tail_ms is p%g of %d main-stream runs (%d beyond it)" % (t["percentile"], t["runs"], t["beyond"]))
        print("  main time share: " + ", ".join("%s %.2f" % kv for kv in sorted(record["main_time_share"].items())))
    for name, m in record["metrics"].items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    for p in record["known_defect_probes"]:
        print("  known-defect probe %s, |ab| of %d digits: %s" % (p["kind"], p["ab_digits"], p["failure"] or "passed"))
    if "tracing_overhead" in record:
        o = record["tracing_overhead"]
        print("  tracing overhead: %.4g ops/s untraced, %.4g traced" % (o["untraced_ops_per_s"], o["traced_ops_per_s"]))


if __name__ == "__main__":
    sys.exit(main())
