#!/usr/bin/env python3
"""Digests of the CLI's standard output on one pass of a benchmark workload.

    python3 tests/pass_digests.py --workload all --seed 1 7919 > digests.txt

Builds each named workload (``all`` names every one) from ``perfbench/``
with each seed, then sends its warm-up requests and one pass of its
request order through perfbench's ``Runner``, so each request reaches
``qform.cli.run`` exactly as the benchmark sends it.  One line per
request: the workload, the seed, the phase (``warmup`` or ``pass``), the
request index, its kind and the sha256 of its standard output, or the
failure.  Run it in two checkouts and ``diff`` the two listings to show
that a change leaves every output byte-identical.

It only reads ``perfbench/`` and the ``src/`` next to it.  Its name does not
start with ``test_``, so pytest does not collect it.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def pass_digests(name: str, seed: int, workdir: Path):
    """[(phase, index, kind, sha256 of stdout or the failure)] in the order sent."""
    runner = run.Runner(run.load_cli(), workloads.WORKLOADS[name](seed), workdir)
    runner.write_inputs()
    out = []
    for phase, pass_no, indices in (("warmup", -1, runner.w.warmup), ("pass", 0, runner.w.order)):
        for index in indices:
            op, text = runner.request(index, pass_no)
            out.append((phase, index, op.kind, op.failure or hashlib.sha256(text.encode()).hexdigest()))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["all", *sorted(workloads.WORKLOADS)])
    p.add_argument("--seed", type=int, nargs="+", default=[run.DEFAULT_SEED])
    args = p.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for seed in args.seed:
            with tempfile.TemporaryDirectory() as tmp:
                for line in pass_digests(name, seed, Path(tmp)):
                    print(name, seed, *line)


if __name__ == "__main__":
    main()
