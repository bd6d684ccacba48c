"""Benchmark of adaptnc: runs one workload in this process and prints its metrics.

    python3 bench/run.py --workload plan --seed 1 --seconds 20 --trace 0

A run repeats rounds of the workload's fixed operations until ``--seconds``
of measuring have passed (at least five rounds). Each round imports adaptnc
afresh from ``src/`` and generates its inputs from the seed (that is the
set-up), then times every operation. The first round's outputs are checked
against the oracle in ``oracle.py``; every later round must reproduce them
exactly. With ``--trace 1`` rounds alternate between untraced and traced, and
the per-module metrics come from the traced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Metric names and units are those of
BENCHMARK.json at the root of the checkout.
"""

import os

# One BLAS thread: the benchmark measures one process doing the work alone.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
MIN_ROUNDS = 5
# Rounds stop once the run has taken this long, so that it ends within 180 s.
WALL_LIMIT_S = 150.0


def pin_malloc_thresholds():
    """Have glibc map every block of 1 MiB or more on its own and unmap it
    when freed. Its default threshold adapts to the frees it has seen, so the
    same run could keep tens of MB of freed arrays in the heap or not, and
    peak RSS would depend on that history rather than on live memory."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, 1 << 20)  # M_TRIM_THRESHOLD


def fresh_import():
    """Import adaptnc from this checkout's src/ with no module left from an
    earlier round, so that each round pays what a new process pays."""
    for name in [m for m in sys.modules if m == "adaptnc" or m.startswith("adaptnc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("adaptnc")
    importlib.import_module("adaptnc.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "adaptnc":
        raise SystemExit(f"adaptnc imported from {pkg.__file__}, not from {SRC}")
    return pkg


class Round:
    """One round: set-up, then every operation timed, then digests of the
    outputs (the outputs themselves are kept only while needed)."""

    def __init__(self, build, seed, workdir, tracer):
        gc.collect()
        start = time.perf_counter()
        self.pkg = fresh_import()
        self.ops = build(self.pkg, seed, workdir)
        self.setup_s = time.perf_counter() - start
        if tracer is not None:
            tracer.install()
            first = len(tracer.spans)
        self.op_s, self.outputs, self.errors = [], [], []
        start = time.perf_counter()
        for op in self.ops:
            t = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            self.op_s.append(time.perf_counter() - t)
            self.outputs.append(out)
            self.errors.append(error)
        self.run_s = time.perf_counter() - start
        self.layers = tracer.reduce_round(first) if tracer is not None else None
        self.digests = [None if error else digest(op, out)
                        for op, out, error in zip(self.ops, self.outputs, self.errors)]

    def release(self):
        self.pkg = self.outputs = None


def digest(op, out) -> bytes:
    try:
        return op.digest(out)
    except Exception as exc:  # e.g. a CLI command that wrote no output file
        return f"digest raised {type(exc).__name__}: {exc}".encode()


def verdicts(rounds) -> list:
    """Problems found per round and operation. The first round's outputs are
    checked against the oracle; a later round's output that is identical
    keeps that verdict, and one that differs is a failure."""
    first = rounds[0]
    checked = []
    for op, out, error in zip(first.ops, first.outputs, first.errors):
        if error:
            checked.append([error])
            continue
        try:
            checked.append(op.check(out))
        except Exception as exc:
            checked.append([f"check raised {type(exc).__name__}: {exc}"])
    out = [checked]
    for rnd in rounds[1:]:
        out.append([
            [error] if error else
            (["output differs from the first round's"] if got != ref_digest else ref)
            for error, got, ref_digest, ref in zip(rnd.errors, rnd.digests, first.digests, checked)
        ])
    return out


def base(samples) -> float:
    """The time a piece of work takes at the machine's base speed: the 90th
    percentile of its samples. On a shared VM the CPU can run up to 1.9x
    faster in bursts of seconds to half a minute; a median reads whatever mix
    of bursts a run happened to get, an upper percentile the base speed."""
    return float(np.quantile(np.asarray(list(samples), dtype=float), 0.9))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adaptnc" / "__init__.py").is_file():
        print(f"no adaptnc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    pin_malloc_thresholds()
    warnings.simplefilter("ignore", RuntimeWarning)  # the known fault's overflow warnings

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    began = time.perf_counter()
    rounds, measured = [], 0.0
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            round_dir = workdir / f"round{len(rounds)}"
            round_dir.mkdir()
            rnd = Round(build, args.seed, round_dir, tracer if traced else None)
            print(f"round {len(rounds)}{' traced' if traced else ''}: set-up {rnd.setup_s:.4f} s, "
                  f"run {rnd.run_s:.4f} s", file=sys.stderr)
            if rounds:
                rnd.release()
            rounds.append(rnd)
            measured += rnd.setup_s + rnd.run_s
            if len(rounds) >= MIN_ROUNDS + 2 * (tracer is not None) and measured >= args.seconds:
                break
            if time.perf_counter() - began + rnd.setup_s + rnd.run_s > WALL_LIMIT_S:
                break
        # read before the checks, which allocate memory of their own
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found = verdicts(rounds)
        if tracer is not None:
            tracer.write(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r) for r in found)
    failed = sum(1 for r in found for problems in r if problems)
    unexpected = sorted({op.name for r in found for op, problems in zip(rounds[0].ops, r)
                         if problems and not op.known_fault})
    for op, problems in zip(rounds[0].ops, found[0]):
        if problems:
            print(f"failed: {op.name}: {'; '.join(problems)}", file=sys.stderr)

    # The first round runs cold (first calls into numpy, first page faults);
    # times come from the warm rounds after it.
    warm = [r for r in rounds[1:] if r.layers is None] or rounds[:1]
    if tracer is None:
        ops = rounds[0].ops
        op_s = [base(r.op_s[i] for r in warm) for i in range(len(ops))]
        values = {
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "run_s": sum(op_s),
            "peak_rss_mb": peak_rss_mb,
        }
        for part in workloads.PARTS:
            picked = [i for i, op in enumerate(ops) if op.part == part]
            values[f"{part}_per_s"] = (sum(ops[i].units for i in picked)
                                       / sum(op_s[i] for i in picked))
        declared = spec["end_to_end"]
    else:
        traced = [r for r in rounds if r.layers is not None]
        values = {name: base(r.layers[name] for r in traced) for name in traced[0].layers}
        values["trace.overhead_s"] = base(r.run_s for r in traced) - base(r.run_s for r in warm)
        declared = spec["per_layer"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    for name in unexpected:
        print(f"unexpected failure: {name}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
