"""The measured process: one client driving ``fishershift.cli.main`` in a closed loop.

Started by ``run.py`` with the BLAS thread pin already in its environment.
It runs operations of one workload back to back (the next starts when the
previous one has returned), checks every operation's outputs outside the
timed region, and writes a JSON summary to ``--out``. The CLI's own chatter
goes to this process's stdout, which ``run.py`` routes to its stderr.

``--probe`` only imports numpy and fishershift and prints CLOCK_MONOTONIC
when done: ``run.py`` times process start to that point as set-up.
"""

import os
import sys
import time


def _import_program(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy  # noqa: F401  (part of set-up: the program needs it first)
    import fishershift.cli

    expected = os.path.join(root, "src", "fishershift")
    if os.path.dirname(os.path.abspath(fishershift.cli.__file__)) != expected:
        raise SystemExit(f"error: imported fishershift from {fishershift.cli.__file__}")
    return fishershift


def _probe(root: str) -> None:
    _import_program(root)
    print(repr(time.monotonic()), flush=True)


if len(sys.argv) > 1 and sys.argv[1] == "--probe":
    _probe(sys.argv[2])
    sys.exit(0)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class OperationFailed(Exception):
    """An operation's outputs are missing, wrong, or not reproducible."""


def check_outputs(workload: str, fishershift) -> dict:
    """Check one operation's output files; return the quality figures.

    Exit codes were checked by the caller; here the traces must round-trip
    byte for byte through ``RunTrace.from_json_dict`` and hold epochs x K
    records. The sweep report was already verified by ``fishershift report``.
    """
    if workload == "sweep_drift2":
        with open("report.json", encoding="utf-8") as fh:
            rows = [r for r in json.load(fh)["rows"] if not r["skipped"]]
        if not rows:
            raise OperationFailed("sweep report holds no completed rows")
        return {
            "c3_acc_pct": statistics.fmean(r["mean"]["c3"] for r in rows),
            "c3_gain_pp": statistics.fmean(r["delta3"] for r in rows),
        }
    accuracy = {}
    for mode in ("c3", "cv_sequential"):
        with open(f"{mode}.trace.json", encoding="utf-8") as fh:
            text = fh.read()
        trace = fishershift.trainer.RunTrace.from_json_dict(json.loads(text))
        if trace.to_json() != text:
            raise OperationFailed(f"{mode} trace does not round-trip through RunTrace")
        expected = workloads.trace_record_count(workload)
        if len(trace.records) != expected:
            raise OperationFailed(
                f"{mode} trace holds {len(trace.records)} records, expected {expected}"
            )
        accuracy[mode] = 100.0 * statistics.fmean(trace.per_batch_accuracies())
    return {
        "c3_acc_pct": accuracy["c3"],
        "c3_gain_pp": accuracy["c3"] - accuracy["cv_sequential"],
    }


def run_operation(argvs, fishershift) -> tuple[float, list[int]]:
    """Time one operation: its CLI invocations, back to back.

    An invocation that raises ``SystemExit`` (argparse errors do) counts as
    having exited with that status.
    """
    codes = []
    started = time.perf_counter()
    for argv in argvs:
        try:
            codes.append(fishershift.cli.main(list(argv)))
        except SystemExit as exc:  # the status the process would exit with
            codes.append(exc.code if isinstance(exc.code, int) else int(exc.code is not None))
    return time.perf_counter() - started, codes


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--golden", required=True, help="golden digests JSON")
    parser.add_argument("--out", required=True, help="summary JSON path")
    args = parser.parse_args()

    fishershift = _import_program(args.root)

    with open(args.golden, encoding="utf-8") as fh:
        golden = json.load(fh)
    golden = golden["digests"].get(args.workload) if args.seed == golden["seed"] else None

    os.chdir(args.workdir)
    argvs = workloads.operation_argv(args.workload, args.seed)
    tracer = Tracer() if args.trace else None

    walls = {"untraced": [], "traced": []}
    failures: dict[int, str] = {}  # operation number -> first reason it failed
    traced_ops: list[int] = []
    digests = None
    quality = None
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        now = time.perf_counter()
        n_untraced, n_traced = len(walls["untraced"]), len(walls["traced"])
        # A traced run needs one untraced operation and two traced ones (to
        # compare call counts); it alternates the two while time remains.
        enough = n_untraced >= 1 and (tracer is None or n_traced >= 2)
        if now >= deadline and (enough or failures):
            break
        traced = tracer is not None and n_untraced >= 1 and (n_traced < n_untraced or now >= deadline)
        attempted += 1
        # Each operation starts without outputs, so one that writes nothing
        # cannot pass on the previous operation's files.
        for name in workloads.output_files(args.workload):
            if os.path.exists(name):
                os.unlink(name)
        if traced:
            traced_ops.append(attempted)
            tracer.install()
            tracer.begin_operation()
        try:
            wall, codes = run_operation(argvs, fishershift)
        except Exception:  # noqa: BLE001 - a crash is one failed operation
            failures[attempted] = traceback.format_exc(limit=3)
            continue
        finally:
            if traced:
                tracer.end_operation()
                tracer.uninstall()
        walls["traced" if traced else "untraced"].append(wall)
        try:
            if any(codes):
                raise OperationFailed(f"exit codes {codes}")
            op_quality = check_outputs(args.workload, fishershift)
            op_digests = {name: sha256_file(name) for name in workloads.output_files(args.workload)}
            if golden is not None and op_digests != golden:
                raise OperationFailed(f"outputs differ from the golden digests: {op_digests}")
            if digests is not None and op_digests != digests:
                raise OperationFailed(f"outputs differ from the run's first operation: {op_digests}")
        except (OperationFailed, OSError, ValueError, KeyError, TypeError) as exc:
            failures[attempted] = f"{type(exc).__name__}: {exc}"
            continue
        digests = digests or op_digests
        quality = quality or op_quality

    trace = {}
    if walls["traced"]:
        trace = trace_summary(tracer, traced_ops, failures, os.path.join(args.workdir, "spans.npz"))
    summary = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": [f"op {op}: {reason}" for op, reason in sorted(failures.items())],
        "walls_s": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "golden_checked": golden is not None,
        "quality": quality,
        "fishershift_file": fishershift.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
    }
    summary.update(trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


def trace_summary(tracer: Tracer, traced_ops: list[int], failures: dict, spans_path: str) -> dict:
    """Per-layer figures of the traced operations; a call-count mismatch fails."""
    tracer.save(spans_path)
    ops = tracer.per_operation()
    for number, op in zip(traced_ops[1:], ops[1:]):
        if op["calls"] != ops[0]["calls"]:
            changed = sorted(n for n in SPAN_NAMES if op["calls"][n] != ops[0]["calls"][n])
            failures.setdefault(number, f"call counts differ from the first traced op in {changed}")
    p50 = tracer.self_us_p50()
    per_layer = {}
    for name in SPAN_NAMES:
        per_layer[f"{name}.calls"] = ops[0]["calls"][name]
        per_layer[f"{name}.self_us_p50"] = p50[name]
        per_layer[f"{name}.self_s"] = statistics.median(op["self_s"][name] for op in ops)
    ratios = [op["useful_run_ratio"] for op in ops]
    return {
        "per_layer": per_layer,
        "useful_run_ratio": ratios[0],
        "useful_run_ratios": ratios,
        "spans": len(tracer.starts),
        "spans_file": os.path.basename(spans_path),
    }


if __name__ == "__main__":
    sys.exit(main())
