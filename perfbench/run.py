"""fishershift benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_drift2 --seed 0 --seconds 45 --trace 0

Run from anywhere inside a checkout that holds ``src/fishershift``; the
program is imported from that source tree, never from an installed copy.

A run generates the workload's inputs from ``--seed`` (outside any timed
region), times interpreter start plus imports in fresh processes, then
starts one worker process that drives ``fishershift.cli.main`` in a closed
loop with one client for ``--seconds`` and checks every operation's outputs.
With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
printed; with ``--trace 1`` the worker also runs traced operations and the
per-layer metrics are printed. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Everything else the run
measured, and the versions it ran with, goes to
``perfbench/out/results/<workload>-seed<seed>-trace<t>.json``.
"""

import os
import sys

# One BLAS thread: the client is single-threaded and the per-step matrices
# are small; a second thread only adds noise on a shared 2-core machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")

# Measured set-ups per run: half before the worker, half after it, each half
# after one unmeasured warm-up. On a shared host the speed drifts over
# seconds, so probes taken tens of seconds apart give a steadier median.
SETUP_PROBES = 16
TIME_LIMIT_S = 170.0  # the whole run, probes and worker included

UNITS = {"calls": "count", "self_us_p50": "us", "self_s": "s"}


def probe_setup(count: int, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter to numpy + fishershift imported."""
    samples = []
    for i in range(count + 1 if count else 0):
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, WORKER, "--probe", ROOT],
            capture_output=True, text=True, check=True, timeout=deadline - time.monotonic(),
        )
        if i:  # the first one fills the OS file cache and writes bytecode
            samples.append(float(done.stdout.strip().splitlines()[-1]) - started)
    return samples


def run_worker(args, workdir: str, summary_path: str, deadline: float) -> None:
    command = [
        sys.executable, WORKER, "--root", ROOT, "--workdir", workdir,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--golden", GOLDEN, "--out", summary_path,
    ]
    # The CLI's stdout chatter must not land after the result line.
    with subprocess.Popen(command, stdout=sys.stderr) as worker:
        try:
            code = worker.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
            raise RuntimeError(f"worker exceeded the {TIME_LIMIT_S:.0f} s run limit") from None
    if code != 0:
        raise RuntimeError(f"worker exited with status {code}")


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "fishershift")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def end_to_end(args, summary: dict, setup: list[float]) -> dict:
    # The mean, not the median: a 45 s run holds 3-4 sweep operations, whose
    # median rests on one of them, and the host's speed drifts in phases as
    # long as an operation, which the mean averages over. It was the steadier
    # of the two between runs of the same code (see README.md).
    wall = statistics.fmean(summary["walls_s"]["untraced"])
    quality = summary["quality"] or {}
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "steps_per_s": {"value": workloads.nominal_steps(args.workload) / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        "c3_acc_pct": {"value": quality.get("c3_acc_pct", 0.0), "unit": "%"},
    }


def tracing_overhead_s(summary: dict) -> float:
    walls = summary["walls_s"]
    return statistics.median(walls["traced"]) - statistics.median(walls["untraced"])


def per_layer(summary: dict) -> dict:
    metrics = {}
    for name, value in summary["per_layer"].items():
        metrics[name] = {"value": value, "unit": UNITS[name.rsplit(".", 1)[1]]}
    metrics["bench.useful_run_ratio"] = {"value": summary["useful_run_ratio"], "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": tracing_overhead_s(summary), "unit": "s"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: drives the inputs and the program's --seed")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measured time; the operation under way when it ends completes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args()

    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "fishershift", "cli.py")):
        print(f"error: no fishershift source tree under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, args.workload)
    results_dir = os.path.join(OUT, "results")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    generated = time.monotonic()
    workloads.generate_inputs(args.workload, args.seed, workdir)
    generate_s = time.monotonic() - generated

    try:
        probes = SETUP_PROBES // 2 if args.trace == 0 else 0
        setup = probe_setup(probes, deadline)
        summary_path = os.path.join(workdir, f"worker-trace{args.trace}.json")
        run_worker(args, workdir, summary_path, deadline)
        setup += probe_setup(probes, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)

    walls = summary["walls_s"]
    completed = bool(walls["untraced"]) and (args.trace == 0 or bool(walls["traced"]))
    if completed:
        metrics = per_layer(summary) if args.trace else end_to_end(args, summary, setup)
    else:  # every operation crashed: nothing to measure, but report the count
        print("error: no operation completed", file=sys.stderr)
        metrics = {}
    attempted, failed = summary["attempted"], summary["failed"]
    result = {
        "correct": completed and failed == 0 and summary["quality"] is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "failed_ratio": failed / attempted,
        "c3_gain_pp": (summary["quality"] or {}).get("c3_gain_pp"),
        "wall_p50_s": statistics.median(walls["untraced"]) if walls["untraced"] else None,
        "samples": {
            "setup_s": len(setup),
            "wall_s": len(summary["walls_s"]["untraced"]),
            "traced_wall_s": len(summary["walls_s"]["traced"]),
        },
        "setup_samples_s": setup,
        "input_generation_s": generate_s,
        "nominal_steps": {w: workloads.nominal_steps(w) for w in workloads.WORKLOADS},
        "environment": {
            "python": summary["python"],
            "numpy": summary["numpy"],
            "blas": summary["blas"],
            "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(),
            "source_sha256": source_sha256(),
        },
        "worker": summary,
    }
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for failure in summary["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
