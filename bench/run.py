"""Run one disclab benchmark workload and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: s_hamiltonian, phase_functions, spline_flow, calabi_quadrature
(see bench/README.md).  The program is imported from ./src; nothing is
built, so the numpy kernel lane runs unless a compiled extension is
already present there.

With --trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics":
     {"wall_s": ..., "setup_s": ..., "peak_rss_mb": ...}}

and with --trace 1 its metrics are the per-layer ones.  The full result,
with the lane, package versions, git sha, per-pass times and every failed
check, is written to bench/out/; a traced run also writes its spans there.

Each workload process is started alone, with numeric thread pools pinned
to one thread.  An untraced run starts SETUP_PROBES processes that only
set up, then the measured process; setup_s is the median over all of them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def git_sha(root):
    """The checked-out commit, read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def start_worker(args, deadline, setup_only=False, spans_out=""):
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    remaining = deadline - time.monotonic()
    if remaining <= 0.0:
        raise WorkerError("out of time before starting a worker")
    cmd += ["--launched", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "disclab", "__init__.py")):
        print(f"no disclab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    try:
        probes = [] if args.trace else [
            start_worker(args, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_PROBES)]
        res = start_worker(args, deadline, spans_out=stem + "_spans.json" if args.trace else "")
    except WorkerError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["layers"]
    else:
        values = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(probes + [res["setup_s"]]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
    meta = dict(res["meta"], git_sha=git_sha(ROOT), nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)),
                threads={name: "1" for name in PINNED_THREADS},
                workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace)
    summary = {"correct": bool(res["correct"]), "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(dict(summary, meta=meta, setup_probes_s=probes, result=res), fh, indent=1)
    print(f"# {args.workload} seed {args.seed}: lane {meta['lane']}, "
          f"{len(res['walls'])} passes, details in {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
