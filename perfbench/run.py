"""gvccarbon benchmark: one run of one workload.

Run from the root of a checkout; the package is imported from ``src/``:

    python3 perfbench/run.py --workload demo_report --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  demo_report        ``gvccarbon report`` on the bundled 17 x 4 x 24 demo world
  oecd_embodied      ``gvccarbon embodied`` on one year of a 77 x 45 world
  oecd_accounts_mem  build_model + compute_accounts + conservation_gap on a
                     77 x 45 world held in memory by one long-lived process

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run. Lines before it give the environment record and the metrics in
words. ``--countries`` and ``--industries`` shrink the OECD-sized world
for smoke tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

THREADS = str(len(os.sched_getaffinity(0)))
# BLAS threads at most nproc: in every child's environment, and in this
# process's own when it runs as a script, before numpy is first imported.
BLAS_ENV = {name: THREADS for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 165.0  # every child ends by then; a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def _source_digest(root):
    """sha256 over the package sources, for checkouts that are not git."""
    digest = hashlib.sha256()
    package = root / "src" / "gvccarbon"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root, args, world):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = _git_commit(root)
    code = ({"git_commit": commit} if commit
            else {"git_commit": None, "src_sha256": _source_digest(root)})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": int(THREADS),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **code,
        **world,
    }


def end_to_end(outcome):
    return {
        "wall_s": statistics.median(op.wall_s for op in outcome.ops),
        "setup_s": statistics.median(outcome.setup_s),
        "peak_rss_mb": max(op.rss_mb for op in outcome.ops),
    }


def per_layer(outcome):
    metrics = tracer.layer_metrics(outcome.setup_stats, outcome.op_stats)
    metrics["trace.wall_s"] = (statistics.median(op.wall_s for op in outcome.ops),
                               "s")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--countries", type=int, default=77)
    parser.add_argument("--industries", type=int, default=45)
    return parser.parse_args(argv)


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "gvccarbon" / "__init__.py").is_file():
        print("perfbench: src/gvccarbon not found; run from the root of a "
              "gvccarbon checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work),
               **BLAS_ENV)
    ctx = workloads.Context(
        root=root, work=work, env=env, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), countries=args.countries,
        industries=args.industries, deadline=started + RUN_LIMIT_S)
    try:
        # Compile and page in the package once, untimed: users pay that
        # once per install, not once per command.
        workloads.run_process(ctx, [sys.executable, "-c",
                                    "import gvccarbon.cli, gvccarbon.synthetic"],
                              "warmup").require_ok("importing gvccarbon")
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except workloads.RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    attempted = len(outcome.ops)
    failed = sum(1 for op in outcome.ops if op.failures)
    for op in outcome.ops:
        for failure in op.failures[:3]:
            print(f"perfbench: failed check: {failure}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(outcome)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(outcome).items()}

    print("environment " + json.dumps(environment(root, args, outcome.world),
                                      sort_keys=True))
    print(f"{args.workload}: {attempted} operations, closed loop, one client")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
