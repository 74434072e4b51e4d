"""The benchmark's three workloads: set-up, operations and output checks.

Load is a closed loop with one client: each operation starts when the
previous one has ended, until ``--seconds`` have passed (at least one).
Every operation and set-up step runs in a child process whose exit,
wall time and peak resident memory are taken with ``os.wait4``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracer
import world

SETUP_REPEATS = 3    # set-ups per run that are cheap enough to repeat
# One 77 x 45 year costs about 18 s to write and 16 s to parse, so the
# on-disk workload holds one year; in memory both years are cheap.
EMBODIED_YEARS = 1
MEM_YEARS = 2


class RunError(Exception):
    """The run cannot produce a result (as opposed to a failed operation)."""


@dataclass
class Context:
    root: Path
    work: Path
    env: dict
    seed: int
    seconds: float
    trace: bool
    countries: int
    industries: int
    deadline: float  # time.monotonic() by which every child has ended

    def child(self, *args):
        return [sys.executable, str(self.root / "perfbench" / "child.py"), *args]

    def trace_args(self, tag, op):
        if not self.trace:
            return []
        return ["--spans", str(self.spans_path(tag)), "--op", str(op)]

    def spans_path(self, tag):
        return self.work / f"{tag}.spans.json"

    def spans(self, tag):
        """{op id: OpStats} from one traced child; empty when untraced."""
        path = self.spans_path(tag)
        if not self.trace or not path.is_file():
            return {}
        return tracer.op_stats(json.loads(path.read_text(encoding="utf-8")))

    def world_args(self, years):
        return ["--seed", str(self.seed), "--countries", str(self.countries),
                "--industries", str(self.industries), "--years", str(years)]

    def oecd_world(self, years, input_bytes):
        return {"N": self.countries, "K": self.industries,
                "NK": self.countries * self.industries, "years": years,
                "input_bytes": input_bytes}


@dataclass
class Proc:
    returncode: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str

    def failures(self):
        if self.returncode == 0:
            return []
        tail = self.stderr.strip().splitlines()[-3:]
        return [f"exit code {self.returncode}: " + " | ".join(tail)]

    def require_ok(self, what):
        if self.returncode != 0:
            raise RunError(f"{what} failed: {self.failures()[0]}")


@dataclass
class OpResult:
    wall_s: float
    rss_mb: float
    failures: list


@dataclass
class Outcome:
    setup_s: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    world: dict = field(default_factory=dict)
    setup_stats: list = field(default_factory=list)  # tracer.OpStats
    op_stats: list = field(default_factory=list)


def run_process(ctx, cmd, tag):
    """Run one child to completion or until the run's deadline."""
    out_path, err_path = ctx.work / f"{tag}.out", ctx.work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ctx.root, env=ctx.env, stdout=out, stderr=err)
        ended = []

        def reap():
            ended.append((os.wait4(proc.pid, 0), time.perf_counter()))

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(timeout=max(ctx.deadline - time.monotonic(), 0.0))
        if waiter.is_alive():
            proc.kill()
            waiter.join()
    (_, status, usage), end = ended[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Proc(proc.returncode, end - start, usage.ru_maxrss * 1024 / tracer.MB,
                stdout, stderr)


def run_ops(ctx, outcome, run_op):
    """Closed loop: operations back to back for ``ctx.seconds``."""
    start = time.perf_counter()
    while True:
        outcome.ops.append(run_op(len(outcome.ops)))
        last = outcome.ops[-1].wall_s
        if (time.perf_counter() - start >= ctx.seconds
                or time.monotonic() + 1.5 * last > ctx.deadline):
            return


def run_cli(ctx, outcome, args, i):
    """One ``gvccarbon`` command in a fresh process, as users run it."""
    tag = f"op{i}"
    if ctx.trace:
        cmd = ctx.child(*ctx.trace_args(tag, i), "cli", *args)
    else:
        cmd = [sys.executable, "-m", "gvccarbon.cli", *args]
    proc = run_process(ctx, cmd, tag)
    outcome.op_stats.extend(ctx.spans(tag).values())
    return proc


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# demo_report
# ---------------------------------------------------------------------------

def _demo_shape(data):
    """N, K and years of the demo world, read from its files."""
    meta = {}
    with open(next(data.glob("icio_*.csv")), encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip().split(",")
    config = (data / "demo.cfg").read_text(encoding="utf-8")
    span = next(line for line in config.splitlines() if line.startswith("years"))
    first, last = (int(y) for y in span.split("=")[1].split("-"))
    return len(meta["countries"]), len(meta["industries"]), first, last


def demo_report(ctx):
    outcome = Outcome()
    data = ctx.work / "demo0"
    for k in range(SETUP_REPEATS):
        target = ctx.work / f"demo{k}"
        args = [str(target), "--seed", str(ctx.seed)]
        tag = f"setup{k}"
        if ctx.trace:
            cmd = ctx.child(*ctx.trace_args(tag, "setup"), "synthetic", *args)
        else:
            cmd = [sys.executable, "-m", "gvccarbon.synthetic", *args]
        proc = run_process(ctx, cmd, tag)
        proc.require_ok("demo set-up")
        outcome.setup_s.append(proc.wall_s)
        outcome.setup_stats.extend(ctx.spans(tag).values())
        if target != data:
            shutil.rmtree(target)

    n, k, first, last = _demo_shape(data)
    outcome.world = {"N": n, "K": k, "NK": n * k, "years": last - first + 1,
                     "input_bytes": _dir_bytes(data)}
    hashes = []

    def op(i):
        out_dir = ctx.work / f"out{i}"
        proc = run_cli(ctx, outcome, ["--config", str(data / "demo.cfg"),
                                      "--out", str(out_dir), "report"], i)
        failures = proc.failures()
        if not failures:
            printed, problems = checks.check_report_output(
                out_dir, proc.stdout, first, last)
            failures += problems
            hashes.append(printed)
            if printed != hashes[0]:
                failures.append(f"determinism hash {printed} differs from the "
                                f"first operation's {hashes[0]}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return OpResult(proc.wall_s, proc.rss_mb, failures)

    run_ops(ctx, outcome, op)
    return outcome


# ---------------------------------------------------------------------------
# oecd_embodied
# ---------------------------------------------------------------------------

def oecd_embodied(ctx):
    """Writing an OECD-sized world takes about 18 s a year, so it is set up
    once per run, not ``SETUP_REPEATS`` times."""
    outcome = Outcome()
    data = ctx.work / "oecd"
    proc = run_process(ctx, ctx.child(*ctx.trace_args("setup", "setup"), "world",
                                      str(data), *ctx.world_args(EMBODIED_YEARS)),
                       "setup")
    proc.require_ok("OECD world set-up")
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    outcome.setup_s.append(payload["setup_s"])
    outcome.setup_stats.extend(ctx.spans("setup").values())
    refs = {int(year): {key: np.asarray(v) for key, v in ref.items()}
            for year, ref in payload["refs"].items()}
    countries, industries = world.codes(ctx.countries, ctx.industries)
    outcome.world = ctx.oecd_world(EMBODIED_YEARS, _dir_bytes(data))
    first_output = {}

    def op(i):
        out_dir = ctx.work / f"out{i}"
        proc = run_cli(ctx, outcome, ["--config", str(data / "oecd.cfg"),
                                      "--out", str(out_dir), "embodied"], i)
        failures = proc.failures()
        if not failures:
            failures += checks.check_embodied_output(out_dir, refs, countries,
                                                     industries)
        for year in refs:
            path = out_dir / f"embodied_{year}.csv"
            if path.is_file():
                content = path.read_bytes()
                if first_output.setdefault(year, content) != content:
                    failures.append(f"{path.name} differs from the first "
                                    "operation's")
        shutil.rmtree(out_dir, ignore_errors=True)
        return OpResult(proc.wall_s, proc.rss_mb, failures)

    run_ops(ctx, outcome, op)
    return outcome


# ---------------------------------------------------------------------------
# oecd_accounts_mem
# ---------------------------------------------------------------------------

def oecd_accounts_mem(ctx):
    """A set-up child generates the world and pickles it; the operations
    run inside one long-lived child that loads it, so ``peak_rss_mb`` is
    the tables held in memory plus the operations, not the generator's or
    the reference solve's. The loop and the checks are in
    ``child.run_accounts``."""
    outcome = Outcome()
    tables = ctx.work / "tables.pickle"
    proc = run_process(ctx, ctx.child(*ctx.trace_args("setup", "setup"),
                                      "accounts-setup", "--tables", str(tables),
                                      "--repeats", str(SETUP_REPEATS),
                                      *ctx.world_args(MEM_YEARS)),
                       "setup")
    proc.require_ok("in-memory world set-up")
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    outcome.setup_s = payload["setup_s"]
    outcome.setup_stats.extend(ctx.spans("setup").values())
    outcome.world = ctx.oecd_world(MEM_YEARS, payload["input_bytes"])

    result = ctx.work / "accounts.json"
    proc = run_process(ctx, ctx.child(*ctx.trace_args("accounts", 0), "accounts",
                                      "--tables", str(tables), "--result",
                                      str(result), "--seconds", str(ctx.seconds)),
                       "accounts")
    proc.require_ok("in-memory accounts worker")
    outcome.ops = [OpResult(op["wall_s"], proc.rss_mb, op["failures"])
                   for op in json.loads(result.read_text(encoding="utf-8"))["ops"]]
    outcome.op_stats.extend(ctx.spans("accounts").values())
    return outcome


WORKLOADS = {
    "demo_report": demo_report,
    "oecd_embodied": oecd_embodied,
    "oecd_accounts_mem": oecd_accounts_mem,
}
