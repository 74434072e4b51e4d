"""Tests of the benchmark itself: a tiny-world smoke run of every
workload, and corrupted outputs counted as failed operations.

Run from the root of the checkout with ``PYTHONPATH=src``.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
BENCH_MODULES = ("checks", "run", "tracer", "workloads", "world")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--countries", "5", "--industries", "3"]


@pytest.fixture
def bench_modules(monkeypatch):
    """The benchmark's modules, importable from perfbench/ during one test
    only, so that their generic names shadow nothing in other tests."""
    monkeypatch.syspath_prepend(str(BENCH))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield SimpleNamespace(**{name: importlib.import_module(name)
                             for name in BENCH_MODULES})
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), *TINY]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.strip().startswith(f"{name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
    env = json.loads(next(line for line in lines
                          if line.startswith("environment "))[12:])
    for key in ("nproc", "blas", "blas_threads", "python", "numpy", "scipy",
                "git_commit", "seed", "N", "K", "NK", "years",
                "input_bytes"):
        assert key in env, key


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "demo_report", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _corrupt_outputs(monkeypatch, workloads, corrupt):
    """Make every CLI operation's output pass through ``corrupt(out_dir)``."""
    real = workloads.run_cli

    def run_then_corrupt(ctx, outcome, args, i):
        proc = real(ctx, outcome, args, i)
        corrupt(Path(args[args.index("--out") + 1]))
        return proc

    monkeypatch.setattr(workloads, "run_cli", run_then_corrupt)


def _run_in_process(monkeypatch, capsys, run, workload):
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "0", *TINY]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_missing_report_table_counts_as_failed(monkeypatch, capsys,
                                                bench_modules):
    _corrupt_outputs(monkeypatch, bench_modules.workloads,
                     lambda out: (out / "table6.csv").unlink())
    result = _run_in_process(monkeypatch, capsys, bench_modules.run,
                             "demo_report")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_altered_export_value_counts_as_failed(monkeypatch, capsys,
                                               bench_modules):
    def corrupt(out):
        path = out / f"embodied_{bench_modules.world.FIRST_YEAR}.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[2] = repr(float(cells[2]) * (1 + 1e-9))  # gross_exports
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    _corrupt_outputs(monkeypatch, bench_modules.workloads, corrupt)
    result = _run_in_process(monkeypatch, capsys, bench_modules.run,
                             "oecd_embodied")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_accounts_checks_pass_exact_and_catch_corrupted_grids(bench_modules):
    from gvccarbon import mrio

    checks, world = bench_modules.checks, bench_modules.world

    (icio, intensity), = world.generate(3, 5, 3, 1)
    model = mrio.build_model(icio)
    accounts = mrio.compute_accounts(icio, model, intensity)
    gap = mrio.conservation_gap(icio, model, intensity)
    ref = world.reference(icio, intensity.e)
    grids = {key: accounts.indicator(key).copy() for key in mrio.INDICATOR_KEYS}
    assert checks.check_accounts(2017, gap, grids, ref, icio.countries) == []

    for key, scale, expected in (("forward_gvc", 1.001, "forward_gvc"),
                                 ("foreign_co2", 1.001, "domestic + foreign"),
                                 ("gross_exports", 1 + 1e-9, "gross_exports"),
                                 ("backward_gvc", 1e6, "backward participation")):
        bad = dict(grids, **{key: grids[key] * scale})
        failures = checks.check_accounts(2017, gap, bad, ref, icio.countries)
        assert any(expected in f for f in failures), (key, failures)
    failures = checks.check_accounts(2017, np.nan, grids, ref, icio.countries)
    assert any("conservation gap" in f for f in failures)
