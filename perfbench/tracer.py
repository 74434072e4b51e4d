"""Span recorder for traced benchmark runs, and the per-layer metrics
computed from its spans.

Library functions are wrapped from outside, at the names their callers
look them up by (``workflow.load_icio``, ``mrio.build_model``, ...), so
the package itself is not modified. Each call records one span: name,
start, end, parent span and operation id, plus a few sizes. Spans stay
in memory until :meth:`Tracer.dump` writes them out.

``tracemalloc`` runs only inside mrio spans. Under it, the cell-by-cell
ICIO parser runs about 5.6x slower and needs about 1 GB more memory at
77 x 45, which would push a traced run past the benchmark's time limit;
ingest memory is therefore measured as growth of the process's peak
resident set across the first ``load_icio`` call.

Stdlib only: the child processes import this before the package.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import statistics
import time
import tracemalloc
from collections import defaultdict

MB = 1e6


def peak_rss_mb():
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def _file_bytes(path):
    return os.path.getsize(path) if path is not None and os.path.exists(path) else 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, alloc=False, rss=False):
        record = {"name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        owns_alloc = alloc and not tracemalloc.is_tracing()
        if owns_alloc:
            tracemalloc.start()
        rss_before = peak_rss_mb() if rss else None
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if owns_alloc:
                record["alloc_mb"] = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
            if rss:
                record["rss_growth_mb"] = peak_rss_mb() - rss_before

    def wrap(self, owner, attr, name, nbytes=None, **span_options):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``nbytes(*args, **kwargs)`` runs after the call and gives the bytes
        the call read or wrote.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, **span_options) as record:
                result = original(*args, **kwargs)
            if nbytes is not None:
                record["bytes"] = nbytes(*args, **kwargs)
            return result

        setattr(owner, attr, traced)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _hashed_bytes(config, paths):
    return _file_bytes(config.source_path) + sum(_file_bytes(p) for p in paths)


def install(tracer):
    """Wrap every traced library function; imports the package."""
    from gvccarbon import diagnostics, estimators, ingest, mrio, report, workflow

    # workflow imports these by name, so they are wrapped where it looks.
    tracer.wrap(workflow, "load_icio", "ingest.load_icio", rss=True,
                nbytes=_file_bytes)
    tracer.wrap(workflow, "load_emissions_vector", "ingest.load_emissions")
    tracer.wrap(workflow, "load_indicator_panel", "ingest.load_indicators")
    tracer.wrap(workflow, "assemble_panel", "panel.assemble")
    tracer.wrap(workflow, "derive_variable", "panel.derive")
    tracer.wrap(workflow, "hash_run_inputs", "report.hash_inputs",
                nbytes=_hashed_bytes)
    for attr in ("full_bundle", "accounts_export", "year_accounts", "load_year"):
        tracer.wrap(workflow, attr, f"workflow.{attr}")
    # synthetic and the benchmark's world writer call ingest.save_icio.
    tracer.wrap(ingest, "save_icio", "ingest.save_icio",
                nbytes=lambda icio, path: _file_bytes(path))
    for attr in ("build_model", "build_coefficients", "leontief_inverse",
                 "compute_accounts", "conservation_gap"):
        tracer.wrap(mrio, attr, f"mrio.{attr}", alloc=True)
    for attr in ("fgls_ar1", "ols", "anderson_hsiao"):
        tracer.wrap(estimators, attr, f"estimators.{attr}")
    for attr in ("pesaran_cd", "descriptive_stats", "correlation_matrix",
                 "rank_table"):
        tracer.wrap(diagnostics, attr, "diagnostics")
    tracer.wrap(report.ReportBundle, "write", "report.write")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

class OpStats:
    """Per-span-name totals for the spans of one operation."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.bytes = defaultdict(int)
        self.alloc_mb = 0.0
        self.first_load_rss_mb = None

    def self_of(self, *names):
        return sum(self.self_s[n] for n in names)

    def rate_mb_per_s(self, name):
        busy = self.busy_s[name]
        return self.bytes[name] / MB / busy if busy > 0 else 0.0


def op_stats(spans):
    """{operation id: OpStats} for the spans one process recorded.

    Self time is a span's duration minus the durations of its direct
    children; the spans of one process are sequential.
    """
    durations = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, durations):
        if s["parent"] is not None:
            child[s["parent"]] += d
    out = {}
    for s, d, c in zip(spans, durations, child):
        stats = out.setdefault(s["op"], OpStats())
        name = s["name"]
        stats.self_s[name] += d - c
        stats.busy_s[name] += d
        stats.calls[name] += 1
        stats.bytes[name] += s.get("bytes", 0)
        stats.alloc_mb = max(stats.alloc_mb, s.get("alloc_mb", 0.0))
        if "rss_growth_mb" in s and stats.first_load_rss_mb is None:
            stats.first_load_rss_mb = s["rss_growth_mb"]
    return out


#: metric -> (unit, phase, value from one operation's OpStats).
#: Phase "setup" metrics come from the set-up spans, "op" from operations.
PER_LAYER = {
    "cli.import_s": ("s", "op", lambda r: r.self_of("cli.import")),
    "cli.self_s": ("s", "op", lambda r: r.self_of("cli.main")),
    "ingest.load_icio_s": ("s", "op", lambda r: r.self_of("ingest.load_icio")),
    "ingest.load_icio_calls": ("count", "op", lambda r: r.calls["ingest.load_icio"]),
    "ingest.load_icio_mb_per_s": ("MB/s", "op",
                                  lambda r: r.rate_mb_per_s("ingest.load_icio")),
    "ingest.load_icio_peak_rss_mb": ("MB", "op",
                                     lambda r: r.first_load_rss_mb or 0.0),
    "ingest.load_emissions_s": ("s", "op",
                                lambda r: r.self_of("ingest.load_emissions")),
    "ingest.load_indicators_s": ("s", "op",
                                 lambda r: r.self_of("ingest.load_indicators")),
    "ingest.save_icio_s": ("s", "setup", lambda r: r.self_of("ingest.save_icio")),
    "ingest.save_icio_mb_per_s": ("MB/s", "setup",
                                  lambda r: r.rate_mb_per_s("ingest.save_icio")),
    "mrio.build_coefficients_s": ("s", "op",
                                  lambda r: r.self_of("mrio.build_coefficients")),
    "mrio.leontief_inverse_s": ("s", "op",
                                lambda r: r.self_of("mrio.leontief_inverse")),
    "mrio.compute_accounts_s": ("s", "op",
                                lambda r: r.self_of("mrio.compute_accounts")),
    "mrio.conservation_gap_s": ("s", "op",
                                lambda r: r.self_of("mrio.conservation_gap")),
    "mrio.peak_alloc_mb": ("MB", "op", lambda r: r.alloc_mb),
    "panel.assemble_s": ("s", "op", lambda r: r.self_of("panel.assemble")),
    "panel.derive_s": ("s", "op", lambda r: r.self_of("panel.derive")),
    "panel.derive_calls": ("count", "op", lambda r: r.calls["panel.derive"]),
    "estimators.fgls_s": ("s", "op", lambda r: r.self_of("estimators.fgls_ar1")),
    "estimators.fgls_calls": ("count", "op",
                              lambda r: r.calls["estimators.fgls_ar1"]),
    "estimators.iv_s": ("s", "op", lambda r: r.self_of("estimators.anderson_hsiao")),
    "estimators.ols_s": ("s", "op", lambda r: r.self_of("estimators.ols")),
    "diagnostics.self_s": ("s", "op", lambda r: r.self_of("diagnostics")),
    "workflow.year_loads": ("count", "op", lambda r: r.calls["workflow.load_year"]),
    "workflow.self_s": ("s", "op", lambda r: r.self_of(
        "workflow.full_bundle", "workflow.accounts_export",
        "workflow.year_accounts", "workflow.load_year")),
    "report.hash_inputs_s": ("s", "op", lambda r: r.self_of("report.hash_inputs")),
    "report.hash_inputs_mb": ("MB", "op",
                              lambda r: r.bytes["report.hash_inputs"] / MB),
    "report.write_s": ("s", "op", lambda r: r.self_of("report.write")),
}


def layer_metrics(setup_stats, op_stats_list):
    """Median over set-ups or operations of every per-layer metric."""
    out = {}
    for name, (unit, phase, value) in PER_LAYER.items():
        pool = setup_stats if phase == "setup" else op_stats_list
        values = [value(stats) for stats in pool]
        out[name] = (statistics.median(values) if values else 0.0, unit)
    return out
