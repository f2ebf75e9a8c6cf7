"""In-memory spans around calls into sosproj, and the per-layer metrics.

A span is a dict with `id`, `name`, `start`, `end`, `parent` (the id of the
enclosing span or None) and `call` (the key of the top-level call it belongs
to, shared by all spans of that call).  Spans are recorded only from the
benchmark's own files: explicit `Tracer.call` sites in the workloads, plus
wrappers that replace the public names a sosproj module binds (so that a
call such as `membership` shows its truncation, solve and revalidation).
The wrappers are installed for the traced pass only and restored afterwards.

Times come from `time.perf_counter`, which on Linux reads CLOCK_MONOTONIC,
so spans written by child processes share the parent's clock.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, bound name, span name).  Each entry replaces the name the module
# looks up at call time; the span name says which layer does the work.
WRAPPED_NAMES = (
    ("sosproj.projection", "build_truncation", "cones.build_truncation"),
    ("sosproj.projection", "build_lambda_form_sdp", "projection.build_lambda_form_sdp"),
    ("sosproj.projection", "solve", "sdp.solve"),
    ("sosproj.cones", "gram_reconstruct", "cones.gram_reconstruct"),
    ("sosproj.certificates", "build_truncation", "cones.build_truncation"),
    ("sosproj.certificates", "solve", "sdp.solve"),
    ("sosproj.certificates", "membership", "certificates.membership"),
    ("sosproj.certificates", "localizing_matrix", "moments.localizing_matrix"),
    ("sosproj.certificates", "eig_range", "moments.eig_range"),
    ("sosproj.certificates", "gram_reconstruct", "cones.gram_reconstruct"),
    ("sosproj.polynomials", "parse_polynomial", "polynomials.parse_polynomial"),
)

# Names bound by the CLI module; wrapped by the traced CLI launcher.
CLI_WRAPPED_NAMES = (
    ("sosproj.cli", "parse_polynomial", "polynomials.parse_polynomial"),
    ("sosproj.cli", "parse_system_text", "cones.parse_system_text"),
    ("sosproj.cli", "parse_moment_text", "moments.parse_moment_text"),
    ("sosproj.cli", "kmoment_condition_check", "moments.kmoment_condition_check"),
    ("sosproj.cli", "project_lambda_form", "projection.project_lambda_form"),
    ("sosproj.cli", "build_lambda_form_sdp", "projection.build_lambda_form_sdp"),
    ("sosproj.cli", "format_certificate", "projection.format_certificate"),
    ("sosproj.cli", "export_sdpa", "sdpa_io.export_sdpa"),
    ("sosproj.cli", "membership", "certificates.membership"),
    ("sosproj.cli", "psatz_search", "certificates.psatz_search"),
)


def _solve_attrs(args, result):
    problem = args[0]
    psd = [s.side for s in problem.blocks if s.kind.name == "PSD"]
    diag = [s.side for s in problem.blocks if s.kind.name != "PSD"]
    status = result.status.value
    # solve() retries once with toggled equilibration exactly when the first
    # run is inconclusive; a conclusive retry is tagged in the message.
    conclusive = status in ("optimal", "infeasible", "unbounded")
    retried = not conclusive or "after retry" in result.message
    return {
        "m": problem.num_constraints,
        "psd_sides": psd,
        "diag_sides": diag,
        "iterations": result.iterations,
        "status": status,
        "ipm_runs": 2 if retried else 1,
        "primal_residual": result.primal_residual,
        "dual_residual": result.dual_residual,
        "relative_gap": result.relative_gap,
    }


ANNOTATE = {
    "sdp.solve": _solve_attrs,
    "certificates.membership": lambda args, r: {"verdict": r.verdict.value},
    "sdpa_io.export_sdpa": lambda args, r: {"bytes": len(r.encode())},
}


class Tracer:
    """Records spans while `enabled`; otherwise `call` is a plain call."""

    def __init__(self, enabled: bool = False, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._call_key: str | None = None

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "call": self._call_key,
            "start": self.clock(),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            self._close(span)
        annotate = ANNOTATE.get(name)
        if annotate is not None:
            span["attrs"] = annotate(args, result)
        return result

    @contextlib.contextmanager
    def top_level(self, key: str):
        """Groups the spans of one top-level call under a root span `call`."""
        if not self.enabled:
            yield
            return
        self._call_key = key
        span = self._open("call")
        try:
            yield
        finally:
            self._close(span)
            self._call_key = None

    def adopt(self, child_spans: list[dict], parent_id: int | None, key: str) -> None:
        """Appends spans recorded by a child process below `parent_id`."""
        offset = len(self.spans)
        for span in child_spans:
            copy = dict(span)
            copy["id"] = span["id"] + offset
            copy["parent"] = parent_id if span["parent"] is None else span["parent"] + offset
            copy["call"] = key
            self.spans.append(copy)


@contextlib.contextmanager
def wrapped(tracer: Tracer, names=WRAPPED_NAMES):
    """Replaces each bound name by a tracing wrapper; restores on exit."""
    saved = []
    try:
        for module_name, attr, span_name in names:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _tracing(tracer, span_name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _tracing(tracer: Tracer, span_name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return tracer.call(span_name, original, *args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# Self times and per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part its direct children cover, per span id."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def children_of(spans: list[dict]) -> dict[int, list[dict]]:
    kids: dict[int, list[dict]] = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def split_at_solve(span: dict, kids: list[dict]) -> tuple[float, float]:
    """Self time before and after the span's first `sdp.solve` child.

    `membership` and the general and dual forms assemble their SDP rows
    inline, so the part of their self time before the solve is assembly and
    the part after it is revalidation or read-back.
    """
    solve = next((k for k in kids if k["name"] == "sdp.solve"), None)
    if solve is None:
        own = span["end"] - span["start"] - sum(k["end"] - k["start"] for k in kids)
        return own, 0.0
    before = solve["start"] - span["start"] - sum(
        k["end"] - k["start"] for k in kids if k["end"] <= solve["start"]
    )
    after = span["end"] - solve["end"] - sum(
        k["end"] - k["start"] for k in kids if k["start"] >= solve["end"]
    )
    return before, after


# Span names whose self time lands in one layer metric.
SELF_TIME_METRIC = {
    "polynomials.parse_polynomial": "polynomials.parse_s",
    "cones.parse_system_text": "polynomials.parse_s",
    "moments.localizing_matrix": "moments.localizing_s",
    "moments.eig_range": "moments.localizing_s",
    "moments.kmoment_condition_check": "moments.localizing_s",
    "moments.parse_moment_text": "moments.parse_s",
    "projection.build_lambda_form_sdp": "projection.assemble_s",
    "projection.project_lambda_form": "projection.readback_s",
    "projection.format_certificate": "projection.format_s",
    "projection.format_certificate_document": "projection.format_s",
    "projection.parse_certificate": "projection.parse_s",
    "cones.gram_reconstruct": "cones.reconstruct_s",
    "sdp.check_certificate": "sdp.check_s",
    "sdpa_io.export_sdpa": "sdpa_io.export_s",
    "sdpa_io.parse_sdpa": "sdpa_io.parse_s",
    "certificates.psatz_search": "certificates.search_s",
    "certificates.seq_closure_probe": "certificates.search_s",
    "cli.import": "cli.pass_import_s",
    "cli.main": "cli.main_s",
    "cli.process": "cli.process_s",
}

# Spans split at their solve: (metric before the solve, metric after it).
SPLIT_METRIC = {
    "certificates.membership": ("projection.assemble_s", "certificates.validate_s"),
    "projection.project_general_form": ("projection.assemble_s", "projection.readback_s"),
    "projection.dual_moment_problem": ("projection.assemble_s", "projection.readback_s"),
}

# Every per-layer metric, in report order, with its unit.
LAYER_UNITS = {
    "polynomials.parse_s": "s",
    "cones.truncation_s": "s",
    "cones.truncation_calls": "count",
    "cones.reconstruct_s": "s",
    "moments.localizing_s": "s",
    "moments.parse_s": "s",
    "projection.assemble_s": "s",
    "projection.readback_s": "s",
    "projection.format_s": "s",
    "projection.parse_s": "s",
    "sdp.solve_s": "s",
    "sdp.solves": "count",
    "sdp.iterations": "count",
    "sdp.iter_s": "s",
    "sdp.ipm_runs_per_solve": "count",
    "sdp.dense_schur_gflop": "GFLOP",
    "sdp.dense_a_mb": "MB",
    "sdp.check_s": "s",
    "sdp.solve_s_blas_default": "s",
    "certificates.validate_s": "s",
    "certificates.inconclusive": "count",
    "certificates.search_s": "s",
    "sdpa_io.export_s": "s",
    "sdpa_io.export_bytes": "bytes",
    "sdpa_io.parse_s": "s",
    "cli.import_s": "s",
    "cli.pass_import_s": "s",
    "cli.main_s": "s",
    "cli.process_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def dense_schur_flops(attrs: dict) -> float:
    """Operation count of today's dense Schur path for one solve (computed).

    Per iteration: G^T A_i G for every constraint i and PSD block of side s
    (two s-by-s products, 4 m s^3), rows @ rows.T over the stacked scaled
    rows (2 m^2 S with S = sum of s^2 and diagonal sides), and the Cholesky
    factorization (m^3 / 3).
    """
    m = attrs["m"]
    width = sum(s * s for s in attrs["psd_sides"]) + sum(attrs["diag_sides"])
    per_iter = (
        sum(4.0 * m * s**3 for s in attrs["psd_sides"])
        + 2.0 * m * m * width
        + m**3 / 3.0
    )
    return per_iter * attrs["iterations"]


def dense_a_bytes(attrs: dict) -> float:
    """Bytes of the dense m x s x s constraint tensors of one solve (computed)."""
    width = sum(s * s for s in attrs["psd_sides"]) + sum(attrs["diag_sides"])
    return 8.0 * attrs["m"] * width


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Sums self times and counts per layer over all recorded spans."""
    out = {name: 0.0 for name in LAYER_UNITS}
    selfs = self_times(spans)
    kids = children_of(spans)
    runs = 0
    for s in spans:
        name = s["name"]
        if name in SELF_TIME_METRIC:
            out[SELF_TIME_METRIC[name]] += selfs[s["id"]]
        elif name in SPLIT_METRIC:
            before, after = split_at_solve(s, kids[s["id"]])
            first, second = SPLIT_METRIC[name]
            out[first] += before
            out[second] += after
        if name == "cones.build_truncation":
            # Full duration: the basis matrices are built inside it.
            out["cones.truncation_s"] += s["end"] - s["start"]
            out["cones.truncation_calls"] += 1
        elif name == "sdp.solve" and "attrs" in s:
            a = s["attrs"]
            out["sdp.solve_s"] += s["end"] - s["start"]
            out["sdp.solves"] += 1
            out["sdp.iterations"] += a["iterations"]
            runs += a["ipm_runs"]
            out["sdp.dense_schur_gflop"] += dense_schur_flops(a) / 1e9
            out["sdp.dense_a_mb"] = max(out["sdp.dense_a_mb"], dense_a_bytes(a) / 1e6)
        elif name == "certificates.membership" and "attrs" in s:
            out["certificates.inconclusive"] += s["attrs"]["verdict"] == "inconclusive"
        elif name == "sdpa_io.export_sdpa" and "attrs" in s:
            out["sdpa_io.export_bytes"] += s["attrs"]["bytes"]
    if out["sdp.iterations"]:
        out["sdp.iter_s"] = out["sdp.solve_s"] / out["sdp.iterations"]
    if out["sdp.solves"]:
        out["sdp.ipm_runs_per_solve"] = runs / out["sdp.solves"]
    out["trace.spans"] = float(len(spans))
    return out
