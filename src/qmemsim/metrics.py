"""Device-performance metrics: storage ratios, latency, addressability.

Inputs are PlatformRecords (one physical platform or experiment per row).
All times are seconds; `eta` is the already-resolved RW efficiency/fidelity
used by that row's arithmetic (gate fidelity, success probability, or the
square root of a full-process efficiency — the dataset resolves which, the
engine never guesses). A row with no external operation time has its
external metrics reported as not-applicable (None).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

from .errors import ArgumentError, DatasetError

CSV_HEADER = [
    "name", "t_storage_s", "tau_rw_s", "eta", "t_op_s", "t_addr_s",
    "n_cells", "n_parallel", "notes",
]

NON_RECOMPUTABLE = "non-recomputable"


@dataclass(frozen=True)
class PlatformRecord:
    name: str
    t_storage: float
    tau_rw: float
    eta: float
    t_op: float | None = None
    t_addr: float = 0.0
    n_cells: int = 1
    n_parallel: int = 1
    notes: str = ""

    def __post_init__(self):
        problems = record_problems(self)
        if problems:
            raise ArgumentError(f"record {self.name!r}: " + "; ".join(problems))


def record_problems(rec) -> list[str]:
    out = []
    if rec.t_storage < 0:
        out.append("t_storage must be >= 0")
    if rec.tau_rw < 0:
        out.append("tau_rw must be >= 0")
    if rec.t_addr < 0:
        out.append("t_addr must be >= 0")
    if not 0 < rec.eta <= 1:
        out.append("eta must be in (0, 1]")
    if rec.t_op is not None and rec.t_op < 0:
        out.append("t_op must be >= 0")
    if rec.n_cells < 1:
        out.append("n_cells must be >= 1")
    if not 1 <= rec.n_parallel <= rec.n_cells:
        out.append("n_parallel must be in [1, n_cells]")
    return out


@dataclass(frozen=True)
class MetricsResult:
    t_rw: float
    alpha_in: float
    alpha_ex: float | None
    alpha_qmd: float
    beta: float | None
    gamma: float


def rw_time(tau: float, eta: float) -> float:
    """Effective read/write time: raw gate or pulse time rescaled by efficiency."""
    if tau < 0:
        raise ArgumentError("tau must be >= 0")
    if not 0 < eta <= 1:
        raise ArgumentError("eta must be in (0, 1]")
    return tau / eta


def storage_ratios(rec: PlatformRecord) -> tuple[float, float | None]:
    """(alpha_in, alpha_ex) for a single memory cell.

    alpha_in = T_storage / (tau/eta); alpha_ex rescales the *net* storage
    time (storage minus one write and one read) by eta against the external
    operation time. alpha_ex is negative exactly when alpha_in < 2.
    """
    t_rw = rw_time(rec.tau_rw, rec.eta)
    alpha_in = rec.t_storage / t_rw
    if rec.t_op is None:
        return alpha_in, None
    if rec.t_op == 0:
        raise ArgumentError(f"record {rec.name!r}: alpha_ex undefined for t_op = 0")
    alpha_ex = (rec.t_storage - 2 * t_rw) * rec.eta / rec.t_op
    return alpha_in, alpha_ex


def qmd_metrics(rec: PlatformRecord) -> MetricsResult:
    """Device-level metrics: storage ratio, memory latency, addressability.

    T_RW = T_addr + tau/eta. The latency divides the raw device RW time
    (T_addr + tau) once by eta; the datasets fold dominant addressing stages
    into tau where the source arithmetic did.
    """
    t_rw_qmc = rw_time(rec.tau_rw, rec.eta)
    t_rw = rec.t_addr + t_rw_qmc
    alpha_in, alpha_ex = storage_ratios(rec)
    alpha_qmd = rec.t_storage / t_rw
    beta = None
    if rec.t_op is not None and rec.t_op > 0:
        beta = ((rec.t_addr + rec.tau_rw) / rec.eta) / rec.t_op
    gamma = (t_rw * rec.n_cells) / (rec.t_storage * rec.n_parallel)
    return MetricsResult(t_rw, alpha_in, alpha_ex, alpha_qmd, beta, gamma)


def buffer_cache_metrics(t_storage: float, t_rw: float, eta: float,
                         t_g: float, t_c: float):
    """Buffer design numbers between a state generator and a consumer.

    Returns (alpha_ex_qb, beta_qb, recommended_capacity): storage ratio
    against the slower process, latency against the faster one, and the
    capacity N ~ T_g/T_c beyond which buffered states would just decay.
    """
    if t_g <= 0 or t_c <= 0:
        raise ArgumentError("generation and consumption times must be positive")
    if not 0 < eta <= 1:
        raise ArgumentError("eta must be in (0, 1]")
    if t_storage < 0 or t_rw < 0:
        raise ArgumentError("times must be >= 0")
    alpha_ex_qb = t_storage * eta / max(t_g, t_c)
    beta_qb = (t_rw / eta) / min(t_g, t_c)
    capacity = max(1, round(t_g / t_c))
    return alpha_ex_qb, beta_qb, capacity


def load_platform_dataset(path) -> list[PlatformRecord]:
    """Parse a platform CSV; rejects rows violating invariants.

    Raises DatasetError carrying one `row N: ...` diagnostic per bad row.
    An empty file yields an empty list with a warning.
    """
    records = []
    diagnostics = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            warnings.warn(f"{path}: empty dataset")
            return []
        if [f.strip() for f in reader.fieldnames] != CSV_HEADER:
            raise DatasetError([
                f"{path}: bad header {reader.fieldnames}; expected {','.join(CSV_HEADER)}"
            ])
        for lineno, row in enumerate(reader, start=2):
            try:
                records.append(_parse_row(row))
            except (ArgumentError, KeyError, TypeError, ValueError) as exc:
                diagnostics.append(f"row {lineno}: {exc}")
    if diagnostics:
        raise DatasetError(diagnostics)
    if not records:
        warnings.warn(f"{path}: dataset has a header but no rows")
    return records


def _parse_row(row) -> PlatformRecord:
    def number(field, default=None):
        text = (row.get(field) or "").strip()
        if not text:
            if default is None and field != "t_op_s":
                raise ValueError(f"missing field {field}")
            return default
        return float(text)

    name = (row.get("name") or "").strip()
    if not name:
        raise ValueError("missing name")
    return PlatformRecord(
        name=name,
        t_storage=number("t_storage_s"),
        tau_rw=number("tau_rw_s"),
        eta=number("eta"),
        t_op=number("t_op_s", default=None),
        t_addr=number("t_addr_s", default=0.0),
        n_cells=int(number("n_cells", default=1.0)),
        n_parallel=int(number("n_parallel", default=1.0)),
        notes=(row.get("notes") or "").strip(),
    )


def metrics_table(records) -> list[dict]:
    """Input columns plus computed metrics, one dict per record."""
    rows = []
    for rec in records:
        m = qmd_metrics(rec)
        rows.append({
            "name": rec.name,
            "t_storage_s": rec.t_storage,
            "tau_rw_s": rec.tau_rw,
            "eta": rec.eta,
            "t_op_s": "" if rec.t_op is None else rec.t_op,
            "t_addr_s": rec.t_addr,
            "n_cells": rec.n_cells,
            "n_parallel": rec.n_parallel,
            "notes": rec.notes,
            "t_rw_s": m.t_rw,
            "alpha_in": m.alpha_in,
            "alpha_ex": "" if m.alpha_ex is None else m.alpha_ex,
            "alpha_qmd": m.alpha_qmd,
            "beta": "" if m.beta is None else m.beta,
            "gamma": m.gamma,
        })
    return rows


# ---------------------------------------------------------------------------
# Scatter-plot export: negative or not-applicable external ratios are clamped
# to 0.5 so every platform still appears on the log-log plot.

FIG2_CLAMP = 0.5


@dataclass(frozen=True)
class Fig2Point:
    name: str
    alpha_in: float
    alpha_ex_plotted: float
    clamped: bool


def emit_fig2_points(records):
    """(points, diagonal) where diagonal is the alpha_in = alpha_ex reference
    line's endpoints spanning the data range."""
    points = []
    for rec in records:
        alpha_in, alpha_ex = storage_ratios(rec)
        if alpha_ex is None or alpha_ex < 0:
            points.append(Fig2Point(rec.name, alpha_in, FIG2_CLAMP, True))
        else:
            points.append(Fig2Point(rec.name, alpha_in, alpha_ex, False))
    if points:
        lo = min(p.alpha_in for p in points)
        hi = max(p.alpha_in for p in points)
    else:
        lo = hi = 1.0
    return points, (lo, hi)


# ---------------------------------------------------------------------------
# Regression against printed values. Printed values compare at display
# precision: one unit in the last printed significant digit.

def printed_tolerance(text: str) -> float:
    t = text.strip().lower()
    if "e" in t:
        mantissa, exponent = t.split("e")
        exp = int(exponent)
    else:
        mantissa, exp = t, 0
    mantissa = mantissa.lstrip("+-")
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 10.0 ** (exp - decimals)


def matches_printed(computed: float, printed: str) -> bool:
    printed = printed.strip()
    if printed == "<0":
        return computed < 0
    tol = printed_tolerance(printed)
    return abs(computed - float(printed)) <= tol * (1 + 1e-9)


@dataclass(frozen=True)
class RegressionRow:
    name: str
    metric: str
    computed: float
    printed: str
    passed: bool


def load_expected(path) -> list[dict]:
    """Rows of an expected-value CSV; raises DatasetError if it has no
    `name` column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if "name" not in (reader.fieldnames or ()):
            raise DatasetError([f"{path}: no name column"])
        return list(reader)


def check_against_expected(records, expected_rows) -> list[RegressionRow]:
    """Compare computed metrics with printed values, skipping blank cells.

    Expected-file columns name the metric they pin: alpha_in/alpha_ex for
    cell-level rows, alpha_qmd/beta/gamma for device-level rows.
    """
    by_name = {rec.name: rec for rec in records}
    out = []
    for row in expected_rows:
        name = (row["name"] or "").strip()  # None in a row cut short
        rec = by_name.get(name)
        if rec is None:
            out.append(RegressionRow(name, "missing-record", float("nan"), "", False))
            continue
        m = qmd_metrics(rec)
        computed = {
            "alpha_in": m.alpha_in,
            "alpha_ex": m.alpha_ex,
            "alpha_qmd": m.alpha_qmd,
            "beta": m.beta,
            "gamma": m.gamma,
        }
        for metric, value in computed.items():
            printed = (row.get(metric) or "").strip()
            if not printed:
                continue
            if value is None:
                out.append(RegressionRow(name, metric, float("nan"), printed, False))
                continue
            out.append(RegressionRow(name, metric, value, printed,
                                     matches_printed(value, printed)))
    return out
