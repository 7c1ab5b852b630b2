"""Declarative experiment manifests.

Every experiment module declares one :class:`ExperimentSpec` describing
what it reproduces: the paper table/figure id, the claim under test, the
job grid it sweeps, the columns its rows carry, which columns pair a
reproduced number with a paper-reported one, and a set of
:class:`PinnedMetric` regression pins recorded at smoke scale.

The specs are pure data — no callables, no imports from the report
layer — so :mod:`repro.report.manifest` can collect them from
:data:`repro.experiments.REGISTRY` without creating an import cycle,
and tests can introspect them without running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class PinnedMetric:
    """One regression-pinned cell of an experiment's row table.

    ``where`` selects the row (every key/value pair must match), and
    ``column`` names the pinned cell.  Drift beyond ``rel_tol`` /
    ``abs_tol`` (whichever admits the value — mirroring
    ``math.isclose``) fails ``repro report --check``.  Pins are recorded
    at one ``scale`` (smoke unless stated) and are skipped silently at
    any other scale, where grids and truncations differ.
    """

    where: Tuple[Tuple[str, Any], ...]
    column: str
    expected: float
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    scale: str = "smoke"

    def __post_init__(self):
        if isinstance(self.where, Mapping):
            object.__setattr__(self, "where", tuple(sorted(self.where.items())))
        else:
            object.__setattr__(self, "where", tuple(self.where))

    def matches(self, row: Mapping[str, Any]) -> bool:
        return all(row.get(key) == value for key, value in self.where)

    def label(self) -> str:
        selector = ",".join(f"{k}={v}" for k, v in self.where)
        return f"{selector}:{self.column}"

    def within_tolerance(self, actual: float) -> bool:
        """True when ``actual`` is within either tolerance of expected."""
        drift = abs(actual - self.expected)
        allowed = max(self.abs_tol, self.rel_tol * abs(self.expected))
        return drift <= allowed


@dataclass(frozen=True)
class ExperimentSpec:
    """Manifest entry for one paper table/figure reproduction.

    ``columns`` is the exact ordered row schema ``run()`` emits at every
    scale; the report layer validates it and uses it to order rendered
    tables.  ``deltas`` pairs a reproduced column with the paper-reported
    column holding the same quantity — the renderer appends a computed
    drift column per pair.  ``compilers`` / ``devices`` record the grid's
    provenance axes for the report header, and ``runtime_hint`` is the
    human wall-clock expectation quoted in ``docs/REPRODUCING.md``.
    """

    id: str
    kind: str  # "table" | "figure"
    title: str
    claim: str
    grid: str
    columns: Tuple[str, ...]
    compilers: Tuple[str, ...] = ()
    devices: Tuple[str, ...] = ()
    deltas: Tuple[Tuple[str, str, str], ...] = ()  # (label, repro_col, paper_col)
    pins: Tuple[PinnedMetric, ...] = field(default_factory=tuple)
    runtime_hint: str = ""
    #: When set, the renderer groups rows by this column and emits one
    #: table per group (fig15's sub-figures carry different columns).
    section_by: str = ""

    def __post_init__(self):
        if self.kind not in ("table", "figure"):
            raise ValueError(f"kind must be 'table' or 'figure', got {self.kind!r}")
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "compilers", tuple(self.compilers))
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "deltas", tuple(tuple(d) for d in self.deltas))
        object.__setattr__(self, "pins", tuple(self.pins))
        for _label, repro_col, paper_col in self.deltas:
            for column in (repro_col, paper_col):
                if column not in self.columns:
                    raise ValueError(
                        f"{self.id}: delta column {column!r} not in columns"
                    )

    def missing_columns(self, rows: Sequence[Mapping[str, Any]]) -> Tuple[str, ...]:
        """Declared columns absent from any produced row (schema drift)."""
        missing = []
        for column in self.columns:
            if any(column not in row for row in rows):
                missing.append(column)
        return tuple(missing)

    def pins_for_scale(self, scale: str) -> Tuple[PinnedMetric, ...]:
        return tuple(pin for pin in self.pins if pin.scale == scale)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of evaluating one pin against produced rows."""

    experiment_id: str
    pin: PinnedMetric
    actual: Optional[float]
    ok: bool
    note: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "DRIFT"
        detail = self.note or (
            f"expected {self.pin.expected}, got {self.actual}"
        )
        return f"[{status}] {self.experiment_id} {self.pin.label()}: {detail}"


def check_pins(
    spec: ExperimentSpec,
    rows: Sequence[Mapping[str, Any]],
    scale: str,
) -> Tuple[CheckResult, ...]:
    """Evaluate every pin ``spec`` records for ``scale`` against ``rows``.

    A pin whose selector matches no row, or whose column is missing or
    empty, fails — silent schema drift is exactly what the gate exists
    to catch.
    """
    results = []
    for pin in spec.pins_for_scale(scale):
        matched = [row for row in rows if pin.matches(row)]
        if not matched:
            results.append(CheckResult(spec.id, pin, None, False, "no matching row"))
            continue
        value = matched[0].get(pin.column)
        if value is None or value == "":
            results.append(
                CheckResult(spec.id, pin, None, False, f"column {pin.column!r} empty")
            )
            continue
        try:
            actual = float(value)
        except (TypeError, ValueError):
            results.append(
                CheckResult(
                    spec.id, pin, None, False,
                    f"column {pin.column!r} is non-numeric: {value!r}",
                )
            )
            continue
        ok = pin.within_tolerance(actual)
        note = "" if ok else (
            f"expected {pin.expected} ±(rel={pin.rel_tol}, abs={pin.abs_tol}), "
            f"got {actual}"
        )
        results.append(CheckResult(spec.id, pin, actual, ok, note))
    return results


def row_check(
    spec: ExperimentSpec, rows: Sequence[Mapping[str, Any]]
) -> Tuple[str, ...]:
    """Structural problems with ``rows`` (empty output, missing columns)."""
    problems = []
    if not rows:
        problems.append(f"{spec.id}: produced no rows")
        return tuple(problems)
    missing = spec.missing_columns(rows)
    if missing:
        problems.append(f"{spec.id}: rows missing declared columns {list(missing)}")
    return tuple(problems)
