"""Experiment harnesses — one module per paper table/figure.

Every module exposes ``run(scale) -> list[dict]`` and an ``EXPERIMENT``
:class:`~repro.experiments.spec.ExperimentSpec` manifest entry declaring
what it reproduces: the paper claim, the job grid, the row schema, and
regression pins.  The registry maps experiment ids to modules for the
report layer, the one experiment driver::

    python -m repro.cli report --only table2 --quick

:mod:`repro.report` collects the per-module specs into the ``EXPERIMENTS``
manifest and renders them into ``docs/RESULTS.md``.
"""

from . import (
    fig02,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    fig20,
    fig21,
    fig22,
    fig23,
    fig24,
    noise,
    table1,
    table2,
)
from .spec import CheckResult, ExperimentSpec, PinnedMetric  # noqa: F401

#: Experiment id -> module, in paper order: the report renders in this
#: order (:data:`repro.report.manifest.PAPER_ORDER`).
REGISTRY = {
    "table1": table1,
    "fig02": fig02,
    "table2": table2,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "fig20": fig20,
    "fig21": fig21,
    "fig22": fig22,
    "fig23": fig23,
    "fig24": fig24,
    "noise": noise,
}

for _name, _module in REGISTRY.items():
    if _module.EXPERIMENT.id != _name:
        raise ImportError(
            f"experiment module {_name} declares mismatched spec id "
            f"{_module.EXPERIMENT.id!r}"
        )

__all__ = [
    "REGISTRY",
    "ExperimentSpec",
    "PinnedMetric",
    "CheckResult",
] + sorted(REGISTRY)
