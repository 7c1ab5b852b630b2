"""The ``EXPERIMENTS`` manifest: every paper table/figure, one registry.

Each :mod:`repro.experiments` module declares a pure-data
:class:`~repro.experiments.spec.ExperimentSpec`; this module pairs the
spec with the module's ``run`` callable into a :class:`ManifestEntry`
and registers it under the experiment id.  The registry is the report
layer's single source of truth — the renderer, the ``repro report``
CLI, and the docs all iterate it, so a new experiment module only needs
a spec and a ``REGISTRY`` entry to appear everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..experiments import REGISTRY as MODULE_REGISTRY
from ..experiments.spec import ExperimentSpec
from ..registry import Registry

#: Paper-section ordering (``REGISTRY`` lists the modules in paper
#: order), which is also the order RESULTS.md renders them in.
PAPER_ORDER = tuple(MODULE_REGISTRY)


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest row: the declarative spec plus its runner."""

    spec: ExperimentSpec
    run: Callable[..., List[Dict]]

    @property
    def id(self) -> str:
        return self.spec.id


EXPERIMENTS = Registry("experiment")

for _exp_id in PAPER_ORDER:
    _module = MODULE_REGISTRY[_exp_id]
    EXPERIMENTS.add(
        _exp_id,
        ManifestEntry(spec=_module.EXPERIMENT, run=_module.run),
        description=_module.EXPERIMENT.title,
    )


def experiment_ids() -> List[str]:
    """Every manifest id, in paper order."""
    return list(PAPER_ORDER)


def select_entries(only: Sequence[str] = ()) -> List[ManifestEntry]:
    """Manifest entries for ``only`` (ids/aliases), or all in paper order.

    Selection preserves paper order regardless of the order given, and
    unknown ids raise :class:`~repro.registry.RegistryError` naming the
    valid vocabulary.
    """
    if not only:
        return [EXPERIMENTS.get(exp_id) for exp_id in PAPER_ORDER]
    wanted = {EXPERIMENTS.canonical(label) for label in only}
    return [EXPERIMENTS.get(exp_id) for exp_id in PAPER_ORDER if exp_id in wanted]
