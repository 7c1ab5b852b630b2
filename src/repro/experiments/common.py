"""Shared experiment infrastructure: scales, workload resolution.

The paper's artifact takes about a day at full scale.  Every experiment here
takes a ``scale``:

- ``smoke`` — LiH only, a handful of blocks; seconds.  CI-friendly.
- ``small`` — the default: small molecules in full, large molecules
  truncated to a block prefix; minutes for the whole suite.
- ``full`` — the paper's workloads, untruncated.  Hours.

Set ``REPRO_SCALE`` to override the default scale of ``repro report``.
"""

from __future__ import annotations

import os
from typing import List

from ..pauli.block import PauliBlock
from ..workloads import SCALES, check_scale, workload_blocks

#: Molecules exercised per scale.
MOLECULES_BY_SCALE = {
    "smoke": ["LiH"],
    "small": ["LiH", "BeH2", "CH4", "MgH2", "LiCl", "CO2"],
    "full": ["LiH", "BeH2", "CH4", "MgH2", "LiCl", "CO2"],
}

SYNTHETIC_BY_SCALE = {
    "smoke": ["UCC-10"],
    "small": ["UCC-10", "UCC-15", "UCC-20", "UCC-25", "UCC-30", "UCC-35"],
    "full": ["UCC-10", "UCC-15", "UCC-20", "UCC-25", "UCC-30", "UCC-35"],
}


def default_scale() -> str:
    """``$REPRO_SCALE`` (validated), else ``small``."""
    scale = os.environ.get("REPRO_SCALE", "small")
    if scale not in SCALES:
        raise ValueError(f"REPRO_SCALE must be one of {SCALES}, got {scale!r}")
    return scale


def workload(name: str, encoder: str = "JW", scale: str = "small") -> List[PauliBlock]:
    """Benchmark blocks for any workload spec, truncated by ``scale``.

    Routed through the workload-provider registry
    (:mod:`repro.workloads`): truncating providers keep a prefix of
    blocks (capped at ``BLOCK_CAPS[scale]``) — preserving the internal
    structure each compiler exploits, just over a shorter program.
    """
    check_scale(scale)
    return workload_blocks(name, encoder, scale)

