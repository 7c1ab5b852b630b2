"""Hardware models: coupling graphs, device catalog, family registry.

Every lattice family is registered in
:data:`~repro.hardware.families.DEVICE_FAMILIES` and addressable by a
parametric spec string — ``grid:8x8``, ``heavy-hex:5``, ``linear:72``,
``ring:32``, ``sycamore:6x6`` — via :func:`resolve_device`.
"""

from .calibration import (
    CALIBRATION_VERSION,
    Calibration,
    calibration_digest,
    resolve_calibration,
    synthetic_calibration,
)
from .coupling import CouplingGraph
from .families import (
    DEVICE_FAMILIES,
    DeviceFamily,
    canonical_device_spec,
    device_names,
    resolve_device,
)
from .heavy_hex import heavy_hex, ibm_ithaca_65
from .lattices import fully_connected, grid, linear, ring
from .sycamore import google_sycamore_64, sycamore

__all__ = [
    "CALIBRATION_VERSION",
    "Calibration",
    "calibration_digest",
    "resolve_calibration",
    "synthetic_calibration",
    "CouplingGraph",
    "DEVICE_FAMILIES",
    "DeviceFamily",
    "resolve_device",
    "canonical_device_spec",
    "device_names",
    "heavy_hex",
    "ibm_ithaca_65",
    "google_sycamore_64",
    "sycamore",
    "linear",
    "ring",
    "grid",
    "fully_connected",
]
