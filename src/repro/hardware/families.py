"""Device-family registry: parametric spec strings -> coupling graphs.

Every place a device name is accepted (jobs, CLI, the public facade)
takes a *spec string*: a family name optionally followed by ``:`` and
family-specific parameters::

    grid:8x8        heavy-hex:5      linear:72      ring:32
    sycamore:6x6    linear:auto+2    full:24        heavy-hex:3x9

Sizes spelled ``auto`` (optionally ``auto+<slack>``) are resolved
against the workload's logical qubit count at compile time; fixed sizes
mean exactly that many physical qubits.

The paper's original vocabulary survives as aliases so pre-redesign job
specs — and their content hashes, i.e. the on-disk result cache — keep
working:

====================  =========================
legacy name           canonical spec
====================  =========================
``ithaca``            ``heavy-hex:ibm-65``
``sycamore``          ``sycamore:8x8``
``linear``            ``linear:auto+2``
``full``              ``full:auto``
====================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..registry import Registry, RegistryError, parse_spec
from .coupling import CouplingGraph
from .heavy_hex import heavy_hex, ibm_ithaca_65
from .lattices import fully_connected, grid, linear, ring
from .sycamore import google_sycamore_64, sycamore

#: Registry of device families; values are :class:`DeviceFamily`.
DEVICE_FAMILIES = Registry("device family")

#: Canonical spec -> the pre-redesign name it is hash-compatible with.
LEGACY_BY_CANONICAL = {
    "heavy-hex:ibm-65": "ithaca",
    "sycamore:8x8": "sycamore",
    "linear:auto+2": "linear",
    "full:auto": "full",
}

#: The pre-redesign device vocabulary (content hashes under these names
#: must stay byte-identical to SPEC_VERSION 1).
LEGACY_DEVICE_NAMES = tuple(LEGACY_BY_CANONICAL.values())


@dataclass(frozen=True)
class DeviceFamily:
    """A parametric coupling-graph builder.

    ``build(params, num_logical)`` constructs the graph; ``canonicalize
    (params)`` normalizes the params text without needing a workload
    (used for validation and content hashing).  ``params`` is ``""``
    when the spec was a bare family name; each family supplies its own
    default there.
    """

    build: Callable[[str, Optional[int]], CouplingGraph]
    canonicalize: Callable[[str], str]


def _int_param(text: str, what: str) -> int:
    if not text.isdigit():
        raise RegistryError(
            f"malformed device params {text!r}: expected {what}"
        )
    value = int(text)
    if value <= 0:
        raise RegistryError(f"device size must be positive, got {text!r}")
    return value


def _dims(text: str) -> Tuple[int, int]:
    left, sep, right = text.lower().partition("x")
    if not sep:
        raise RegistryError(
            f"malformed device params {text!r}: expected <rows>x<cols>"
        )
    return (
        _int_param(left, "<rows> in <rows>x<cols>"),
        _int_param(right, "<cols> in <rows>x<cols>"),
    )


def _count(text: str) -> Tuple[str, int]:
    """Parse ``<n>`` | ``auto`` | ``auto+<k>`` -> ("fixed", n) | ("auto", k)."""
    low = text.lower()
    if low == "auto":
        return ("auto", 0)
    if low.startswith("auto+"):
        slack_text = low[len("auto+"):]
        if not slack_text.isdigit():  # slack 0 is legal: auto+0 == auto
            raise RegistryError(
                f"malformed device params {text!r}: expected auto+<slack>"
            )
        return ("auto", int(slack_text))
    return ("fixed", _int_param(low, "a qubit count, 'auto', or 'auto+<slack>'"))


def _canonical_count(text: str) -> str:
    kind, value = _count(text)
    if kind == "fixed":
        return str(value)
    return "auto" if value == 0 else f"auto+{value}"


def _sized(params: str, num_logical: Optional[int], family: str) -> int:
    kind, value = _count(params)
    if kind == "auto":
        if num_logical is None:
            raise RegistryError(
                f"device spec {family}:{params} is auto-sized; "
                "a workload is needed to resolve it"
            )
        return num_logical + value
    return value


def _register_sized(name, factory, default, description, grammar, aliases=()):
    """Register a family whose params are a single (auto-sizable) count."""

    def build(params: str, num_logical: Optional[int]) -> CouplingGraph:
        return factory(_sized(params or default, num_logical, name))

    def canonicalize(params: str) -> str:
        return _canonical_count(params or default)

    DEVICE_FAMILIES.add(
        name,
        DeviceFamily(build=build, canonicalize=canonicalize),
        aliases=aliases,
        description=description,
        grammar=grammar,
    )


_register_sized(
    "linear",
    linear,
    default="auto+2",
    description="a line Q0-Q1-...-Qn-1; bare 'linear' keeps the legacy "
    "workload+2 auto-sizing",
    grammar="linear:<n> | linear:auto[+<slack>]",
)
_register_sized(
    "ring",
    ring,
    default="auto",
    description="a cycle of n qubits",
    grammar="ring:<n> | ring:auto[+<slack>]",
)
_register_sized(
    "full",
    fully_connected,
    default="auto",
    description="all-to-all connectivity (logical-circuit comparisons)",
    grammar="full[:<n> | :auto[+<slack>]]",
    aliases=("all-to-all",),
)


def _grid_build(params: str, num_logical: Optional[int]) -> CouplingGraph:
    if not params:
        raise RegistryError(
            "the grid family needs dimensions, e.g. grid:8x8"
        )
    rows, cols = _dims(params)
    return grid(rows, cols)


def _grid_canonicalize(params: str) -> str:
    if not params:
        raise RegistryError("the grid family needs dimensions, e.g. grid:8x8")
    rows, cols = _dims(params)
    return f"{rows}x{cols}"


DEVICE_FAMILIES.add(
    "grid",
    DeviceFamily(build=_grid_build, canonicalize=_grid_canonicalize),
    description="a rows x cols rectangular lattice",
    grammar="grid:<rows>x<cols>",
)


def _sycamore_build(params: str, num_logical: Optional[int]) -> CouplingGraph:
    rows, cols = _dims(params or "8x8")
    if (rows, cols) == (8, 8):
        return google_sycamore_64()
    return sycamore(rows, cols)


def _sycamore_canonicalize(params: str) -> str:
    rows, cols = _dims(params or "8x8")
    return f"{rows}x{cols}"


DEVICE_FAMILIES.add(
    "sycamore",
    DeviceFamily(build=_sycamore_build, canonicalize=_sycamore_canonicalize),
    description="Google Sycamore diagonal lattice; bare 'sycamore' is the "
    "paper's 64-qubit (8x8) preset",
    grammar="sycamore[:<rows>x<cols>]",
)

#: Params token selecting the exact 65-qubit hummingbird coupling list
#: (distinct from the generated heavy-hex lattice of any size).
_IBM_65_PRESET = "ibm-65"


def _heavy_hex_parse(params: str) -> Tuple[int, int]:
    if "x" in params.lower():
        return _dims(params)
    return _int_param(params, "<rows> or <rows>x<row_length>"), 11


def _heavy_hex_build(params: str, num_logical: Optional[int]) -> CouplingGraph:
    params = params or _IBM_65_PRESET
    if params.lower() == _IBM_65_PRESET:
        return ibm_ithaca_65()
    rows, row_length = _heavy_hex_parse(params)
    return heavy_hex(rows, row_length)


def _heavy_hex_canonicalize(params: str) -> str:
    params = params or _IBM_65_PRESET
    if params.lower() == _IBM_65_PRESET:
        return _IBM_65_PRESET
    rows, row_length = _heavy_hex_parse(params)
    return f"{rows}x{row_length}"


DEVICE_FAMILIES.add(
    "heavy-hex",
    DeviceFamily(build=_heavy_hex_build, canonicalize=_heavy_hex_canonicalize),
    aliases=("heavy_hex", "ithaca"),
    description="IBM heavy-hexagon lattice; bare 'heavy-hex' (and the "
    "legacy alias 'ithaca') is the paper's 65-qubit hummingbird preset",
    grammar="heavy-hex:<rows>[x<row_length>] | heavy-hex:ibm-65",
)


def _split(spec: str) -> Tuple[str, str, DeviceFamily]:
    family_label, params = parse_spec(spec)
    name = DEVICE_FAMILIES.canonical(family_label)
    return name, params, DEVICE_FAMILIES.get(name)


def canonical_device_spec(spec: str) -> str:
    """Normalize a device spec for content hashing.

    Aliases resolve to canonical family names, params are re-rendered in
    canonical form, and specs equivalent to a pre-redesign name collapse
    to that name — so e.g. ``sycamore:8x8``, ``SYCAMORE`` and
    ``sycamore`` all hash identically to the SPEC_VERSION-1 vocabulary.
    Raises :class:`RegistryError` on unknown families or malformed
    params (no workload needed).
    """
    name, params, family = _split(spec)
    canonical = f"{name}:{family.canonicalize(params)}"
    return LEGACY_BY_CANONICAL.get(canonical, canonical)


#: (family, canonical params, num_logical) -> built graph.  A coupling
#: graph is immutable after construction, and its lazily built caches
#: (distance matrix/rows, BFS parent trees, blocked-path and centre
#: caches) are pure accelerations — sharing one instance per process is
#: exactly what the hot compile path wants, instead of re-deriving all
#: of them per pipeline run.
_RESOLVE_CACHE: Dict[Tuple[str, str, Optional[int]], CouplingGraph] = {}


def resolve_device(spec: str, num_logical: Optional[int] = None) -> CouplingGraph:
    """Build (or fetch the memoized) coupling graph for a device spec.

    ``num_logical`` (the workload's qubit count) is required only by
    auto-sized specs such as ``linear:auto+2`` or bare ``full``.  When
    given, every family — fixed-size and parametric alike — is checked
    to fit the workload here, so an undersized device fails with one
    clear error instead of deep inside the routing layer.

    Equal canonical specs return the *same* :class:`CouplingGraph`
    instance, so every job compiled against a device in this process
    shares one distance matrix and one set of path caches.
    """
    name, params, family = _split(spec)
    key = (name, family.canonicalize(params), num_logical)
    graph = _RESOLVE_CACHE.get(key)
    if graph is None:
        graph = family.build(params, num_logical)
        if len(_RESOLVE_CACHE) > 256:
            _RESOLVE_CACHE.clear()
        _RESOLVE_CACHE[key] = graph
    if num_logical is not None and graph.num_qubits < num_logical:
        raise RegistryError(
            f"device {spec!r} has {graph.num_qubits} qubits but the "
            f"workload needs {num_logical}"
        )
    return graph


def device_names() -> List[str]:
    """Every accepted device label: family names plus aliases."""
    return DEVICE_FAMILIES.all_labels()
