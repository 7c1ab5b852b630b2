"""Workload-provider registry: namespaced benchmark spec strings.

A workload spec is ``<provider>:<instance>`` — ``chem:LiH``,
``ucc:UCC-30``, ``qaoa:Rand-16`` — or a bare instance name, which
resolves through a fallback scan of the providers in
:data:`FALLBACK_ORDER` (so every pre-redesign name like ``LiH`` or
``Rand-16`` still works, and content hashes of bare specs are
preserved byte-for-byte).

Each provider declares which bare names it *claims* via an explicit
catalog or anchored grammar — replacing the old
``name.startswith(("rand", "reg"))`` sniffing, which would have
swallowed any future molecule whose name happened to start with those
letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from .obs.metrics import METRICS, WORKLOAD_BUILDS
from .obs.tracer import span as obs_span
from .registry import Registry, RegistryError, parse_spec

#: Registry of workload providers; values are :class:`WorkloadProvider`.
WORKLOADS = Registry("workload provider")

#: Bare (un-namespaced) names are tried against providers in this order.
FALLBACK_ORDER = ("chem", "ucc", "qaoa")

SCALES = ("smoke", "small", "full")

#: Block-count caps per scale for the truncating providers (None = no cap).
#: The chem and ucc providers pass the cap down, so a capped request
#: encodes only the blocks it keeps.
BLOCK_CAPS = {"smoke": 48, "small": 120, "full": None}


def check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise RegistryError(f"scale must be one of {SCALES}, got {scale!r}")
    return scale


@dataclass(frozen=True)
class WorkloadProvider:
    """One namespace of benchmark instances.

    ``blocks(instance, encoder, scale)`` builds the Pauli blocks;
    ``claims(name)`` says whether a bare name belongs to this provider;
    ``normalize(instance)`` validates and canonicalizes an instance name
    (raising :class:`RegistryError` for unknown instances);
    ``instance_names()`` lists the cataloged instances.  Providers with
    ``uses_encoder=False`` (QAOA) ignore the fermionic encoder, letting
    grid builders dedup JW/BK cells.
    """

    blocks: Callable[[str, str, str], list]
    claims: Callable[[str], bool]
    normalize: Callable[[str], str]
    instance_names: Callable[[], List[str]]
    uses_encoder: bool = True


# --------------------------------------------------------------------------
# chem — molecular UCCSD ansatz workloads
# --------------------------------------------------------------------------

def _chem_blocks(instance: str, encoder: str, scale: str) -> list:
    from .chem import benchmark_blocks, encoder_by_name

    return benchmark_blocks(
        instance, encoder_by_name(encoder), max_blocks=BLOCK_CAPS[check_scale(scale)]
    )


def _chem_claims(name: str) -> bool:
    from .chem import MOLECULES

    return name in MOLECULES


def _chem_normalize(instance: str) -> str:
    from .chem import MOLECULES

    if instance not in MOLECULES:
        raise RegistryError(
            f"unknown chem workload {instance!r}; available: {sorted(MOLECULES)}"
        )
    return instance


def _chem_names() -> List[str]:
    from .chem import MOLECULE_ORDER

    return list(MOLECULE_ORDER)


WORKLOADS.add(
    "chem",
    WorkloadProvider(
        blocks=_chem_blocks,
        claims=_chem_claims,
        normalize=_chem_normalize,
        instance_names=_chem_names,
    ),
    aliases=("molecule",),
    description="UCCSD ansatz for the paper's molecules (Table I)",
    grammar="chem:<molecule>  e.g. chem:LiH",
)


# --------------------------------------------------------------------------
# ucc — synthetic UCC-n benchmarks (n^2 random double excitations)
# --------------------------------------------------------------------------

def _ucc_instance(name: str):
    """``UCC-30`` or plain ``30`` -> 30; None when the shape doesn't match."""
    text = name
    if text.upper().startswith("UCC-"):
        text = text[len("UCC-"):]
    if not text.isdigit():
        return None
    return int(text)


def _ucc_normalize(instance: str) -> str:
    size = _ucc_instance(instance)
    if size is None or size < 4:
        raise RegistryError(
            f"unknown ucc workload {instance!r}; expected UCC-<n> (n >= 4)"
        )
    return f"UCC-{size}"


def _ucc_blocks(instance: str, encoder: str, scale: str) -> list:
    from .chem import benchmark_blocks, encoder_by_name

    return benchmark_blocks(
        _ucc_normalize(instance),
        encoder_by_name(encoder),
        max_blocks=BLOCK_CAPS[check_scale(scale)],
    )


def _ucc_claims(name: str) -> bool:
    return name.upper().startswith("UCC-") and _ucc_instance(name) is not None


def _ucc_names() -> List[str]:
    from .chem import SYNTHETIC_SIZES

    return [f"UCC-{n}" for n in SYNTHETIC_SIZES]


WORKLOADS.add(
    "ucc",
    WorkloadProvider(
        blocks=_ucc_blocks,
        claims=_ucc_claims,
        normalize=_ucc_normalize,
        instance_names=_ucc_names,
    ),
    description="synthetic UCCSD: n^2 random double-excitation blocks on "
    "n spin orbitals",
    grammar="ucc:UCC-<n> | ucc:<n>  e.g. ucc:UCC-30",
)


# --------------------------------------------------------------------------
# qaoa — MaxCut ansatz over benchmark graphs
# --------------------------------------------------------------------------

def _qaoa_parse(name: str):
    """``Rand-16`` / ``REG3-20`` (case-insensitive) -> (kind, size)."""
    kind, sep, size_text = name.partition("-")
    if not sep or not size_text.isdigit():
        return None
    low = kind.lower()
    if low in ("rand", "ran"):
        return ("Rand", int(size_text))
    if low in ("reg3", "reg"):
        return ("REG3", int(size_text))
    return None


def _qaoa_normalize(instance: str) -> str:
    parsed = _qaoa_parse(instance)
    if parsed is None:
        raise RegistryError(
            f"unknown qaoa workload {instance!r}; expected Rand-<n> or REG3-<n>"
        )
    return f"{parsed[0]}-{parsed[1]}"


def _qaoa_blocks(instance: str, encoder: str, scale: str) -> list:
    from .qaoa import benchmark_graph, maxcut_blocks

    check_scale(scale)
    # QAOA ansatz depth is set by the graph, not a block cap; the
    # fermionic encoder does not apply.
    return maxcut_blocks(benchmark_graph(_qaoa_normalize(instance)))


def _qaoa_claims(name: str) -> bool:
    return _qaoa_parse(name) is not None


def _qaoa_names() -> List[str]:
    from .qaoa import QAOA_BENCHMARKS

    return list(QAOA_BENCHMARKS)


WORKLOADS.add(
    "qaoa",
    WorkloadProvider(
        blocks=_qaoa_blocks,
        claims=_qaoa_claims,
        normalize=_qaoa_normalize,
        instance_names=_qaoa_names,
        uses_encoder=False,
    ),
    aliases=("maxcut",),
    description="QAOA MaxCut ansatz over random / 3-regular graphs",
    grammar="qaoa:Rand-<n> | qaoa:REG3-<n>",
)


# --------------------------------------------------------------------------
# resolution
# --------------------------------------------------------------------------

def _fallback_providers() -> List[str]:
    """Fallback scan order: the documented order, then any late additions."""
    names = [name for name in FALLBACK_ORDER if name in WORKLOADS]
    names += [name for name in WORKLOADS.names() if name not in names]
    return names


def resolve_workload(spec: str) -> Tuple[str, str]:
    """Resolve a workload spec to ``(provider_name, canonical_instance)``.

    Namespaced specs go straight to their provider; bare names fall back
    to the first provider that claims them.
    """
    label, instance = parse_spec(spec)
    if instance:
        name = WORKLOADS.canonical(label)
        return name, WORKLOADS.get(name).normalize(instance)
    bare = label
    for name in _fallback_providers():
        if WORKLOADS.get(name).claims(bare):
            return name, WORKLOADS.get(name).normalize(bare)
    raise RegistryError(
        f"unknown workload {spec!r}; use <provider>:<instance> with a "
        f"provider from {WORKLOADS.names()}, or a cataloged bare name "
        f"(see benchmark_names())"
    )


def workload_blocks(spec: str, encoder: str = "JW", scale: str = "small") -> list:
    """Build the Pauli blocks for any workload spec string."""
    provider_name, instance = resolve_workload(spec)
    with obs_span(
        "workload:build",
        "workload",
        spec=f"{provider_name}:{instance}",
        encoder=encoder,
        scale=scale,
    ) as sp:
        blocks = WORKLOADS.get(provider_name).blocks(instance, encoder, scale)
        sp.set(blocks=len(blocks))
    METRICS.counter(WORKLOAD_BUILDS).inc()
    return blocks


def canonical_bench(spec: str) -> str:
    """Normalize a workload spec for content hashing.

    Bare names pass through untouched — even unknown ones, which fail at
    run time exactly as before — so every SPEC_VERSION-1 hash is
    preserved.  Namespaced specs collapse to the bare instance whenever
    the bare form resolves back to the same provider (``chem:LiH`` ->
    ``LiH``), keeping warm caches hitting across both spellings.
    """
    if ":" not in spec:
        return spec
    provider_name, instance = resolve_workload(spec)
    if WORKLOADS.get(provider_name).claims(instance):
        return instance
    return f"{provider_name}:{instance}"


def uses_encoder(spec: str) -> bool:
    """Whether the spec's provider consumes the fermionic encoder.

    Unresolvable specs default to True (the job will error at run time
    with the real cause).
    """
    try:
        provider_name, _ = resolve_workload(spec)
    except RegistryError:
        return True
    return WORKLOADS.get(provider_name).uses_encoder


def benchmark_names() -> List[str]:
    """Every cataloged bare instance name, provider by provider.

    Raises :class:`RegistryError` if two providers catalog the same bare
    name — the collision the namespaced grammar exists to prevent.
    """
    names: List[str] = []
    owners = {}
    for provider_name in _fallback_providers():
        for instance in WORKLOADS.get(provider_name).instance_names():
            if instance in owners:
                raise RegistryError(
                    f"workload name collision: {instance!r} is cataloged by "
                    f"both {owners[instance]!r} and {provider_name!r}"
                )
            owners[instance] = provider_name
            names.append(instance)
    return names


def workload_specs() -> List[Tuple[str, str, List[str]]]:
    """Per-provider ``(name, grammar, instances)`` rows for CLI listings."""
    return [
        (entry.name, entry.grammar, WORKLOADS.get(entry.name).instance_names())
        for entry in WORKLOADS.entries()
    ]
