"""Generic name registries: registration, aliases, metadata.

The evaluation grid of the paper is (workload x encoder x compiler x
device).  Instead of hardwiring each axis to a closed tuple and an
if-chain, every axis is a :class:`Registry`: an open, introspectable
name -> value map with alias support and human-readable metadata (a
description plus a parameter *grammar* such as ``grid:<rows>x<cols>``).

Three registries back the grid's axes:

- compilers — :data:`repro.pipeline.registry.PIPELINES`
- device families — :data:`repro.hardware.families.DEVICE_FAMILIES`
- workload providers — :data:`repro.workloads.WORKLOADS`

Spec strings follow one grammar everywhere: ``<name>`` or
``<name>:<params>`` (:func:`parse_spec`); what the params mean is up to
the registered entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple


class RegistryError(ValueError):
    """Unknown name, duplicate registration, or malformed spec string."""


@dataclass(frozen=True)
class RegistryEntry:
    """One registered value plus its introspectable metadata."""

    name: str
    value: Any
    aliases: Tuple[str, ...] = ()
    description: str = ""
    #: Human-readable parameter grammar, e.g. ``"grid:<rows>x<cols>"``.
    grammar: str = ""

    @property
    def labels(self) -> Tuple[str, ...]:
        """Canonical name first, then every alias."""
        return (self.name, *self.aliases)


class Registry:
    """A case-insensitive name -> value map with aliases and metadata.

    Register with :meth:`add`::

        PROVIDERS = Registry("workload provider")
        PROVIDERS.add("chem", chem_blocks, description="...")

    Lookups accept any label
    (canonical name or alias, case-insensitive); unknown labels raise
    :class:`RegistryError` naming the registry kind and the available
    names.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}
        self._index: Dict[str, str] = {}  # lowercased label -> canonical name

    @staticmethod
    def _key(label: str) -> str:
        return str(label).strip().lower()

    def add(
        self,
        name: str,
        value: Any,
        *,
        aliases: Sequence[str] = (),
        description: str = "",
        grammar: str = "",
    ) -> RegistryEntry:
        entry = RegistryEntry(
            name=name,
            value=value,
            aliases=tuple(aliases),
            description=description,
            grammar=grammar,
        )
        for label in entry.labels:
            key = self._key(label)
            if not key:
                raise RegistryError(f"empty {self.kind} name in {entry.labels!r}")
            if key in self._index:
                raise RegistryError(
                    f"duplicate {self.kind} name {label!r} "
                    f"(already registered for {self._index[key]!r})"
                )
        self._entries[entry.name] = entry
        for label in entry.labels:
            self._index[self._key(label)] = entry.name
        return entry

    def canonical(self, label: str) -> str:
        """Resolve any label (name or alias) to the canonical name."""
        try:
            return self._index[self._key(label)]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {label!r}; available: {self.names()}"
            ) from None

    def entry(self, label: str) -> RegistryEntry:
        return self._entries[self.canonical(label)]

    def get(self, label: str) -> Any:
        return self.entry(label).value

    def names(self) -> List[str]:
        """Sorted canonical names (no aliases)."""
        return sorted(self._entries)

    def all_labels(self) -> List[str]:
        """Sorted canonical names and aliases."""
        return sorted({label for e in self._entries.values() for label in e.labels})

    def entries(self) -> List[RegistryEntry]:
        return [self._entries[name] for name in self.names()]

    def describe(self) -> List[Dict[str, str]]:
        """Metadata rows for ``--list-*`` style introspection."""
        return [
            {
                "name": entry.name,
                "aliases": ", ".join(entry.aliases),
                "grammar": entry.grammar or entry.name,
                "description": entry.description,
            }
            for entry in self.entries()
        ]

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and self._key(label) in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"


def parse_spec(spec: str) -> Tuple[str, str]:
    """Split a spec string into ``(name, params)``.

    ``"grid:8x8"`` -> ``("grid", "8x8")``; a bare ``"ithaca"`` ->
    ``("ithaca", "")``.  A trailing or leading colon is malformed.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise RegistryError(f"empty spec string {spec!r}")
    name, sep, params = spec.partition(":")
    name = name.strip()
    params = params.strip()
    if not name:
        raise RegistryError(f"malformed spec {spec!r}: missing name before ':'")
    if sep and not params:
        raise RegistryError(f"malformed spec {spec!r}: missing params after ':'")
    return name, params
