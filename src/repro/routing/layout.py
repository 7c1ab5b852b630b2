"""Logical <-> physical qubit layout."""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..hardware.coupling import CouplingGraph


class Layout:
    """A bijective partial map from logical qubits to physical qubits.

    Physical qubits not holding a logical qubit are *free* — candidates for
    fast bridging (they stay in |0> until used).
    """

    __slots__ = ("num_logical", "num_physical", "_phys_of", "_log_of")

    def __init__(self, num_logical: int, num_physical: int) -> None:
        if num_logical > num_physical:
            raise ValueError("more logical qubits than physical qubits")
        self.num_logical = num_logical
        self.num_physical = num_physical
        self._phys_of: Dict[int, int] = {}
        self._log_of: Dict[int, int] = {}

    @classmethod
    def trivial(cls, num_logical: int, num_physical: int) -> "Layout":
        layout = cls(num_logical, num_physical)
        for q in range(num_logical):
            layout.place(q, q)
        return layout

    def place(self, logical: int, physical: int) -> None:
        if logical in self._phys_of:
            raise ValueError(f"logical qubit {logical} already placed")
        if physical in self._log_of:
            raise ValueError(f"physical qubit {physical} already occupied")
        self._phys_of[logical] = physical
        self._log_of[physical] = logical

    def physical(self, logical: int) -> int:
        return self._phys_of[logical]

    def physical_map(self) -> Dict[int, int]:
        """Live logical->physical dict, for hot loops that would otherwise
        pay a method call per lookup.  Callers must not mutate it."""
        return self._phys_of

    def logical(self, physical: int) -> Optional[int]:
        return self._log_of.get(physical)

    def is_occupied(self, physical: int) -> bool:
        return physical in self._log_of

    def free_physical(self) -> List[int]:
        return [p for p in range(self.num_physical) if p not in self._log_of]

    def remove(self, logical: int) -> int:
        """Retire a logical qubit (e.g. after mid-circuit measurement).

        Returns the physical qubit it occupied, which becomes free — a
        candidate bridge ancilla once reset to |0>.
        """
        physical = self._phys_of.pop(logical)
        del self._log_of[physical]
        return physical

    def swap_physical(self, a: int, b: int) -> None:
        """Exchange the logical contents of physical qubits ``a`` and ``b``."""
        la, lb = self._log_of.get(a), self._log_of.get(b)
        if la is not None:
            self._phys_of[la] = b
        if lb is not None:
            self._phys_of[lb] = a
        if la is None:
            self._log_of.pop(b, None)
        else:
            self._log_of[b] = la
        if lb is None:
            self._log_of.pop(a, None)
        else:
            self._log_of[a] = lb

    def copy(self) -> "Layout":
        out = Layout(self.num_logical, self.num_physical)
        out._phys_of = dict(self._phys_of)
        out._log_of = dict(self._log_of)
        return out

    def __repr__(self) -> str:
        return f"Layout({self.num_logical} -> {self.num_physical}: {self._phys_of})"


def greedy_interaction_layout(
    num_logical: int,
    coupling: CouplingGraph,
    interactions: Iterable,
    seed_qubit: Optional[int] = None,
    allowed: Optional[Iterable[int]] = None,
    distance: Optional[np.ndarray] = None,
) -> Layout:
    """Place heavily-interacting logical qubits on adjacent physical qubits.

    ``interactions`` is an iterable of ``(a, b)`` logical pairs (duplicates
    increase weight).  Logical qubits are placed in order of interaction
    degree, each next to its most-connected already-placed partner.

    The pairs are tallied once with ``np.bincount`` into an ``n x n``
    weight matrix and a degree vector; a stable argsort orders the
    qubits, and each qubit's placed partners are one row of the matrix
    read in placement order.  Candidate scoring is an int64 matvec over
    the cached distance matrix (exact — distances and weights are
    integers), with ``np.argmin``'s first-minimum rule reproducing the
    scalar reference's ``(cost, p)`` tie-break because the free list is
    ascending.

    ``allowed`` restricts seed and placement candidates to a physical
    subset (the ``select-qubits`` pass's region); ``distance`` overrides
    the hop-count matrix with any precomputed cost matrix — the
    noise-aware layout passes a float log-infidelity matrix, turning
    "near" into "connected by high-fidelity couplers".  Both default to
    the historical behavior, bit-for-bit.
    """
    allowed_set = None if allowed is None else frozenset(allowed)
    if allowed_set is not None and len(allowed_set) < num_logical:
        raise ValueError(
            f"allowed region has {len(allowed_set)} qubits but the "
            f"workload needs {num_logical}"
        )
    ends = np.fromiter(
        chain.from_iterable(interactions), dtype=np.int64
    ).reshape(-1, 2)
    a, b = ends[:, 0], ends[:, 1]
    size = num_logical * num_logical
    weight = (
        np.bincount(a * num_logical + b, minlength=size)
        + np.bincount(b * num_logical + a, minlength=size)
    ).reshape(num_logical, num_logical)
    degree = (
        np.bincount(a, minlength=num_logical)
        + np.bincount(b, minlength=num_logical)
    )

    layout = Layout(num_logical, coupling.num_qubits)
    order = np.argsort(-degree, kind="stable").tolist()
    if not order:
        return layout
    # Seed: the highest-degree logical qubit on the best-connected physical.
    if seed_qubit is None:
        seed_qubit = max(
            range(coupling.num_qubits) if allowed_set is None
            else sorted(allowed_set),
            key=lambda p: (coupling.degree(p), -p),
        )
    layout.place(order[0], seed_qubit)
    if distance is None:
        distance = coupling.distance_matrix().astype(np.int64)
    # Placed logical qubits and their physical qubits, in placement order.
    placed = np.empty(num_logical, dtype=np.int64)
    placed_phys = np.empty(num_logical, dtype=np.int64)
    placed[0], placed_phys[0] = order[0], seed_qubit
    for count, logical in enumerate(order[1:], start=1):
        partner_weight = weight[logical, placed[:count]]
        linked = partner_weight > 0
        free = layout.free_physical()
        if allowed_set is not None:
            free = [p for p in free if p in allowed_set]
        if not free:
            raise ValueError("no free physical qubits remain")
        free_arr = np.asarray(free, dtype=np.int64)
        if linked.any():
            # Minimize weighted distance to placed partners.
            costs = distance[free_arr[:, None], placed_phys[:count][linked]] @ (
                partner_weight[linked]
            )
        else:
            costs = distance[free_arr[:, None], placed_phys[:count]].min(axis=1)
        best = int(free_arr[int(np.argmin(costs))])
        layout.place(logical, best)
        placed[count], placed_phys[count] = logical, best
    return layout
