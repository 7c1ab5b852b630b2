"""Seeded synthetic device calibration (per-edge/per-qubit error rates).

Real backends publish calibration snapshots — per-edge two-qubit error,
per-qubit single-qubit error, readout error, T1/T2 — and noise-aware
compilers consume them to pick good qubits and good paths.  This repo
has no hardware, so every device family gets a *synthetic* calibration
instead: error rates drawn from lognormal distributions centred on the
paper's noise parameters (Sec. VI-G: 1e-3 per CNOT, 1e-4 per 1Q gate),
seeded deterministically from the canonical device spec plus an integer
calibration seed.

Determinism is the contract everything else leans on:

- same ``(device spec, seed)`` ⇒ byte-identical :class:`Calibration`
  (and therefore byte-identical job content hashes and cache keys);
- the :func:`calibration_digest` entering the job hash needs *only* the
  canonical spec and seed — no coupling graph is built — so auto-sized
  devices (``linear:auto+2``) hash without a workload;
- different seeds model different calibration days: the noise-aware
  passes re-rank qubits, and cached results never collide.

The noise-distance matrix turns error rates into routing costs: the
weight of edge ``(a, b)`` is ``-log(1 - p_ab)``, so a shortest path
under this metric is a *highest-fidelity* path, and path costs add the
way log-fidelities do.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .coupling import CouplingGraph
from .families import canonical_device_spec, resolve_device

#: Bump when the synthetic-calibration distributions change: the version
#: is folded into both the RNG seed and the content-hash digest, so a
#: distribution change re-keys every calibrated cache cell instead of
#: silently serving stale circuits.
CALIBRATION_VERSION = 1

#: Lognormal centres (log10) and spreads, per quantity.  Two-qubit
#: errors span roughly [2e-4, 5e-3] — wide enough that qubit selection
#: has something real to choose between.
_TWO_Q_LOG10_MEAN, _TWO_Q_LOG10_SIGMA = -3.0, 0.35
_ONE_Q_LOG10_MEAN, _ONE_Q_LOG10_SIGMA = -4.0, 0.30
_READOUT_LOG10_MEAN, _READOUT_LOG10_SIGMA = -1.8, 0.25
_T1_MEAN_US, _T1_SIGMA_US = 120.0, 30.0
_T2_MEAN_US, _T2_SIGMA_US = 110.0, 40.0


@dataclass(frozen=True)
class Calibration:
    """One calibration snapshot for one device.

    ``edge_error`` is keyed by sorted physical pairs ``(min, max)``.
    All error rates are probabilities in (0, 1); T1/T2 are microseconds.
    Instances are immutable; the derived noise-distance matrix and
    predecessor trees are cached lazily.
    """

    device: str
    seed: int
    num_qubits: int
    edge_error: Mapping[Tuple[int, int], float]
    one_qubit_error: Tuple[float, ...]
    readout_error: Tuple[float, ...]
    t1_us: Tuple[float, ...]
    t2_us: Tuple[float, ...]

    def two_qubit_error(self, a: int, b: int) -> float:
        """The calibrated error of the coupler between ``a`` and ``b``."""
        key = (a, b) if a < b else (b, a)
        try:
            return self.edge_error[key]
        except KeyError:
            raise KeyError(
                f"qubits {a} and {b} are not coupled on {self.device!r}"
            ) from None

    def mean_edge_error(self, nodes=None) -> float:
        """Mean 2Q error over all edges, or over the subgraph induced by
        ``nodes`` (zero when the induced subgraph has no edges)."""
        if nodes is None:
            errors = list(self.edge_error.values())
        else:
            selected = set(nodes)
            errors = [
                p
                for (a, b), p in self.edge_error.items()
                if a in selected and b in selected
            ]
        return float(np.mean(errors)) if errors else 0.0

    @cached_property
    def _dijkstra(self) -> Tuple[np.ndarray, np.ndarray]:
        """All-pairs noise distance + predecessor matrix (Dijkstra per
        source over ``-log(1-p)`` edge weights)."""
        n = self.num_qubits
        adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for (a, b), p in self.edge_error.items():
            w = -float(np.log1p(-p))
            adjacency[a].append((b, w))
            adjacency[b].append((a, w))
        dist = np.full((n, n), np.inf, dtype=np.float64)
        pred = np.full((n, n), -1, dtype=np.int64)
        for source in range(n):
            row = dist[source]
            prow = pred[source]
            row[source] = 0.0
            heap = [(0.0, source)]
            while heap:
                d, node = heapq.heappop(heap)
                if d > row[node]:
                    continue
                for neighbor, w in adjacency[node]:
                    nd = d + w
                    if nd < row[neighbor]:
                        row[neighbor] = nd
                        prow[neighbor] = node
                        heapq.heappush(heap, (nd, neighbor))
        return dist, pred

    def noise_distance_matrix(self) -> np.ndarray:
        """All-pairs log-infidelity distances (float64, symmetric).

        ``exp(-distance[a, b])`` is the fidelity of the best CNOT chain
        between ``a`` and ``b``; unreachable pairs are ``inf``."""
        return self._dijkstra[0]

    def noise_path(self, a: int, b: int) -> List[int]:
        """The highest-fidelity path from ``a`` to ``b`` (inclusive)."""
        dist, pred = self._dijkstra
        if not np.isfinite(dist[a, b]):
            raise ValueError(
                f"no path between qubits {a} and {b} on {self.device!r}"
            )
        path = [b]
        while path[-1] != a:
            path.append(int(pred[a, path[-1]]))
        path.reverse()
        return path

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-able form (sorted edges; used by tests to pin
        byte-identical determinism)."""
        return {
            "version": CALIBRATION_VERSION,
            "device": self.device,
            "seed": self.seed,
            "num_qubits": self.num_qubits,
            "edge_error": [
                [a, b, p] for (a, b), p in sorted(self.edge_error.items())
            ],
            "one_qubit_error": list(self.one_qubit_error),
            "readout_error": list(self.readout_error),
            "t1_us": list(self.t1_us),
            "t2_us": list(self.t2_us),
        }


def _rng_for(device_spec: str, seed: int) -> np.random.Generator:
    material = f"repro-calibration:v{CALIBRATION_VERSION}:{device_spec}:{seed}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _lognormal(rng, log10_mean, log10_sigma, size, low, high) -> np.ndarray:
    values = 10.0 ** rng.normal(log10_mean, log10_sigma, size=size)
    return np.round(np.clip(values, low, high), 8)


def synthetic_calibration(
    coupling: CouplingGraph, device_spec: str = "", seed: int = 0
) -> Calibration:
    """Draw a deterministic calibration snapshot for ``coupling``.

    ``device_spec`` should be the canonical device spec (it seeds the
    RNG together with ``seed`` and :data:`CALIBRATION_VERSION`); when
    empty, the graph's own name is used, so ad-hoc graphs in tests still
    calibrate deterministically.
    """
    spec = device_spec or coupling.name or f"anonymous:{coupling.num_qubits}"
    rng = _rng_for(spec, seed)
    n = coupling.num_qubits
    edges = sorted(coupling.edges)
    two_q = _lognormal(
        rng, _TWO_Q_LOG10_MEAN, _TWO_Q_LOG10_SIGMA, len(edges), 1e-4, 3e-2
    )
    one_q = _lognormal(
        rng, _ONE_Q_LOG10_MEAN, _ONE_Q_LOG10_SIGMA, n, 1e-5, 3e-3
    )
    readout = _lognormal(
        rng, _READOUT_LOG10_MEAN, _READOUT_LOG10_SIGMA, n, 1e-3, 2e-1
    )
    t1 = np.round(np.clip(rng.normal(_T1_MEAN_US, _T1_SIGMA_US, n), 10.0, None), 2)
    t2 = np.round(
        np.minimum(
            2.0 * t1, np.clip(rng.normal(_T2_MEAN_US, _T2_SIGMA_US, n), 5.0, None)
        ),
        2,
    )
    return Calibration(
        device=spec,
        seed=seed,
        num_qubits=n,
        edge_error={edge: float(p) for edge, p in zip(edges, two_q)},
        one_qubit_error=tuple(float(p) for p in one_q),
        readout_error=tuple(float(p) for p in readout),
        t1_us=tuple(float(t) for t in t1),
        t2_us=tuple(float(t) for t in t2),
    )


def calibration_digest(device_spec: str, seed: int) -> str:
    """Short digest identifying a calibration snapshot for content hashing.

    Depends only on the *canonical* device spec, the seed, and
    :data:`CALIBRATION_VERSION` — the full snapshot is a pure function
    of those three, so hashing them is hashing it, and no coupling graph
    (or workload, for auto-sized devices) is ever built on the hash path.
    """
    canonical = canonical_device_spec(device_spec)
    material = f"repro-calibration:v{CALIBRATION_VERSION}:{canonical}:{seed}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def _induced_edges(coupling: CouplingGraph, nodes) -> List[Tuple[int, int]]:
    selected = set(nodes)
    return [
        (a, b) for (a, b) in coupling.edges if a in selected and b in selected
    ]


def _subgraph_score(
    coupling: CouplingGraph, calibration: Calibration, nodes
) -> Tuple[float, int]:
    """Rank key for a candidate region: (mean induced 2Q error, -edges).

    Lower is better on both axes — cleanest couplers first, and among
    equal-quality regions the better-connected one (fewer SWAPs later).
    """
    edges = _induced_edges(coupling, nodes)
    if not edges:
        return (1.0, 0)
    mean = sum(calibration.edge_error[e] for e in edges) / len(edges)
    return (mean, -len(edges))


def _grow_region(
    coupling: CouplingGraph, calibration: Calibration, start: int, k: int
):
    """Greedy connected growth from ``start``: repeatedly absorb the
    frontier qubit whose attaching couplers keep the region's mean edge
    error lowest.  Returns None when ``start``'s component is too small."""
    selected = {start}
    error_sum, edge_count = 0.0, 0
    while len(selected) < k:
        best_key, best_node, best_delta = None, None, None
        for node in selected:
            for candidate in coupling.neighbors(node):
                if candidate in selected:
                    continue
                attach = [
                    calibration.two_qubit_error(candidate, nb)
                    for nb in coupling.neighbors(candidate)
                    if nb in selected
                ]
                mean = (error_sum + sum(attach)) / (edge_count + len(attach))
                key = (mean, -(edge_count + len(attach)), candidate)
                if best_key is None or key < best_key:
                    best_key, best_node = key, candidate
                    best_delta = (sum(attach), len(attach))
        if best_node is None:
            return None
        selected.add(best_node)
        error_sum += best_delta[0]
        edge_count += best_delta[1]
    return selected


def select_best_subgraph(
    coupling: CouplingGraph, calibration: Calibration, k: int
) -> Tuple[int, ...]:
    """The best-fidelity connected ``k``-qubit region of the device.

    Greedy growth from every start qubit (scored by mean induced 2Q
    error, ties to the better-connected region), then local improvement:
    swap any removable boundary qubit for any frontier qubit while the
    score improves.  Deterministic; the randomized regression tests pin
    that the result is connected, exactly ``k`` qubits, and no worse
    than sampled random connected subgraphs of the same size.
    """
    n = coupling.num_qubits
    if not 0 < k <= n:
        raise ValueError(
            f"cannot select {k} qubits from a {n}-qubit device"
        )
    if k == n:
        return tuple(range(n))
    best_nodes, best_score = None, None
    for start in range(n):
        region = _grow_region(coupling, calibration, start, k)
        if region is None:
            continue
        score = _subgraph_score(coupling, calibration, region)
        if best_score is None or score < best_score:
            best_nodes, best_score = region, score
    if best_nodes is None:
        raise ValueError(
            f"device {calibration.device!r} has no connected "
            f"{k}-qubit subgraph"
        )
    # Local improvement to a fixpoint: trade one boundary qubit out for
    # one frontier qubit in whenever that lowers the score.
    improved = True
    while improved:
        improved = False
        frontier = sorted(
            {
                nb
                for node in best_nodes
                for nb in coupling.neighbors(node)
                if nb not in best_nodes
            }
        )
        for out in sorted(best_nodes):
            remainder = best_nodes - {out}
            if not coupling.subgraph_is_connected(sorted(remainder)):
                continue
            for incoming in frontier:
                if incoming == out:
                    continue
                trial = remainder | {incoming}
                if not coupling.subgraph_is_connected(sorted(trial)):
                    continue
                score = _subgraph_score(coupling, calibration, trial)
                if score < best_score:
                    best_nodes, best_score = trial, score
                    improved = True
                    break
            if improved:
                break
    return tuple(sorted(best_nodes))


#: (canonical spec, num_qubits, seed) -> snapshot.  Calibrations are
#: immutable and their Dijkstra caches are pure accelerations, so one
#: instance per process per cell is exactly right.
_CALIBRATION_CACHE: Dict[Tuple[str, int, int], Calibration] = {}


def resolve_calibration(
    device_spec: str, seed: int = 0, num_logical: Optional[int] = None
) -> Calibration:
    """Build (or fetch the memoized) calibration for a device spec.

    ``num_logical`` is needed only by auto-sized specs, exactly as in
    :func:`~repro.hardware.families.resolve_device`.  Equal canonical
    specs share one snapshot instance per process.
    """
    canonical = canonical_device_spec(device_spec)
    coupling = resolve_device(device_spec, num_logical)
    key = (canonical, coupling.num_qubits, seed)
    calibration = _CALIBRATION_CACHE.get(key)
    if calibration is None:
        calibration = synthetic_calibration(coupling, canonical, seed)
        if len(_CALIBRATION_CACHE) > 256:
            _CALIBRATION_CACHE.clear()
        _CALIBRATION_CACHE[key] = calibration
    return calibration
