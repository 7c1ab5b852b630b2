"""Pipeline registries and the pipeline spec grammar.

Two registries live here:

- :data:`PASSES` — every concrete pass under a short name
  (``layout``, ``synth-tetris``, ``cancel``, ...), so custom pipelines
  can be assembled from spec strings.
- :data:`PIPELINES` — the named pass *sequences*: one per compiler of
  the paper's evaluation (``tetris``, ``paulihedral``, ``max-cancel``,
  ``tket-like``, ``pcoast-like``, ``2qan-like``, ``tetris-qaoa``).  It
  is the compiler registry: every ``compiler`` spec a job, the CLI or
  the facade accepts resolves here.

Spec grammar (``build_pipeline`` / ``run_pipeline``)::

    tetris                      # a registered pipeline
    tetris+o1                   # ... with cleanup level 1 (cancel only)
    tetris:no-gray              # ... with a named variant applied
    tetris:w=0.1,k=5            # ... with parameter assignments (aliased)
    tetris:noise-aware          # ... noise-weighted layout (calibrated jobs)
    tetris:noise-aware+select=20
                                # ... restricted to the best 20 qubits
    order-similarity,synth-single-leaf,layout,route
                                # a custom pass list (cleanup tail appended)

Cleanup levels mirror the paper's post-compilation settings: ``o0``
decomposes SWAPs only, ``o1`` adds peephole cancellation, ``o3`` (the
default) adds 1Q consolidation.  The tail is always appended, so every
pipeline ends on a decomposed, measured circuit.

Variant parameters canonicalize into plain compiler parameters
(:func:`resolve_compiler_spec`), so ``tetris:no-gray`` and
``CompileJob(compiler="tetris", params={"sort_strings": False})``
describe — and content-hash as — the same cell.  A variant or
parameter the pipeline does not define is refused with the accepted
vocabulary: in a spec string when it is resolved, in explicit
``params`` by :func:`check_compiler_params`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..compiler.tetris import DEFAULT_LOOKAHEAD, DEFAULT_SWAP_WEIGHT
from ..registry import Registry, RegistryError
from .base import Pass
from .manager import PassManager, PipelineRun
from .passes import (
    CancelGatesPass,
    CancelLogicalPass,
    ChainSynthesisPass,
    CommutingScheduleSynthesisPass,
    ConsolidatePass,
    DecomposeSwapsPass,
    ExtractEdgesPass,
    InteractionLayoutPass,
    LowerTetrisIRPass,
    NoiseAwareLayoutPass,
    NoiseAwareSwapRoutePass,
    QAOABridgingSynthesisPass,
    SelectQubitsPass,
    SimilarityOrderPass,
    SingleLeafSynthesisPass,
    SpanningTreeSynthesisPass,
    SwapRoutePass,
    TetrisSynthesisPass,
)

#: Cleanup levels: pass tail appended after every compiler stage.
OPT_LEVELS = (0, 1, 3)
DEFAULT_OPT_LEVEL = 3

#: Individual passes, addressable from custom spec lists.
PASSES = Registry("pass")

for _factory, _description in (
    (InteractionLayoutPass, "greedy interaction-graph qubit placement"),
    (SelectQubitsPass, "restrict layout to the best-fidelity k-qubit region"),
    (NoiseAwareLayoutPass, "greedy placement over calibrated noise distance"),
    (NoiseAwareSwapRoutePass, "SWAP routing along highest-fidelity paths"),
    (LowerTetrisIRPass, "lower Pauli blocks to Tetris IR"),
    (SimilarityOrderPass, "greedy similarity-chain block ordering"),
    (ExtractEdgesPass, "extract QAOA (u, v, angle) ZZ terms"),
    (TetrisSynthesisPass, "Tetris scheduling + Algorithm-1 synthesis"),
    (SpanningTreeSynthesisPass, "Paulihedral SWAP-centric tree emission"),
    (SingleLeafSynthesisPass, "single-leaf-tree logical synthesis"),
    (ChainSynthesisPass, "per-string CNOT-ladder logical synthesis"),
    (CommutingScheduleSynthesisPass, "2QAN commutation-aware scheduling"),
    (QAOABridgingSynthesisPass, "QAOA bridging + qubit-reuse scheduling"),
    (SwapRoutePass, "generic SWAP routing onto the device"),
    (CancelLogicalPass, "pre-routing logical gate cancellation"),
    (DecomposeSwapsPass, "decompose SWAPs into 3 CNOTs"),
    (CancelGatesPass, "peephole gate cancellation to fixpoint"),
    (ConsolidatePass, "consolidate 1Q runs into U3"),
):
    PASSES.add(_factory.name, _factory, description=_description)


@dataclass(frozen=True)
class PipelineDef:
    """A registered pipeline: builder plus its variant vocabulary."""

    builder: Callable[..., List[Pass]]
    #: named variant -> parameter overrides (``no-gray`` style tokens)
    variants: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    #: short parameter aliases (``w`` -> ``swap_weight``)
    param_aliases: Mapping[str, str] = field(default_factory=dict)


#: Named pipelines — the compilers of the paper's evaluation.
PIPELINES = Registry("pipeline")


def _noise_front(noise_aware: bool, select: int) -> List[Pass]:
    """The noise-aware layout front-end shared by the pipeline builders:
    optional best-region selection, then noise-weighted or plain layout."""
    passes: List[Pass] = []
    if select:
        passes.append(SelectQubitsPass(size=select))
    passes.append(NoiseAwareLayoutPass() if noise_aware else InteractionLayoutPass())
    return passes


def _tetris_passes(
    swap_weight: float = DEFAULT_SWAP_WEIGHT,
    lookahead: int = DEFAULT_LOOKAHEAD,
    sort_strings: bool = True,
    noise_aware: bool = False,
    select: int = 0,
) -> List[Pass]:
    """Tetris (paper Fig. 11): lower blocks to Tetris-IR, choose an
    initial layout, schedule blocks, and synthesize each with Algorithm 1
    (root clustering, scored leaf attachment).

    ``swap_weight`` is the ``w`` of the leaf-attachment score (one SWAP
    = 3 CNOTs; Sec. V-A and Fig. 20).  ``lookahead`` is the scheduler's
    K (Fig. 19); ``lookahead=0``, like ``lookahead=1``, chains blocks
    by similarity alone, the paper's plain "Tetris" bar in Fig. 14.
    ``sort_strings`` toggles the Gray-code string order within a block.
    """
    return [
        LowerTetrisIRPass(sort_strings=sort_strings),
        *_noise_front(noise_aware, select),
        TetrisSynthesisPass(swap_weight=swap_weight, lookahead=lookahead),
    ]


def _paulihedral_passes(sort_strings: bool = True) -> List[Pass]:
    """A Paulihedral-style baseline (Li et al., ASPLOS 2022).

    Blocks are chained greedily by similarity with no SWAP-cost
    lookahead, and strings within a block are sorted lexicographically
    (``sort_strings``) for 1Q cancellation.  Per string, the largest
    connected component of the mapped support absorbs the other qubits
    by SWAPs, and the string is emitted over a BFS tree rooted at the
    component's centre, without Tetris' root/leaf distinction, so 2Q
    cancellation is mostly missed (Fig. 4(b)); gate cancellation is left
    to the O3 tail.
    """
    return [
        SimilarityOrderPass(),
        InteractionLayoutPass(),
        SpanningTreeSynthesisPass(sort_strings=sort_strings),
    ]


def _max_cancel_passes(
    sort_strings: bool = True,
    noise_aware: bool = False,
    select: int = 0,
) -> List[Pass]:
    return [
        SimilarityOrderPass(),
        SingleLeafSynthesisPass(sort_strings=sort_strings),
        *_noise_front(noise_aware, select),
        NoiseAwareSwapRoutePass() if noise_aware else SwapRoutePass(),
    ]


def _tket_passes(style: str = "tket-o2") -> List[Pass]:
    """A T|Ket>-style generic baseline.

    Every Pauli exponential is synthesized on its own as a CNOT ladder
    over its support, with no inter-string awareness, then routed by the
    generic SWAP router.  The paper puts this class of compiler at
    roughly 2x the CNOTs of Paulihedral/Tetris (Figs. 14 and 15a); the
    gap is the block structure it does not exploit.  The two ``style``
    values mirror Fig. 15a:

    - ``tket-o2`` cancels on the logical circuit before routing as well
      as after (T|Ket>'s own optimization knows the synthesis
      structure, so pre-routing cleanup pays off);
    - ``qiskit-o3`` routes first and only cleans up the routed circuit.
    """
    if style not in ("tket-o2", "qiskit-o3"):
        raise RegistryError(
            f"tket-like style must be 'tket-o2' or 'qiskit-o3', got {style!r}"
        )
    passes: List[Pass] = [ChainSynthesisPass()]
    if style == "tket-o2":
        passes.append(CancelLogicalPass())
    passes.extend([InteractionLayoutPass(), SwapRoutePass()])
    return passes


def _pcoast_passes() -> List[Pass]:
    """A PCOAST-style baseline (Paykin et al., Intel Quantum SDK).

    PCOAST optimizes aggressively at the logical level, reaching the
    best logical gate counts of all baselines, but ignores qubit
    mapping, so routing pays a large SWAP bill (paper Fig. 15b).  The
    model: greedy block ordering by leaf similarity, single-leaf-tree
    synthesis as in max-cancel, logical cancellation, then generic
    routing.
    """
    return [
        SimilarityOrderPass(),
        SingleLeafSynthesisPass(),
        CancelLogicalPass(),
        InteractionLayoutPass(),
        SwapRoutePass(),
    ]


def _2qan_passes(include_wrappers: bool = False) -> List[Pass]:
    return [
        ExtractEdgesPass(),
        InteractionLayoutPass(),
        CommutingScheduleSynthesisPass(include_wrappers=include_wrappers),
    ]


def _tetris_qaoa_passes(include_wrappers: bool = False) -> List[Pass]:
    return [
        ExtractEdgesPass(),
        InteractionLayoutPass(),
        QAOABridgingSynthesisPass(include_wrappers=include_wrappers),
    ]


PIPELINES.add(
    "tetris",
    PipelineDef(
        _tetris_passes,
        variants={
            "no-lookahead": {"lookahead": 0},
            "no-gray": {"sort_strings": False},
            "noise-aware": {"noise_aware": True},
        },
        param_aliases={"w": "swap_weight", "k": "lookahead"},
    ),
    description="lower-ir, layout, synth-tetris (the paper's compiler)",
    grammar="tetris[:no-lookahead|no-gray|noise-aware|w=<f>|k=<n>]"
    "[+select=<k>]",
)
PIPELINES.add(
    "paulihedral",
    PipelineDef(_paulihedral_passes, variants={"no-sort": {"sort_strings": False}}),
    aliases=("ph",),
    description="order-similarity, layout, synth-spanning-tree",
    grammar="paulihedral[:no-sort]",
)
PIPELINES.add(
    "max-cancel",
    PipelineDef(
        _max_cancel_passes,
        variants={
            "no-sort": {"sort_strings": False},
            "noise-aware": {"noise_aware": True},
        },
    ),
    aliases=("maxcancel",),
    description="order-similarity, synth-single-leaf, layout, route",
    grammar="max-cancel[:no-sort|noise-aware][+select=<k>]",
)
PIPELINES.add(
    "tket-like",
    PipelineDef(_tket_passes),
    aliases=("tket",),
    description="synth-chain, [cancel-logical,] layout, route",
    grammar="tket-like[:style=tket-o2|qiskit-o3]",
)
PIPELINES.add(
    "pcoast-like",
    PipelineDef(_pcoast_passes),
    aliases=("pcoast",),
    description="order-similarity, synth-single-leaf, cancel-logical, layout, route",
    grammar="pcoast-like",
)
PIPELINES.add(
    "2qan-like",
    PipelineDef(_2qan_passes, variants={"wrappers": {"include_wrappers": True}}),
    aliases=("2qan",),
    description="extract-edges, layout, synth-2qan",
    grammar="2qan-like[:wrappers]",
)
PIPELINES.add(
    "tetris-qaoa",
    PipelineDef(_tetris_qaoa_passes, variants={"wrappers": {"include_wrappers": True}}),
    description="extract-edges, layout, synth-qaoa-reuse",
    grammar="tetris-qaoa[:wrappers]",
)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def _parse_value(text: str) -> Any:
    """``"0.1"`` -> 0.1, ``"5"`` -> 5, ``"true"`` -> True, else the string."""
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text.strip()


def _split_suffixes(spec: str) -> Tuple[str, Optional[int], Optional[int]]:
    """Partition a spec into ``(base, opt_level, select)``.

    Two ``+`` suffixes exist: ``+o<level>`` (cleanup level) and
    ``+select=<k>`` (best-fidelity region size), in either order.
    Anything else after a ``+`` raises :class:`RegistryError`.
    """
    parts = spec.split("+")
    base = parts[0].strip()
    level: Optional[int] = None
    select: Optional[int] = None
    for suffix in parts[1:]:
        suffix = suffix.strip()
        if suffix.startswith("o") and suffix[1:].isdigit():
            level = int(suffix[1:])
            if level not in OPT_LEVELS:
                raise RegistryError(
                    f"pipeline spec {spec!r}: cleanup level must be one "
                    f"of {OPT_LEVELS}"
                )
        elif suffix.startswith("select="):
            size = suffix[len("select="):].strip()
            if not size.isdigit() or int(size) <= 0:
                raise RegistryError(
                    f"pipeline spec {spec!r}: '+select=<k>' needs a "
                    f"positive qubit count, got {size!r}"
                )
            select = int(size)
        else:
            raise RegistryError(
                f"malformed pipeline spec {spec!r}: expected '+o<level>' "
                "or '+select=<k>' suffix"
            )
    return base, level, select


def split_opt_suffix(spec: str) -> Tuple[str, Optional[int]]:
    """Split a trailing ``+o<level>`` off a pipeline spec.

    ``"tetris+o1"`` -> ``("tetris", 1)``; ``"tetris"`` -> ``("tetris",
    None)``.  A ``+select=<k>`` suffix stays in the base (it is a
    compiler parameter, not a cleanup level).  Unknown levels and
    unknown suffixes raise :class:`RegistryError`.
    """
    base, level, select = _split_suffixes(spec)
    if select is not None:
        base = f"{base}+select={select}"
    return base, level


def _builder_params(builder) -> Optional[frozenset]:
    """The builder's accepted keyword names, or None when unknowable
    (``**kwargs`` builders accept anything)."""
    try:
        signature = inspect.signature(builder)
    except (TypeError, ValueError):
        return None
    if any(
        p.kind == inspect.Parameter.VAR_KEYWORD
        for p in signature.parameters.values()
    ):
        return None
    return frozenset(signature.parameters)


def _resolve_variants(
    name: str, definition: PipelineDef, tokens: Sequence[str]
) -> Dict[str, Any]:
    """Map ``no-gray`` / ``w=0.1`` tokens to builder parameters.

    Parameter keys are validated eagerly against the builder's
    signature, so a typo'd spec fails at :class:`CompileJob`
    construction (and never mints a phantom cache cell) rather than at
    worker run time.
    """
    params: Dict[str, Any] = {}
    allowed = _builder_params(definition.builder)
    for token in tokens:
        token = token.strip()
        if not token:
            raise RegistryError(f"empty variant in pipeline spec {name!r}")
        if "=" in token:
            key, _, raw = token.partition("=")
            key = definition.param_aliases.get(key.strip(), key.strip())
            if allowed is not None and key not in allowed:
                options = sorted(allowed | set(definition.param_aliases))
                raise RegistryError(
                    f"unknown parameter {key!r} for pipeline {name!r}; "
                    f"accepted: {options}"
                )
            params[key] = _parse_value(raw)
        elif token in definition.variants:
            params.update(definition.variants[token])
        else:
            known = sorted(definition.variants) or ["<none>"]
            raise RegistryError(
                f"unknown variant {token!r} for pipeline {name!r}; "
                f"named variants: {known}, or use <param>=<value>"
            )
    return params


def resolve_compiler_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Canonicalize a compiler/pipeline spec to ``(name, params)``.

    - a registered pipeline name or alias -> ``(canonical_name, {})``
    - ``name:variants`` -> ``(canonical_name, variant_params)`` — the
      variant vocabulary folds into plain parameters, so variant
      spellings content-hash identically to their explicit-params form
    - a comma-separated pass list -> ``(canonical_joined_list, {})``
    - ``name[:variants]+select=<k>`` -> the suffix folds into the
      ``select`` parameter, so ``tetris:noise-aware+select=20`` and
      ``tetris:noise_aware=true,select=20`` hash identically

    A ``+o<level>`` suffix is rejected here: in job context the cleanup
    level is the job's ``optimization_level`` field.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise RegistryError(f"empty pipeline spec {spec!r}")
    original = spec.strip()
    spec, opt_level, select = _split_suffixes(original)
    if opt_level is not None:
        raise RegistryError(
            f"pipeline spec {original!r}: '+o<level>' is not allowed here — "
            "set the job's optimization_level (CLI: --opt-level) instead"
        )
    name, _, variant_text = spec.partition(":")
    name = name.strip()
    if name in PIPELINES and ("," not in name):
        canonical = PIPELINES.canonical(name)
        definition = PIPELINES.get(canonical)
        tokens = [t for t in variant_text.split(",")] if variant_text else []
        if select is not None:
            tokens.append(f"select={select}")
        return canonical, _resolve_variants(canonical, definition, tokens)
    if select is not None:
        raise RegistryError(
            f"pipeline spec {spec!r}: '+select=<k>' only applies to "
            f"registered pipelines, not custom pass lists"
        )
    if ":" not in spec and all(
        token.strip() in PASSES for token in spec.split(",") if token.strip()
    ):
        names = [PASSES.canonical(token) for token in spec.split(",") if token.strip()]
        if names:
            return ",".join(names), {}
    raise RegistryError(
        f"unknown pipeline {spec!r}; available: {PIPELINES.names()} "
        f"(or a comma-separated list of passes: {PASSES.names()})"
    )


def check_compiler_params(name: str, params: Mapping[str, Any]) -> None:
    """Refuse ``params`` that pipeline ``name`` (canonical, as
    :func:`resolve_compiler_spec` returns it) does not take, naming the
    accepted ones.  Keys are checked against the builder's signature, as
    spec assignments are; custom pass lists take no parameters.
    """
    if not params:
        return
    if name not in PIPELINES:
        raise RegistryError(
            f"custom pass lists take no parameters (got {sorted(params)}); "
            "parameterize by picking different passes"
        )
    allowed = _builder_params(PIPELINES.get(name).builder)
    unknown = sorted(set(params) - allowed) if allowed is not None else []
    if unknown:
        raise RegistryError(
            f"unknown parameter {unknown[0]!r} for pipeline {name!r}; "
            f"accepted: {sorted(allowed)}"
        )


def canonical_pipeline_spec(spec: str) -> str:
    """The canonical spelling of a compiler/pipeline spec (no params
    folded back in — used for display; hashing uses
    :func:`resolve_compiler_spec`)."""
    name, params = resolve_compiler_spec(spec)
    if not params:
        return name
    tokens = sorted(f"{key}={value}" for key, value in params.items())
    return f"{name}:{','.join(tokens)}"


def cleanup_passes(optimization_level: int = DEFAULT_OPT_LEVEL) -> List[Pass]:
    """The O3-style cleanup tail for a cleanup level (0, 1, or 3)."""
    if optimization_level not in OPT_LEVELS:
        raise RegistryError(
            f"optimization_level must be one of {OPT_LEVELS}, "
            f"got {optimization_level!r}"
        )
    tail: List[Pass] = [DecomposeSwapsPass()]
    if optimization_level >= 1:
        tail.append(CancelGatesPass())
    if optimization_level >= 3:
        tail.append(ConsolidatePass())
    return tail


def build_pipeline(
    spec: str,
    optimization_level: Optional[int] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> PassManager:
    """Build a ready-to-run :class:`PassManager` from a spec string.

    Parameter precedence: builder defaults < spec variants < ``params``.
    A ``+o<level>`` suffix in the spec overrides ``optimization_level``
    (which defaults to 3).  The cleanup tail is always appended.
    """
    base, suffix_level = split_opt_suffix(spec)
    level = (
        suffix_level
        if suffix_level is not None
        else (DEFAULT_OPT_LEVEL if optimization_level is None else optimization_level)
    )
    name, spec_params = resolve_compiler_spec(base)
    merged = dict(spec_params)
    merged.update(dict(params or {}))
    check_compiler_params(name, merged)
    if "," in name:
        passes = [PASSES.get(token)() for token in name.split(",")]
    else:
        definition = PIPELINES.get(name)
        try:
            passes = definition.builder(**merged)
        except TypeError as exc:
            raise RegistryError(
                f"bad parameters for pipeline {name!r}: {exc}"
            ) from None
    passes = list(passes) + cleanup_passes(level)
    label = canonical_pipeline_spec(base) if "," not in name else name
    return PassManager(passes, name=f"{label}+o{level}")


def run_pipeline(
    spec: str,
    blocks,
    coupling,
    num_logical: Optional[int] = None,
    optimization_level: Optional[int] = None,
    params: Optional[Mapping[str, Any]] = None,
    profile: bool = False,
    calibration=None,
) -> PipelineRun:
    """One-call convenience: build from ``spec`` and run.

    ``calibration`` (a :class:`~repro.hardware.calibration.Calibration`)
    is required by noise-aware specs (``tetris:noise-aware``,
    ``...+select=<k>``) and ignored by noise-blind ones.

    >>> run = run_pipeline("tetris:no-gray+o1", blocks, coupling,
    ...                    profile=True)              # doctest: +SKIP
    >>> run.metrics().cnot_gates                      # doctest: +SKIP
    """
    manager = build_pipeline(spec, optimization_level=optimization_level,
                             params=params)
    return manager.run(blocks, coupling, num_logical=num_logical,
                       profile=profile, calibration=calibration)
