"""Symbolic circuit parameters: linear angle expressions and binding.

The paper's compilers depend only on Pauli *structure*, never on
rotation angles — every angle a pipeline emits is a linear function of
the workload's block angles (``block.angle * weight``, plus sums from
peephole rotation merging).  That closure property is what makes
template compilation sound, and it is all this module models:

- :class:`Parameter` — a named free angle (identity is the name);
- :class:`ParameterExpression` — a linear combination
  ``sum(coeff_i * p_i) + const``.  Addition, subtraction, negation, and
  scalar multiplication/division stay inside the linear form;
  expression-times-expression is a :class:`TypeError` by design.

Expressions normalize aggressively: zero-coefficient terms are dropped
and a term-free expression *degrades to a plain float*.  That keeps the
invariant "symbolic value iff it still mentions a parameter", and makes
structurally-cancelling sums (``w*theta + (-w)*theta``) take the same
numeric path — e.g. peephole's drop-at-2π-multiple rule — as baked
angles would.

Binding (:meth:`ParameterExpression.bind`) substitutes values for
parameters; a full bind yields a float, a partial bind a smaller
expression.  :class:`BindError` is the one consistent error type for
every malformed bind across the stack (wrong-length vectors, unknown
names — see also :meth:`repro.circuit.circuit.QuantumCircuit.bind` and
:meth:`repro.circuit.template.CompiledTemplate.bind`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union


class BindError(ValueError):
    """A malformed parameter binding (wrong length, unknown name, ...)."""


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ParameterExpression:
    """A linear combination of parameters: ``sum(coeff * p) + const``.

    Instances are immutable and always carry at least one term with a
    non-zero coefficient — arithmetic that eliminates every term returns
    a plain ``float`` instead (see :func:`_make`).
    """

    __slots__ = ("_terms", "_const")

    def __init__(
        self,
        terms: Union[Mapping["Parameter", float], Iterable[Tuple["Parameter", float]]],
        const: float = 0.0,
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected: Dict[Parameter, float] = {}
        for parameter, coeff in items:
            coeff = float(coeff)
            if coeff != 0.0:
                collected[parameter] = collected.get(parameter, 0.0) + coeff
        self._terms: Tuple[Tuple[Parameter, float], ...] = tuple(
            sorted(collected.items(), key=lambda item: item[0].name)
        )
        self._const = float(const)

    # -- views -----------------------------------------------------------------

    @property
    def parameters(self) -> Tuple["Parameter", ...]:
        """The free parameters, sorted by name."""
        return tuple(parameter for parameter, _coeff in self._terms)

    @property
    def terms(self) -> Tuple[Tuple["Parameter", float], ...]:
        return self._terms

    @property
    def const(self) -> float:
        return self._const

    def coefficient(self, parameter: Union["Parameter", str]) -> float:
        name = parameter.name if isinstance(parameter, Parameter) else str(parameter)
        for candidate, coeff in self._terms:
            if candidate.name == name:
                return coeff
        return 0.0

    # -- binding ---------------------------------------------------------------

    def bind(self, values: Mapping[Union["Parameter", str], float]):
        """Substitute ``values`` (by parameter or name); extra keys are
        ignored here — callers that own a full parameter set (circuit,
        template) validate coverage.  Returns a float when fully bound,
        a smaller expression otherwise."""
        by_name: Dict[str, float] = {}
        for key, value in values.items():
            name = key.name if isinstance(key, Parameter) else str(key)
            if not _is_number(value):
                raise BindError(
                    f"bind value for {name!r} must be a real number, "
                    f"got {value!r}"
                )
            by_name[name] = float(value)
        remaining: List[Tuple[Parameter, float]] = []
        const = self._const
        for parameter, coeff in self._terms:
            if parameter.name in by_name:
                const += coeff * by_name[parameter.name]
            else:
                remaining.append((parameter, coeff))
        return _make(remaining, const)

    def __float__(self) -> float:
        names = ", ".join(p.name for p in self.parameters)
        raise TypeError(
            f"parameter expression {self} has unbound parameter(s) "
            f"[{names}]: bind angles before numeric evaluation"
        )

    # -- linear arithmetic -----------------------------------------------------

    def _add(self, other: Any, sign: float):
        if isinstance(other, ParameterExpression):
            terms = dict(self._terms)
            for parameter, coeff in other._terms:
                terms[parameter] = terms.get(parameter, 0.0) + sign * coeff
            return _make(terms.items(), self._const + sign * other._const)
        if _is_number(other):
            return _make(self._terms, self._const + sign * float(other))
        return NotImplemented

    def __add__(self, other):
        return self._add(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1.0)

    def __rsub__(self, other):
        negated = self.__neg__()
        return negated._add(other, 1.0) if isinstance(negated, ParameterExpression) else other + negated

    def __neg__(self):
        return _make(
            [(parameter, -coeff) for parameter, coeff in self._terms],
            -self._const,
        )

    def __mul__(self, other):
        if isinstance(other, ParameterExpression):
            raise TypeError(
                "parameter expressions support only linear arithmetic; "
                "cannot multiply two expressions"
            )
        if _is_number(other):
            factor = float(other)
            return _make(
                [(parameter, coeff * factor) for parameter, coeff in self._terms],
                self._const * factor,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_number(other):
            return self.__mul__(1.0 / float(other))
        if isinstance(other, ParameterExpression):
            raise TypeError(
                "parameter expressions support only linear arithmetic; "
                "cannot divide by an expression"
            )
        return NotImplemented

    # -- identity --------------------------------------------------------------

    def _key(self) -> Tuple:
        return (
            tuple((parameter.name, coeff) for parameter, coeff in self._terms),
            self._const,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ParameterExpression):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        pieces = []
        for parameter, coeff in self._terms:
            if coeff == 1.0:
                pieces.append(parameter.name)
            elif coeff == -1.0:
                pieces.append(f"-{parameter.name}")
            else:
                pieces.append(f"{coeff:g}*{parameter.name}")
        if self._const != 0.0 or not pieces:
            pieces.append(f"{self._const:g}")
        text = pieces[0]
        for piece in pieces[1:]:
            text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return text

    def __format__(self, _spec: str) -> str:
        # Numeric format specs (":.4g" in Gate.__repr__, ":g" in the IR
        # dumps) must not crash on a symbolic angle; render the name.
        return repr(self)


class Parameter(ParameterExpression):
    """A single named free angle.  Identity is the name: two
    ``Parameter("theta[0]")`` objects are the same parameter."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ValueError("a Parameter needs a non-empty string name")
        self._name = name
        super().__init__({self: 1.0}, 0.0)

    @property
    def name(self) -> str:
        return self._name

    def _key(self) -> Tuple:
        # Derivable from the name alone — and required to be: the parent
        # constructor hashes ``self`` before ``_terms`` is assigned.
        return (((self._name, 1.0),), 0.0)

    def __repr__(self) -> str:
        return self._name


def _make(terms, const: float):
    """Normalize to an expression, or degrade to a float when term-free."""
    expression = ParameterExpression(terms, const)
    if not expression._terms:
        return expression._const
    return expression


def is_symbolic(value: Any) -> bool:
    """True when ``value`` still mentions at least one parameter."""
    return isinstance(value, ParameterExpression)


def encode_param(value: Any):
    """JSON-encode one gate parameter (float stays float)."""
    if isinstance(value, ParameterExpression):
        return {
            "const": value.const,
            "terms": [[parameter.name, coeff] for parameter, coeff in value.terms],
        }
    return float(value)


def decode_param(value: Any, interned: Dict[str, Parameter]):
    """Inverse of :func:`encode_param`; ``interned`` maps names to the
    one Parameter object reused across a whole template."""
    if isinstance(value, Mapping):
        terms = []
        for name, coeff in value.get("terms", ()):
            parameter = interned.get(name)
            if parameter is None:
                parameter = interned[name] = Parameter(name)
            terms.append((parameter, coeff))
        return _make(terms, value.get("const", 0.0))
    return float(value)
