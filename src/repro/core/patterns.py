"""The SDL pattern language.

A pattern describes a family of tuples using, per field:

* a **constant** — or, more generally, an expression over already-bound
  variables and process parameters (``k - 2**(j-1)``);
* the **wildcard** marker ``*`` (the :data:`ANY` sentinel);
* a **variable** — binds on first occurrence, tests equality thereafter.

Patterns are used in three roles: query atoms (binding/retracting tuples),
assertion templates (every field must evaluate to a value), and view rules
(import/export families, see :mod:`repro.core.views`).

The :func:`pattern` helper (and its indexing alias ``P``) builds patterns
from a natural mixed notation::

    a, b = variables("alpha beta")
    pattern("year", a)           # <year, alpha>
    pattern(7, a + b)            # <7, alpha+beta>
    P["year", ANY]               # <year, *>
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.core.expressions import Bindings, Const, EvalContext, Expr, Var
from repro.core.values import is_value
from repro.errors import ArityError, PatternError, UnboundVariableError

__all__ = [
    "ANY",
    "Wildcard",
    "PatternElement",
    "LitElement",
    "VarElement",
    "WildElement",
    "Pattern",
    "pattern",
    "P",
]


class Wildcard:
    """Singleton sentinel for the paper's ``*`` marker."""

    _instance: "Wildcard | None" = None

    def __new__(cls) -> "Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


#: The wildcard marker: matches any value, binds nothing.
ANY = Wildcard()


class PatternElement:
    """Base class for the three field kinds."""

    __slots__ = ()

    def match(self, value: Any, bound: Mapping[str, Any]) -> dict[str, Any] | None:
        """Match *value* under the bindings *bound*.

        Returns a (possibly empty) dict of **new** bindings on success, or
        ``None`` on failure.  Raises :class:`UnboundVariableError` if the
        element is an expression whose variables are not yet all bound.
        """
        raise NotImplementedError

    def free_variables(self) -> frozenset[str]:
        raise NotImplementedError


class LitElement(PatternElement):
    """A field that must equal the value of an expression."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr

    def match(self, value: Any, bound: Mapping[str, Any]) -> dict[str, Any] | None:
        expected = _eval_under(self.expr, bound)
        return {} if expected == value else None

    def free_variables(self) -> frozenset[str]:
        return self.expr.free_variables()

    def constant_value(self) -> Any:
        """The literal value if this element is a pure constant, else raise."""
        if isinstance(self.expr, Const):
            return self.expr.value
        raise UnboundVariableError(next(iter(self.expr.free_variables()), "?"))

    def __repr__(self) -> str:
        return repr(self.expr)


class VarElement(PatternElement):
    """A field holding a quantified variable."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def match(self, value: Any, bound: Mapping[str, Any]) -> dict[str, Any] | None:
        if self.name in bound:
            return {} if bound[self.name] == value else None
        return {self.name: value}

    def free_variables(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __repr__(self) -> str:
        return self.name


class WildElement(PatternElement):
    """The ``*`` field: matches anything."""

    __slots__ = ()

    def match(self, value: Any, bound: Mapping[str, Any]) -> dict[str, Any] | None:
        return {}

    def free_variables(self) -> frozenset[str]:
        return frozenset()

    def __repr__(self) -> str:
        return "*"


_WILD = WildElement()


def _eval_under(expr: Expr, bound: Mapping[str, Any]) -> Any:
    """Evaluate *expr* under a plain mapping of bindings."""
    if isinstance(expr, Const):
        return expr.value
    ctx = EvalContext(Bindings(bound))
    return expr.evaluate(ctx)


def _as_element(field: Any) -> PatternElement:
    if isinstance(field, PatternElement):
        return field
    if field is ANY or isinstance(field, Wildcard):
        return _WILD
    if isinstance(field, Var):
        return VarElement(field.name)
    if isinstance(field, Expr):
        return LitElement(field)
    if is_value(field):
        return LitElement(Const(field))
    raise PatternError(f"cannot use {field!r} as a pattern field")


class Pattern:
    """An immutable sequence of pattern elements with a fixed arity."""

    __slots__ = ("elements", "_free", "_compiled")

    def __init__(self, elements: Iterable[PatternElement]) -> None:
        self.elements: tuple[PatternElement, ...] = tuple(elements)
        if not self.elements:
            raise ArityError("patterns must have at least one field")
        free: frozenset[str] = frozenset()
        for el in self.elements:
            free |= el.free_variables()
        self._free = free
        #: Memoised :class:`repro.core.plan.CompiledPattern` (filled by
        #: :func:`repro.core.plan.compile_pattern` on first use; patterns
        #: are immutable, so the compilation never goes stale).
        self._compiled: Any = None

    @property
    def arity(self) -> int:
        return len(self.elements)

    def free_variables(self) -> frozenset[str]:
        return self._free

    def binding_variables(self) -> frozenset[str]:
        """Names that occur as bare variable fields (candidates for binding)."""
        return frozenset(
            el.name for el in self.elements if isinstance(el, VarElement)
        )

    def match(self, values: tuple, bound: Mapping[str, Any]) -> dict[str, Any] | None:
        """Match a value tuple, returning new bindings or ``None``.

        A variable occurring twice in the same pattern must match equal
        values (the running ``new`` dict participates in the lookups).
        """
        if len(values) != len(self.elements):
            return None
        new: dict[str, Any] = {}
        merged: Mapping[str, Any] = bound
        for element, value in zip(self.elements, values):
            if new:
                merged = {**bound, **new}
            got = element.match(value, merged)
            if got is None:
                return None
            new.update(got)
        return new

    def matches(self, values: tuple, bound: Mapping[str, Any] | None = None) -> bool:
        """Convenience boolean form of :meth:`match`."""
        return self.match(values, bound or {}) is not None

    def instantiate(self, ctx: EvalContext) -> tuple:
        """Evaluate the pattern into a concrete value tuple (for assertions).

        Wildcards are not permitted, and every variable must be bound.
        """
        out = []
        for element in self.elements:
            if isinstance(element, WildElement):
                raise PatternError("cannot assert a tuple containing a wildcard")
            if isinstance(element, VarElement):
                out.append(ctx.bindings.get(element.name))
            else:
                assert isinstance(element, LitElement)
                out.append(element.expr.evaluate(ctx))
        return tuple(out)

    def index_constants(self, bound: Mapping[str, Any]) -> list[tuple[int, Any]]:
        """Per-position constant values currently determinable, for index probes.

        A :class:`LitElement` contributes if its expression is evaluable
        under *bound*; a :class:`VarElement` contributes if the variable is
        already bound.  Wildcards never contribute.
        """
        probes: list[tuple[int, Any]] = []
        for position, element in enumerate(self.elements):
            if isinstance(element, LitElement):
                if element.free_variables() <= set(bound) or isinstance(element.expr, Const):
                    try:
                        probes.append((position, _eval_under(element.expr, bound)))
                    except UnboundVariableError:  # pragma: no cover - guarded above
                        continue
            elif isinstance(element, VarElement) and element.name in bound:
                probes.append((position, bound[element.name]))
        return probes

    def retract(self) -> "Any":
        """Tag this pattern for retraction inside a query (the paper's ``↑``)."""
        from repro.core.query import QueryAtom

        return QueryAtom(self, retract=True)

    def __iter__(self) -> Iterator[PatternElement]:
        return iter(self.elements)

    def __repr__(self) -> str:
        body = ",".join(repr(el) for el in self.elements)
        return f"<{body}>"


def pattern(*fields: Any) -> Pattern:
    """Build a :class:`Pattern` from mixed fields.

    Accepted field kinds: SDL values (including :class:`~repro.core.values.Atom`),
    :class:`~repro.core.expressions.Var`, arbitrary expressions, the
    :data:`ANY` wildcard, and prebuilt :class:`PatternElement` objects.
    """
    return Pattern(_as_element(f) for f in fields)


class _PatternIndexer:
    """Sugar so ``P[a, b, ANY]`` reads like the paper's ``<a,b,*>``."""

    def __getitem__(self, fields: Any) -> Pattern:
        if not isinstance(fields, tuple):
            fields = (fields,)
        return pattern(*fields)

    def __call__(self, *fields: Any) -> Pattern:
        return pattern(*fields)


#: Indexable pattern builder: ``P["year", alpha]`` == ``pattern("year", alpha)``.
P = _PatternIndexer()
