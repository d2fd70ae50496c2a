"""Loop-oriented intermediate representation.

The IR desugars the mini-C AST into a small, analysis-friendly core:

* compound assignments and ``++``/``--`` become plain ``SAssign``;
* side effects are extracted out of expressions (``a[index++] = j``
  becomes ``a[index] = j; index = index + 1``), so IR *expressions* are
  pure;
* ``for`` loops matching the inductive pattern are normalized to
  :class:`SLoop` with explicit bounds and constant step; everything else
  falls back to :class:`SWhile` (executable, but opaque to the analysis,
  i.e. analyzed as ⊥ — exactly the paper's treatment of "too complex").

Loops receive stable labels ``L1``, ``L1.1`` ... in program order; the
reports, tests and benchmarks reference these labels.

The IR is immutable once :func:`~repro.ir.builder.build_function`
returns: statements and functions are frozen dataclasses with tuple
bodies, and the symbol table refuses declarations.  That is what lets
an :class:`IRFunction` print and fingerprint itself at most once
(:attr:`IRFunction.text`, :attr:`IRFunction.fingerprint`) and lets the
runtime key its lowering caches on that fingerprint.  Annotation is a
printer overlay (``function_to_c(func, pragmas=...)``), never a write.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.frontend.source import Loc


# --------------------------------------------------------------------------
# Expressions (pure)
# --------------------------------------------------------------------------


class IExpr:
    __slots__ = ()

    def children(self) -> Iterator["IExpr"]:
        return iter(())

    def walk(self) -> Iterator["IExpr"]:
        yield self
        for c in self.children():
            yield from c.walk()


@dataclass(frozen=True, slots=True)
class IConst(IExpr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class IFloat(IExpr):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class IVar(IExpr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class IArrayRef(IExpr):
    """``array[indices...]`` — multi-dimensional refs keep one tuple."""

    array: str
    indices: tuple[IExpr, ...]

    def children(self) -> Iterator[IExpr]:
        yield from self.indices

    def __str__(self) -> str:
        return self.array + "".join(f"[{i}]" for i in self.indices)


@dataclass(frozen=True, slots=True)
class IBin(IExpr):
    """Binary operation; ``op`` ∈ arithmetic {+,-,*,/,%} ∪ comparison
    {<,<=,>,>=,==,!=} ∪ logical {&&,||}."""

    op: str
    left: IExpr
    right: IExpr

    def children(self) -> Iterator[IExpr]:
        yield self.left
        yield self.right

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class IUn(IExpr):
    """Unary operation; ``op`` ∈ {'-', '!'}."""

    op: str
    operand: IExpr

    def children(self) -> Iterator[IExpr]:
        yield self.operand

    def __str__(self) -> str:
        return f"{self.op}{self.operand}"


@dataclass(frozen=True, slots=True)
class ICall(IExpr):
    """Opaque call (the analysis maps it to ⊥)."""

    name: str
    args: tuple[IExpr, ...]

    def children(self) -> Iterator[IExpr]:
        yield from self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(map(str, self.args))})"


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


def _frozen_node(cls):
    """Freeze an IR statement/function dataclass.  ``frozen`` alone
    would also derive a structural ``__hash__``; IR nodes are never dict
    keys (caches key on :attr:`IRFunction.fingerprint`), so they stay
    unhashable."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__hash__ = None
    return cls


class Stmt:
    __slots__ = ()

    def blocks(self) -> Iterator[tuple["Stmt", ...]]:
        """Nested statement lists (for traversal)."""
        return iter(())

    def exprs(self) -> Iterator[IExpr]:
        """Immediate expressions of this statement."""
        return iter(())


@_frozen_node
class SAssign(Stmt):
    target: IVar | IArrayRef
    value: IExpr
    loc: Loc = field(default_factory=Loc.none)

    def exprs(self) -> Iterator[IExpr]:
        yield self.target
        yield self.value

    def __str__(self) -> str:
        return f"{self.target} = {self.value};"


@_frozen_node
class SIf(Stmt):
    cond: IExpr
    then: tuple[Stmt, ...]
    other: tuple[Stmt, ...]
    loc: Loc = field(default_factory=Loc.none)

    def blocks(self) -> Iterator[tuple[Stmt, ...]]:
        yield self.then
        yield self.other

    def exprs(self) -> Iterator[IExpr]:
        yield self.cond

    def __str__(self) -> str:
        return f"if ({self.cond}) ..."


@_frozen_node
class SLoop(Stmt):
    """Normalized counted loop.

    Semantics: ``var`` takes values ``lb, lb+step, ...`` while
    ``var < ub`` (step > 0) or ``var > ub`` (step < 0); ``ub`` is
    exclusive.  ``step`` is a non-zero integer constant.
    """

    var: str
    lb: IExpr
    ub: IExpr
    step: int
    body: tuple[Stmt, ...]
    pragmas: tuple[str, ...] = ()
    label: str = ""
    loc: Loc = field(default_factory=Loc.none)

    def blocks(self) -> Iterator[tuple[Stmt, ...]]:
        yield self.body

    def exprs(self) -> Iterator[IExpr]:
        yield self.lb
        yield self.ub

    def __str__(self) -> str:
        return f"{self.label or 'loop'}: for ({self.var} = {self.lb}; ...{self.ub}; step {self.step})"


@_frozen_node
class SWhile(Stmt):
    """Fallback loop form — executable, opaque to the analysis."""

    cond: IExpr
    body: tuple[Stmt, ...]
    label: str = ""
    loc: Loc = field(default_factory=Loc.none)

    def blocks(self) -> Iterator[tuple[Stmt, ...]]:
        yield self.body

    def exprs(self) -> Iterator[IExpr]:
        yield self.cond


@_frozen_node
class SCall(Stmt):
    call: ICall
    loc: Loc = field(default_factory=Loc.none)

    def exprs(self) -> Iterator[IExpr]:
        yield self.call


@_frozen_node
class SReturn(Stmt):
    value: IExpr | None = None
    loc: Loc = field(default_factory=Loc.none)

    def exprs(self) -> Iterator[IExpr]:
        if self.value is not None:
            yield self.value


@_frozen_node
class SBreak(Stmt):
    loc: Loc = field(default_factory=Loc.none)


@_frozen_node
class SContinue(Stmt):
    loc: Loc = field(default_factory=Loc.none)


# --------------------------------------------------------------------------
# Functions / program
# --------------------------------------------------------------------------


@_frozen_node
class IRFunction:
    name: str
    body: tuple[Stmt, ...]
    symtab: "SymbolTable"
    # lazily filled caches, valid because the function is immutable
    _text: "str | None" = field(default=None, init=False, repr=False, compare=False)
    _fingerprint: "str | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def text(self) -> str:
        """The printed C text (``function_to_c(self)``), printed once."""
        text = self._text
        if text is None:
            from repro.ir.printer import _print_function

            text = _print_function(self)
            object.__setattr__(self, "_text", text)
        return text

    @property
    def fingerprint(self) -> str:
        """Content digest of everything that determines how this
        function lowers and runs: name, printed text, loop labels (not
        part of the text) and symbol table.  Computed on first read;
        the analysis path never reads it."""
        fp = self._fingerprint
        if fp is None:
            h = hashlib.sha256()
            for part in (
                self.name,
                self.text,
                ",".join(l.label for l in self.loops()),
                self.symtab.fingerprint(),
            ):
                h.update(part.encode("utf-8"))
                h.update(b"\x00")
            fp = h.hexdigest()
            object.__setattr__(self, "_fingerprint", fp)
        return fp

    def loops(self) -> list[SLoop]:
        """All normalized loops in pre-order."""
        out: list[SLoop] = []

        def visit(stmts: tuple[Stmt, ...]) -> None:
            for s in stmts:
                if isinstance(s, SLoop):
                    out.append(s)
                for b in s.blocks():
                    visit(b)

        visit(self.body)
        return out

    def loop(self, label: str) -> SLoop:
        for lp in self.loops():
            if lp.label == label:
                return lp
        raise KeyError(f"no loop labeled {label!r} in {self.name}")

    def outer_loops(self) -> list[SLoop]:
        """Loops not nested inside another normalized loop."""
        out: list[SLoop] = []

        def visit(stmts: tuple[Stmt, ...]) -> None:
            for s in stmts:
                if isinstance(s, SLoop):
                    out.append(s)
                    continue  # don't descend into its body
                for b in s.blocks():
                    visit(b)

        visit(self.body)
        return out


@dataclass(slots=True)
class IRProgram:
    functions: dict[str, IRFunction]
    globals: "SymbolTable"

    def function(self, name: str) -> IRFunction:
        return self.functions[name]


# placed at the end to avoid a circular import in type checking
from repro.ir.symtab import SymbolTable  # noqa: E402

__all__ = [
    "IArrayRef",
    "IBin",
    "ICall",
    "IConst",
    "IExpr",
    "IFloat",
    "IRFunction",
    "IRProgram",
    "IUn",
    "IVar",
    "SAssign",
    "SBreak",
    "SCall",
    "SContinue",
    "SIf",
    "SLoop",
    "SReturn",
    "SWhile",
    "Stmt",
]
