"""IR node definitions.

The IR models a small, C-like, typed imperative language — the subset of
C++ that the paper's benchmarks exercise through Clad.  Expressions are
side-effect free; all mutation happens through statements.  Every node
carries an optional ``loc`` (source line in the original Python function)
so error estimates can be attributed back to source, mirroring CHEF-FP's
"source info capture".

Two node families exist only in *adjoint* functions produced by the
reverse-mode transformation: :class:`Push`/:class:`Pop` (the Fig. 2 tape
stacks) and :class:`TraceAppend` (sensitivity tracking for Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.ir.types import DType, Type


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class of all IR expressions.

    ``dtype`` is filled in by type inference; transformations that build
    fresh expressions are expected to set it (the builder helpers do).
    """

    dtype: Optional[DType] = field(default=None, init=False, compare=False)
    loc: Optional[int] = field(default=None, init=False, compare=False)


@dataclass
class Const(Expr):
    """A literal constant (float, int, or bool)."""

    value: Union[float, int, bool]
    #: set when the value is the machine epsilon of a variable's storage
    #: precision: the name of that variable (error models mark these, so
    #: config lanes can re-derive the value per configuration).  Never
    #: printed, so fingerprints ignore it.
    eps_of: Optional[str] = field(default=None, init=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.value, bool):
            self.dtype = DType.B1
        elif isinstance(self.value, int):
            self.dtype = DType.I64
        else:
            self.dtype = DType.F64


@dataclass
class Name(Expr):
    """A read of a scalar variable."""

    id: str


@dataclass
class Index(Expr):
    """A read of one array element: ``base[index]``."""

    base: str
    index: Expr


#: Binary operators.  ``//`` is integer (floor) division, ``%`` modulo.
BINOPS = ("+", "-", "*", "/", "//", "%")
#: Comparison operators (result dtype B1).
CMPOPS = ("==", "!=", "<", "<=", ">", ">=")
#: Short-circuit boolean operators (result dtype B1).
BOOLOPS = ("and", "or")


@dataclass
class BinOp(Expr):
    """A binary arithmetic / comparison / boolean operation."""

    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    """Unary negation (``-``) or logical not (``not``)."""

    op: str
    operand: Expr


@dataclass
class Call(Expr):
    """A call to a registered intrinsic (``sin``, ``sqrt``, ``pow`` ...).

    Calls to other ``@kernel`` functions never appear in the IR — the
    frontend inlines them at parse time.
    """

    fn: str
    args: List[Expr]


@dataclass
class Cast(Expr):
    """An explicit precision cast; value semantics of C's ``(T)x``."""

    to: DType
    operand: Expr

    def __post_init__(self) -> None:
        self.dtype = self.to


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class of all IR statements."""

    loc: Optional[int] = field(default=None, init=False, compare=False)


#: Assignment targets are either a scalar name or an array element.
LValue = Union[Name, Index]


@dataclass
class VarDecl(Stmt):
    """Declaration of a local scalar: ``name: dtype = init``.

    The declared dtype is the variable's *storage precision*; assignments
    to the variable round to this precision.  This is the hook used by the
    mixed-precision machinery (demoting a variable rewrites its dtype).
    """

    name: str
    dtype: DType
    init: Optional[Expr]


@dataclass
class Assign(Stmt):
    """``target = value``; the target must already be declared."""

    target: LValue
    value: Expr


@dataclass
class For(Stmt):
    """A ``for var in range(lo, hi, step)`` counted loop.

    ``step`` must be a positive integer constant expression for
    differentiability (the adjoint reverses iteration order).
    """

    var: str
    lo: Expr
    hi: Expr
    step: Expr
    body: List[Stmt]


@dataclass
class While(Stmt):
    """A ``while cond`` loop.

    The adjoint transformation counts trips in the forward sweep and
    replays the body adjoint that many times in reverse.
    """

    cond: Expr
    body: List[Stmt]


@dataclass
class If(Stmt):
    """``if cond: then else: orelse``."""

    cond: Expr
    then: List[Stmt]
    orelse: List[Stmt]


@dataclass
class Break(Stmt):
    """``break`` — only valid inside a loop.

    For differentiability the frontend restricts it to the *guarded break*
    pattern: the loop body's first statement is ``if cond: break``.
    """


@dataclass
class Return(Stmt):
    """``return value`` — only valid as the final statement of a body."""

    value: Expr


@dataclass
class ReturnTuple(Stmt):
    """Multi-value return used by generated adjoint functions."""

    values: List[Expr]


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect (intrinsics with effects)."""

    value: Expr


# ---- adjoint-only statements ----------------------------------------------


@dataclass
class Push(Stmt):
    """Push ``value`` onto the named tape stack (forward sweep)."""

    stack: str
    value: Expr


@dataclass
class Pop(Stmt):
    """Pop the named tape stack into ``target`` (backward sweep)."""

    stack: str
    target: LValue


@dataclass
class PopDiscard(Stmt):
    """Pop the named tape stack and discard the value."""

    stack: str


@dataclass
class TraceAppend(Stmt):
    """Append ``value`` to the named trace list (sensitivity profiles)."""

    trace: str
    value: Expr


# --------------------------------------------------------------------------
# Functions
# --------------------------------------------------------------------------


@dataclass
class Param:
    """A function parameter.

    Scalars are passed by value; arrays by reference (mutations visible to
    the caller).  ``differentiable`` marks the parameter as an independent
    input for AD; integer/bool params are never differentiable.
    """

    name: str
    type: Type
    differentiable: bool = True


@dataclass
class Function:
    """An IR function: the unit of differentiation and code generation."""

    name: str
    params: List[Param]
    body: List[Stmt]
    ret_dtype: Optional[DType]
    #: names of locals declared in the body, filled by the type checker
    locals: List[str] = field(default_factory=list)
    #: free-form metadata (source file, adjoint provenance, ...)
    meta: dict = field(default_factory=dict)

    def param(self, name: str) -> Param:
        """Look up a parameter by name.

        :raises KeyError: if no such parameter exists.
        """
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)
