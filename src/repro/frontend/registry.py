"""Kernel registry and the ``@kernel`` decorator.

A :class:`Kernel` owns the IR of one DSL function, plus lazily-built
execution artifacts (compiled primal, cost-counting variant).  Kernels
register globally by name so that other kernels can call (and inline)
them, mirroring how Clad resolves calls through Clang's symbol table.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, Optional

from repro.frontend.parser import parse_kernel
from repro.ir import nodes as N
from repro.ir.printer import format_function
from repro.ir.validate import validate_function

_REGISTRY: Dict[str, "Kernel"] = {}
_REGISTRY_LOCK = threading.Lock()


def _reinit_registry_lock() -> None:
    # a fork while another thread registers a kernel must not leave
    # the child waiting on a lock nobody in it will release
    global _REGISTRY_LOCK
    _REGISTRY_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reinit_registry_lock)


def get_kernel(name: str) -> Optional["Kernel"]:
    """Look up a registered kernel by name (``None`` if absent)."""
    return _REGISTRY.get(name)


def _resolve_ir(name: str) -> Optional[N.Function]:
    k = _REGISTRY.get(name)
    return k.ir if k is not None else None


class Kernel:
    """A DSL function lowered to IR, executable as a plain Python callable.

    Calling a kernel runs the *compiled primal* (generated Python code),
    so ``k(1.0, 2.0)`` behaves exactly like the original function, modulo
    the declared storage precisions of its locals.
    """

    def __init__(self, pyfunc: Callable, ir: N.Function) -> None:
        self.pyfunc = pyfunc
        self.ir = ir
        self.__name__ = ir.name
        self.__doc__ = pyfunc.__doc__
        self._compiled: Optional[Callable] = None

    # -- execution -----------------------------------------------------------
    def __call__(self, *args: object) -> object:
        if self._compiled is None:
            from repro.codegen.compile import compile_primal

            self._compiled = compile_primal(self.ir)
        return self._compiled(*args)

    def run_reference(self, *args: object) -> object:
        """Run via the tree-walking interpreter (semantic reference)."""
        from repro.interp.interpreter import run_function

        return run_function(self.ir, list(args))

    # -- introspection ---------------------------------------------------------
    @property
    def source(self) -> str:
        """Pretty-printed IR."""
        return format_function(self.ir)

    def __repr__(self) -> str:
        params = ", ".join(f"{p.name}: {p.type}" for p in self.ir.params)
        return f"<kernel {self.ir.name}({params})>"


def kernel(fn: Callable) -> Kernel:
    """Decorator: lower a restricted-Python function to a :class:`Kernel`.

    Usage::

        @kernel
        def func(x: float, y: float) -> float:
            z = x + y
            return z

    The decorated object is a :class:`Kernel`; call it like the original
    function, or hand it to :meth:`repro.Session.estimate` /
    :func:`repro.gradient`.

    :raises FrontendError: if the function falls outside the DSL.
    """
    ir = parse_kernel(fn, resolve_kernel=_resolve_ir)
    validate_function(ir)
    k = Kernel(fn, ir)
    with _REGISTRY_LOCK:
        if ir.name in _REGISTRY:
            # Redefinition (e.g. re-running a notebook cell) replaces the
            # old kernel.
            pass
        _REGISTRY[ir.name] = k
    return k
