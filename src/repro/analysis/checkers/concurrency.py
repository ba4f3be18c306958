"""Concurrency and picklability rules (RPR2xx).

Everything shipped to a :class:`~repro.utils.pool.WorkerPool` (or any
other process pool or executor) crosses a pickle boundary — under the
``spawn`` start method *nothing* is inherited.  These rules encode
the unpicklable-Manager lesson of ``SharedSynthCache``, the one class
that carries Manager state across that boundary: no lambdas/closures
into pools, no Manager proxies in classes without a ``__getstate__``,
and no lock-guarded state mutated off-lock.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.base import (
    Checker,
    ModuleUnderLint,
    ancestors,
    attach_parents,
    call_name,
    dotted_name,
    register_checker,
)
from repro.analysis.findings import Finding

#: Pool methods whose callable argument is always pickled.
_POOL_METHODS = frozenset({
    "apply_async", "map_async", "starmap_async", "imap", "imap_unordered",
})
#: Methods that only pickle when the receiver is a pool/executor.
_POOLISH_METHODS = frozenset({"map", "apply", "starmap", "submit", "run"})
#: Constructors whose callable kwargs/args cross the process boundary.
_POOL_CONSTRUCTORS = frozenset({
    "Pool", "Process", "ProcessPoolExecutor", "WorkerPool",
})


def _is_poolish(receiver: ast.expr) -> bool:
    name = dotted_name(receiver).split(".")[-1].lower()
    return "pool" in name or "executor" in name


def _nested_function_names(node: ast.AST) -> set[str]:
    """Names of functions defined directly inside enclosing functions of
    ``node`` — passing one to a pool pickles a closure, which fails under
    spawn."""
    names: set[str] = set()
    for parent in ancestors(node):
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(parent):
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt is not parent
                ):
                    names.add(stmt.name)
    return names


@register_checker
class UnpicklableCallableToPool(Checker):
    code = "RPR201"
    name = "unpicklable-pool-callable"
    summary = (
        "lambda or locally-defined function handed to a process pool / "
        "evaluator API — unpicklable under the spawn start method"
    )

    def check_module(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if module.tree is None:
            return
        attach_parents(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = self._pool_target(node)
            if not target:
                continue
            nested = None
            for arg in (*node.args, *(kw.value for kw in node.keywords)):
                if isinstance(arg, ast.Lambda):
                    yield self.finding(
                        module, arg,
                        f"lambda passed to {target} cannot be pickled to a "
                        "worker process; use a module-level function",
                    )
                elif isinstance(arg, ast.Name):
                    if nested is None:
                        nested = _nested_function_names(node)
                    if arg.id in nested:
                        yield self.finding(
                            module, arg,
                            f"locally-defined function {arg.id!r} passed to "
                            f"{target} closes over its frame and cannot be "
                            "pickled under spawn; hoist it to module level",
                        )

    @staticmethod
    def _pool_target(node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _POOL_METHODS:
                return f"{func.attr}()"
            if func.attr in _POOLISH_METHODS and _is_poolish(func.value):
                return f"{dotted_name(func.value)}.{func.attr}()"
            if func.attr in _POOL_CONSTRUCTORS:
                return f"{func.attr}(...)"
            return ""
        if isinstance(func, ast.Name) and func.id in _POOL_CONSTRUCTORS:
            return f"{func.id}(...)"
        return ""


def _manager_proxy_call(value: ast.AST) -> Optional[str]:
    """Describe the Manager proxy produced by ``value``, if any."""
    for node in ast.walk(value):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name == "Manager":
            return "a multiprocessing Manager"
        if isinstance(node.func, ast.Attribute) and name in (
            "dict", "list", "Queue", "JoinableQueue", "Lock", "RLock",
            "Namespace", "Value", "Array", "Event", "Semaphore", "Condition",
        ):
            receiver = dotted_name(node.func.value).lower()
            if "manager" in receiver:
                return f"{dotted_name(node.func.value)}.{name}()"
    return None


@register_checker
class ManagerProxyWithoutGetstate(Checker):
    code = "RPR202"
    name = "manager-proxy-without-getstate"
    summary = (
        "class stores multiprocessing.Manager state but defines no "
        "__getstate__/__reduce__ — pickling it (pool fan-out) explodes"
    )

    def check_module(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if module.tree is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            has_getstate = any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in ("__getstate__", "__reduce__",
                                  "__reduce_ex__")
                for item in node.body
            )
            if has_getstate:
                continue
            for stmt in ast.walk(node):
                if not isinstance(stmt, ast.Assign):
                    continue
                proxy = _manager_proxy_call(stmt.value)
                if proxy is None:
                    continue
                targets = [
                    t for t in stmt.targets
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                ]
                if not targets:
                    continue
                yield self.finding(
                    module, stmt,
                    f"class {node.name} stores {proxy} in "
                    f"self.{targets[0].attr} but defines no __getstate__; "
                    "the manager (and a SyncManager is never picklable) "
                    "rides along into every pickle of the instance — drop "
                    "or guard it like SharedSynthCache does",
                )
                break  # one finding per class is enough


_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "pop", "popleft", "remove", "discard",
    "add", "clear", "update", "setdefault", "put", "put_nowait",
})
#: Methods where unlocked mutation is expected: construction and the
#: pickle protocol run before/outside any sharing.
_EXEMPT_METHODS = frozenset({
    "__init__", "__new__", "__getstate__", "__setstate__", "__del__",
})


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutated_attr(node: ast.AST) -> Optional[str]:
    """The ``self.<attr>`` a statement/expression mutates, if any."""
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Attribute):
                attr = _self_attr(target)
            elif isinstance(target, ast.Subscript):
                # self._index[key] = v mutates self._index
                attr = _self_attr(target.value)
            else:
                attr = None
            if attr is not None:
                return attr
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                return _self_attr(target.value)
            if isinstance(target, ast.Attribute):
                return _self_attr(target)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATOR_METHODS:
            return _self_attr(node.func.value)
    return None


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """self attributes that look like locks assigned from a constructor."""
    locks: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            for target in node.targets:
                attr = _self_attr(target)
                if attr and "lock" in attr.lower():
                    locks.add(attr)
    return locks


def _inside_lock(node: ast.AST, locks: set[str]) -> bool:
    for parent in ancestors(node):
        if isinstance(parent, (ast.With, ast.AsyncWith)):
            for item in parent.items:
                expr = item.context_expr
                # both `with self._lock:` and `with self._lock.acquire():`
                if isinstance(expr, ast.Call):
                    expr = expr.func
                    if isinstance(expr, ast.Attribute) and _self_attr(
                        expr.value
                    ) in locks:
                        return True
                if _self_attr(expr) in locks:
                    return True
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
    return False


@register_checker
class SharedStateMutatedOffLock(Checker):
    code = "RPR203"
    name = "shared-state-off-lock"
    summary = (
        "attribute that is mutated under `with self._lock` elsewhere is "
        "also mutated without it — a data race"
    )

    def check_module(self, module: ModuleUnderLint) -> Iterable[Finding]:
        if module.tree is None:
            return
        attach_parents(module.tree)
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(module, cls)

    def _check_class(self, module, cls: ast.ClassDef) -> Iterable[Finding]:
        locks = _lock_attrs(cls)
        if not locks:
            return
        methods = [
            item for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        guarded: set[str] = set()
        mutations: list[tuple[str, ast.AST, str, bool]] = []
        for method in methods:
            for node in ast.walk(method):
                attr = _mutated_attr(node)
                if attr is None or attr in locks:
                    continue
                locked = _inside_lock(node, locks)
                if locked:
                    guarded.add(attr)
                mutations.append((attr, node, method.name, locked))
        if not guarded:
            return
        # A private helper whose call sites (self.helper(...)) all sit
        # inside locked blocks inherits the lock: flagging SynthCache-style
        # `_touch` helpers would force the lock to be re-entrant for no
        # safety gain.
        locked_helpers = self._lock_held_helpers(cls, locks, methods)
        for attr, node, method_name, locked in mutations:
            if locked or attr not in guarded:
                continue
            if method_name in _EXEMPT_METHODS or method_name in locked_helpers:
                continue
            yield self.finding(
                module, node,
                f"self.{attr} is lock-guarded elsewhere in {cls.name} but "
                f"mutated here (in {method_name}()) without "
                f"`with self.{sorted(locks)[0]}:`",
            )

    @staticmethod
    def _lock_held_helpers(cls, locks, methods) -> set[str]:
        method_names = {m.name for m in methods}
        call_sites: dict[str, list[bool]] = {}
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if (
                    _self_attr(node.func.value) is None
                    and not isinstance(node.func.value, ast.Name)
                ):
                    continue
                if (
                    isinstance(node.func.value, ast.Name)
                    and node.func.value.id != "self"
                ):
                    continue
                if node.func.attr in method_names:
                    call_sites.setdefault(node.func.attr, []).append(
                        _inside_lock(node, locks)
                    )
        return {
            name for name, sites in call_sites.items()
            if sites and all(sites)
        }
