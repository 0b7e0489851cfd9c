"""Concurrency-tier rules: ASY001, ASY002 and LOCK001.

The service stack (PR 7) put an asyncio event loop in front of
threaded sweep engines, and the failure modes that combination
invites are invisible to the contracts/dataflow tiers:

* **ASY001** — a blocking call (``time.sleep``, sync file I/O,
  ``subprocess``, socket ops, ``SweepEngine.run``) executed directly
  inside an ``async def`` body stalls every connection the daemon is
  serving.  Blocking work belongs in ``await asyncio.to_thread(...)``
  or an executor; passing the *function* there never trips the rule
  because only executed ``Call`` nodes are flagged.
* **ASY002** — asyncio primitives (events, queues, futures) are
  loop-affine: mutating one from a worker thread without
  ``loop.call_soon_threadsafe`` is a data race on the loop's internal
  state.  The rule tracks attributes assigned from ``asyncio.X(...)``
  / ``loop.create_future()`` in a class and flags mutator calls on
  them from *sync* methods (async methods run on the loop and handing
  the bound method to ``call_soon_threadsafe`` is a reference, not a
  call, so both stay clean).
* **LOCK001** — a lock-set dataflow analysis
  (:class:`repro.lint.dataflow.LockSetAnalysis`) over classes that own
  a ``threading``/``asyncio`` lock: an attribute mutated from two or
  more methods whose intersecting must-hold lock set is empty is a
  race.  Classes without lock attributes are out of scope — the
  GIL-reliant append/snapshot discipline of
  :class:`repro.obs.events.EventBus` is documented, not accidental.

Known approximations (documented, suppressible): ASY001 resolves
calls syntactically, so project helpers that block behind an
attribute lookup (``self.store.save``) are not seen; LOCK001 treats
exceptional exits as keeping the lock held (errs toward trusting
guards, never toward false races).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import import_bindings
from repro.lint.dataflow import LockSetAnalysis, stmt_facts
from repro.lint.engine import ModuleInfo, ProjectContext
from repro.lint.summaries import _MUTATING_METHODS
from repro.lint.rules import Rule, Violation, register_rule

__all__ = ["AsyncBlockingRule", "LoopAffinityRule", "LockDisciplineRule"]

#: Dotted calls that block the calling thread.
_BLOCKING_CALLS: FrozenSet[str] = frozenset({
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection", "socket.getaddrinfo",
    "socket.gethostbyname",
    "urllib.request.urlopen",
    "shutil.rmtree", "shutil.copyfile", "shutil.copytree",
    "os.replace", "os.rename",
    "repro.service.runner.execute_job",
})

#: Method names whose receiver is (in this codebase) a ``Path`` doing
#: synchronous file I/O.
_BLOCKING_METHODS: FrozenSet[str] = frozenset({
    "write_text", "read_text", "write_bytes", "read_bytes",
    "mkdir", "unlink", "rmdir", "touch",
})

#: Constructors whose instances expose a blocking ``.run()``.
_BLOCKING_RUNNERS: FrozenSet[str] = frozenset({
    "repro.experiments.engine.SweepEngine",
})

#: asyncio primitive constructors whose instances are loop-affine.
_ASYNC_PRIMITIVES: FrozenSet[str] = frozenset({
    "Event", "Queue", "LifoQueue", "PriorityQueue", "Future",
    "Condition", "Lock", "Semaphore", "BoundedSemaphore",
})

#: Primitive methods that mutate loop-affine state.
_PRIMITIVE_MUTATORS: FrozenSet[str] = frozenset({
    "set", "clear", "put_nowait", "set_result", "set_exception",
    "cancel", "release", "notify", "notify_all",
})

#: Lock constructors LOCK001 seeds its lattice from.
_LOCK_TYPES: FrozenSet[str] = frozenset({"Lock", "RLock"})


def _dotted(func: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at an aliased name."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk *fn*'s body without descending into nested scopes."""
    work: List[ast.AST] = list(fn.body)
    while work:
        node = work.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        work.extend(ast.iter_child_nodes(node))


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _resolved_name(node: ast.expr, aliases: Dict[str, str],
                   names: Dict[str, Tuple[str, str]]) -> Optional[str]:
    """Fully-qualified name for a ``Name``/``Attribute`` reference."""
    if isinstance(node, ast.Name):
        if node.id in names:
            mod, attr = names[node.id]
            return f"{mod}.{attr}"
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        return _dotted(node, aliases)
    return None


@register_rule
class AsyncBlockingRule(Rule):
    """ASY001: no blocking calls on the event-loop thread."""

    code = "ASY001"
    title = "blocking call inside async def (stalls the event loop)"
    severity = "error"
    tier = "concurrency"

    def check_module(self, module: ModuleInfo,
                     project: ProjectContext) -> Iterator[Violation]:
        if not any(isinstance(n, ast.AsyncFunctionDef)
                   for n in ast.walk(module.tree)):
            return
        aliases, names = import_bindings(module, project)
        for fn in _functions(module.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            runners = self._runner_vars(fn, aliases, names)
            for node in _own_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                label = self._blocking_label(node, aliases, names,
                                             runners)
                if label is not None:
                    yield self.violation(
                        module, node,
                        f"blocking call '{label}' inside "
                        f"'async def {fn.name}' stalls the event "
                        f"loop; dispatch it with 'await "
                        f"asyncio.to_thread(...)' or an executor")

    @staticmethod
    def _runner_vars(fn: ast.AST, aliases: Dict[str, str],
                     names: Dict[str, Tuple[str, str]]) -> Set[str]:
        """Local names bound to instances of blocking runners."""
        out: Set[str] = set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call) and \
                    len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                ctor = _resolved_name(node.value.func, aliases, names)
                if ctor in _BLOCKING_RUNNERS:
                    out.add(node.targets[0].id)
        return out

    @staticmethod
    def _blocking_label(call: ast.Call, aliases: Dict[str, str],
                        names: Dict[str, Tuple[str, str]],
                        runners: Set[str]) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                return "open(...)"
            resolved = _resolved_name(func, aliases, names)
            if resolved in _BLOCKING_CALLS:
                return resolved
            return None
        if isinstance(func, ast.Attribute):
            dotted = _dotted(func, aliases)
            if dotted is not None and dotted in _BLOCKING_CALLS:
                return dotted
            if func.attr in _BLOCKING_METHODS:
                return f".{func.attr}(...)"
            if func.attr == "run" and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id in runners:
                return f"{func.value.id}.run(...)"
        return None


@register_rule
class LoopAffinityRule(Rule):
    """ASY002: asyncio primitives mutated off-loop need
    call_soon_threadsafe."""

    code = "ASY002"
    title = "asyncio primitive touched from a worker thread without " \
            "call_soon_threadsafe"
    severity = "error"
    tier = "concurrency"

    def check_module(self, module: ModuleInfo,
                     project: ProjectContext) -> Iterator[Violation]:
        aliases, _ = import_bindings(module, project)
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            primitives = self._primitive_attrs(cls, aliases)
            if not primitives:
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue  # async methods run on the loop
                if method.name == "__init__":
                    continue
                for node in _own_nodes(method):
                    if isinstance(node, ast.Call) and \
                            self._is_offloop_mutation(node, primitives):
                        attr = node.func.attr  # type: ignore[union-attr]
                        yield self.violation(
                            module, node,
                            f"sync method '{method.name}' calls "
                            f"'.{attr}()' on loop-affine asyncio "
                            f"primitive; worker threads must go "
                            f"through 'loop.call_soon_threadsafe"
                            f"(...)'")

    @staticmethod
    def _primitive_attrs(cls: ast.ClassDef,
                         aliases: Dict[str, str]) -> Set[str]:
        """``self.X`` attributes assigned an asyncio primitive."""
        out: Set[str] = set()
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            func = node.value.func
            if isinstance(func, ast.Attribute):
                root = _dotted(func, aliases) or ""
                if root == f"asyncio.{func.attr}" and \
                        func.attr in _ASYNC_PRIMITIVES:
                    out.add(target.attr)
                elif func.attr == "create_future":
                    out.add(target.attr)
        return out

    @staticmethod
    def _is_offloop_mutation(call: ast.Call,
                             primitives: Set[str]) -> bool:
        func = call.func
        return (isinstance(func, ast.Attribute)
                and func.attr in _PRIMITIVE_MUTATORS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in primitives
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self")


#: One attribute-mutation site: (method name, stmt, node, held locks).
_MutSite = Tuple[str, ast.stmt, ast.AST, FrozenSet[str]]


@register_rule
class LockDisciplineRule(Rule):
    """LOCK001: shared attributes need a common lock across mutators."""

    code = "LOCK001"
    title = "attribute mutated from multiple entry points with an " \
            "empty intersecting lock set"
    severity = "error"
    tier = "concurrency"

    #: Module scope: the service/observability stack, where methods of
    #: one object genuinely run on different threads.  Standalone
    #: fixture files are checked conservatively.
    SCOPE_PREFIXES = ("repro.service", "repro.obs")

    def _in_scope(self, module: ModuleInfo) -> bool:
        if not module.in_package:
            from repro.lint.engine import _script_exempt
            return not _script_exempt(module)
        return module.name.startswith(self.SCOPE_PREFIXES)

    def check_module(self, module: ModuleInfo,
                     project: ProjectContext) -> Iterator[Violation]:
        if not self._in_scope(module):
            return
        aliases, _ = import_bindings(module, project)
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            locks = self._lock_attrs(cls, aliases)
            if not locks:
                continue
            yield from self._check_class(module, project, cls, locks)

    @staticmethod
    def _lock_attrs(cls: ast.ClassDef,
                    aliases: Dict[str, str]) -> FrozenSet[str]:
        out: Set[str] = set()
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            func = node.value.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                func.id if isinstance(func, ast.Name) else None
            if name in _LOCK_TYPES:
                out.add(target.attr)
        return frozenset(out)

    def _check_class(self, module: ModuleInfo,
                     project: ProjectContext, cls: ast.ClassDef,
                     locks: FrozenSet[str]) -> Iterator[Violation]:
        sites: Dict[str, List[_MutSite]] = {}
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue
            mutations = self._mutations(method, locks)
            if not mutations:
                continue
            cfg = project.cfg(method)
            facts = stmt_facts(cfg, LockSetAnalysis(locks))
            for attr, stmt, node in mutations:
                held = facts.get(id(stmt), frozenset())
                sites.setdefault(attr, []).append(
                    (method.name, stmt, node, held))
        for attr in sorted(sites):
            entries = sites[attr]
            methods = sorted({m for m, _, _, _ in entries})
            if len(methods) < 2:
                continue
            common = frozenset.intersection(
                *[held for _, _, _, held in entries])
            if common:
                continue
            anchor = min(
                entries,
                key=lambda e: (len(e[3]),
                               getattr(e[2], "lineno", 0)))
            yield self.violation(
                module, anchor[2],
                f"attribute 'self.{attr}' of class '{cls.name}' is "
                f"mutated from methods {', '.join(methods)} with no "
                f"common lock held (class locks: "
                f"{', '.join(sorted(locks))}); hold one lock across "
                f"every mutation or confine the attribute to one "
                f"thread")

    @staticmethod
    def _mutations(method: ast.AST, locks: FrozenSet[str],
                   ) -> List[Tuple[str, ast.stmt, ast.AST]]:
        """``(attr, enclosing stmt, node)`` per self-attribute
        mutation in *method* (excluding the lock attributes
        themselves)."""
        out: List[Tuple[str, ast.stmt, ast.AST]] = []

        def self_attr(node: ast.expr) -> Optional[str]:
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "self" and \
                    node.attr not in locks:
                return node.attr
            return None

        def scan(stmt: ast.stmt) -> None:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.Lambda)):
                    continue
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets \
                        if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        base = target
                        while isinstance(base, ast.Subscript):
                            base = base.value
                        attr = self_attr(base)
                        if attr is not None:
                            out.append((attr, stmt, node))
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _MUTATING_METHODS:
                    attr = self_attr(node.func.value)
                    if attr is not None:
                        out.append((attr, stmt, node))

        # Walk statements the same way the CFG distributes them, so
        # each mutation is attributed to the statement whose entry
        # fact stmt_facts() computed.
        def visit(stmts: List[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    visit(stmt.body)
                elif isinstance(stmt, ast.If):
                    visit(stmt.body)
                    visit(stmt.orelse)
                elif isinstance(stmt, (ast.While,)):
                    visit(stmt.body)
                    visit(stmt.orelse)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    scan_head(stmt)
                    visit(stmt.body)
                    visit(stmt.orelse)
                elif isinstance(stmt, ast.Try):
                    visit(stmt.body)
                    for handler in stmt.handlers:
                        visit(handler.body)
                    visit(stmt.orelse)
                    visit(stmt.finalbody)
                else:
                    scan(stmt)

        def scan_head(stmt: ast.stmt) -> None:
            # A for-head assigning to self.X is a mutation too.
            target = getattr(stmt, "target", None)
            if target is not None:
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                attr = self_attr(base)
                if attr is not None:
                    out.append((attr, stmt, stmt))

        visit(list(method.body))  # type: ignore[attr-defined]
        return out
