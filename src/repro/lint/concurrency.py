"""REP100-series concurrency-safety rules.

The serving stack spans four execution lanes — HTTP handler threads,
the ``MicroBatcher`` lanes, the ``ShadowAuditor`` daemon and forked
``runtime.pool`` workers — plus ``atexit``/signal handlers.  State that
crosses a lane boundary must be owned by a lock (or be immutable), and
lane hand-offs must be explicit.  These rules encode that policy
statically so races are caught by tooling rather than by flaky traces.

Two analysis passes feed the rules, both computed once per file and
cached on the :class:`~repro.lint.core.LintFile`:

* the **lane model** (:func:`lane_model`) — entry points seeded from
  the known lane spawners: ``threading.Thread`` targets, ``atexit`` /
  ``signal`` / ``os.register_at_fork`` handlers, ``BaseHTTPRequestHandler``
  ``do_*`` methods, and callables dispatched through ``parallel_map`` /
  ``os.fork`` / ``multiprocessing`` pools;
* the **shared-state inventory** (:func:`concurrency_model`) — per
  class (and per module), which attributes/globals are lock protected
  where, which names hold locks/conditions, and which hold daemon
  threads (alone, or in a list/tuple display or list comprehension,
  joined by a ``for t in X: t.join(...)`` loop).

Rules (see ``docs/static_analysis.md`` for the catalog with examples):

* REP101 — shared attribute/global written outside its owning lock;
* REP102 — fork/pool dispatch while holding a lock;
* REP103 — unbounded blocking call while holding a lock;
* REP104 — check-then-act lazy initialization of shared state;
* REP105 — ``ContextVar.set`` without a token reset;
* REP106 — daemon thread with no drain/join path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .core import LintFile, Rule, register_rule

#: constructors that produce a lock-like object (stdlib + repro.runtime.sync)
LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "make_lock", "make_rlock"})
CONDITION_CONSTRUCTORS = frozenset({"Condition", "make_condition"})

#: callables whose invocation forks or dispatches to a process pool
FORK_DISPATCHERS = frozenset({"fork", "parallel_map", "ForkedWorker", "Pool",
                              "ProcessPoolExecutor"})

#: handler-registration entry points that create implicit lanes
HANDLER_REGISTRARS = frozenset({"register", "signal", "register_at_fork"})
HANDLER_MODULES = frozenset({"atexit", "signal", "os"})


def _dotted(node: ast.AST) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_self_attr(node: ast.AST) -> str | None:
    """``self.X`` -> ``"X"``, anything else -> None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _call_tail(node: ast.Call) -> str:
    """Last dotted component of a call's target ('threading.Lock' -> 'Lock')."""
    return _dotted(node.func).rsplit(".", 1)[-1]


# ----------------------------------------------------------------------
# Lane model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LaneEntry:
    """One execution-lane entry point found in a file."""

    kind: str       # "thread" | "daemon-thread" | "fork" | "atexit" | "signal" | "at-fork" | "http"
    owner: str      # enclosing class name, or "<module>"
    name: str       # target function / handler / dispatcher description
    line: int


@dataclass
class LaneModel:
    """Every lane entry point in one file, plus the owners that spawn lanes."""

    entries: list[LaneEntry] = field(default_factory=list)

    def owners(self) -> set[str]:
        """Class names (and possibly ``<module>``) that spawn extra lanes."""
        return {e.owner for e in self.entries}

    def multi_lane(self, owner: str) -> bool:
        """Whether code owned by ``owner`` runs in more than one lane.

        Spawning a thread (or registering a handler) means the spawner's
        attributes are reachable from both the creating lane and the new
        one, so every such owner is multi-lane by construction.
        """
        return owner in self.owners()


def _thread_target(call: ast.Call) -> tuple[str, bool]:
    """(target description, is_daemon) for a ``threading.Thread(...)`` call."""
    target = "<unknown>"
    daemon = False
    for kw in call.keywords:
        if kw.arg == "target":
            target = _dotted(kw.value) or "<lambda>"
        elif kw.arg == "daemon":
            daemon = bool(getattr(kw.value, "value", False))
    return target, daemon


def lane_model(file: LintFile) -> LaneModel:
    """Build (and cache) the execution-lane model for one file."""
    cached = getattr(file, "_lane_model", None)
    if cached is not None:
        return cached
    model = LaneModel()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_owner = owner
            if isinstance(child, ast.ClassDef):
                child_owner = child.name
                for base in child.bases:
                    if _dotted(base).rsplit(".", 1)[-1] == "BaseHTTPRequestHandler":
                        model.entries.append(LaneEntry(
                            "http", child.name, f"{child.name}.do_*", child.lineno))
            elif isinstance(child, ast.Call):
                tail = _call_tail(child)
                dotted = _dotted(child.func)
                if tail == "Thread":
                    target, daemon = _thread_target(child)
                    model.entries.append(LaneEntry(
                        "daemon-thread" if daemon else "thread",
                        owner, target, child.lineno))
                elif tail in FORK_DISPATCHERS:
                    arg = _dotted(child.args[0]) if child.args else ""
                    model.entries.append(LaneEntry(
                        "fork", owner, arg or dotted, child.lineno))
                elif (tail in HANDLER_REGISTRARS
                        and dotted.split(".")[0] in HANDLER_MODULES):
                    kinds = {"register": "atexit", "signal": "signal",
                             "register_at_fork": "at-fork"}
                    handler = _dotted(child.args[-1]) if child.args else ""
                    model.entries.append(LaneEntry(
                        kinds[tail], owner, handler or dotted, child.lineno))
            visit(child, child_owner)

    visit(file.tree, "<module>")
    file._lane_model = model  # type: ignore[attr-defined]
    return model


# ----------------------------------------------------------------------
# Shared-state inventory
# ----------------------------------------------------------------------
@dataclass
class AttrAccess:
    """Where one shared attribute is written/read, split by lock context."""

    locked_writes: list[ast.AST] = field(default_factory=list)
    unlocked_writes: list[ast.AST] = field(default_factory=list)
    unlocked_augassigns: list[ast.AST] = field(default_factory=list)
    locked_reads: list[ast.AST] = field(default_factory=list)

    @property
    def lock_associated(self) -> bool:
        return bool(self.locked_writes or self.locked_reads)


@dataclass
class ClassModel:
    """Locks, threads and attribute accesses of one class."""

    name: str
    node: ast.ClassDef
    locks: set[str] = field(default_factory=set)        # self.X holding a Lock/RLock
    conditions: set[str] = field(default_factory=set)   # self.X holding a Condition
    daemon_threads: dict[str, ast.AST] = field(default_factory=dict)  # attr -> assign
    joined_attrs: set[str] = field(default_factory=set)  # self.X.join(...) seen
    accesses: dict[str, AttrAccess] = field(default_factory=dict)

    def lock_like(self) -> set[str]:
        return self.locks | self.conditions


@dataclass
class ModuleModel:
    """File-level inventory: module locks/globals plus every class model."""

    locks: set[str] = field(default_factory=set)
    conditions: set[str] = field(default_factory=set)
    contextvars: set[str] = field(default_factory=set)
    daemon_threads: dict[str, ast.AST] = field(default_factory=dict)
    joined_names: set[str] = field(default_factory=set)
    global_accesses: dict[str, AttrAccess] = field(default_factory=dict)
    classes: dict[str, ClassModel] = field(default_factory=dict)

    def lock_like(self) -> set[str]:
        return self.locks | self.conditions


def _lock_kind(value: ast.AST) -> str | None:
    """'lock' / 'condition' when ``value`` constructs a lock-like object."""
    if not isinstance(value, ast.Call):
        return None
    tail = _call_tail(value)
    if tail in LOCK_CONSTRUCTORS:
        return "lock"
    if tail in CONDITION_CONSTRUCTORS:
        return "condition"
    return None


def _is_daemon_thread(value: ast.AST) -> bool:
    """A daemon ``Thread(...)``, or a list/tuple display or list
    comprehension holding one."""
    if isinstance(value, (ast.List, ast.Tuple)):
        return any(_is_daemon_thread(element) for element in value.elts)
    if isinstance(value, ast.ListComp):
        return _is_daemon_thread(value.elt)
    if not (isinstance(value, ast.Call) and _call_tail(value) == "Thread"):
        return False
    return _thread_target(value)[1]


def _loop_joined(loop: ast.For) -> str:
    """``X`` for ``for t in X: ... t.join(...)``, else ``""``."""
    if not isinstance(loop.target, ast.Name):
        return ""
    join = f"{loop.target.id}.join"
    for node in ast.walk(loop):
        if isinstance(node, ast.Call) and _dotted(node.func) == join:
            return _dotted(loop.iter)
    return ""


class _AccessCollector(ast.NodeVisitor):
    """Walks one function body tracking the stack of held lock names.

    ``lock_names`` maps an AST lock expression to a canonical name:
    ``self.X`` for instance locks, bare ``X`` for module locks.  Every
    attribute/global write and lock-scoped read is recorded into the
    supplied access maps.
    """

    def __init__(self, class_locks: set[str], module_locks: set[str],
                 attr_accesses: dict[str, AttrAccess],
                 global_accesses: dict[str, AttrAccess],
                 in_init: bool):
        self.class_locks = class_locks
        self.module_locks = module_locks
        self.attr_accesses = attr_accesses
        self.global_accesses = global_accesses
        self.in_init = in_init
        self.held: list[str] = []
        self.locked_regions: list[tuple[ast.With, str]] = []
        self.calls_in_lock: list[tuple[ast.Call, str]] = []

    # -- lock-region tracking ------------------------------------------
    def _lock_name(self, expr: ast.AST) -> str | None:
        attr = _is_self_attr(expr)
        if attr is not None and attr in self.class_locks:
            return f"self.{attr}"
        if isinstance(expr, ast.Name) and expr.id in self.module_locks:
            return expr.id
        return None

    def visit_With(self, node: ast.With) -> None:
        names = [self._lock_name(item.context_expr) for item in node.items]
        names = [n for n in names if n]
        for name in names:
            self.held.append(name)
            self.locked_regions.append((node, name))
        for stmt in node.body:
            self.visit(stmt)
        for item in node.items:
            self.visit(item.context_expr)
        for _ in names:
            self.held.pop()

    # -- writes / reads ------------------------------------------------
    def _record_write(self, target: ast.AST, node: ast.AST, aug: bool) -> None:
        attr = _is_self_attr(target)
        record = None
        if attr is not None:
            record = self.attr_accesses.setdefault(attr, AttrAccess())
        elif isinstance(target, ast.Name) and target.id in self.global_accesses:
            record = self.global_accesses[target.id]
        if record is None:
            return
        if self.held:
            record.locked_writes.append(node)
        elif self.in_init:
            pass  # construction happens-before any lane hand-off
        elif aug:
            record.unlocked_augassigns.append(node)
        else:
            record.unlocked_writes.append(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_write(target, node, aug=False)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_write(node.target, node, aug=True)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.held and isinstance(node.ctx, ast.Load):
            attr = _is_self_attr(node)
            if attr is not None:
                self.attr_accesses.setdefault(attr, AttrAccess()).locked_reads.append(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.held:
            self.calls_in_lock.append((node, self.held[-1]))
        self.generic_visit(node)

    # nested defs get their own lane analysis; don't leak lock context
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef


def _collect_class(cls: ast.ClassDef, module: ModuleModel) -> ClassModel:
    model = ClassModel(name=cls.name, node=cls)
    # first pass: find lock/condition/thread attributes anywhere in the class
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            attr = _is_self_attr(node.targets[0])
            if attr is None:
                continue
            kind = _lock_kind(node.value)
            if kind == "lock":
                model.locks.add(attr)
            elif kind == "condition":
                model.conditions.add(attr)
            if _is_daemon_thread(node.value):
                model.daemon_threads[attr] = node
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted.startswith("self.") and dotted.endswith(".join"):
                middle = dotted[len("self."):-len(".join")]
                if middle and "." not in middle:
                    model.joined_attrs.add(middle)
        elif isinstance(node, ast.For):
            joined = _loop_joined(node)
            if joined.startswith("self.") and "." not in joined[len("self."):]:
                model.joined_attrs.add(joined[len("self."):])
    return model


def concurrency_model(file: LintFile) -> ModuleModel:
    """Build (and cache) the shared-state inventory for one file."""
    cached = getattr(file, "_concurrency_model", None)
    if cached is not None:
        return cached
    module = ModuleModel()
    for node in file.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            kind = _lock_kind(node.value)
            if kind == "lock":
                module.locks.add(name)
            elif kind == "condition":
                module.conditions.add(name)
            if (isinstance(node.value, ast.Call)
                    and _call_tail(node.value) == "ContextVar"):
                module.contextvars.add(name)
            if _is_daemon_thread(node.value):
                module.daemon_threads[name] = node
            # module globals become interesting once a module lock exists
            module.global_accesses.setdefault(name, AttrAccess())
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted.endswith(".join") and "." in dotted:
                module.joined_names.add(dotted.rsplit(".", 1)[0])
        elif isinstance(node, ast.For) and _loop_joined(node):
            module.joined_names.add(_loop_joined(node))
    for node in file.tree.body:
        if isinstance(node, ast.ClassDef):
            module.classes[node.name] = _collect_class(node, module)
    file._concurrency_model = module  # type: ignore[attr-defined]
    return module


def _iter_methods(cls: ast.ClassDef):
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _collect_accesses(file: LintFile, cls: ClassModel,
                      module: ModuleModel) -> list[_AccessCollector]:
    """Run the lock-context collector over every method of one class."""
    collectors = []
    for method in _iter_methods(cls.node):
        collector = _AccessCollector(
            class_locks=cls.lock_like(), module_locks=module.lock_like(),
            attr_accesses=cls.accesses, global_accesses=module.global_accesses,
            in_init=method.name == "__init__")
        for stmt in method.body:
            collector.visit(stmt)
        collectors.append(collector)
    return collectors


def _module_collectors(file: LintFile, module: ModuleModel) -> list[_AccessCollector]:
    collectors = []
    for node in file.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            collector = _AccessCollector(
                class_locks=set(), module_locks=module.lock_like(),
                attr_accesses={}, global_accesses=module.global_accesses,
                in_init=False)
            for stmt in node.body:
                collector.visit(stmt)
            collectors.append(collector)
    return collectors


def _analysis(file: LintFile):
    """All collectors for one file, cached (rules share one traversal)."""
    cached = getattr(file, "_concurrency_collectors", None)
    if cached is not None:
        return cached
    module = concurrency_model(file)
    per_class = {name: _collect_accesses(file, cls, module)
                 for name, cls in module.classes.items()}
    at_module = _module_collectors(file, module)
    result = (module, per_class, at_module)
    file._concurrency_collectors = result  # type: ignore[attr-defined]
    return result


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
@register_rule
class SharedWriteOutsideLock(Rule):
    """REP101: shared state must be written under its owning lock."""

    id = "REP101"
    severity = "error"
    description = ("in a class that spawns another execution lane, attributes "
                   "accessed under a lock (and all read-modify-write updates) "
                   "must not also be written outside it")

    def check(self, file: LintFile):
        lanes = lane_model(file)
        module, per_class, at_module = _analysis(file)
        for name, cls in module.classes.items():
            if not cls.lock_like() or not lanes.multi_lane(name):
                continue
            for attr, record in sorted(cls.accesses.items()):
                if attr in cls.lock_like() or attr in cls.daemon_threads:
                    continue
                if record.lock_associated:
                    for node in record.unlocked_writes + record.unlocked_augassigns:
                        yield self.report(
                            file, node,
                            f"`self.{attr}` of {name} is accessed under a lock "
                            f"elsewhere but written here without it; move the "
                            f"write inside the owning lock")
                else:
                    for node in record.unlocked_augassigns:
                        yield self.report(
                            file, node,
                            f"read-modify-write of shared `self.{attr}` in "
                            f"multi-lane class {name} outside any lock; += is "
                            f"not atomic across lanes")
        if lanes.multi_lane("<module>") and module.lock_like():
            for name, record in sorted(module.global_accesses.items()):
                if not record.lock_associated or name in module.lock_like():
                    continue
                for node in record.unlocked_writes + record.unlocked_augassigns:
                    yield self.report(
                        file, node,
                        f"module global `{name}` is accessed under a lock "
                        f"elsewhere but written here without it")


@register_rule
class LockHeldAcrossFork(Rule):
    """REP102: never fork or dispatch to a process pool while locked."""

    id = "REP102"
    severity = "error"
    description = ("os.fork / parallel_map / ForkedWorker / multiprocessing pool "
                   "dispatch inside a `with <lock>:` block forks the lock in an "
                   "owned state — children deadlock on first acquire")

    def check(self, file: LintFile):
        module, per_class, at_module = _analysis(file)
        collectors = [c for cs in per_class.values() for c in cs] + at_module
        for collector in collectors:
            for call, lock in collector.calls_in_lock:
                tail = _call_tail(call)
                dotted = _dotted(call.func)
                if tail in FORK_DISPATCHERS or dotted == "os.fork":
                    yield self.report(
                        file, call,
                        f"`{dotted or tail}` dispatched while holding `{lock}`; "
                        f"release the lock before forking (a forked child "
                        f"inherits it locked and deadlocks)")


#: blocking-call method names REP103 flags when called with no timeout
_BLOCKING_METHODS = frozenset({"get", "join", "recv", "wait"})


@register_rule
class BlockingCallUnderLock(Rule):
    """REP103: blocking calls under a lock must carry a timeout."""

    id = "REP103"
    severity = "error"
    description = ("queue.get()/socket.recv()/Thread.join()/Event.wait() without "
                   "a timeout while holding a lock can block every other lane "
                   "on that lock forever")

    def _has_timeout(self, call: ast.Call) -> bool:
        if any(kw.arg in ("timeout", "timeout_s") for kw in call.keywords):
            return True
        tail = _call_tail(call)
        if tail == "get":
            # queue-style blocking get is `get()` / `get(True)` /
            # `get(block=True)`; anything else (dict.get(key),
            # get(block, timeout), get(False)) does not block forever
            if not call.args and not call.keywords:
                return False
            if (len(call.args) == 1 and isinstance(call.args[0], ast.Constant)
                    and call.args[0].value is True):
                return False
            if any(kw.arg == "block"
                   and not (isinstance(kw.value, ast.Constant) and kw.value.value is True)
                   for kw in call.keywords):
                return True
            if (len(call.args) == 1 and isinstance(call.args[0], ast.Constant)
                    and call.args[0].value is False):
                return True
            return len(call.args) >= 1  # dict.get(key) / get(block, timeout)
        # positional timeout: join(timeout), wait(timeout)
        return len(call.args) >= 1

    def check(self, file: LintFile):
        module, per_class, at_module = _analysis(file)
        jobs = [(cls, c) for name, cs in per_class.items()
                for c in cs for cls in [module.classes[name]]]
        jobs += [(None, c) for c in at_module]
        for cls, collector in jobs:
            for call, lock in collector.calls_in_lock:
                tail = _call_tail(call)
                if tail not in _BLOCKING_METHODS or self._has_timeout(call):
                    continue
                dotted = _dotted(call.func)
                receiver = dotted.rsplit(".", 1)[0] if "." in dotted else ""
                if tail == "wait":
                    # Condition.wait releases the lock while blocked — the
                    # canonical pattern, not a violation.
                    attr = receiver[len("self."):] if receiver.startswith("self.") else receiver
                    conditions = (cls.conditions if cls else set()) | module.conditions
                    if attr in conditions or receiver == lock or f"self.{attr}" == lock:
                        continue
                if tail == "get" and not receiver:
                    continue  # bare get() — nothing to reason about
                if tail == "recv" and len(call.args) >= 1:
                    pass  # recv(bufsize) still blocks; keep flagging
                yield self.report(
                    file, call,
                    f"`{dotted or tail}(...)` blocks without a timeout while "
                    f"holding `{lock}`; pass a timeout or move the call "
                    f"outside the lock")


@register_rule
class CheckThenActLazyInit(Rule):
    """REP104: lazy init of shared state needs a lock (or double-check)."""

    id = "REP104"
    severity = "error"
    description = ("`if self.x is None: self.x = ...` on shared state outside a "
                   "lock is a check-then-act race; hold the lock, or "
                   "double-check under it")

    def _none_check_target(self, test: ast.AST) -> ast.AST | None:
        """The checked expression for `X is None` / `not X` tests."""
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            return test.left
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return test.operand
        if (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.NotIn)):
            return test.comparators[0]
        return None

    def _body_enters_lock(self, body: list[ast.stmt], locks: set[str],
                          module_locks: set[str]) -> bool:
        """Double-checked locking: the body immediately re-checks under a lock."""
        for stmt in body:
            if isinstance(stmt, ast.With):
                for item in stmt.items:
                    expr = item.context_expr
                    attr = _is_self_attr(expr)
                    if attr is not None and attr in locks:
                        return True
                    if isinstance(expr, ast.Name) and expr.id in module_locks:
                        return True
        return False

    def _body_assigns(self, body: list[ast.stmt], attr: str | None,
                      name: str | None) -> ast.AST | None:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if attr is not None and _is_self_attr(target) == attr:
                            return node
                        if (name is not None and isinstance(target, ast.Name)
                                and target.id == name):
                            return node
                if isinstance(node, ast.Subscript):
                    base = node.value
                    if isinstance(node.ctx, ast.Store):
                        if attr is not None and _is_self_attr(base) == attr:
                            return node
                        if (name is not None and isinstance(base, ast.Name)
                                and base.id == name):
                            return node
        return None

    def check(self, file: LintFile):
        lanes = lane_model(file)
        module, per_class, at_module = _analysis(file)
        for cls_name, cls in module.classes.items():
            if not (cls.lock_like() or lanes.multi_lane(cls_name)):
                continue
            for method in _iter_methods(cls.node):
                yield from self._check_body(file, method, cls, module, cls_name)

    def _check_body(self, file: LintFile, method: ast.FunctionDef,
                    cls: ClassModel, module: ModuleModel, cls_name: str):
        held_stack: list[bool] = []

        def walk(node: ast.AST) -> None:
            if isinstance(node, ast.With):
                lockish = any(
                    (_is_self_attr(i.context_expr) in cls.lock_like())
                    or (isinstance(i.context_expr, ast.Name)
                        and i.context_expr.id in module.lock_like())
                    for i in node.items)
                held_stack.append(lockish)
                for stmt in node.body:
                    walk(stmt)
                held_stack.pop()
                return
            if isinstance(node, ast.If) and not any(held_stack):
                target = self._none_check_target(node.test)
                if target is not None:
                    attr = _is_self_attr(target)
                    name = target.id if isinstance(target, ast.Name) else None
                    checked = attr is not None or name in module.global_accesses
                    if checked:
                        assign = self._body_assigns(node.body, attr, name)
                        if assign is not None and not self._body_enters_lock(
                                node.body, cls.lock_like(), module.lock_like()):
                            label = f"self.{attr}" if attr else name
                            findings.append((node, label))
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                    continue
                walk(child)

        findings: list[tuple[ast.AST, str]] = []
        if method.name != "__init__":
            for stmt in method.body:
                walk(stmt)
        for node, label in findings:
            yield self.report(
                file, node,
                f"check-then-act lazy init of `{label}` in {cls_name}."
                f"{method.name} races between lanes; initialize under "
                f"the owning lock (double-checked locking is fine)")


def _scoped_nodes(scope: ast.AST):
    """Descendants of ``scope`` without entering nested function bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class ContextVarSetWithoutReset(Rule):
    """REP105: ContextVar.set must keep and reset its token."""

    id = "REP105"
    severity = "error"
    description = ("ContextVar.set() whose token is discarded (or never reset) "
                   "leaks request identity across lane hand-offs; reset the "
                   "token in a finally block")

    def check(self, file: LintFile):
        module = concurrency_model(file)
        if not module.contextvars:
            return
        for scope in ast.walk(file.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Module)):
                continue
            yield from self._check_scope(file, scope, module.contextvars)

    def _check_scope(self, file: LintFile, scope: ast.AST, names: set[str]):
        sets: list[tuple[ast.Call, str | None]] = []  # (call, token name)
        resets: set[str] = set()
        for node in _scoped_nodes(scope):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                if self._is_var_method(call, names, "set"):
                    sets.append((call, None))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                call = node.value
                if self._is_var_method(call, names, "set"):
                    target = node.targets[0]
                    token = target.id if isinstance(target, ast.Name) else None
                    sets.append((call, token))
            elif isinstance(node, ast.Call) and self._is_var_method(node, names, "reset"):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        resets.add(arg.id)
        for call, token in sets:
            if token is None:
                yield self.report(
                    file, call,
                    f"`{_dotted(call.func)}(...)` discards its reset token; "
                    f"keep it and reset in a finally block so the context "
                    f"cannot leak into the next request on this lane")
            elif token not in resets:
                yield self.report(
                    file, call,
                    f"token `{token}` from `{_dotted(call.func)}(...)` is never "
                    f"passed to .reset(); the context leaks on this lane")

    def _is_var_method(self, call: ast.Call, names: set[str], method: str) -> bool:
        dotted = _dotted(call.func)
        return ("." in dotted and dotted.rsplit(".", 1)[1] == method
                and dotted.rsplit(".", 1)[0] in names)


@register_rule
class DaemonThreadWithoutJoin(Rule):
    """REP106: daemon threads need an explicit drain/join path."""

    id = "REP106"
    severity = "error"
    description = ("a daemon thread stored on self/module state with no "
                   ".join(...) anywhere leaves mutations unfinished at "
                   "interpreter exit; provide a close()/drain() that joins it")

    def check(self, file: LintFile):
        module = concurrency_model(file)
        for cls in module.classes.values():
            for attr, node in sorted(cls.daemon_threads.items()):
                if attr not in cls.joined_attrs:
                    yield self.report(
                        file, node,
                        f"daemon thread `self.{attr}` of {cls.name} is never "
                        f"joined; add a bounded close()/drain() path so "
                        f"shutdown is deterministic")
        for name, node in sorted(module.daemon_threads.items()):
            if name not in module.joined_names:
                yield self.report(
                    file, node,
                    f"module-level daemon thread `{name}` is never joined; "
                    f"register a bounded shutdown path")
