"""AST-based concurrency lint for annotated modules.

The pipelined training stack documents its locking discipline with
lightweight comment annotations (see ``CONCURRENCY.md``); this module
parses them and enforces four rules statically:

``guarded-mutation``
    An attribute declared ``# guarded-by: <lock>`` on its ``__init__``
    assignment may only be *mutated* (assigned, augmented, deleted,
    subscript-stored, or hit with a mutating method like ``append`` /
    ``pop`` / ``clear``) inside a ``with self.<lock>:`` block.
    ``__init__`` itself is exempt — no other thread can hold a
    reference during construction.

``blocking-under-lock``
    While any lock is held, no blocking call may run: sleeps, file /
    array I/O (``open``, ``load``, ``save``), backend transfers
    (``get`` / ``put`` on server-like receivers), queue drains, thread
    joins, future results, and ``Condition.wait`` on any object *other
    than* the held lock (waiting on the held condition releases it and
    is the one legal way to block). A deliberate exception carries a
    trailing ``# lint: allow-blocking`` with a justification.

``missing-lock``
    A class annotated ``# public-guard: <name>[, <name>...]`` promises
    that every public method acquires one of the named locks
    (matching on the final attribute of the ``with`` expression, so
    both ``self._lock`` and per-shard ``shard.lock`` styles work).
    Methods that intentionally don't — pure delegations, immutable
    reads — carry ``# lint: no-lock``.

``owned-by-role``
    An attribute declared ``# owned-by: <role>`` is confined to one
    thread role; only methods annotated ``# runs-on: <role>`` with the
    same role (methods default to the ``main`` role) may mutate it.

``# lint: ignore`` on a line suppresses all findings for that line.
The checker is intra-procedural by design: it follows ``with`` blocks,
not aliases (``st = self._state``) or call chains — cheap enough to run
on every commit, and the runtime harness (:mod:`repro.analysis.lockdep`)
covers the dynamic remainder.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Finding", "check_file", "check_source", "check_paths", "default_targets"]

#: methods that mutate their receiver in place
_MUTATING_METHODS = {
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "pop", "popleft", "popitem", "remove", "setdefault",
    "update", "difference_update", "intersection_update",
    "symmetric_difference_update", "sort", "reverse", "fill",
}

#: method names that block regardless of receiver (I/O, drains, joins)
_ALWAYS_BLOCKING_METHODS = {
    "load", "save", "put_delta", "get_versioned", "drain",
    "join", "result", "sleep", "settle", "close", "shutdown",
}

#: method names that block when called on a transfer-ish receiver
_RECEIVER_BLOCKING_METHODS = {
    "get", "put", "fetch", "push", "pull", "send", "recv", "submit",
}

#: receiver names (final attribute component) treated as transfer-ish
_SUSPECT_RECEIVERS = {
    "server", "backend", "storage", "client", "queue", "writeback",
    "sock", "socket", "conn", "channel", "partition_server",
    "lock_server", "parameter_server",
}

#: plain function calls that block
_BLOCKING_FUNCTIONS = {"open", "input", "sleep"}

#: attribute names that denote a lock when they end a `with` expression
_LOCK_NAME_RE = re.compile(r"(^|_)(lock|cv|cond|condition|mutex)$")

_GUARDED_RE = re.compile(r"#.*?\bguarded-by:\s*([A-Za-z_]\w*)")
_OWNED_RE = re.compile(r"#.*?\bowned-by:\s*([\w-]+)")
_PUBLIC_GUARD_RE = re.compile(r"#.*?\bpublic-guard:\s*([\w.,\s]+)")
_RUNS_ON_RE = re.compile(r"#.*?\bruns-on:\s*([\w-]+)")
_DIRECTIVE_RE = re.compile(r"#\s*lint:\s*(no-lock|allow-blocking|ignore)\b")

_DEFAULT_ROLE = "main"


@dataclass
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ----------------------------------------------------------------------
# Comment / annotation extraction
# ----------------------------------------------------------------------


class _Comments:
    """Per-line comments plus which lines carry actual code, so an
    annotation may sit either trailing on its statement's first line or
    on a standalone comment line directly above it."""

    def __init__(self, source: str) -> None:
        self.by_line: "dict[int, str]" = {}
        self.code_lines: "set[int]" = set()
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        try:
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    self.by_line[tok.start[0]] = tok.string
                elif tok.type not in (
                    tokenize.NL,
                    tokenize.NEWLINE,
                    tokenize.INDENT,
                    tokenize.DEDENT,
                    tokenize.ENDMARKER,
                ):
                    for ln in range(tok.start[0], tok.end[0] + 1):
                        self.code_lines.add(ln)
        except tokenize.TokenError:
            pass  # ast.parse already validated the file; be permissive

    def for_stmt(self, line: int) -> str:
        """Annotation-bearing comment for a statement starting at
        ``line``: its own trailing comment, else a comment-only line
        immediately above."""
        own = self.by_line.get(line, "")
        if own:
            return own
        prev = self.by_line.get(line - 1, "")
        if prev and (line - 1) not in self.code_lines:
            return prev
        return ""

    def directive(self, line: int) -> "str | None":
        m = _DIRECTIVE_RE.search(self.by_line.get(line, ""))
        return m.group(1) if m else None


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------


def _dotted(expr: ast.expr) -> "str | None":
    """``self._lock`` / ``shard.lock`` as a dotted string, else None."""
    parts: "list[str]" = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attr(expr: ast.expr) -> "str | None":
    """The ``X`` in a ``self.X`` (possibly deeper: ``self.X.Y`` -> X,
    ``self.X[k]`` -> X); None if the expression is not rooted at
    ``self``."""
    node = expr
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        parent = (
            node.value if isinstance(node, (ast.Attribute, ast.Subscript)) else None
        )
        if (
            isinstance(node, ast.Attribute)
            and isinstance(parent, ast.Name)
            and parent.id == "self"
        ):
            return node.attr
        node = parent
    return None


def _last_name(dotted: str) -> str:
    return dotted.rsplit(".", 1)[-1]


# ----------------------------------------------------------------------
# Per-class annotation model
# ----------------------------------------------------------------------


@dataclass
class _ClassInfo:
    name: str
    #: attr -> lock attr guarding it
    guards: "dict[str, str]"
    #: attr -> owning thread role
    owners: "dict[str, str]"
    #: attrs assigned in __init__ (for unknown-lock validation)
    init_attrs: "set[str]"
    #: lock names public methods must acquire (public-guard), or None
    public_guard: "list[str] | None"


def _collect_class_info(
    cls: ast.ClassDef, comments: _Comments
) -> _ClassInfo:
    guards: "dict[str, str]" = {}
    owners: "dict[str, str]" = {}
    init_attrs: "set[str]" = set()
    head = comments.for_stmt(cls.lineno)
    public_guard = None
    m = _PUBLIC_GUARD_RE.search(head)
    if m:
        public_guard = [
            n.strip() for n in m.group(1).split(",") if n.strip()
        ]
    for item in cls.body:
        if not (
            isinstance(item, ast.FunctionDef) and item.name == "__init__"
        ):
            continue
        for stmt in ast.walk(item):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            attrs = [
                t.attr
                for t in targets
                if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ]
            if not attrs:
                continue
            init_attrs.update(attrs)
            comment = comments.for_stmt(stmt.lineno)
            if not comment:
                continue
            gm = _GUARDED_RE.search(comment)
            om = _OWNED_RE.search(comment)
            for attr in attrs:
                if gm:
                    guards[attr] = gm.group(1)
                if om:
                    owners[attr] = om.group(1)
    return _ClassInfo(cls.name, guards, owners, init_attrs, public_guard)


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------


class _FileChecker:
    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.comments = _Comments(source)
        self.findings: "list[Finding]" = []

    def run(self) -> "list[Finding]":
        tree = ast.parse(self.source, filename=self.path)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self._check_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_body(node.body, [], None, _DEFAULT_ROLE)
        return self.findings

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if self.comments.directive(line) == "ignore":
            return
        self.findings.append(Finding(self.path, line, rule, message))

    # -- class level ---------------------------------------------------

    def _check_class(self, cls: ast.ClassDef) -> None:
        info = _collect_class_info(cls, self.comments)
        for attr, lock in info.guards.items():
            if lock not in info.init_attrs:
                self._emit(
                    cls,
                    "unknown-lock",
                    f"{info.name}.{attr} is guarded-by {lock!r}, but "
                    f"__init__ never assigns self.{lock}",
                )
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_method(info, item)

    def _method_role(self, fn: ast.FunctionDef) -> str:
        comment = self.comments.by_line.get(fn.lineno, "")
        m = _RUNS_ON_RE.search(comment)
        return m.group(1) if m else _DEFAULT_ROLE

    def _check_method(self, info: _ClassInfo, fn: ast.FunctionDef) -> None:
        role = self._method_role(fn)
        in_init = fn.name == "__init__"
        if (
            info.public_guard
            and not fn.name.startswith("_")
            and self.comments.directive(fn.lineno) != "no-lock"
        ):
            if not self._acquires_one_of(fn, info.public_guard):
                self._emit(
                    fn,
                    "missing-lock",
                    f"public method {info.name}.{fn.name} never acquires "
                    f"any of {info.public_guard} (add the lock or a "
                    f"'# lint: no-lock' justification)",
                )
        self._scan_body(
            fn.body, [], info if not in_init else None, role
        )

    def _acquires_one_of(
        self, fn: ast.FunctionDef, lock_names: "list[str]"
    ) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, (ast.Lambda,)):
                continue
            if isinstance(node, ast.With):
                for item in node.items:
                    dotted = _dotted(item.context_expr)
                    if dotted and _last_name(dotted) in lock_names:
                        return True
        return False

    # -- statement scanning --------------------------------------------

    def _is_lock_expr(
        self, dotted: "str | None", info: "_ClassInfo | None"
    ) -> bool:
        if dotted is None:
            return False
        name = _last_name(dotted)
        if info is not None and (
            name in info.guards.values()
            or (info.public_guard and name in info.public_guard)
        ):
            return True
        return bool(_LOCK_NAME_RE.search(name))

    def _scan_body(
        self,
        body: "list[ast.stmt]",
        held: "list[str]",
        info: "_ClassInfo | None",
        role: str,
    ) -> None:
        for stmt in body:
            self._scan_stmt(stmt, held, info, role)

    def _scan_stmt(
        self,
        stmt: ast.stmt,
        held: "list[str]",
        info: "_ClassInfo | None",
        role: str,
    ) -> None:
        if isinstance(stmt, ast.With):
            acquired = []
            for item in stmt.items:
                dotted = _dotted(item.context_expr)
                if self._is_lock_expr(dotted, info):
                    acquired.append(dotted)
                else:
                    self._scan_expr(item.context_expr, held, info)
            self._scan_body(stmt.body, held + acquired, info, role)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Deferred execution: the closure runs later, with no lock
            # held by *this* frame; it inherits the thread role.
            self._scan_body(stmt.body, [], info, role)
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                for t in self._flatten_targets(target):
                    self._check_mutation(t, stmt, held, info, role)
            value = getattr(stmt, "value", None)
            if value is not None:
                self._scan_expr(value, held, info)
            return
        if isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                self._check_mutation(t, stmt, held, info, role)
            return
        # Generic recursion: check expressions for blocking/mutating
        # calls, and nested statement bodies with the same held set.
        for field in ast.iter_fields(stmt):
            _, value = field
            for child in (
                value if isinstance(value, list) else [value]
            ):
                if isinstance(child, ast.stmt):
                    self._scan_stmt(child, held, info, role)
                elif isinstance(child, ast.expr):
                    self._scan_expr(child, held, info, role)
                elif isinstance(child, ast.excepthandler):
                    self._scan_body(child.body, held, info, role)

    def _flatten_targets(self, target: ast.expr) -> "list[ast.expr]":
        if isinstance(target, (ast.Tuple, ast.List)):
            out: "list[ast.expr]" = []
            for el in target.elts:
                out.extend(self._flatten_targets(el))
            return out
        return [target]

    # -- expression scanning -------------------------------------------

    def _scan_expr(
        self,
        expr: ast.expr,
        held: "list[str]",
        info: "_ClassInfo | None",
        role: str = _DEFAULT_ROLE,
    ) -> None:
        if isinstance(expr, ast.Lambda):
            # Deferred; the body runs later with no lock held by this
            # frame, so scan it with an empty held set and stop — the
            # generic recursion below must not revisit it with `held`.
            self._scan_expr(expr.body, [], info, role)
            return
        if isinstance(expr, ast.Call):
            self._check_call(expr, held, info, role)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, held, info, role)
            elif isinstance(child, (ast.keyword, ast.FormattedValue)):
                self._scan_expr(child.value, held, info, role)
            elif isinstance(child, ast.comprehension):
                self._scan_expr(child.iter, held, info, role)
                for cond in child.ifs:
                    self._scan_expr(cond, held, info, role)

    def _check_call(
        self,
        call: ast.Call,
        held: "list[str]",
        info: "_ClassInfo | None",
        role: str,
    ) -> None:
        # Mutating method on a guarded/owned self attribute.
        if isinstance(call.func, ast.Attribute):
            method = call.func.attr
            if method in _MUTATING_METHODS:
                self._check_mutation(
                    call.func.value, call, held, info, role
                )
        if not held:
            return
        if self.comments.directive(call.lineno) == "allow-blocking":
            return
        reason = self._blocking_reason(call, held)
        if reason:
            self._emit(
                call,
                "blocking-under-lock",
                f"{reason} while holding {' + '.join(held)} (move it "
                f"outside the lock or justify with "
                f"'# lint: allow-blocking')",
            )

    def _blocking_reason(
        self, call: ast.Call, held: "list[str]"
    ) -> "str | None":
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in _BLOCKING_FUNCTIONS:
                return f"blocking call {func.id}()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        method = func.attr
        receiver = _dotted(func.value)
        if method in ("wait", "wait_for"):
            if receiver is not None and receiver in held:
                return None  # waiting on the held condition releases it
            return f"{receiver or '<expr>'}.{method}() (waits on an object that is not the held lock)"
        if method in _ALWAYS_BLOCKING_METHODS:
            if receiver == "time" and method != "sleep":
                return None
            return f"blocking call {receiver or '<expr>'}.{method}()"
        if method in _RECEIVER_BLOCKING_METHODS and receiver is not None:
            if _last_name(receiver) in _SUSPECT_RECEIVERS:
                return (
                    f"transfer call {receiver}.{method}() "
                    f"(backend round-trip)"
                )
        return None

    # -- mutation rule -------------------------------------------------

    def _check_mutation(
        self,
        target: ast.expr,
        stmt: ast.AST,
        held: "list[str]",
        info: "_ClassInfo | None",
        role: str,
    ) -> None:
        if info is None:
            return
        attr = _self_attr(target)
        if attr is None:
            return
        lock = info.guards.get(attr)
        if lock is not None and f"self.{lock}" not in held:
            self._emit(
                stmt,
                "guarded-mutation",
                f"self.{attr} is guarded-by {lock}, but is mutated "
                f"without holding self.{lock}"
                + (f" (held: {held})" if held else ""),
            )
        owner = info.owners.get(attr)
        if owner is not None and owner != role:
            self._emit(
                stmt,
                "owned-by-role",
                f"self.{attr} is owned-by the {owner!r} thread role, "
                f"but is mutated from a method running on {role!r} "
                f"(annotate the method '# runs-on: {owner}' if it "
                f"really runs there)",
            )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def check_source(source: str, path: str = "<string>") -> "list[Finding]":
    """Lint one source string; returns findings sorted by line."""
    findings = _FileChecker(path, source).run()
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def check_file(path: "str | Path") -> "list[Finding]":
    path = Path(path)
    return check_source(path.read_text(), str(path))


def check_paths(paths) -> "list[Finding]":
    findings: "list[Finding]" = []
    for path in paths:
        findings.extend(check_file(path))
    return findings


def default_targets() -> "list[Path]":
    """The annotated concurrency modules, resolved relative to the
    installed package (so the CLI works from any working directory)."""
    import repro

    root = Path(repro.__file__).parent
    return [
        root / "graph" / "storage.py",
        root / "distributed" / "lock_server.py",
        root / "distributed" / "partition_server.py",
        root / "distributed" / "cluster.py",
        root / "core" / "trainer.py",
        root / "telemetry" / "tracer.py",
        root / "telemetry" / "metrics.py",
        root / "telemetry" / "diff.py",
        root / "telemetry" / "exposition.py",
        root / "serving" / "snapshot.py",
        root / "serving" / "server.py",
        root / "serving" / "shards.py",
    ]
