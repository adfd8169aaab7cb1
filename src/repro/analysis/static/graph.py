"""Pass 1 of the two-pass analyzer: project symbol table and call graph.

The original seven lint rules see one file and one expression at a time,
so a wall-clock value or a unit mixup that crosses a function boundary
before reaching ``schedule()`` or a probability write is invisible to
them.  This module builds the project-wide picture the interprocedural
rules (``TAINT``, ``UNIT``) run over:

* :class:`ModuleInfo` — one module's import table, top-level functions
  and classes;
* :class:`FunctionInfo` — one function/method: parameters, annotation
  strings, decorators and the resolved call sites inside its body;
* :class:`ClassInfo` — one class: bases, methods, attribute annotations
  and the inferred classes of ``self.<attr>`` instances, with linearised
  method resolution over the known hierarchy (``Simulator``, ``AQM``,
  ``Link``, …);
* :class:`ProjectIndex` — the whole project: qualified-name lookup,
  call-site resolution (bare names, import aliases, ``self.`` methods,
  annotated-parameter receivers, ``self.<attr>.<method>`` through
  inferred attribute classes), the caller→callee call graph and its
  reverse, and the file-level dependency closure the incremental runner
  uses to decide which files a change can affect.

Resolution is deliberately *best-effort and sound-for-silence*: a call
the index cannot resolve statically maps to ``None`` and the rules treat
it as "unknown, don't flag" — the same convention the per-file rules
follow.  Cycles (mutually recursive calls, or even cyclic class bases in
broken input) terminate: every recursive walk carries a visited set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.static.core import SourceFile
from repro.analysis.static.rules.common import attr_chain

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectIndex",
    "module_name_for",
]


def module_name_for(source: SourceFile) -> str:
    """Dotted module name for a file (``repro.aqm.pi``).

    Inferred from the last ``repro`` path component, mirroring
    :meth:`SourceFile._infer_package`; files outside any ``repro`` tree
    (single-file fixtures) use their stem so they still index cleanly.
    """
    parts = source.path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            tail = [p for p in parts[index + 1:]]
            if not tail:
                return "repro"
            tail[-1] = tail[-1][:-3] if tail[-1].endswith(".py") else tail[-1]
            if tail[-1] == "__init__":
                tail = tail[:-1]
            return ".".join(["repro"] + tail)
    stem = source.path.stem
    return stem if stem != "__init__" else source.path.parent.name


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: Resolved callee qualname (``repro.aqm.pi.PIController.update``) or
    #: None when the target is dynamic/unknown.
    callee: Optional[str]


class FunctionInfo:
    """One function or method and what pass-2 rules need to know about it."""

    def __init__(
        self,
        qualname: str,
        module: str,
        node: ast.AST,
        source: SourceFile,
        class_name: Optional[str] = None,
    ):
        self.qualname = qualname
        self.module = module
        self.node = node
        self.source = source
        self.class_name = class_name
        args = node.args
        self.params: List[str] = [a.arg for a in args.posonlyargs + args.args]
        self.kwonly: List[str] = [a.arg for a in args.kwonlyargs]
        self.param_annotations: Dict[str, str] = {}
        for a in args.posonlyargs + args.args + args.kwonlyargs:
            name = _annotation_name(a.annotation)
            if name is not None:
                self.param_annotations[a.arg] = name
        self.return_annotation: Optional[str] = _annotation_name(node.returns)
        self.decorators: List[str] = [
            name for name in (_decorator_name(d) for d in node.decorator_list)
            if name is not None
        ]
        self.is_method = class_name is not None
        self.is_property = "property" in self.decorators or any(
            d.endswith(".setter") or d.endswith(".getter") for d in self.decorators
        )
        self.is_static = "staticmethod" in self.decorators
        #: Filled by :meth:`ProjectIndex._resolve_calls` (pass 1b).
        self.calls: List[CallSite] = []

    def positional_param(self, index: int) -> Optional[str]:
        """Name of positional parameter ``index`` as a *caller* counts them
        (``self``/``cls`` excluded for bound methods)."""
        params = self.params
        if self.is_method and not self.is_static and params:
            params = params[1:]
        return params[index] if 0 <= index < len(params) else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.qualname} calls={len(self.calls)}>"


class ClassInfo:
    """One class: bases, methods and attribute typing/annotation facts."""

    def __init__(self, qualname: str, module: str, node: ast.ClassDef,
                 source: SourceFile):
        self.qualname = qualname
        self.name = node.name
        self.module = module
        self.node = node
        self.source = source
        #: Raw base expressions as dotted strings (unresolved).
        self.bases: List[str] = [
            ".".join(chain) for chain in
            (attr_chain(b) for b in node.bases) if chain is not None
        ]
        self.methods: Dict[str, FunctionInfo] = {}
        #: ``attr name -> annotation name`` from class-body/``__init__``
        #: ``AnnAssign`` statements (``self.x: Seconds = ...``).
        self.attr_annotations: Dict[str, str] = {}
        #: ``attr name -> class qualname`` inferred from ``self.x = Ctor(...)``
        #: in ``__init__`` — filled by :meth:`ProjectIndex._infer_attr_classes`.
        self.attr_classes: Dict[str, str] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ClassInfo {self.qualname} bases={self.bases}>"


class ModuleInfo:
    """One module: imports, top-level functions, classes."""

    def __init__(self, name: str, source: SourceFile):
        self.name = name
        self.source = source
        #: local alias -> dotted target ("eng" -> "repro.sim.engine",
        #: "clamp_unit" -> "repro.aqm.base.clamp_unit").
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Module-level ``NAME: Unit = ...`` annotations.
        self.constant_annotations: Dict[str, str] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ModuleInfo {self.name}>"


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Flat name of an annotation expression (``Seconds``, ``"Simulator"``).

    Strips ``Optional[X]`` / quoted forward references down to the bare
    name; anything more structured returns None ("unknown").
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        base = _annotation_name(node.value)
        if base in ("Optional",):
            return _annotation_name(node.slice)
        return base
    return None


def _decorator_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        node = node.func
    chain = attr_chain(node)
    return ".".join(chain) if chain else None


class ProjectIndex:
    """Symbol table + call graph over a set of :class:`SourceFile`\\ s."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname -> set of resolved callee qualnames.
        self.call_graph: Dict[str, Set[str]] = {}
        #: callee qualname -> set of caller qualnames.
        self.reverse_call_graph: Dict[str, Set[str]] = {}
        #: module -> modules it imports or calls into.
        self.module_deps: Dict[str, Set[str]] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def build(cls, sources: Iterable[SourceFile]) -> "ProjectIndex":
        """Two sub-passes: collect defs/imports, then resolve call sites."""
        index = cls()
        ordered = [s for s in sources if s.tree is not None]
        for source in ordered:
            index._collect_module(source)
        for module in index.modules.values():
            index._infer_attr_classes(module)
        for module in index.modules.values():
            index._resolve_calls(module)
        return index

    def _collect_module(self, source: SourceFile) -> None:
        module = ModuleInfo(module_name_for(source), source)
        # Last writer wins on duplicate module names (fixture trees); the
        # real tree has unique names.
        self.modules[module.name] = module
        for stmt in source.tree.body:
            self._collect_stmt(module, stmt)

    def _collect_stmt(self, module: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.imports[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = self._import_base(module, stmt)
            if base is not None:
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                f"{module.name}.{stmt.name}", module.name, stmt, module.source
            )
            module.functions[stmt.name] = info
            self.functions[info.qualname] = info
        elif isinstance(stmt, ast.ClassDef):
            self._collect_class(module, stmt)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = _annotation_name(stmt.annotation)
            if name is not None:
                module.constant_annotations[stmt.target.id] = name
        elif isinstance(stmt, (ast.If, ast.Try)):
            # TYPE_CHECKING guards and optional-import try blocks still
            # contribute imports/defs.
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._collect_stmt(module, sub)

    @staticmethod
    def _import_base(module: ModuleInfo, stmt: ast.ImportFrom) -> Optional[str]:
        if stmt.level == 0:
            return stmt.module
        # Relative import: resolve against the importing module's package.
        parts = module.name.split(".")
        if stmt.level > len(parts):
            return None
        base_parts = parts[: len(parts) - stmt.level]
        if stmt.module:
            base_parts.append(stmt.module)
        return ".".join(base_parts) if base_parts else None

    def _collect_class(self, module: ModuleInfo, stmt: ast.ClassDef) -> None:
        info = ClassInfo(
            f"{module.name}.{stmt.name}", module.name, stmt, module.source
        )
        module.classes[stmt.name] = info
        self.classes[info.qualname] = info
        for item in stmt.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = FunctionInfo(
                    f"{info.qualname}.{item.name}",
                    module.name,
                    item,
                    module.source,
                    class_name=stmt.name,
                )
                info.methods[item.name] = method
                self.functions[method.qualname] = method
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                name = _annotation_name(item.annotation)
                if name is not None:
                    info.attr_annotations[item.target.id] = name
        # ``self.x: Unit = ...`` / ``self.x = <param>`` facts from __init__.
        init = info.methods.get("__init__")
        if init is not None:
            for node in ast.walk(init.node):
                if isinstance(node, ast.AnnAssign):
                    chain = attr_chain(node.target)
                    if chain and len(chain) == 2 and chain[0] == "self":
                        name = _annotation_name(node.annotation)
                        if name is not None:
                            info.attr_annotations.setdefault(chain[1], name)
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    chain = attr_chain(node.targets[0])
                    if (
                        chain
                        and len(chain) == 2
                        and chain[0] == "self"
                        and isinstance(node.value, ast.Name)
                    ):
                        # self.x = <param annotated with a unit>
                        annot = init.param_annotations.get(node.value.id)
                        if annot is not None:
                            info.attr_annotations.setdefault(chain[1], annot)

    def _infer_attr_classes(self, module: ModuleInfo) -> None:
        """``self.x = Ctor(...)`` in ``__init__`` types ``self.x`` as Ctor."""
        for cls in module.classes.values():
            init = cls.methods.get("__init__")
            if init is None:
                continue
            for node in ast.walk(init.node):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                chain = attr_chain(node.targets[0])
                if not (chain and len(chain) == 2 and chain[0] == "self"):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                target = self._resolve_chain(module, attr_chain(node.value.func))
                if target is not None and target in self.classes:
                    cls.attr_classes.setdefault(chain[1], target)

    # -- resolution --------------------------------------------------------
    def _resolve_chain(
        self, module: ModuleInfo, chain: Optional[Tuple[str, ...]]
    ) -> Optional[str]:
        """Resolve a dotted name in module scope to a known qualname."""
        if not chain:
            return None
        head, rest = chain[0], chain[1:]
        candidates = []
        if head in module.imports:
            candidates.append(".".join((module.imports[head],) + rest))
        if head in module.functions or head in module.classes:
            candidates.append(".".join((f"{module.name}.{head}",) + rest))
        candidates.append(".".join(chain))  # already fully qualified?
        for candidate in candidates:
            resolved = self._lookup(candidate)
            if resolved is not None:
                return resolved
        return None

    def _lookup(self, qualname: str) -> Optional[str]:
        """Exact qualname lookup, following one re-export hop."""
        if qualname in self.functions or qualname in self.classes:
            return qualname
        # ``from repro.aqm.pi import PIController`` re-exported through a
        # package __init__: "repro.aqm.PIController" -> follow the
        # package module's own import table once.
        head, _, tail = qualname.rpartition(".")
        package = self.modules.get(head)
        if package is not None and tail in package.imports:
            target = package.imports[tail]
            if target != qualname and (
                target in self.functions or target in self.classes
            ):
                return target
        return None

    def resolve_method(self, class_qualname: str, method: str) -> Optional[str]:
        """Find ``method`` on a class or its bases (left-to-right, DFS)."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method].qualname
            module = self.modules.get(cls.module)
            for base in cls.bases:
                resolved = (
                    self._resolve_chain(module, tuple(base.split(".")))
                    if module is not None
                    else None
                )
                if resolved is not None:
                    stack.append(resolved)
        return None

    def mro(self, class_qualname: str) -> List[str]:
        """Known ancestors of a class (itself first; cycle-safe)."""
        out: List[str] = []
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            out.append(current)
            module = self.modules.get(cls.module)
            for base in cls.bases:
                resolved = (
                    self._resolve_chain(module, tuple(base.split(".")))
                    if module is not None
                    else None
                )
                if resolved is not None:
                    stack.append(resolved)
        return out

    def attr_annotation(self, class_qualname: str, attr: str) -> Optional[str]:
        """Annotation recorded for ``self.<attr>`` anywhere in the MRO."""
        for ancestor in self.mro(class_qualname):
            cls = self.classes[ancestor]
            if attr in cls.attr_annotations:
                return cls.attr_annotations[attr]
        return None

    def attr_class(self, class_qualname: str, attr: str) -> Optional[str]:
        """Inferred class of ``self.<attr>`` anywhere in the MRO."""
        for ancestor in self.mro(class_qualname):
            cls = self.classes[ancestor]
            if attr in cls.attr_classes:
                return cls.attr_classes[attr]
        return None

    def _resolve_calls(self, module: ModuleInfo) -> None:
        for func in list(module.functions.values()):
            self._resolve_function_calls(module, func, enclosing_class=None)
        for cls in module.classes.values():
            for method in cls.methods.values():
                self._resolve_function_calls(module, method, enclosing_class=cls)

    def _resolve_function_calls(
        self,
        module: ModuleInfo,
        func: FunctionInfo,
        enclosing_class: Optional[ClassInfo],
    ) -> None:
        # Local variable -> class qualname, from ``x = Ctor(...)`` and
        # from class-annotated parameters (``def f(sim: Simulator)``).
        local_classes: Dict[str, str] = {}
        for param, annot in func.param_annotations.items():
            resolved = self._resolve_chain(module, (annot,))
            if resolved is not None and resolved in self.classes:
                local_classes[param] = resolved
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and isinstance(
                    node.value, ast.Call
                ):
                    resolved = self._resolve_chain(
                        module, attr_chain(node.value.func)
                    )
                    if resolved is not None and resolved in self.classes:
                        local_classes[target.id] = resolved
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                callee = self._resolve_call(
                    module, func, enclosing_class, local_classes, node
                )
                func.calls.append(CallSite(node=node, callee=callee))
                if callee is not None:
                    self.call_graph.setdefault(func.qualname, set()).add(callee)
                    self.reverse_call_graph.setdefault(callee, set()).add(
                        func.qualname
                    )
                    callee_info = self.functions.get(callee) or self.classes.get(
                        callee
                    )
                    if callee_info is not None:
                        self.module_deps.setdefault(module.name, set()).add(
                            callee_info.module
                        )
        # Imports are dependencies even without a resolved call.
        deps = self.module_deps.setdefault(module.name, set())
        for target in module.imports.values():
            dep = target
            while dep:
                if dep in self.modules:
                    deps.add(dep)
                    break
                dep, _, _ = dep.rpartition(".")

    def _resolve_call(
        self,
        module: ModuleInfo,
        func: FunctionInfo,
        enclosing_class: Optional[ClassInfo],
        local_classes: Dict[str, str],
        node: ast.Call,
    ) -> Optional[str]:
        chain = attr_chain(node.func)
        if chain is None:
            # ``Ctor(...).method(...)`` — resolve through the ctor's class.
            if isinstance(node.func, ast.Attribute) and isinstance(
                node.func.value, ast.Call
            ):
                inner = self._resolve_chain(
                    module, attr_chain(node.func.value.func)
                )
                if inner is not None and inner in self.classes:
                    return self.resolve_method(inner, node.func.attr)
            return None
        if len(chain) == 1:
            resolved = self._resolve_chain(module, chain)
            if resolved in self.classes:
                # A constructor call: resolve to __init__ when known.
                init = self.resolve_method(resolved, "__init__")
                return init or resolved
            return resolved
        head = chain[0]
        receiver_class: Optional[str] = None
        if head == "self" and enclosing_class is not None:
            if len(chain) == 2:
                return self.resolve_method(enclosing_class.qualname, chain[1])
            # self.<attr>.<method>: type the attribute, then resolve.
            attr_cls = self.attr_class(enclosing_class.qualname, chain[1])
            if attr_cls is not None and len(chain) == 3:
                return self.resolve_method(attr_cls, chain[2])
            return None
        if head in local_classes:
            receiver_class = local_classes[head]
        if receiver_class is not None and len(chain) == 2:
            return self.resolve_method(receiver_class, chain[1])
        return self._resolve_chain(module, chain)

    # -- file-level dependency view ---------------------------------------
    def file_of_module(self, module: str) -> Optional[str]:
        info = self.modules.get(module)
        return info.source.display_path if info is not None else None

    def dependents_of(self, display_paths: Iterable[str]) -> Set[str]:
        """Transitive closure of files whose analysis a change can affect.

        ``A`` depends on ``B`` when ``A`` imports ``B`` or calls into it;
        the closure of *reverse* dependencies of the changed files is
        exactly the set whose TAINT/UNIT findings can change (their
        callee summaries or annotations may differ).  The changed files
        themselves are included.
        """
        path_to_module = {
            info.source.display_path: name for name, info in self.modules.items()
        }
        reverse: Dict[str, Set[str]] = {}
        for mod, deps in self.module_deps.items():
            for dep in deps:
                reverse.setdefault(dep, set()).add(mod)
        dirty_modules: Set[str] = set()
        queue = [
            path_to_module[p] for p in display_paths if p in path_to_module
        ]
        while queue:
            mod = queue.pop()
            if mod in dirty_modules:
                continue
            dirty_modules.add(mod)
            queue.extend(reverse.get(mod, ()))
        out = set(display_paths)
        for mod in dirty_modules:
            path = self.file_of_module(mod)
            if path is not None:
                out.add(path)
        return out

    def functions_in(self, display_path: str) -> List[FunctionInfo]:
        """Every indexed function whose body lives in ``display_path``."""
        return [
            info
            for info in self.functions.values()
            if info.source.display_path == display_path
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ProjectIndex modules={len(self.modules)} "
            f"functions={len(self.functions)} classes={len(self.classes)}>"
        )
