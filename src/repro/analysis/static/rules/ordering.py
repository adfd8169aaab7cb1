"""ORD — iteration order must be deterministic.

Two classes of silent reproducibility breakage:

* **Set iteration** — ``for x in some_set`` (or a comprehension over
  one) visits elements in hash-table order, which depends on the exact
  insertion/deletion history and, for strings, on ``PYTHONHASHSEED``.
  If anything order-sensitive (event scheduling, probability draws,
  report rows) happens inside the loop, two runs of the same seed can
  diverge.  Order-insensitive reductions (``len``/``sum``/``min``/
  ``max``/membership) are fine and not flagged; iteration must go
  through ``sorted(...)``.
* **Filesystem listings** — ``os.listdir``, ``glob``, ``Path.glob`` /
  ``rglob`` / ``iterdir`` and ``os.scandir`` return entries in
  filesystem order, which differs across machines and runs.  Iterating
  them unsorted makes cache scans and sweep discovery
  platform-dependent.

Dict iteration is deliberately *not* flagged: Python dicts are
insertion-ordered, so a dict filled deterministically iterates
deterministically (see docs/STATIC_ANALYSIS.md).

Set-typedness is established within the file: set literals, ``set()`` /
``frozenset()`` calls, set comprehensions, and names or ``self.``
attributes annotated or assigned as sets anywhere in the module.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.analysis.static.core import Finding, Rule, Severity, SourceFile, register

__all__ = ["OrderingRule"]


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None when the chain has non-names.

    Only resolves pure Name/Attribute chains — ``obj().x`` or
    ``d["k"].x`` return None, which every caller treats as "unknown,
    don't flag" (the rule prefers false negatives over noise).
    """
    parts: list = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_name_call(node: ast.AST, name: str) -> bool:
    """True when ``node`` is a call to the bare name ``name``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


_LISTING_BARE = frozenset(
    {("os", "listdir"), ("os", "scandir"), ("glob", "glob"), ("glob", "iglob")}
)
_LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Is this expression statically known to be a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.Attribute):
        chain = _attr_chain(node)
        if chain is not None and len(chain) == 2 and chain[0] == "self":
            return f"self.{chain[1]}" in set_names
    return False


def _annotation_is_set(annotation: ast.AST) -> bool:
    """``set[...]`` / ``Set[...]`` / ``frozenset[...]`` annotations."""
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet", "AbstractSet")
    return False


def _collect_set_names(tree: ast.Module) -> Set[str]:
    """Names/attributes assigned or annotated as sets anywhere in the file."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        target = None
        if isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
            target = node.target
        elif isinstance(node, ast.Assign) and _is_set_expr(node.value, set()):
            if len(node.targets) == 1:
                target = node.targets[0]
        if target is None:
            continue
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            chain = _attr_chain(target)
            if chain is not None and len(chain) == 2 and chain[0] == "self":
                names.add(f"self.{chain[1]}")
    return names


def _is_listing_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = _attr_chain(node.func)
    if chain is None:
        # e.g. Path('.').iterdir() — the receiver is itself a call, so no
        # pure name chain exists; the method name alone is distinctive.
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _LISTING_METHODS
        )
    if len(chain) >= 2 and chain[-2:] in _LISTING_BARE:
        return True
    return len(chain) >= 2 and chain[-1] in _LISTING_METHODS


@register
class OrderingRule(Rule):
    """No iteration over sets or unsorted filesystem listings."""

    name = "ORD"
    severity = Severity.ERROR
    description = (
        "no for-loops/comprehensions over sets or unsorted "
        "os.listdir/glob/iterdir results; wrap in sorted(...)"
    )
    packages = ("sim", "net", "aqm", "tcp", "core", "harness", "traffic", "metrics")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        set_names = _collect_set_names(source.tree)
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iter(source, node.iter, set_names)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iter(source, generator.iter, set_names)
            elif isinstance(node, ast.Call):
                yield from self._check_set_pop(source, node, set_names)

    def _check_iter(
        self, source: SourceFile, iter_node: ast.AST, set_names: Set[str]
    ) -> Iterator[Finding]:
        if _is_name_call(iter_node, "sorted"):
            return
        if _is_set_expr(iter_node, set_names):
            yield self.finding(
                source,
                iter_node,
                "iteration over a set visits elements in hash order; wrap "
                "in sorted(...) (order-insensitive reductions like len/min/"
                "max/membership are fine without iteration)",
            )
        elif _is_listing_call(iter_node):
            chain = _attr_chain(iter_node.func)
            name = ".".join(chain) if chain else "listing"
            yield self.finding(
                source,
                iter_node,
                f"{name}() yields entries in filesystem order, which varies "
                "across hosts/runs; wrap the call in sorted(...)",
            )

    def _check_set_pop(
        self, source: SourceFile, node: ast.Call, set_names: Set[str]
    ) -> Iterator[Finding]:
        """``known_set.pop()`` removes an arbitrary (hash-order) element."""
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "pop"
            and not node.args
            and _is_set_expr(func.value, set_names)
        ):
            yield self.finding(
                source,
                node,
                "set.pop() removes an arbitrary element (hash order); "
                "compute the element deterministically (e.g. min/max) and "
                "use .remove()",
            )
