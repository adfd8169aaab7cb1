"""UNIT — annotation-driven dimensional analysis over the project index.

PI2's parameters carry units: the α/β gains are frequencies in 1/s
(Briscoe, "PI² Parameters"), the target delay τ₀ and the update interval
T are seconds, link capacities are bit/s, backlogs are packets/bytes and
the controller output is a dimensionless probability.  A
milliseconds-vs-seconds or packets-vs-bytes mixup produces a simulation
that *runs* — just quietly wrong by orders of magnitude.

Signatures across ``sim/``/``aqm/``/``net/``/``core/`` are annotated with
the transparent aliases from :mod:`repro.units` (``Seconds``,
``PerSecond``, ``Packets``, ``Bytes``, ``Bits``, ``BitsPerSecond``,
``Probability``).  This rule reads those annotations out of the
:class:`~repro.analysis.static.graph.ProjectIndex` — parameter and return
annotations, ``self.<attr>`` annotations resolved through the class MRO,
module-level constants resolved through imports — and checks, per
function:

* **cross-unit arithmetic** — ``+``/``-``/comparisons where both operand
  dimensions are known and differ (``Seconds + Packets``); ``*``/``/``
  compose dimension vectors, so ``Packets / PerSecond`` is fine and has
  dimension packets·s;
* **unit-less literals into unit-annotated parameters** — a bare numeric
  literal passed (positionally or by keyword) to a parameter annotated
  with a *dimensioned* unit must be wrapped at the call site
  (``Seconds(0.02)``), making the unit visible where the number is
  written;
* **cross-unit arguments** — an expression with known dimension passed
  to a parameter annotated with a different dimension.

``Probability`` is dimensionless, so literal probabilities (``0.25``)
stay silent — the PROB rule already polices their range.  Anything the
analysis cannot resolve has *unknown* dimension and is silent: the rule
errs toward missing a mixup rather than flagging correct code.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.static.core import (
    Finding,
    ProjectRule,
    Severity,
    register,
)
from repro.analysis.static.rules.common import attr_chain

__all__ = ["UnitRule", "UNIT_DIMS", "dim_name"]

#: Dimension vector for each alias in :mod:`repro.units`: base unit ->
#: integer exponent.  ``Probability`` is dimensionless but *tracked* so
#: Probability-vs-Seconds mixing is still caught.
UNIT_DIMS: Dict[str, Dict[str, int]] = {
    "Seconds": {"s": 1},
    "PerSecond": {"s": -1},
    "Packets": {"pkt": 1},
    "Bytes": {"byte": 1},
    "Bits": {"bit": 1},
    "BitsPerSecond": {"bit": 1, "s": -1},
    "Probability": {},
}

_Dim = FrozenSet[Tuple[str, int]]


def _dim(annotation: Optional[str]) -> Optional[_Dim]:
    """Dimension vector for an annotation name; None when unit-less."""
    if annotation is None or annotation not in UNIT_DIMS:
        return None
    return frozenset(UNIT_DIMS[annotation].items())


def dim_name(dim: _Dim) -> str:
    """Human rendering of a dimension vector (``s``, ``pkt·s⁻¹``, ``1``)."""
    for alias, vector in UNIT_DIMS.items():
        if frozenset(vector.items()) == dim:
            return alias
    if not dim:
        return "dimensionless"
    parts = []
    for unit, power in sorted(dim):
        parts.append(unit if power == 1 else f"{unit}^{power}")
    return "*".join(parts)


def _compose(a: _Dim, b: _Dim, sign: int) -> _Dim:
    out = dict(a)
    for unit, power in b:
        out[unit] = out.get(unit, 0) + sign * power
    return frozenset((u, p) for u, p in out.items() if p != 0)


def _is_numeric_literal(node: ast.AST) -> bool:
    """A bare numeric constant (possibly negated), excluding bool."""
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _is_zero_literal(node: ast.AST) -> bool:
    """Zero is unit-safe: 0 s == 0 of anything, so it needs no wrapping."""
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and node.value == 0


class _FunctionUnits:
    """Dimension check over one function body."""

    def __init__(self, rule: "UnitRule", index, info) -> None:
        self.rule = rule
        self.index = index
        self.info = info
        self.module = index.modules.get(info.module)
        self.findings: List[Finding] = []
        #: local/attr name -> dimension vector.
        self.env: Dict[str, _Dim] = {}
        self.call_map = {id(cs.node): cs.callee for cs in info.calls}
        for param, annot in info.param_annotations.items():
            dim = _dim(annot)
            if dim is not None:
                self.env[param] = dim

    def run(self) -> List[Finding]:
        self._walk(self.info.node.body)
        self._check_annotated_defaults()
        return self.findings

    def _report(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.finding(self.info.source, node, message))

    # -- environment -------------------------------------------------------
    def _name_dim(self, key: str) -> Optional[_Dim]:
        if key in self.env:
            return self.env[key]
        # Module constants, resolved through imports.
        if self.module is not None:
            annot = self.module.constant_annotations.get(key)
            if annot is not None:
                return _dim(annot)
            target = self.module.imports.get(key)
            if target is not None:
                mod_name, _, const = target.rpartition(".")
                mod = self.index.modules.get(mod_name)
                if mod is not None:
                    return _dim(mod.constant_annotations.get(const))
        return None

    def _attr_dim(self, chain: Tuple[str, ...]) -> Optional[_Dim]:
        if len(chain) == 2 and chain[0] == "self" and self.info.class_name:
            key = f"self.{chain[1]}"
            if key in self.env:
                return self.env[key]
            class_qual = f"{self.info.module}.{self.info.class_name}"
            return _dim(self.index.attr_annotation(class_qual, chain[1]))
        return None

    # -- statements --------------------------------------------------------
    def _walk(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            dim = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, dim)
        elif isinstance(stmt, ast.AnnAssign):
            declared = _dim(self._annotation_name(stmt.annotation))
            if stmt.value is not None:
                actual = self._eval(stmt.value)
                if (
                    declared is not None
                    and actual is not None
                    and declared != actual
                ):
                    self._report(
                        stmt,
                        f"assigning {dim_name(actual)} value to a "
                        f"{dim_name(declared)}-annotated target",
                    )
            self._bind(stmt.target, declared)
        elif isinstance(stmt, ast.AugAssign):
            left = self._target_dim(stmt.target)
            right = self._eval(stmt.value)
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                self._check_additive(stmt, left, right, "augmented assignment")
            elif isinstance(stmt.op, (ast.Mult, ast.Div)) and left is not None:
                if right is not None:
                    sign = 1 if isinstance(stmt.op, ast.Mult) else -1
                    self._bind(stmt.target, _compose(left, right, sign))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                actual = self._eval(stmt.value)
                declared = _dim(self.info.return_annotation)
                if (
                    declared is not None
                    and actual is not None
                    and declared != actual
                ):
                    self._report(
                        stmt,
                        f"returning {dim_name(actual)} from a function "
                        f"annotated -> {dim_name(declared)}",
                    )
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
            self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)

    @staticmethod
    def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
        from repro.analysis.static.graph import _annotation_name

        return _annotation_name(node)

    def _target_key(self, target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        chain = attr_chain(target)
        if chain is not None and len(chain) == 2 and chain[0] == "self":
            return f"self.{chain[1]}"
        return None

    def _target_dim(self, target: ast.AST) -> Optional[_Dim]:
        if isinstance(target, ast.Name):
            return self._name_dim(target.id)
        chain = attr_chain(target)
        if chain is not None:
            return self._attr_dim(chain)
        return None

    def _bind(self, target: ast.AST, dim: Optional[_Dim]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            return  # unpacking: dimensions unknown per-element
        key = self._target_key(target)
        if key is None:
            return
        if dim is not None:
            self.env[key] = dim
        else:
            self.env.pop(key, None)

    # -- expressions -------------------------------------------------------
    def _eval(self, node: ast.AST) -> Optional[_Dim]:
        if isinstance(node, ast.Name):
            return self._name_dim(node.id)
        if isinstance(node, ast.Attribute):
            chain = attr_chain(node)
            if chain is not None:
                dim = self._attr_dim(chain)
                if dim is not None:
                    return dim
            self._eval(node.value)
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                self._check_additive(node, left, right, "arithmetic")
                return left if left is not None else right
            if isinstance(node.op, ast.Mult):
                if left is not None and right is not None:
                    return _compose(left, right, 1)
                return None
            if isinstance(node.op, (ast.Div, ast.FloorDiv)):
                if left is not None and right is not None:
                    return _compose(left, right, -1)
                return None
            if isinstance(node.op, ast.Mod):
                return left
            return None
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            left = self._eval(node.left)
            for comparator in node.comparators:
                right = self._eval(comparator)
                if (
                    left is not None
                    and right is not None
                    and left != right
                ):
                    self._report(
                        node,
                        f"comparing {dim_name(left)} against "
                        f"{dim_name(right)}",
                    )
                left = right
            return None
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            body = self._eval(node.body)
            orelse = self._eval(node.orelse)
            return body if body is not None else orelse
        if isinstance(node, ast.BoolOp):
            out: Optional[_Dim] = None
            for value in node.values:
                dim = self._eval(value)
                if out is None:
                    out = dim
            return out
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self._eval(elt)
            return None
        if isinstance(node, ast.Subscript):
            self._eval(node.value)
            return None
        return None

    def _check_additive(
        self,
        node: ast.AST,
        left: Optional[_Dim],
        right: Optional[_Dim],
        context: str,
    ) -> None:
        if left is not None and right is not None and left != right:
            self._report(
                node,
                f"{context} mixes {dim_name(left)} with {dim_name(right)}; "
                "convert explicitly so the unit change is visible",
            )

    def _eval_call(self, node: ast.Call) -> Optional[_Dim]:
        # Alias constructor: Seconds(x) declares x's unit.
        if isinstance(node.func, ast.Name) and node.func.id in UNIT_DIMS:
            for arg in node.args:
                self._eval(arg)
            return _dim(node.func.id)

        arg_dims = [self._eval(arg) for arg in node.args]
        kw_dims = {
            kw.arg: self._eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)

        callee = self.call_map.get(id(node))
        callee_info = (
            self.index.functions.get(callee) if callee is not None else None
        )
        if callee_info is not None:
            self._check_args(node, callee_info, arg_dims, kw_dims)
            return _dim(callee_info.return_annotation)

        # min/max/abs/round preserve the (common) dimension of their args.
        if isinstance(node.func, ast.Name) and node.func.id in (
            "abs", "min", "max", "round"
        ):
            known = [d for d in arg_dims if d is not None]
            if known and all(d == known[0] for d in known):
                return known[0]
        return None

    def _check_args(
        self,
        node: ast.Call,
        callee,
        arg_dims: List[Optional[_Dim]],
        kw_dims: Dict[str, Optional[_Dim]],
    ) -> None:
        short = callee.qualname.rsplit(".", 1)[-1]
        if callee.is_method and "." in callee.qualname:
            short = ".".join(callee.qualname.rsplit(".", 2)[-2:])

        def check_one(arg_node: ast.AST, param: str,
                      actual: Optional[_Dim]) -> None:
            annot = callee.param_annotations.get(param)
            expected = _dim(annot)
            if expected is None:
                return
            if actual is None:
                # Bare literal into a *dimensioned* parameter: the unit
                # must be visible at the call site.  Probability is
                # dimensionless (literal probabilities stay PROB's beat)
                # and zero is unit-safe.
                if (
                    _is_numeric_literal(arg_node)
                    and expected
                    and not _is_zero_literal(arg_node)
                ):
                    self._report(
                        arg_node,
                        f"unit-less literal flows into {annot}-annotated "
                        f"parameter {param!r} of {short}(); wrap it as "
                        f"{annot}(...) so the unit is explicit",
                    )
                return
            if actual != expected:
                self._report(
                    arg_node,
                    f"{dim_name(actual)} value passed to {annot}-annotated "
                    f"parameter {param!r} of {short}()",
                )

        for i, (arg, actual) in enumerate(zip(node.args, arg_dims)):
            if isinstance(arg, ast.Starred):
                continue
            param = callee.positional_param(i)
            if param is not None:
                check_one(arg, param, actual)
        for kw in node.keywords:
            if kw.arg is not None and (
                kw.arg in callee.param_annotations
            ):
                check_one(kw.value, kw.arg, kw_dims.get(kw.arg))

    def _check_annotated_defaults(self) -> None:
        """Unit-annotated parameters should not default to bare literals."""
        args = self.info.node.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(
            positional[len(positional) - len(args.defaults):], args.defaults
        ):
            self._check_default(arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self._check_default(arg, default)

    def _check_default(self, arg: ast.arg, default: ast.AST) -> None:
        annot = self.info.param_annotations.get(arg.arg)
        expected = _dim(annot)
        if expected is None or not expected:
            return  # unannotated or dimensionless (Probability): silent
        if _is_numeric_literal(default):
            if _is_zero_literal(default):
                return
            self._report(
                default,
                f"unit-less literal default for {annot}-annotated "
                f"parameter {arg.arg!r}; wrap it as {annot}(...)",
            )
        elif isinstance(default, ast.Call) and isinstance(
            default.func, ast.Name
        ) and default.func.id in UNIT_DIMS:
            actual = _dim(default.func.id)
            if actual is not None and actual != expected:
                self._report(
                    default,
                    f"{default.func.id} default for {annot}-annotated "
                    f"parameter {arg.arg!r}",
                )


@register
class UnitRule(ProjectRule):
    """Dimensional analysis: units must not mix silently."""

    name = "UNIT"
    severity = Severity.ERROR
    description = (
        "unit-annotated quantities (Seconds, PerSecond, Packets, Bits, "
        "BitsPerSecond, Probability) must not mix dimensions in +/-/"
        "comparisons, and bare literals must be wrapped before flowing "
        "into unit-annotated parameters"
    )
    packages = ("sim", "net", "aqm", "tcp", "core", "harness", "traffic")

    def check_project(
        self, index, files: Optional[frozenset] = None
    ) -> Iterator[Finding]:
        for qualname in sorted(index.functions):
            info = index.functions[qualname]
            path = info.source.display_path
            if files is not None and path not in files:
                continue
            yield from _FunctionUnits(self, index, info).run()
