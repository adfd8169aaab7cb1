"""OBS — tracers observe the simulation; they never steer it.

The observability layer's core guarantee is that a run with a tracer
attached is bit-identical to a run without one (``tests/obs`` and the
traced golden digests gate this dynamically).  That only holds if
instrumented code treats the tracer as a write-only sink: events flow
*into* it, nothing flows back out into simulation state.  This rule
rejects the two statically decidable ways the arrow can reverse inside
the simulation packages:

* a **tracer call whose result is used** — assigned, returned, passed
  as an argument, or tested in a condition.  ``tracer.emit(...)`` as a
  bare statement is the only sanctioned shape; anything consuming a
  tracer call's value creates a channel from the observer back into the
  observed.  (Capability checks like ``tracer.wants(...)`` belong in
  :mod:`repro.obs.trace` helpers such as ``engine_tracer`` /
  ``install_aqm_tracer``, which this rule does not scan.)
* a **tracer expression inside a scheduling call** — a tracer (or any
  attribute of one) appearing among the arguments of ``schedule`` /
  ``at`` / ``post`` / ``every`` would let the observer inject events or
  timing into the engine.

The rule keys on name *segments*: any pure attribute chain containing a
``tracer`` or ``_tracer`` component is treated as a tracer reference,
so ``self._tracer.emit``, a local ``tracer``, and ``foo.tracer.bar``
are all covered.  Dynamic shapes (``get_tracer().emit``) resolve to no
chain and are skipped — as everywhere in this suite, false negatives
beat noise.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.static.core import Finding, Rule, Severity, SourceFile, register
from repro.analysis.static.rules.common import attr_chain
from repro.analysis.static.rules.sched import _SCHEDULING_METHODS

__all__ = ["ObservabilityRule"]

#: Attribute-chain segments that mark an expression as a tracer reference.
_TRACER_SEGMENTS = frozenset({"tracer", "_tracer"})


def _is_tracer_chain(chain: Optional[Tuple[str, ...]]) -> bool:
    """True when a resolved attribute chain references a tracer."""
    return chain is not None and any(
        segment in _TRACER_SEGMENTS for segment in chain
    )


def _tracer_reference(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """First tracer-referencing chain found anywhere inside ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Attribute, ast.Name)):
            chain = attr_chain(sub)
            if _is_tracer_chain(chain):
                return chain
    return None


@register
class ObservabilityRule(Rule):
    """Tracer calls are write-only; tracers never reach the scheduler."""

    name = "OBS"
    severity = Severity.ERROR
    description = (
        "tracers observe, never steer: tracer call results must not be "
        "consumed, and tracer expressions must not appear in scheduling "
        "arguments"
    )
    packages = ("sim", "net", "aqm", "tcp", "core", "harness", "traffic")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        tree = source.tree
        assert tree is not None  # framework guarantees a parsed module
        # Calls appearing as bare expression statements — the sanctioned
        # fire-and-forget shape whose result is provably discarded.
        bare_statements = {
            id(stmt.value)
            for stmt in ast.walk(tree)
            if isinstance(stmt, ast.Expr)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if _is_tracer_chain(chain) and id(node) not in bare_statements:
                yield self.finding(
                    source,
                    node,
                    f"result of tracer call {'.'.join(chain or ())}() is "
                    "consumed — tracers are write-only observers; emit as "
                    "a bare statement and keep capability checks inside "
                    "repro.obs",
                )
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULING_METHODS
            ):
                arguments = list(node.args) + [
                    keyword.value for keyword in node.keywords
                ]
                for argument in arguments:
                    reference = _tracer_reference(argument)
                    if reference is not None:
                        yield self.finding(
                            source,
                            argument,
                            f"tracer expression {'.'.join(reference)} "
                            f"passed into {node.func.attr}() — observers "
                            "must never schedule or alter engine timing",
                        )
