"""TAINT — nondeterminism must not flow into scheduling, probability or digests.

``DET`` bans wall-clock reads *at the call site*; ``SCHED`` bans them
*inside a scheduling argument expression*.  Both are blind to a value
that crosses a function boundary in between::

    def _now_wall():                 # helper, maybe in another module
        return time.time()

    def _jitter(self):
        return _now_wall() * 1e-3    # hop 2

    sim.schedule(self._jitter(), fn) # invisible to DET and SCHED

This rule closes that gap with forward taint propagation over the
project call graph (pass 2 of the analyzer — see
:mod:`repro.analysis.static.graph`).

**Sources** (what makes a value tainted):

* wall-clock/entropy reads (the DET catalogue: ``time.time``,
  ``time.monotonic``, ``datetime.now``, ``os.urandom``, ``uuid.uuid4``,
  ``secrets.*``, …);
* environment reads (``os.environ[...]``, ``os.environ.get``,
  ``os.getenv``) — host configuration must not steer a simulation;
* unseeded randomness (module-level ``random.*`` draws, no-arg
  ``random.Random()``, ``numpy.random.*``);
* hash-order iteration (the loop variable of ``for x in <set>`` or an
  unsorted filesystem listing).

**Propagation**: through assignments (including ``self.attr`` within a
function), arithmetic/boolean/comparison expressions, tuple unpacking,
returns, and **call arguments/returns across functions** using
per-function summaries (which sources can reach a return; which
parameters flow to a return; which parameters reach a sink inside the
callee).  Summaries are memoised per function and the recursion is
bounded (:data:`MAX_DEPTH`), so whole-tree analysis stays linear-ish and
cycles terminate.

**Sanitizers**: a value laundered through ``clamp_unit``/``clamp*``
(domain re-established), ``default_stream`` (seeded stream construction)
or ``sorted`` (order re-established) stops being tainted.

**Sinks** (where tainted values are reported):

* the time/delay argument of every engine scheduling entry point
  (``schedule``, ``at``, ``post``, ``every``);
* assignments to probability-named targets (the PROB vocabulary) — the
  coupling law ``pc = (p')²`` is only meaningful for a reproducible p';
* digest inputs — arguments to ``hashlib`` constructors and to
  ``.update()`` on a hasher, and arguments to functions named
  ``digest``/``*_digest``/``digest_hex``.

A finding lands where the taint *meets the sink*: inside the function
containing the sink when the source is local or reached through callees,
or at the call site whose argument carries taint into a sink-reaching
parameter of the callee.  Unresolvable calls propagate nothing — the
rule errs toward silence, like every other rule in the suite.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.static.core import (
    Finding,
    ProjectRule,
    Severity,
    register,
)
from repro.analysis.static.rules.common import attr_chain
from repro.analysis.static.rules.det import _is_wall_clock
from repro.analysis.static.rules.prob import _target_p_name

__all__ = ["TaintRule", "MAX_DEPTH"]

#: Bound on interprocedural summary recursion (hops through the call
#: graph); deeper chains are treated as unknown (silence, not hangs).
MAX_DEPTH = 12

#: Scheduling entry points whose first argument is a time/delay.
_SCHED_SINKS = frozenset({"schedule", "at", "post", "every"})

#: Calls that re-establish a deterministic domain/order: taint stops.
_SANITIZERS = frozenset({"default_stream", "sorted"})

_HASHLIB_CTORS = frozenset(
    {"sha256", "sha1", "sha512", "md5", "blake2b", "blake2s", "sha3_256"}
)


@dataclass(frozen=True)
class _Source:
    """One concrete nondeterminism source, with its interprocedural path."""

    desc: str
    via: Tuple[str, ...] = ()

    def hop(self, callee: str) -> "_Source":
        if len(self.via) >= MAX_DEPTH:
            return self
        return _Source(self.desc, self.via + (callee,))

    def render(self) -> str:
        if not self.via:
            return self.desc
        path = " -> ".join(reversed(self.via))
        return f"{self.desc} (via {path})"


#: Taint lattice element: concrete sources and/or parameter names.
_TaintSet = FrozenSet[Union[_Source, str]]
_EMPTY: _TaintSet = frozenset()

#: Methods that return a transformed view of their receiver's value:
#: taint on the receiver survives the call.
_PASSTHROUGH_METHODS = frozenset({
    "encode", "decode", "hex", "format", "strip", "lstrip", "rstrip",
    "lower", "upper", "copy",
})


def _params_of(taints: _TaintSet) -> Set[str]:
    return {t for t in taints if isinstance(t, str)}


def _concrete(taints: _TaintSet) -> List[_Source]:
    return sorted(
        (t for t in taints if isinstance(t, _Source)), key=lambda s: s.desc
    )


@dataclass
class Summary:
    """What a caller needs to know about one function, without its body."""

    #: Concrete sources that can reach a ``return`` value.
    returns: _TaintSet = _EMPTY
    #: Parameter names whose taint propagates to the return value.
    param_to_return: FrozenSet[str] = frozenset()
    #: Parameter name -> description of the sink it reaches inside.
    param_sinks: Dict[str, str] = field(default_factory=dict)
    #: (node, sink description, source) for taint meeting a sink locally.
    findings: List[Tuple[ast.AST, str, _Source]] = field(default_factory=list)


_EMPTY_SUMMARY = Summary()


def _simple_call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _source_of_call(chain: Optional[Tuple[str, ...]], node: ast.Call
                    ) -> Optional[_Source]:
    """Concrete taint source introduced by this call, if any."""
    if chain is None:
        return None
    dotted = ".".join(chain)
    if _is_wall_clock(chain):
        return _Source(f"wall-clock/entropy read {dotted}()")
    if len(chain) >= 2 and chain[-2:] == ("os", "getenv"):
        return _Source("environment read os.getenv()")
    if len(chain) >= 3 and chain[-3:-1] == ("os", "environ"):
        # os.environ.get(...) / os.environ.setdefault(...)
        return _Source(f"environment read os.environ.{chain[-1]}()")
    if chain[0] == "random" and len(chain) == 2:
        if chain[1] == "Random":
            if not node.args:
                return _Source("unseeded random.Random() construction")
            return None  # seeded ctor: DET's concern, value is deterministic
        if chain[1] != "seed":
            return _Source(f"unseeded module-level random.{chain[1]}()")
    if len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
        return _Source(f"process-global numpy.random.{chain[-1]}()")
    return None


def _is_environ_read(node: ast.AST) -> bool:
    """``os.environ[...]`` subscripts (non-call environment reads)."""
    if isinstance(node, ast.Subscript):
        chain = attr_chain(node.value)
        return chain is not None and chain[-2:] == ("os", "environ")
    return False


def _unordered_iter(node: ast.AST) -> Optional[str]:
    """Why iterating this expression visits elements in unstable order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "hash-order iteration over a set"
    if isinstance(node, ast.Call):
        name = _simple_call_name(node)
        if name in ("set", "frozenset"):
            return f"hash-order iteration over a {name}()"
        if name in ("glob", "iglob", "listdir", "scandir", "iterdir", "rglob"):
            return f"filesystem-order iteration over {name}()"
    return None


class _FunctionAnalysis:
    """Single forward pass over one function body, building its summary."""

    def __init__(self, engine: "_TaintEngine", info) -> None:
        self.engine = engine
        self.info = info
        self.env: Dict[str, _TaintSet] = {}
        self.hashers: Set[str] = set()
        self.summary = Summary(
            returns=_EMPTY, param_to_return=frozenset(), param_sinks={},
            findings=[],
        )
        self._returns: Set[Union[_Source, str]] = set()
        self._param_to_return: Set[str] = set()
        self.call_map = {id(cs.node): cs.callee for cs in info.calls}

    def run(self) -> Summary:
        params = self.info.params
        if self.info.is_method and not self.info.is_static and params:
            params = params[1:]
        for name in list(params) + list(self.info.kwonly):
            self.env[name] = frozenset({name})
        self._walk(self.info.node.body)
        self.summary.returns = frozenset(
            t for t in self._returns if isinstance(t, _Source)
        )
        self.summary.param_to_return = frozenset(
            t for t in self._returns if isinstance(t, str)
        )
        return self.summary

    # -- statements --------------------------------------------------------
    def _walk(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taints = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, taints, stmt)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self._eval(stmt.value), stmt)
        elif isinstance(stmt, ast.AugAssign):
            taints = self._eval(stmt.value) | self._read_target(stmt.target)
            self._assign(stmt.target, taints, stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._returns.update(self._eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            why = _unordered_iter(stmt.iter)
            iter_taints = self._eval(stmt.iter)
            if why is not None:
                iter_taints = iter_taints | frozenset({_Source(why)})
            self._assign(stmt.target, iter_taints, stmt, sink_check=False)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taints = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taints, stmt,
                                 sink_check=False)
            self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
        # Nested function/class definitions are indexed and summarised in
        # their own right (or not at all); no body descent here.

    def _target_key(self, target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            chain = attr_chain(target)
            if chain is not None and len(chain) == 2 and chain[0] == "self":
                return f"self.{chain[1]}"
        return None

    def _read_target(self, target: ast.AST) -> _TaintSet:
        key = self._target_key(target)
        return self.env.get(key, _EMPTY) if key is not None else _EMPTY

    def _assign(self, target: ast.AST, taints: _TaintSet, stmt: ast.AST,
                sink_check: bool = True) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, taints, stmt, sink_check=sink_check)
            return
        if isinstance(target, ast.Starred):
            self._assign(target.value, taints, stmt, sink_check=sink_check)
            return
        key = self._target_key(target)
        if key is not None:
            if taints:
                self.env[key] = taints
            else:
                self.env.pop(key, None)
            # Track hashlib hasher objects for the .update() sink.
            value = getattr(stmt, "value", None)
            if isinstance(value, ast.Call):
                chain = attr_chain(value.func)
                if chain is not None and (
                    (len(chain) >= 2 and chain[0] == "hashlib")
                    or chain[-1] in _HASHLIB_CTORS
                ):
                    self.hashers.add(key)
        if sink_check:
            p_name = _target_p_name(target)
            if p_name is not None and taints:
                self._report_sink(
                    stmt, f"probability write to {p_name!r}", taints
                )

    # -- expressions -------------------------------------------------------
    def _eval(self, node: ast.AST) -> _TaintSet:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            chain = attr_chain(node)
            if chain is not None and len(chain) == 2 and chain[0] == "self":
                return self.env.get(f"self.{chain[1]}", _EMPTY)
            if chain is not None and chain[-2:] == ("os", "environ"):
                return frozenset({_Source("environment read os.environ")})
            return self._eval(node.value)
        if _is_environ_read(node):
            self._eval(node.value)
            return frozenset({_Source("environment read os.environ[...]")})
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval(node.left) | self._eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out: _TaintSet = _EMPTY
            for value in node.values:
                out = out | self._eval(value)
            return out
        if isinstance(node, ast.Compare):
            out = self._eval(node.left)
            for comparator in node.comparators:
                out = out | self._eval(comparator)
            return out
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return self._eval(node.body) | self._eval(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = _EMPTY
            for elt in node.elts:
                out = out | self._eval(elt)
            return out
        if isinstance(node, ast.Dict):
            out = _EMPTY
            for key in node.keys:
                if key is not None:
                    out = out | self._eval(key)
            for value in node.values:
                out = out | self._eval(value)
            return out
        if isinstance(node, ast.Subscript):
            return self._eval(node.value) | self._eval(node.slice)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            out = _EMPTY
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out = out | self._eval(value.value)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            out = _EMPTY
            for generator in node.generators:
                out = out | self._eval(generator.iter)
                why = _unordered_iter(generator.iter)
                if why is not None:
                    out = out | frozenset({_Source(why)})
            return out
        return _EMPTY

    def _eval_call(self, node: ast.Call) -> _TaintSet:
        arg_taints = [self._eval(arg) for arg in node.args]
        kw_taints = {
            kw.arg: self._eval(kw.value) for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs: evaluate, can't map
                self._eval(kw.value)

        chain = attr_chain(node.func)
        name = _simple_call_name(node)

        # Sink: scheduling time/delay argument.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SCHED_SINKS
            and node.args
        ):
            self._check_sink(
                node.args[0],
                arg_taints[0],
                f"time/delay argument of {node.func.attr}()",
            )

        # Sink: digest inputs.
        self._check_digest_sink(node, chain, arg_taints)

        # Sanitizers wash taint out of the returned value.
        if name is not None and (
            name in _SANITIZERS or name.startswith("clamp")
        ):
            return _EMPTY

        # Concrete source calls.
        source = _source_of_call(chain, node)
        if source is not None:
            return frozenset({source})

        # Resolved callee: consult its summary.
        callee = self.call_map.get(id(node))
        if callee is not None:
            return self._apply_summary(node, callee, arg_taints, kw_taints)

        # Identity-ish builtins pass taint through.
        if isinstance(node.func, ast.Name) and node.func.id in (
            "float", "int", "abs", "min", "max", "round", "sum", "len", "str"
        ):
            out: _TaintSet = _EMPTY
            for taints in arg_taints:
                out = out | taints
            return out

        # Value-preserving methods keep the receiver's taint (so e.g.
        # str(random.random()).encode() still reaches a digest sink).
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _PASSTHROUGH_METHODS
        ):
            out = self._eval(node.func.value)
            for taints in arg_taints:
                out = out | taints
            return out
        return _EMPTY

    def _apply_summary(
        self,
        node: ast.Call,
        callee: str,
        arg_taints: List[_TaintSet],
        kw_taints: Dict[str, _TaintSet],
    ) -> _TaintSet:
        engine = self.engine
        callee_info = engine.index.functions.get(callee)
        if callee_info is None:
            return _EMPTY
        summary = engine.summarize(callee)
        short = callee.rsplit(".", 1)[-1]
        if callee_info.is_method and "." in callee:
            short = ".".join(callee.rsplit(".", 2)[-2:])

        # Map argument taints onto callee parameter names.
        by_param: Dict[str, _TaintSet] = {}
        for i, taints in enumerate(arg_taints):
            param = callee_info.positional_param(i)
            if param is not None:
                by_param[param] = by_param.get(param, _EMPTY) | taints
        for kw, taints in kw_taints.items():
            by_param[kw] = by_param.get(kw, _EMPTY) | taints

        # Tainted arguments flowing into sink-reaching parameters.
        for param, sink_desc in summary.param_sinks.items():
            taints = by_param.get(param)
            if taints:
                self._check_sink(
                    node, taints, f"{sink_desc} inside {short}()"
                )

        # Return taint: callee-internal sources + propagated arguments.
        out: Set[Union[_Source, str]] = {
            s.hop(short) for s in _concrete(summary.returns)
        }
        for param in summary.param_to_return:
            for taint in by_param.get(param, _EMPTY):
                if isinstance(taint, _Source):
                    out.add(taint.hop(short))
                else:
                    out.add(taint)
        return frozenset(out)

    def _check_digest_sink(
        self,
        node: ast.Call,
        chain: Optional[Tuple[str, ...]],
        arg_taints: List[_TaintSet],
    ) -> None:
        is_sink = False
        desc = ""
        if chain is not None and len(chain) >= 2 and chain[0] == "hashlib":
            is_sink, desc = True, f"digest input to {'.'.join(chain)}()"
        elif isinstance(node.func, ast.Name) and node.func.id in _HASHLIB_CTORS:
            is_sink, desc = True, f"digest input to {node.func.id}()"
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "update":
            receiver = self._target_key(node.func.value)
            receiver_name = receiver or ""
            if receiver in self.hashers or any(
                token in receiver_name.lower()
                for token in ("hash", "digest", "sha")
            ):
                is_sink, desc = True, f"digest input to {receiver_name}.update()"
        elif isinstance(node.func, ast.Attribute) and (
            node.func.attr == "digest"
            or node.func.attr.endswith("_digest")
            or node.func.attr == "digest_hex"
        ):
            if node.args:
                is_sink, desc = True, f"digest input to {node.func.attr}()"
        if not is_sink:
            return
        for arg, taints in zip(node.args, arg_taints):
            if taints:
                self._check_sink(arg, taints, desc)

    def _check_sink(self, node: ast.AST, taints: _TaintSet, desc: str) -> None:
        for source in _concrete(taints):
            self.summary.findings.append((node, desc, source))
            break  # one finding per sink occurrence, first source wins
        for param in sorted(_params_of(taints)):
            self.summary.param_sinks.setdefault(param, desc)

    def _report_sink(self, node: ast.AST, desc: str, taints: _TaintSet) -> None:
        self._check_sink(node, taints, desc)


class _TaintEngine:
    """Summary cache + recursion bound over one :class:`ProjectIndex`."""

    def __init__(self, index) -> None:
        self.index = index
        self.cache: Dict[str, Summary] = {}
        self._in_progress: Set[str] = set()
        self._depth = 0

    def summarize(self, qualname: str) -> Summary:
        cached = self.cache.get(qualname)
        if cached is not None:
            return cached
        if qualname in self._in_progress or self._depth >= MAX_DEPTH:
            return _EMPTY_SUMMARY  # cycle/deep chain: unknown, stay silent
        info = self.index.functions.get(qualname)
        if info is None:
            return _EMPTY_SUMMARY
        self._in_progress.add(qualname)
        self._depth += 1
        try:
            summary = _FunctionAnalysis(self, info).run()
        finally:
            self._depth -= 1
            self._in_progress.discard(qualname)
        self.cache[qualname] = summary
        return summary


@register
class TaintRule(ProjectRule):
    """Forward taint: nondeterminism sources must not reach domain sinks."""

    name = "TAINT"
    severity = Severity.ERROR
    description = (
        "no wall-clock/environment/unseeded-RNG/hash-order value may "
        "flow — across assignments, returns and call boundaries — into "
        "scheduling time arguments, probability writes or digest inputs"
    )
    packages = (
        "sim", "net", "aqm", "tcp", "core", "harness", "traffic",
        "metrics", "obs",
    )

    def check_project(
        self, index, files: Optional[frozenset] = None
    ) -> Iterator[Finding]:
        engine = _TaintEngine(index)
        seen: Set[Tuple[str, int, int, str]] = set()
        for qualname in sorted(index.functions):
            info = index.functions[qualname]
            path = info.source.display_path
            if files is not None and path not in files:
                continue
            summary = engine.summarize(qualname)
            for node, sink_desc, source in summary.findings:
                message = (
                    f"{source.render()} flows into {sink_desc}; "
                    "derive the value from virtual time / seeded streams, "
                    "or sanitize it (clamp_unit/default_stream/sorted) "
                    "before it reaches the sink"
                )
                key = (
                    path,
                    getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0),
                    message,
                )
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(info.source, node, message)
