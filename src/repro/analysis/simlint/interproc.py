"""Interprocedural rules: SIM011–SIM014.

These are the whole-program half of the rule set.  SIM011/SIM012 consume
the taint and blocking closures of
:class:`~repro.analysis.simlint.project.ProjectIndex` — they exist
because one helper function defeats the per-file rules entirely
(``def now(): return time.time()`` launders the host clock past SIM001
at every call site).  SIM013/SIM014 are protocol-pairing rules: resource
acquired in one place must provably be released on the paths that
matter (span begin/end over the per-function CFG; strategy timers armed
in hooks versus cancellation reachable from teardown).

SIM011, SIM012 and SIM014 are ``scope = "project"`` rules: they read
``module.project`` and yield nothing when a module is linted standalone
(conservative under-approximation — no cross-module context, no
cross-module claims).  SIM013 is per-function and stays module-scope.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.simlint.cfg import SpanPathAnalysis
from repro.analysis.simlint.core import (
    Finding,
    ModuleUnderLint,
    Rule,
    register,
)
from repro.analysis.simlint.rules import _TRACE_METHODS  # noqa: F401
from repro.analysis.simlint.rules import _trace_receiver


def _render_chain(chain) -> str:
    return " -> ".join(chain)


def _short(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


# ------------------------------------------------------------------ SIM011
@register
class TaintedHelperCallRule(Rule):
    """Calling a helper whose return value carries a banned source.

    The chain in the message is the syntactic call path from the helper
    down to the source read, so the report is actionable without
    re-deriving the flow by hand::

        call of tainted helper now(): value derives from wall-clock via
        repro.util.now -> time.monotonic()
    """

    code = "SIM011"
    name = "tainted-helper-call"
    severity = "error"
    description = ("call site of a helper whose return value derives "
                   "from wall-clock/entropy/set-order through the call "
                   "graph — the laundered value breaks serial == -jN "
                   "bit-identity at this use")
    scope = "project"

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        project = module.project
        if project is None:
            return
        taint = project.taint
        if not taint:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = project.resolve_call(module, node)
            if target is None or target not in taint:
                continue
            caller = project.function_at(module, node)
            if caller is not None and caller.qualname in taint:
                # A propagator returning the value is not a consumer:
                # its own call sites carry the (longer) chain.
                continue
            kind, chain = taint[target]
            yield self.finding(
                module, node,
                f"call of tainted helper {_short(target)}(): value "
                f"derives from {kind} via {_render_chain(chain)} — "
                f"thread sim time / the seeded RNG instead")


# ------------------------------------------------------------------ SIM012
@register
class BlockingReachableRule(Rule):
    """Blocking host call reachable from a sim-process generator.

    The interprocedural extension of SIM007: the generator itself looks
    clean, but a callee (transitively) blocks the host.  Direct blocking
    calls inside the generator stay SIM007's — this rule only fires on
    resolved project-internal calls whose target is in the blocking
    closure, so the two never double-report one site.
    """

    code = "SIM012"
    name = "blocking-call-reachable"
    severity = "error"
    description = ("project-internal call inside a sim-process "
                   "generator whose target (transitively) performs a "
                   "blocking host call — the stall hits every simulated "
                   "node, one frame removed from SIM007")
    scope = "project"

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        project = module.project
        if project is None:
            return
        blocking = project.blocking
        if not blocking:
            return
        for qual, info in sorted(project.functions.items()):
            if info.module_name != module.module_name \
                    or not info.is_generator:
                continue
            for target in sorted(info.calls):
                if target not in blocking:
                    continue
                node = info.call_sites.get(target)
                if node is None:
                    continue
                chain = blocking[target]
                yield self.finding(
                    module, node,
                    f"blocking host call reachable from sim-process "
                    f"body: {_short(qual)} -> {_render_chain(chain)} — "
                    f"yield a simulated delay instead")


# ------------------------------------------------------------------ SIM013
@register
class SpanPairingRule(Rule):
    """A ``spans.begin()`` result must reach ``spans.end()`` on every
    non-exception path.

    An open span truncates the emitted stream and breaks the span
    audits; re-binding a handle while a prior span is
    still open silently drops the first one.  Handles that escape the
    function (returned, stored in a container, passed to another call)
    transfer ownership and are not reported — see
    :mod:`repro.analysis.simlint.cfg` for the path semantics.
    """

    code = "SIM013"
    name = "span-begin-end-pairing"
    severity = "warning"
    description = ("a span handle from <tracer>.begin() has a "
                   "non-exception path to the function exit without "
                   "reaching <tracer>.end() (or is re-bound while "
                   "open) — open spans truncate the trace stream and "
                   "fail the span audits")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            analysis = SpanPathAnalysis(fn, _is_span_begin, _is_span_end)
            for node, kind in analysis.leaks():
                if kind == "overwrite":
                    yield self.finding(
                        module, node,
                        "span handle re-bound while the previous span "
                        "is still open — the first span never ends")
                else:
                    yield self.finding(
                        module, node,
                        "span opened here can reach the function exit "
                        "without .end() on a non-exception path — "
                        "close it on every path or hand it off "
                        "explicitly")


def _is_span_begin(call: ast.Call) -> bool:
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr == "begin"
            and _trace_receiver(call.func))


def _is_span_end(call: ast.Call) -> bool:
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr == "end"
            and _trace_receiver(call.func))


# ------------------------------------------------------------------ SIM014
#: Strategy hooks that constitute teardown: a timer family with no
#: cancellation reachable from any of these is orphaned when the job is
#: forgotten or the peer dies.
_TEARDOWN_HOOKS = ("on_job_forgotten", "on_peer_dead", "on_power_off")


@register
class OrphanedStrategyTimerRule(Rule):
    """A strategy timer armed in a hook needs a teardown story.

    The static twin of the orphaned-timer matrix tests: for every class
    deriving from ``ReliabilityStrategy``, each ``start_timer(tag, …)``
    family (the leading string literal of the tag tuple) must either

    - have a matching ``cancel_timer`` reachable from a teardown hook
      (``on_job_forgotten`` / ``on_peer_dead`` / ``on_power_off``,
      resolved through inheritance and the call graph), or
    - be covered by a *stale-entry guard* in the effective ``on_timer``:
      the handler looks the entry up (``outstanding_entry``/lookup
      helper) and returns when it is gone, so a late firing is inert.

    Tags whose family is not a syntactic string literal are skipped —
    the rule under-approximates rather than guessing.
    """

    code = "SIM014"
    name = "orphaned-strategy-timer"
    severity = "error"
    description = ("ReliabilityStrategy timer family armed in a hook "
                   "with neither a cancel_timer reachable from "
                   "teardown (forget_job / dead peer / power_off) nor "
                   "a stale-entry guard in on_timer — the timer fires "
                   "into a forgotten job")
    scope = "project"

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        project = module.project
        if project is None:
            return
        for cls in project.subclasses_of("ReliabilityStrategy"):
            if cls.module_name != module.module_name:
                continue
            yield from self._check_class(module, project, cls)

    def _check_class(self, module, project, cls) -> Iterator[Finding]:
        arms = []   # (family, call node, hook name) — own methods only
        for name, info in sorted(cls.methods.items()):
            for node in ast.walk(info.node):
                if _is_method_call(node, "start_timer"):
                    family = _tag_family(node.args[0]) if node.args else None
                    if family is not None:
                        arms.append((family, node, name))
        if not arms:
            return
        cancelled = self._teardown_cancel_families(project, cls)
        guarded = self._has_stale_guard(project, cls)
        for family, node, hook in arms:
            if family in cancelled or guarded:
                continue
            yield self.finding(
                module, node,
                f"timer family {family!r} armed in "
                f"{_short(cls.qualname)}.{hook} has no cancel_timer "
                f"reachable from teardown "
                f"({'/'.join(_TEARDOWN_HOOKS)}) and no stale-entry "
                f"guard in on_timer — it fires into a forgotten job")

    def _teardown_cancel_families(self, project, cls) -> set:
        """Tag families cancelled somewhere reachable from teardown."""
        roots = []
        for hook in _TEARDOWN_HOOKS:
            info = project.lookup_method(cls.qualname, hook)
            if info is not None:
                roots.append(info)
        reachable, queue = {}, list(roots)
        while queue:
            info = queue.pop()
            if info.qualname in reachable:
                continue
            reachable[info.qualname] = info
            for target in info.calls:
                nxt = project.functions.get(target)
                if nxt is not None:
                    queue.append(nxt)
        families: set = set()
        for info in reachable.values():
            for node in ast.walk(info.node):
                if _is_method_call(node, "cancel_timer") and node.args:
                    family = _tag_family(node.args[0])
                    if family is not None:
                        families.add(family)
        return families

    def _has_stale_guard(self, project, cls) -> bool:
        """The effective ``on_timer`` checks the outstanding entry and
        returns when it is gone (late firings are inert).

        Overrides that delegate with ``super().on_timer(tag)`` pass the
        check through to the next ``on_timer`` up the base chain — the
        cumulative/NACK family guards its inherited per-packet timers
        exactly this way.
        """
        info = project.lookup_method(cls.qualname, "on_timer")
        seen: set = set()
        while info is not None and info.qualname not in seen:
            seen.add(info.qualname)
            if _body_has_stale_guard(info.node):
                return True
            if not _calls_super(info.node, "on_timer"):
                return False
            info = _super_method(project, info.class_qualname, "on_timer")
        return False


def _body_has_stale_guard(fn) -> bool:
    """One ``on_timer`` body: looks the entry up, returns when gone."""
    looks_up = any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and ("outstanding" in node.func.attr
             or node.func.attr == "outstanding_entry")
        for node in ast.walk(fn))
    if not looks_up:
        return False
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if isinstance(test, ast.Compare) \
                and len(test.ops) == 1 \
                and isinstance(test.ops[0], ast.Is) \
                and isinstance(test.comparators[0], ast.Constant) \
                and test.comparators[0].value is None \
                and any(isinstance(s, ast.Return) for s in node.body):
            return True
    return False


def _calls_super(fn, method: str) -> bool:
    """Does ``fn`` contain a ``super().<method>(…)`` call?"""
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
                and isinstance(node.func.value, ast.Call)
                and isinstance(node.func.value.func, ast.Name)
                and node.func.value.func.id == "super"):
            return True
    return False


def _super_method(project, class_qualname, method: str):
    """The next definition of ``method`` above ``class_qualname``."""
    cls = project.classes.get(class_qualname)
    if cls is None:
        return None
    for base in cls.base_names:
        resolved = project.resolve_symbol(base)
        if resolved is None:
            continue
        found = project.lookup_method(resolved, method)
        if found is not None:
            return found
    return None


def _is_method_call(node, attr: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr)


def _tag_family(node) -> Optional[str]:
    """Leading string literal of a timer tag expression.

    ``("rto", seq)`` -> ``"rto"``; ``("cum",) + channel`` -> ``"cum"``
    (tuple-concat idiom); a bare string tag is its own family.  Anything
    else (a variable, a computed tag) returns None and the arm is
    skipped rather than guessed at.
    """
    if isinstance(node, ast.Tuple) and node.elts:
        first = node.elts[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _tag_family(node.left)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
