"""Span tracing of qipsolve's layers, installed from outside the program.

``Tracer.install`` replaces each public layer function at every place the
program looks it up: the attribute of every loaded ``qipsolve`` module
that holds the original function (its import sites), or the class
attribute for methods. Each call then records a span - name, start, end,
parent span, solve id and whether it returned - in memory. ``uninstall``
puts the originals back. Spans are written out once, by the caller, after
the run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span record fields
NAME, START, END, PARENT, SOLVE, OK = range(6)


def _want_hessian(args, kwargs, pos):
    if "want_hessian" in kwargs:
        return kwargs["want_hessian"]
    return args[pos] if len(args) > pos else True


def _by_hessian_flag(pos, with_hessian, value_only):
    return lambda args, kwargs: with_hessian if _want_hessian(args, kwargs, pos) else value_only


def layer_targets(qipsolve):
    """(owner, attribute, span name or namer) for every traced layer boundary.

    A module owner means "this function, wherever a qipsolve module imported
    it"; a class owner means that method.
    """
    pf, qre, obj, kkt, mf, lm = (qipsolve.pathfollow, qipsolve.qre, qipsolve.objectives,
                                 qipsolve.kkt, qipsolve.matfun, qipsolve.linmap)
    targets = [
        (pf, "center", "pathfollow.center"),
        (pf, "line_search", "pathfollow.line_search"),
        (pf, "max_feasible_step", "pathfollow.max_feasible_step"),
        (pf.FBetaEvaluator, "x_bundle",
         _by_hessian_flag(3, "pathfollow.hessian_eval", "pathfollow.value_eval")),
        (qre, "qre_eval", _by_hessian_flag(2, "qre.hessian", "qre.value")),
        (kkt, "newton_step_type1", "kkt.newton_step"),
        (kkt, "newton_step_type2", "kkt.newton_step"),
    ]
    for name in ("composite_eval", "phi_hessian_in_basis", "congruence_batch",
                 "sandwich_diag", "sandwich_core", "barrier_eval", "map_barrier_eval"):
        targets.append((obj, name, f"objectives.{name}"))
    for name in ("spectral_decompose", "divided_diff_1", "second_divided_diff_tensor"):
        targets.append((mf, name, f"matfun.{name}"))
    for cls in (lm.KrausMap, lm.PartialTranspose):
        for name in ("apply", "adjoint_apply", "vectorized_matrix"):
            targets.append((cls, name, f"linmap.{name}"))
    return targets


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.solve_id = -1

    def _wrap(self, fn, name):
        # The bookkeeping of span() is inlined: a generator-based context
        # manager per call multiplies the tracing overhead on small solves.
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            rec = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.solve_id, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
                rec[OK] = True
                return out
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.solve_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
            rec[OK] = True
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def solve_span(self):
        """Span around one whole solve; spans inside it carry its solve id."""
        self.solve_id += 1
        return self.span("solve")

    def install(self, targets):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "qipsolve" or key.startswith("qipsolve."))]
        for owner, attr, name in targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans):
    """{span name: (self seconds, calls)} over all spans."""
    selfs = self_times(spans)
    acc = defaultdict(lambda: [0.0, 0])
    for s, self_s in zip(spans, selfs):
        acc[s[NAME]][0] += self_s
        acc[s[NAME]][1] += 1
    return {k: (v[0], v[1]) for k, v in acc.items()}


def inclusive_seconds(spans, name):
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


def children(spans):
    """Index lists of each span's direct children."""
    out = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            out[s[PARENT]].append(i)
    return out
