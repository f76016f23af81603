"""Span tracing of plcreach layers, installed from outside the program.

Each wrapper rebinds a name in the module where its caller looks it up
(for example `comm.step`, which `comm.machine_moves` calls), so the
program's own code is not edited.  Wrappers are installed only around a
traced operation and removed afterwards.  Untraced runs get only the
scan-start counter at the end of this file and the calibration hook of
calibration.py.

Spans nest on a stack.  A span's self time is its duration minus the time
covered by its child spans.  Spans are aggregated per name in memory
(calls, self seconds, total seconds) instead of being stored one by one:
a single concrete search makes hundreds of thousands of calls into the
interpreter, and the metrics only need the sums.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from plcreach import comm, explorer, por, solver, timed

# (module, attribute, span name).  `values` is left out on purpose: it
# takes millions of calls per run, and its cost shows in its callers' self
# time.  `smtlib` is never reached, because no external solver exists here.
REBINDINGS = (
    (explorer, "successors", "por.successors"),
    (explorer, "canonicalize", "model.canonicalize"),
    (por, "canonicalize", "model.canonicalize"),
    (explorer, "feasible", "symbolic.feasible"),
    (timed, "feasible", "symbolic.feasible"),
    (comm, "feasible", "symbolic.feasible"),
    (explorer, "due_machines", "timed.due_machines"),
    (timed, "due_machines", "timed.due_machines"),
    (explorer, "tick_apply", "timed.tick_apply"),
    (por, "tick_apply", "timed.tick_apply"),
    (timed, "tick_apply", "timed.tick_apply"),
    (por, "tick_concrete", "timed.tick_concrete"),
    (por, "tick_symbolic", "timed.tick_symbolic"),
    (por, "start_variants", "timed.start_variants"),
    (por, "machine_moves", "comm.machine_moves"),
    (comm, "step", "kmachine.step"),
    (timed, "apply_flow", "model.apply_flow"),
    (solver, "solve_linear", "solver.solve_linear"),
)


class Agg:
    __slots__ = ("calls", "self_s", "total_s", "false_results", "items", "raised")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.false_results = 0  # calls that returned False
        self.items = 0  # summed lengths of returned lists
        self.raised = 0  # outermost calls of this name that raised


class Tracer:
    """Aggregates the spans of every block run under installed()."""

    def __init__(self):
        self.aggs: dict = {}
        self._stack: list = []  # [name, child seconds] per open span
        self._last_end = 0.0
        self.wall_s = 0.0
        self.unwrapped_s = 0.0  # traced wall time outside every span

    def agg(self, name: str) -> Agg:
        a = self.aggs.get(name)
        if a is None:
            a = self.aggs[name] = Agg()
        return a

    def wrap(self, fn, name: str):
        agg = self.agg(name)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            t0 = perf_counter()
            if not stack:
                self.unwrapped_s += t0 - self._last_end
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][0] != name:
                    agg.raised += 1
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                else:
                    self._last_end = t1
                agg.calls += 1
                agg.self_s += dt - frame[1]
                agg.total_s += dt
            if result is False:
                agg.false_results += 1
            elif type(result) is list:
                agg.items += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced name and time the block as traced wall time."""
        saved = []
        try:
            for mod, attr, span in REBINDINGS:
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, span))
            compile_property = explorer.compile_property
            saved.append((explorer, "compile_property", compile_property))
            explorer.compile_property = lambda s0, text: self.wrap(
                compile_property(s0, text), "explorer.property"
            )
            t_begin = self._last_end = perf_counter()
            try:
                yield self
            finally:
                t_end = perf_counter()
                if self._stack:
                    raise RuntimeError(f"spans left open: {[f[0] for f in self._stack]}")
                self.unwrapped_s += t_end - self._last_end
                self.wall_s += t_end - t_begin
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def trace_checker(self, checker):
        """Wrap one SmtCheck instance's check method (is_sat goes through it)."""
        checker.check = self.wrap(checker.check, "solver.check")

    def self_sum(self) -> float:
        return sum(a.self_s for a in self.aggs.values())


@contextmanager
def counting_starts(box: list):
    """Count start transitions without timing anything.

    Used by untraced search runs to report scan cycles explored; the cost
    is one extra call per successor enumeration.
    """
    orig = por.start_variants

    def counted(ctx, s):
        out = orig(ctx, s)
        box[0] += len(out)
        return out

    por.start_variants = counted
    try:
        yield
    finally:
        por.start_variants = orig

