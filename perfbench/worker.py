"""One workload run in its own process: set up, closed loop, checks.

Started by run.py; prints one JSON object on its last stdout line.  The
loop has a single client: an operation starts only after the previous one
has returned and been checked.  Nothing here starts a thread or process.

Exit codes: 0 done (failures are counted, not fatal), 1 no operation
succeeded, 4 the determinism guard tripped, 5 the traced run's time
accounting did not add up.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import traceback
from contextlib import ExitStack
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from plcreach import explorer  # noqa: E402
from plcreach.model import canonicalize  # noqa: E402
from plcreach.scenario import scenario_from_dict  # noqa: E402
from plcreach.st import PouTable, parse_file  # noqa: E402
from plcreach.symbolic import concrete_or_none, evaluate_path  # noqa: E402
from plcreach.values import bool_evaluate, bool_variables  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up takes milliseconds, so it is repeated and the median taken: a few
# passes before the loop, then one more at the first operation boundary
# after every SETUP_EVERY_S seconds, so that the passes sample the whole run.
SETUP_PASSES = 5
SETUP_EVERY_S = 1.0


class DeterminismError(Exception):
    pass


class CheckFailed(Exception):
    pass


class AccountingError(Exception):
    pass


# -- set-up -------------------------------------------------------------------


class Built(NamedTuple):
    scen: object  # plcreach.scenario.Scenario
    s0: object  # its initial SystemState


def build(q, texts: dict, phases: dict) -> Built:
    """Parse, elaborate, build the scenario, initial state, context, property.

    Adds each phase's host seconds into `phases`.
    """
    t0 = perf_counter()
    units = []
    for src in q.doc["sources"]:
        units.extend(parse_file(texts[src]))
    t1 = perf_counter()
    table = PouTable.from_units(units)
    t2 = perf_counter()
    scen = scenario_from_dict(q.doc, table)
    t3 = perf_counter()
    s0 = scen.initial_state()
    scen.context()  # timed here; each operation later gets a fresh one
    if q.property:
        explorer.compile_property(s0, q.property)
    t4 = perf_counter()
    for key, dt in (("st.parse_s", t1 - t0), ("st.elaborate_s", t2 - t1),
                    ("scenario.build_s", t3 - t2), ("rest", t4 - t3)):
        phases[key] = phases.get(key, 0.0) + dt
    return Built(scen, s0)


class SetUp:
    """Set-up passes over every query; operations use the build of the
    passes made before the loop."""

    def __init__(self, queries: list, texts: dict):
        self.queries = queries
        self.texts = texts
        self.passes: list = []  # phase seconds per pass
        self.normalised: list = []  # pass seconds at the nominal host speed
        for _ in range(SETUP_PASSES):
            self.built = self.run_pass()

    def run_pass(self) -> dict:
        phases: dict = {}
        samples = [calibration.time_chunk(), calibration.time_chunk()]
        built = {q.name: build(q, self.texts, phases) for q in self.queries}
        samples += [calibration.time_chunk(), calibration.time_chunk()]
        self.passes.append(phases)
        self.normalised.append(
            calibration.normalise(sum(phases.values()), samples))
        self.last = perf_counter()
        return built

    def between_operations(self):
        if perf_counter() - self.last >= SETUP_EVERY_S:
            self.run_pass()

    def phase_medians(self) -> dict:
        return {k: statistics.median(p[k] for p in self.passes)
                for k in self.passes[0]}

    def total_median(self) -> float:
        return statistics.median(self.normalised)


# -- checks -------------------------------------------------------------------


def _assignment(model: dict, names) -> dict:
    """The witness model, with variables it leaves free pinned to 0."""
    full = {n: Fraction(0) for n in names}
    full.update({k: Fraction(v) for k, v in model.items()})
    return full


def check_witness(q, b: Built, w):
    """Replay a witness with the full, unreduced enumeration and re-test it."""
    ctx = b.scen.context()
    s = explorer.replay(ctx, b.s0, w.path)
    if canonicalize(s) != canonicalize(w.state):
        raise CheckFailed(f"{q.name}: witness replays to a different state")
    got = explorer.compile_property(b.s0, q.property)(s)
    clock = concrete_or_none(s.clock)
    if got is True and clock is not None and not s.constraints:
        if clock > q.bound:
            raise CheckFailed(f"{q.name}: witness clock {clock} beyond bound")
        return
    if not evaluate_path(s, w.model):
        raise CheckFailed(f"{q.name}: path condition false under witness model")
    if got is False:
        raise CheckFailed(f"{q.name}: property false on replayed state")
    if got is not True and not bool_evaluate(
            got, _assignment(w.model, bool_variables(got))):
        raise CheckFailed(f"{q.name}: property false under witness model")
    if clock is None:
        clock = s.clock.evaluate(_assignment(w.model, s.clock.variables()))
    if clock > q.bound:
        raise CheckFailed(f"{q.name}: witness clock {clock} beyond bound")


def check_search(q, b: Built, r):
    if r.verdict != q.expected:
        raise CheckFailed(f"{q.name}: verdict {r.verdict}, expected {q.expected}")
    for w in r.witnesses:
        check_witness(q, b, w)


def check_simulation(q, b: Built, out, replayed: dict):
    final = out[-1][1]
    if final.clock != q.until:
        raise CheckFailed(f"{q.name}: stopped at clock {final.clock}, "
                          f"horizon {q.until}")
    cycles = sum(1 for tid, _ in out[1:] if tid.cls == "start")
    expected = q.until / b.s0.machines[0].cycle_time
    if cycles != expected:
        raise CheckFailed(f"{q.name}: {cycles} scan cycles, expected {expected}")
    key = canonicalize(final)
    if q.name not in replayed:
        path = [tid for tid, _ in out[1:]]
        s = explorer.replay(b.scen.context(), b.s0, path)
        if canonicalize(s) != key:
            raise CheckFailed(f"{q.name}: simulation does not replay")
        replayed[q.name] = key
    elif replayed[q.name] != key:
        raise CheckFailed(f"{q.name}: simulation ended in another state")
    return cycles


# -- one operation ------------------------------------------------------------


class Outcome:
    """What one operation did, for the guard, the checks and the metrics."""

    def __init__(self, seconds, states, transitions, ctx, cycles, normalised):
        self.seconds = seconds
        self.states = states
        self.transitions = transitions
        self.stats = ctx.checker.stats
        self.cycles = cycles
        self.normalised = normalised


def execute(q, b: Built, tracer=None, replayed=None, calibrated=False) -> Outcome:
    """Run and check one operation.

    `tracer` traces it.  `calibrated` counts its scan cycles and times
    reference chunks during it (see calibration.py); its `seconds` then
    leave the chunks out, and `normalised` holds them scaled.
    """
    ctx = b.scen.context()
    fn = explorer.search if q.kind == "search" else explorer.simulate
    if tracer is not None:
        tracer.trace_checker(ctx.checker)
        fn = tracer.wrap(fn, "explorer")
    args = (q.property,) if q.kind == "search" else (q.until,)
    kwargs = {"bound": q.bound} if q.kind == "search" else {}
    starts, samples = [0], []
    # Every operation starts from the same collector state.
    gc.collect()
    with ExitStack() as scope:
        if tracer is not None:
            scope.enter_context(tracer.installed())
        elif calibrated:
            samples.append(calibration.time_chunk())
            if q.kind == "search":
                scope.enter_context(tracing.counting_starts(starts))
            scope.enter_context(calibration.calibrating(samples))
        t0 = perf_counter()
        r = fn(ctx, b.s0, *args, **kwargs)
        t1 = perf_counter()
    dt = t1 - t0 - sum(samples[1:])
    normalised = calibration.normalise(dt, samples) if calibrated else None
    if q.kind == "search":
        check_search(q, b, r)
        return Outcome(dt, r.states_explored, r.transitions_fired, ctx,
                       starts[0], normalised)
    cycles = check_simulation(q, b, r, replayed)
    return Outcome(dt, len(r), len(r) - 1, ctx, cycles, normalised)


class Guard:
    """Counts that must repeat exactly whenever an operation repeats."""

    def __init__(self):
        self.seen: dict = {}

    def check(self, name: str, what: str, counts: tuple):
        key = (name, what)
        first = self.seen.setdefault(key, counts)
        if first != counts:
            raise DeterminismError(
                f"{name}: {what} {counts} differ from the first run's {first}"
            )


def guard_counts(o: Outcome) -> tuple:
    # explorer.states, explorer.transitions, solver.fresh_queries
    return (o.states, o.transitions, o.stats.queries)


# -- the closed loop ----------------------------------------------------------


def closed_loop(queries, setup, seconds, run_op, log):
    """Issue operations back to back for about `seconds`.

    The queries take turns, and the loop stops only after whole rounds of
    one turn each, so every run weighs the queries equally.  It stops after
    the round that ends nearest to `seconds`, predicting the next round's
    length from the last, and always after at least one round.
    """
    attempted = failed = 0
    t_begin = t_round = perf_counter()
    i = 0
    while True:
        if i > 0 and i % len(queries) == 0:
            now = perf_counter()
            if now - t_begin >= seconds - (now - t_round) / 2:
                break
            t_round = now
        q = queries[i % len(queries)]
        i += 1
        attempted += 1
        try:
            run_op(q, setup.built[q.name])
        except DeterminismError:
            raise
        except Exception as e:  # any failure of the program counts
            failed += 1
            log(f"FAILED {q.name}: {type(e).__name__}: {e}")
            traceback.print_exc()
        setup.between_operations()
    return attempted, failed


def run_untraced(queries, setup, seconds, log):
    guard = Guard()
    replayed: dict = {}
    raw: dict = {q.name: [] for q in queries}  # program seconds per operation
    norm: dict = {q.name: [] for q in queries}  # the same, normalised
    cycles: dict = {}  # scan cycles per operation of each query

    def run_op(q, b):
        o = execute(q, b, replayed=replayed, calibrated=True)
        guard.check(q.name, "states/transitions/fresh queries/scan cycles",
                    guard_counts(o) + (o.cycles,))
        raw[q.name].append(o.seconds)
        norm[q.name].append(o.normalised)
        cycles[q.name] = o.cycles

    attempted, failed = closed_loop(queries, setup, seconds, run_op, log)
    # Each query's median, so that queries of different sizes weigh the same.
    done = [(statistics.median(ts), cycles[name])
            for name, ts in norm.items() if ts]
    if not done:
        raise CheckFailed("no operation succeeded")
    log(f"operations: {attempted} attempted, {failed} failed, "
        f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for q in queries:
        if norm[q.name]:
            log(f"{q.name}: {len(raw[q.name])} operations, median "
                f"{statistics.median(raw[q.name]):.4f} s as measured, "
                f"{statistics.median(norm[q.name]):.4f} s normalised; "
                f"{cycles[q.name]} scan cycles per operation"
                + (f", horizon {q.until}" if q.kind == "simulate" else ""))
    log(f"verdict_p50_s and sim_cycles_per_s: medians over {len(done)} queries "
        f"of each query's median normalised time")
    log("verdict_tail_s not reported on any workload: a search run holds too "
        "few operations for a percentile with 10 samples beyond it")
    return attempted, failed, {
        "verdict_p50_s": statistics.median(t for t, _ in done),
        "sim_cycles_per_s": statistics.median(c / t for t, c in done),
    }


def run_traced(queries, setup, seconds, log):
    """Alternate untraced and traced runs of each operation."""
    guard = Guard()
    replayed: dict = {}
    tracer = tracing.Tracer()
    tot = {"states": 0, "transitions": 0, "fresh": 0, "hits": 0,
           "untraced_s": 0.0, "traced_s": 0.0, "ops": 0}
    by_class: dict = {}
    steps = tracer.agg("kmachine.step")

    def run_op(q, b):
        plain = execute(q, b, replayed=replayed)
        guard.check(q.name, "states/transitions/fresh queries", guard_counts(plain))
        steps_before = steps.calls
        o = execute(q, b, tracer=tracer, replayed=replayed)
        guard.check(q.name, "states/transitions/fresh queries", guard_counts(o))
        guard.check(q.name, "kmachine.step calls", (steps.calls - steps_before,))
        tot["ops"] += 1
        tot["states"] += o.states
        tot["transitions"] += o.transitions
        tot["fresh"] += o.stats.queries
        tot["hits"] += o.stats.cache_hits
        tot["untraced_s"] += plain.seconds
        tot["traced_s"] += o.seconds
        for k, v in o.stats.by_class.items():
            by_class[k] = by_class.get(k, 0) + v

    attempted, failed = closed_loop(queries, setup, seconds, run_op, log)
    if tot["ops"] == 0:
        raise CheckFailed("no operation succeeded")
    self_sum = tracer.self_sum()
    gap = self_sum + tracer.unwrapped_s - tracer.wall_s
    log(f"operations: {attempted} attempted, {failed} failed; "
        f"{tot['ops']} traced")
    log(f"self-time accounting: sum of self times {self_sum:.6f} s + unwrapped "
        f"{tracer.unwrapped_s:.6f} s = {self_sum + tracer.unwrapped_s:.6f} s; "
        f"traced wall {tracer.wall_s:.6f} s (difference {gap:.2e} s); "
        f"trace.overhead_frac {tot['traced_s'] / tot['untraced_s'] - 1:.4f}")
    if abs(gap) > 1e-6 + 1e-6 * tracer.wall_s:
        raise AccountingError(f"self times do not add up to the traced wall: {gap}")
    return attempted, failed, layer_metrics(tracer, tot, by_class)


def layer_metrics(tracer, tot, by_class) -> dict:
    """Per-layer metrics, as means per traced operation unless a ratio."""
    n = tot["ops"]
    a = tracer.agg

    def per_op(v):
        return v / n

    def ratio(x, y):
        return x / y if y else 0.0

    checks = tot["fresh"] + tot["hits"]
    m = {
        "explorer.self_s": per_op(a("explorer").self_s),
        "explorer.states": per_op(tot["states"]),
        "explorer.transitions": per_op(tot["transitions"]),
        "explorer.new_state_ratio": ratio(tot["states"], tot["transitions"]),
        "explorer.property_calls": per_op(a("explorer.property").calls),
        "explorer.property_s": per_op(a("explorer.property").self_s),
        "explorer.states_per_s": ratio(tot["states"], a("explorer").total_s),
        "por.successors_calls": per_op(a("por.successors").calls),
        "por.successors_self_s": per_op(a("por.successors").self_s),
        "por.succ_per_call": ratio(a("por.successors").items,
                                   a("por.successors").calls),
        "comm.machine_moves_calls": per_op(a("comm.machine_moves").calls),
        "comm.machine_moves_self_s": per_op(a("comm.machine_moves").self_s),
        "kmachine.step_calls": per_op(a("kmachine.step").calls),
        "kmachine.step_self_s": per_op(a("kmachine.step").self_s),
        "timed.start_variants_calls": per_op(a("timed.start_variants").calls),
        "timed.start_variants_self_s": per_op(a("timed.start_variants").self_s),
        "timed.tick_calls": per_op(a("timed.tick_apply").calls),
        "timed.tick_self_s": per_op(sum(a(k).self_s for k in (
            "timed.tick_concrete", "timed.tick_symbolic", "timed.tick_apply"))),
        "timed.due_machines_calls": per_op(a("timed.due_machines").calls),
        "timed.due_machines_self_s": per_op(a("timed.due_machines").self_s),
        "model.canonicalize_calls": per_op(a("model.canonicalize").calls),
        "model.canonicalize_self_s": per_op(a("model.canonicalize").self_s),
        "model.apply_flow_calls": per_op(a("model.apply_flow").calls),
        "model.apply_flow_self_s": per_op(a("model.apply_flow").self_s),
        "symbolic.feasible_calls": per_op(a("symbolic.feasible").calls),
        "symbolic.feasible_self_s": per_op(a("symbolic.feasible").self_s),
        "symbolic.feasible_pruned_ratio": ratio(
            a("symbolic.feasible").false_results, a("symbolic.feasible").calls),
        "solver.check_calls": per_op(a("solver.check").calls),
        "solver.fresh_queries": per_op(tot["fresh"]),
        "solver.cache_hit_ratio": ratio(tot["hits"], checks),
        "solver.check_self_s": per_op(a("solver.check").self_s),
        "solver.solve_linear_s": per_op(a("solver.solve_linear").self_s),
        "solver.external_queries": per_op(a("solver.solve_linear").raised),
        "trace.overhead_frac": tot["traced_s"] / tot["untraced_s"] - 1,
        "trace.ops": n,
        "trace.wall_s": per_op(tracer.wall_s),
        "trace.unwrapped_s": per_op(tracer.unwrapped_s),
    }
    for cls in ("tick", "env", "start", "internal", "property"):
        m[f"solver.queries.{cls}"] = per_op(by_class.get(cls, 0))
    return m


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    lines = []

    log = lines.append

    queries = workloads.GENERATORS[args.workload](args.seed)
    texts = workloads.read_sources(queries)
    setup = SetUp(queries, texts)
    try:
        if args.trace:
            attempted, failed, metrics = run_traced(
                queries, setup, args.seconds, log)
            phases = setup.phase_medians()
            for k in ("st.parse_s", "st.elaborate_s", "scenario.build_s"):
                metrics[k] = phases[k]
        else:
            attempted, failed, metrics = run_untraced(
                queries, setup, args.seconds, log)
            metrics["setup_s"] = setup.total_median()
    except DeterminismError as e:
        print(f"determinism guard: {e}", file=sys.stderr)
        return 4
    except AccountingError as e:
        print(f"trace accounting: {e}", file=sys.stderr)
        return 5
    log(f"set-up of {len(queries)} queries ({', '.join(q.name for q in queries)}): "
        f"median of {len(setup.passes)} passes {setup.total_median():.6f} s")
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": metrics, "notes": lines}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
