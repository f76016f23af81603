"""Reachability search: verdicts, witnesses, pruning, replay."""

import random
from fractions import Fraction

import pytest

from plcreach import bench
from plcreach.explorer import (
    BOUND_EXHAUSTED,
    NO_SOLUTION,
    SOLUTION_FOUND,
    PropertyError,
    Timelocks,
    compile_property,
    random_walk,
    replay,
    search,
    simulate,
    trace_lines,
)
from plcreach.model import InputSpec, ModelError, Options, canonicalize
from plcreach.por import successors
from plcreach.solver import SmtCheck
from plcreach.symbolic import evaluate_path
from plcreach.st import PouTable, parse_file
from plcreach.timed import RuleCtx, diagnose_stuck
from plcreach.values import copy_with

from test_system import (
    IDLE_SRC,
    STEP2_SRC,
    TANK_SRC,
    ctx_for,
    diamond_system,
    level_flow,
    make_machine,
    make_system,
    successors_replay,
    table_for,
)

F = Fraction


def tank_system(options=None):
    table = table_for(TANK_SRC)
    m = make_machine(
        table,
        "plc1",
        ("TANK",),
        state={"waterLevel": F(10), "pumpSwitch": F(0)},
        flows={"waterLevel": level_flow()},
        cycle_time=10,
        inputs=(InputSpec("TANK", "input", "script", (True,)),),
    )
    return ctx_for(table), make_system([m], options=options)


class TestConcreteSearch:
    def test_drain_reachable(self):
        ctx, s0 = tank_system()
        r = search(ctx, s0, "waterLevel < 5", bound=20)
        assert r.verdict == SOLUTION_FOUND
        w = r.witnesses[0]
        assert ("plc1", "waterLevel", F(0)) in w.valuations
        assert w.model == {}
        # the path replays to the witness state
        end = replay(ctx, s0, w.path)
        assert canonicalize(end) == canonicalize(w.state)

    def test_a_start_state_past_the_bound_has_no_solution(self):
        # the property holds at a state the run reached at clock 20, but a
        # witness must lie inside the bound
        ctx, s0 = tank_system()
        _, late = simulate(ctx, s0, 20)[-1]
        assert late.clock == 20 and dict(late.machines[0].state)["waterLevel"] == 0
        r = search(ctx, late, "waterLevel < 5", bound=19)
        assert (r.verdict, r.states_explored, r.witnesses) == (NO_SOLUTION, 1, [])
        r = search(ctx, late, "waterLevel < 5", bound=20)
        assert r.verdict == SOLUTION_FOUND and r.witnesses[0].path == ()

    @pytest.mark.parametrize("bound", [-5, F(-1, 2)])
    def test_negative_bound_rejected(self, bound):
        ctx, s0 = tank_system()
        with pytest.raises(ValueError, match="bound must be >= 0"):
            search(ctx, s0, "waterLevel < 5", bound=bound)

    def test_overfill_unreachable(self):
        ctx, s0 = tank_system()
        r = search(ctx, s0, "waterLevel > 20", bound=20)
        assert r.verdict == NO_SOLUTION
        assert r.witnesses == []
        assert r.states_explored > 0

    def test_bound_prunes_time(self):
        ctx, s0 = tank_system()
        r = search(ctx, s0, "waterLevel < 5", bound=9)
        # one full scan fits, but no jump past the 10-unit boundary
        assert r.verdict == NO_SOLUTION
        # initial, started, scan folded into one run
        assert r.states_explored == 3
        assert len(r.endpoints) == 1  # the initial due state

    def test_state_cap_reports_exhaustion(self):
        ctx, s0 = tank_system()
        r = search(ctx, s0, "waterLevel < 5", bound=200, max_states=4)
        assert r.verdict == BOUND_EXHAUSTED

    def test_a_capped_search_checks_the_states_it_left_unexpanded(self):
        # `therc` meets its property with 10 states stored; a cap of 5
        # stores the witness before it would expand it.
        scen = bench.load("therc")
        prop = scen.analysis.property
        full = search(scen.context(), scen.initial_state(), prop, bound=30)
        assert full.verdict == SOLUTION_FOUND and full.states_explored == 10
        for cap in (10, 5):
            r = search(scen.context(), scen.initial_state(), prop, bound=30, max_states=cap)
            assert r.verdict == SOLUTION_FOUND and r.states_explored == cap
            assert [w.path for w in r.witnesses] == [w.path for w in full.witnesses]
        r = search(scen.context(), scen.initial_state(), prop, bound=30, max_states=2)
        assert r.verdict == BOUND_EXHAUSTED and not r.witnesses

    @pytest.mark.parametrize("max_states", [1, 2, 3])
    def test_the_state_cap_counts_the_initial_state(self, max_states):
        scen = bench.load("therc")
        r = search(scen.context(), scen.initial_state(), bound=30, max_states=max_states)
        assert r.verdict == BOUND_EXHAUSTED
        assert r.states_explored == max_states

    @pytest.mark.parametrize("max_states", [0, -3, True, 2.5])
    def test_state_cap_must_be_a_positive_int(self, max_states):
        scen = bench.load("tank")
        with pytest.raises(ValueError, match="max_states must be a positive integer"):
            search(scen.context(), scen.initial_state(), bound=scen.analysis.bound,
                   max_states=max_states)

    @pytest.mark.parametrize("bound", [True, False])
    def test_a_boolean_bound_is_rejected(self, bound):
        scen = bench.load("tank")
        with pytest.raises(ValueError, match=f"bound must be a number, got {bound}"):
            search(scen.context(), scen.initial_state(), bound=bound)

    def test_jsonable_shape(self):
        ctx, s0 = tank_system()
        r = search(ctx, s0, "waterLevel < 5", bound=20)
        d = r.to_jsonable()
        assert d["verdict"] == "SolutionFound"
        assert d["statesExplored"] == r.states_explored
        assert isinstance(d["witnesses"][0]["path"], list)


class TestReductionCounts:
    def test_diamond_full_and_reduced(self):
        ctx, s = diamond_system()
        full = search(ctx, s, bound=3)
        reduced = search(ctx, copy_with(s, options=Options(por=True)), bound=3)
        assert full.states_explored == 8
        assert reduced.states_explored == 4
        assert full.verdict == NO_SOLUTION and reduced.verdict == NO_SOLUTION


class TestTimelocks:
    def test_a_networked_graph_reports_its_timelocks(self):
        scen = bench.load("commdemo")
        s0 = scen.initial_state(por=True)
        r = search(scen.context(), s0, bound=30)
        assert (r.verdict, r.states_explored) == (NO_SOLUTION, 611)
        tl = r.timelocks
        assert tl.count == 6
        assert any(note.endswith("expired undelivered") for note in tl.reasons)
        # the path replays, in the full graph, to a state that cannot move
        s = replay(scen.context(), s0, tl.path)
        assert s.clock == tl.earliest
        assert successors(scen.context(), s, por=False) == []
        assert set(diagnose_stuck(s)) <= set(tl.reasons)
        d = r.to_jsonable()
        assert d["timelocks"]["count"] == 6
        assert d["timelocks"]["path"] == [t.pretty() for t in tl.path]
        # the verdict says that its graph holds time-locks
        assert list(d.items())[:2] == [("verdict", NO_SOLUTION), ("timelocked", True)]

    def test_a_graph_without_timelocks_reports_none(self):
        scen = bench.load("ptpc")
        r = search(scen.context(), scen.initial_state(por=False), bound=10)
        assert r.timelocks == Timelocks()
        assert r.to_jsonable()["timelocks"] == {
            "count": 0, "earliestClock": None, "reasons": [], "path": []}
        assert r.to_jsonable()["timelocked"] is False



SYMB_SRC = """
PROGRAM P1
VAR_INPUT
  y : INT;
END_VAR
VAR_OUTPUT
  o : INT;
END_VAR
o := y;
END_PROGRAM
"""


def symb_system():
    table = table_for(SYMB_SRC)
    m = make_machine(
        table,
        "m1",
        ("P1",),
        state={"o": F(0)},
        cycle_time=5,
        inputs=(InputSpec("P1", "y", "free", lo=F(0), hi=F(10)),),
    )
    s = make_system([m], options=Options(mode="symbolic"))
    return ctx_for(table), s


class TestSymbolicSearch:
    def test_witness_with_model(self):
        ctx, s0 = symb_system()
        r = search(ctx, s0, "o = 7", bound=10)
        assert r.verdict == SOLUTION_FOUND
        w = r.witnesses[0]
        assert ("m1", "o", F(7)) in w.valuations
        assert F(7) in {Fraction(v) for v in w.model.values()}

    def test_witness_model_satisfies_its_path(self):
        ctx, s0 = symb_system()
        (w,) = search(ctx, s0, "o = 7", bound=10).witnesses
        assert w.state.constraints and w.model
        assert evaluate_path(w.state, w.model)
        # every free input lies in [0, 10]
        assert not evaluate_path(w.state, {name: 11 for name in w.model})

    def test_out_of_domain_unsat(self):
        ctx, s0 = symb_system()
        r = search(ctx, s0, "o > 50", bound=10)
        assert r.verdict == NO_SOLUTION

    def test_query_classes_are_split(self):
        ctx, s0 = symb_system()
        r = search(ctx, s0, "o = 7", bound=10)
        assert set(r.smt_by_class) <= {"start", "tick", "internal", "env", "property"}
        assert r.smt_queries == sum(r.smt_by_class.values())


class TestPropertyCompiler:
    def test_unknown_name_rejected(self):
        ctx, s0 = tank_system()
        with pytest.raises(PropertyError):
            compile_property(s0, "nonsense > 1")

    def test_ambiguous_name_needs_qualifier(self):
        table = table_for(STEP2_SRC.format(n=1), STEP2_SRC.format(n=2))
        mk = lambda mid, prog: make_machine(
            table, mid, (prog,), state={"v": F(1)}, cycle_time=3, preload=True
        )
        s = make_system([mk("m1", "Q1"), mk("m2", "Q2")])
        with pytest.raises(PropertyError):
            compile_property(s, "v > 0")
        p = compile_property(s, "m1.v > 0 AND m2.v > 0")
        assert p(s) is True

    def test_boolean_structure(self):
        ctx, s0 = tank_system()
        p = compile_property(s0, "waterLevel < 2 OR waterLevel > 35")
        assert p(s0) is False
        p2 = compile_property(s0, "NOT (waterLevel < 2) AND pumpSwitch = 0")
        assert p2(s0) is True

    def test_arithmetic(self):
        ctx, s0 = tank_system()
        p = compile_property(s0, "waterLevel * 2 - 5 = 15")
        assert p(s0) is True
        p2 = compile_property(s0, "waterLevel / 4 <= 2")
        assert p2(s0) is False

    @pytest.mark.parametrize("mode", ["concrete", "symbolic"])
    @pytest.mark.parametrize(
        "text", ["level1 AND pump1", "NOT level1", "level1 + 1", "level1 = TRUE"]
    )
    def test_ill_typed_property_rejected(self, text, mode):
        # level1 and pump1 are numbers; none of these is a boolean property.
        scen = bench.load("query1")
        s0 = scen.initial_state(mode=mode)
        with pytest.raises(PropertyError):
            search(scen.context(), s0, text, bound=5)


    @pytest.mark.parametrize("text", ["level1 = 'a'", "'a' <> pump1", "level1 = 'a' OR TRUE"])
    def test_text_compared_with_a_number_rejected(self, text):
        scen = bench.load("ptpc")
        with pytest.raises(PropertyError, match="type mismatch"):
            search(scen.context(), scen.initial_state(), text, bound=5)


class TestWalksAndTraces:
    def test_random_walk_replays(self):
        ctx, s0 = tank_system()
        rng = random.Random(7)
        walk = random_walk(ctx, s0, 15, rng)
        assert walk
        path = [tid for tid, _ in walk]
        end = replay(ctx, s0, path)
        assert canonicalize(end) == canonicalize(walk[-1][1])

    @pytest.mark.parametrize("name, mode", [
        ("commdemo", "symbolic"), ("query1", "symbolic"), ("ptpc", "concrete")])
    def test_every_successor_on_a_walk_replays_by_its_id(self, name, mode):
        scen = bench.load(name)
        s0 = scen.initial_state(mode=mode)
        ctx = scen.context()
        for seed in range(3):
            for _, s in [(None, s0)] + random_walk(ctx, s0, 25, random.Random(seed)):
                successors_replay(ctx, s)

    def test_trace_lines_render(self):
        ctx, s0 = tank_system()
        r = search(ctx, s0, "waterLevel < 5", bound=20)
        lines = trace_lines(ctx, s0, r.witnesses[0].path)
        assert len(lines) == len(r.witnesses[0].path) + 1
        assert "initial" in lines[0]
        assert any("start" in ln for ln in lines)
        assert any("tick" in ln for ln in lines)


# The interpreter does not type-check: `NOT` of an INT fails only when the
# scan reaches it, after an assignment that a chain of private steps takes.
NOT_INT_SRC = """
PROGRAM P
VAR_OUTPUT
  y : INT;
END_VAR
y := 1;
y := NOT y;
END_PROGRAM
"""


class TestRuntimeFailure:
    """A scan that fails at run time ends the run, naming the machine."""

    FAILURE = "machine plc1: runtime failure: NOT expects a boolean, got 1"

    def _system(self, **options):
        table = table_for(NOT_INT_SRC)
        m = make_machine(table, "plc1", ("P",), state={"y": 0})
        return ctx_for(table), make_system([m], options=Options(**options))

    @pytest.mark.parametrize("mode", ["concrete", "symbolic"])
    @pytest.mark.parametrize("por", [False, True], ids=["full", "por"])
    def test_search_raises(self, mode, por):
        ctx, s0 = self._system(mode=mode, por=por)
        with pytest.raises(ModelError, match=self.FAILURE):
            search(ctx, s0, bound=20)

    def test_simulate_raises(self):
        ctx, s0 = self._system()
        with pytest.raises(ModelError, match=self.FAILURE):
            simulate(ctx, s0, 20)
