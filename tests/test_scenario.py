"""Scenario loading: JSON documents into ready-to-run system states."""

import json
import tempfile
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from plcreach import bench
from plcreach.explorer import PropertyError, replay, search, simulate
from plcreach.model import TransitionId
from plcreach.por import ReplayError
from plcreach.scenario import (
    Analysis,
    ScenarioError,
    load_scenario,
    scenario_from_dict,
)
from plcreach.solver import SolverUnavailable
from plcreach.st import ElabError, PouTable, parse_file
from plcreach.values import Poly, vmul, vsub

TANK_SRC = """\
PROGRAM TANK
VAR_INPUT
  waterLevel : REAL;
  input : BOOL;
END_VAR
VAR_OUTPUT
  pumpSwitch : INT;
END_VAR
IF input THEN
  pumpSwitch := 1;
ELSE
  pumpSwitch := 0;
END_IF;
END_PROGRAM
"""

HELD_SRC = """\
PROGRAM TANK
VAR_INPUT
  waterLevel : REAL;
  input : BOOL;
END_VAR
VAR_OUTPUT
  pumpSwitch : {out_type};
END_VAR
{body}
END_PROGRAM
"""

TWO_PROG_SRC = TANK_SRC + """
PROGRAM AUX
VAR_OUTPUT
  y : INT;
END_VAR
y := 1;
END_PROGRAM
"""


def table_for(src=TANK_SRC):
    return PouTable.from_units(parse_file(src))


def tank_doc(**over):
    doc = {
        "machines": [
            {
                "id": "plc1",
                "programs": ["TANK"],
                "cycleTime": 10,
                "state": {"waterLevel": 10},
                "flow": {"waterLevel": "waterLevel - pumpSwitch * t"},
                "inputs": {"input": {"kind": "script", "values": [True]}},
            }
        ],
        "analysis": {"mode": "concrete", "bound": 20, "property": "waterLevel < 5"},
    }
    doc.update(over)
    return doc


class TestBuild:
    def test_minimal_scenario_builds(self):
        scen = scenario_from_dict(tank_doc(), table_for())
        (m,) = scen.machines
        assert m.mid == "plc1"
        assert m.cycle_time == F(10)
        assert m.timer == 0 and m.cycle_index == 0
        # declared state plus the actuated output
        assert dict(m.state) == {"waterLevel": F(10), "pumpSwitch": F(0)}
        level_law = vsub(Poly.var("waterLevel"), vmul(Poly.var("pumpSwitch"), Poly.var("t")))
        assert dict(m.flow) == {"waterLevel": level_law}
        (spec,) = m.inputs
        assert (spec.prog, spec.var, spec.kind, spec.values) == ("TANK", "input", "script", (True,))
        s0 = scen.initial_state()
        assert s0.clock == 0 and s0.conns == ()
        assert not s0.options.symbolic

    def test_machine_without_state_is_fine(self):
        doc = tank_doc()
        doc["machines"][0]["programs"] = ["AUX"]
        del doc["machines"][0]["state"]
        del doc["machines"][0]["flow"]
        del doc["machines"][0]["inputs"]
        doc["analysis"] = {}
        scen = scenario_from_dict(doc, table_for(TWO_PROG_SRC))
        # output y still gets a state slot to actuate into
        assert dict(scen.machines[0].state) == {"y": F(0)}

    def test_analysis_defaults(self):
        doc = tank_doc()
        del doc["analysis"]
        scen = scenario_from_dict(doc, table_for())
        assert scen.analysis == Analysis()
        assert scen.analysis.bound == F(100)
        assert scen.options.mode == "concrete"

    def test_preload_marks_first_cycle_started(self):
        doc = tank_doc()
        doc["machines"][0]["preload"] = True
        scen = scenario_from_dict(doc, table_for())
        (m,) = scen.initial_state().machines
        assert m.timer == F(10)
        assert m.cycle_index == 1
        assert not m.cfg.is_cycle_complete()

    def test_preload_rejects_nonscript_inputs(self):
        doc = tank_doc()
        doc["machines"][0]["preload"] = True
        doc["machines"][0]["inputs"]["input"] = {"kind": "enumerate", "values": [True, False]}
        with pytest.raises(ScenarioError, match="preload"):
            scenario_from_dict(doc, table_for())


    @pytest.mark.parametrize("value", ["no", 1])
    def test_preload_is_a_boolean(self, value):
        doc = tank_doc()
        doc["machines"][0]["preload"] = value
        with pytest.raises(ScenarioError, match="machine 'plc1' preload must be true or false"):
            scenario_from_dict(doc, table_for())


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown top-level"):
            scenario_from_dict(tank_doc(extra=1), table_for())

    def test_unknown_machine_key(self):
        doc = tank_doc()
        doc["machines"][0]["cycletime"] = 5
        with pytest.raises(ScenarioError, match="unknown keys"):
            scenario_from_dict(doc, table_for())

    def test_unknown_analysis_key(self):
        doc = tank_doc(analysis={"depth": 3})
        with pytest.raises(ScenarioError, match="analysis: unknown"):
            scenario_from_dict(doc, table_for())

    def test_unknown_program(self):
        doc = tank_doc()
        doc["machines"][0]["programs"] = ["NOPE"]
        with pytest.raises(ScenarioError, match="unknown program"):
            scenario_from_dict(doc, table_for())

    def test_cycle_time_positive(self):
        doc = tank_doc()
        doc["machines"][0]["cycleTime"] = 0
        with pytest.raises(ScenarioError, match="cycleTime"):
            scenario_from_dict(doc, table_for())

    def test_duplicate_machine_ids(self):
        doc = tank_doc()
        doc["machines"].append(dict(doc["machines"][0]))
        with pytest.raises(ScenarioError, match="duplicate machine ids"):
            scenario_from_dict(doc, table_for())

    def test_program_owned_once(self):
        doc = tank_doc()
        second = dict(doc["machines"][0])
        second["id"] = "plc2"
        doc["machines"].append(second)
        with pytest.raises(ScenarioError, match="two machines"):
            scenario_from_dict(doc, table_for())

    def test_flow_needs_known_state(self):
        doc = tank_doc()
        doc["machines"][0]["flow"] = {"ghost": "ghost + t"}
        with pytest.raises(ScenarioError, match="unknown state"):
            scenario_from_dict(doc, table_for())

    def test_flow_names_only_state_and_time(self):
        doc = tank_doc()
        doc["machines"][0]["flow"] = {"waterLevel": "waterLevel + _k * t"}
        with pytest.raises(ScenarioError, match=r"names \['_k'\]"):
            scenario_from_dict(doc, table_for())

    def test_flow_must_be_polynomial(self):
        doc = tank_doc()
        doc["machines"][0]["flow"] = {"waterLevel": "waterLevel < 3"}
        with pytest.raises(ScenarioError, match="polynomial"):
            scenario_from_dict(doc, table_for())

    def test_flow_with_a_character_the_lexer_rejects(self):
        doc = tank_doc()
        doc["machines"][0]["flow"] = {"waterLevel": "waterLevel ? t"}
        with pytest.raises(ScenarioError,
                           match=r"machine 'plc1' flow 'waterLevel': 1:12: unexpected character '\?'"):
            scenario_from_dict(doc, table_for())

    def test_flow_must_be_numeric(self):
        doc = tank_doc()
        doc["machines"][0]["flow"] = {"waterLevel": "'abc'"}
        with pytest.raises(ScenarioError, match="polynomial"):
            scenario_from_dict(doc, table_for())

    @pytest.mark.parametrize("law", ["5", "t", "waterLevel * t"])
    def test_flow_must_start_from_its_variable(self, law):
        doc = tank_doc()
        doc["machines"][0]["flow"] = {"waterLevel": law}
        with pytest.raises(
            ScenarioError,
            match="machine 'plc1' flow 'waterLevel': .*does not start from waterLevel",
        ):
            scenario_from_dict(doc, table_for())

    @pytest.mark.parametrize(
        "out_type, body", [("BOOL", "pumpSwitch := input;"), ("STRING", "pumpSwitch := 'off';")]
    )
    def test_flow_rejects_a_non_numeric_output(self, out_type, body):
        # With the pump held FALSE the level never moves; a law that reads
        # the switch as a number would leave it a free symbol instead.
        src = HELD_SRC.format(out_type=out_type, body=body)
        doc = tank_doc()
        doc["machines"][0]["inputs"]["input"]["values"] = [False]
        with pytest.raises(
            ScenarioError,
            match=r"machine 'plc1' flow 'waterLevel': law 'waterLevel - pumpSwitch \* t' "
            r"names 'pumpSwitch', which is not a numeric state variable",
        ):
            scenario_from_dict(doc, table_for(src))

    def test_string_output_starts_as_the_program_variable_does(self):
        src = HELD_SRC.format(out_type="STRING", body="pumpSwitch := 'off';")
        doc = tank_doc()
        del doc["machines"][0]["flow"]
        scen = scenario_from_dict(doc, table_for(src))
        s0 = scen.initial_state()
        assert dict(s0.machines[0].state)["pumpSwitch"] == ""
        # a text has no order, from the initial state on
        with pytest.raises(PropertyError, match="ordering is undefined"):
            search(scen.context(), s0, "pumpSwitch < 1", bound=20)

    @pytest.mark.parametrize(
        "out_type, value",
        [("BOOL", 0), ("BOOL", 1), ("BOOL", "FALSE"), ("STRING", 0), ("STRING", False),
         ("INT", True), ("INT", "3"), ("REAL", "abc")],
    )
    def test_state_value_must_match_the_declared_type(self, out_type, value):
        src = HELD_SRC.format(out_type=out_type, body="")
        doc = tank_doc()
        del doc["machines"][0]["flow"]
        doc["machines"][0]["state"]["pumpSwitch"] = value
        with pytest.raises(
            ScenarioError,
            match=f"machine 'plc1' state 'pumpSwitch': .* does not match its declared "
            f"type {out_type}",
        ):
            scenario_from_dict(doc, table_for(src))

    def test_declared_inputs_are_checked_too(self):
        doc = tank_doc()
        doc["machines"][0]["state"]["input"] = 1
        with pytest.raises(ScenarioError, match="state 'input': 1 .* declared type BOOL"):
            scenario_from_dict(doc, table_for())

    @pytest.mark.parametrize(
        "out_type, value, holds",
        [("BOOL", False, "pumpSwitch = FALSE"), ("STRING", "on", "pumpSwitch = 'on'"),
         ("INT", 2, "pumpSwitch = 2"), ("REAL", 0.5, "pumpSwitch = 0.5")],
    )
    def test_state_value_of_the_declared_type_is_held(self, out_type, value, holds):
        src = HELD_SRC.format(out_type=out_type, body="")
        doc = tank_doc()
        del doc["machines"][0]["flow"]
        doc["machines"][0]["state"]["pumpSwitch"] = value
        scen = scenario_from_dict(doc, table_for(src))
        s0 = scen.initial_state()
        assert dict(s0.machines[0].state)["pumpSwitch"] == value
        r = search(scen.context(), s0, holds, bound=0)
        assert r.found and r.witnesses[0].path == ()

    def test_flow_rejects_a_boolean_state(self):
        doc = tank_doc()
        doc["machines"][0]["state"]["valve"] = True
        doc["machines"][0]["flow"] = {"waterLevel": "waterLevel - valve * t"}
        with pytest.raises(
            ScenarioError, match="machine 'plc1' flow 'waterLevel': .* names 'valve'"
        ):
            scenario_from_dict(doc, table_for())

    @pytest.mark.parametrize("key", ["por", "clockSep"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_analysis_flags_are_booleans(self, key, value):
        with pytest.raises(ScenarioError, match=f"analysis.{key} must be true or false"):
            scenario_from_dict(tank_doc(analysis={key: value}), table_for())

    @pytest.mark.parametrize("mode", ["Symbolic", "", 1, None])
    def test_analysis_mode_checked(self, mode):
        with pytest.raises(ScenarioError, match="analysis.mode must be 'concrete' or 'symbolic'"):
            scenario_from_dict(tank_doc(analysis={"mode": mode}), table_for())

    @pytest.mark.parametrize("key", ["rcvNoOnPending", "reliableConnect"])
    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_link_flags_are_booleans(self, key, value):
        with pytest.raises(ScenarioError, match=f"{key} must be true or false"):
            scenario_from_dict(tank_doc(**{key: value}), table_for())

    def test_flags_load_as_written(self):
        doc = tank_doc(rcvNoOnPending=True, reliableConnect=False)
        doc["analysis"].update(por=True, clockSep=False)
        scen = scenario_from_dict(doc, table_for())
        assert (scen.options.rcv_no_on_pending, scen.options.reliable_connect) == (True, False)
        assert (scen.options.por, scen.options.clock_sep) == (True, False)

    @pytest.mark.parametrize("bound", [True, False])
    def test_bound_is_not_a_boolean(self, bound):
        with pytest.raises(ScenarioError, match="analysis.bound must be a number"):
            scenario_from_dict(tank_doc(analysis={"bound": bound}), table_for())

    @pytest.mark.parametrize("prop", [5, True, ["waterLevel < 5"]])
    def test_property_is_a_string(self, prop):
        with pytest.raises(ScenarioError, match="analysis.property must be a string"):
            scenario_from_dict(tank_doc(analysis={"property": prop}), table_for())

    @pytest.mark.parametrize(
        "analysis", [{"maxStates": 0}, {"maxStates": True}, {"maxStates": "abc"}]
    )
    def test_analysis_counts_are_positive_integers(self, analysis):
        with pytest.raises(ScenarioError, match="positive integer"):
            scenario_from_dict(tank_doc(analysis=analysis), table_for())

    @pytest.mark.parametrize("value", [0, 1, "abc"])
    def test_max_solutions_is_an_unknown_key(self, value):
        # a search stops at its first witness; there is nothing to set
        doc = tank_doc(analysis={"maxSolutions": value})
        with pytest.raises(ScenarioError, match=r"analysis: unknown keys \['maxSolutions'\]"):
            scenario_from_dict(doc, table_for())

    def test_inputs_must_be_an_object(self):
        doc = tank_doc()
        doc["machines"][0]["inputs"] = "x"
        with pytest.raises(ScenarioError, match="'inputs' must be an object"):
            scenario_from_dict(doc, table_for())

    def test_input_kind_checked(self):
        doc = tank_doc()
        doc["machines"][0]["inputs"]["input"] = {"kind": "random"}
        with pytest.raises(ScenarioError, match="kind"):
            scenario_from_dict(doc, table_for())

    def test_script_needs_values(self):
        doc = tank_doc()
        doc["machines"][0]["inputs"]["input"] = {"kind": "script", "values": []}
        with pytest.raises(ScenarioError, match="non-empty"):
            scenario_from_dict(doc, table_for())

    def test_free_needs_bounds(self):
        doc = tank_doc(analysis={"mode": "symbolic"})
        doc["machines"][0]["inputs"]["input"] = {"kind": "free"}
        with pytest.raises(ScenarioError, match="min/max"):
            scenario_from_dict(doc, table_for())

    def test_free_bounds_ordered(self):
        # With min above max no input value exists, so every path after the
        # first scan start would be infeasible and any verdict vacuous.
        doc = tank_doc(analysis={"mode": "symbolic"})
        doc["machines"][0]["inputs"]["waterLevel"] = {"kind": "free", "min": 5, "max": 1}
        with pytest.raises(ScenarioError, match="min 5 is above max 1"):
            scenario_from_dict(doc, table_for())

    @pytest.mark.parametrize("field", ["cycleTime", "min", "max", "delay_lo", "delay_hi"])
    def test_quantities_are_not_booleans(self, field):
        doc = tank_doc(analysis={"mode": "symbolic"})
        machine = doc["machines"][0]
        if field == "cycleTime":
            machine["cycleTime"] = True
        elif field in ("min", "max"):
            machine["inputs"]["waterLevel"] = {"kind": "free", "min": 0, "max": 1, field: True}
        else:
            machine["programs"] = ["TANK", "AUX"]
            machine["inputs"] = {}
            delay = [True, 20] if field == "delay_lo" else [10, True]
            doc["connections"] = [{"a": "TANK", "b": "AUX", "delay": delay}]
        with pytest.raises(ScenarioError, match="must be a number, got True"):
            scenario_from_dict(doc, table_for(TWO_PROG_SRC))

    @pytest.mark.parametrize("key, value", [("state", [1, 2]), ("flow", ["x"])])
    def test_state_and_flow_must_be_objects(self, key, value):
        doc = tank_doc()
        doc["machines"][0][key] = value
        with pytest.raises(ScenarioError, match=f"'{key}' must be an object"):
            scenario_from_dict(doc, table_for())

    @pytest.mark.parametrize("kind", ["script", "enumerate", "free"])
    def test_input_values_must_be_a_list(self, kind):
        doc = tank_doc(analysis={"mode": "symbolic"})
        doc["machines"][0]["inputs"]["input"] = {"kind": kind, "values": 5}
        with pytest.raises(ScenarioError, match="'values' must be a list"):
            scenario_from_dict(doc, table_for())

    def test_input_var_must_exist(self):
        doc = tank_doc()
        doc["machines"][0]["inputs"]["switch"] = {"kind": "script", "values": [1]}
        with pytest.raises(ScenarioError, match="no variable"):
            scenario_from_dict(doc, table_for())

    def test_input_program_required_when_ambiguous(self):
        doc = tank_doc()
        doc["machines"][0]["programs"] = ["TANK", "AUX"]
        with pytest.raises(ScenarioError, match="'program' required"):
            scenario_from_dict(doc, table_for(TWO_PROG_SRC))

    def test_connection_ends_must_be_loaded(self):
        doc = tank_doc(connections=[{"a": "TANK", "b": "GHOST"}])
        with pytest.raises(ScenarioError, match="not a loaded program"):
            scenario_from_dict(doc, table_for())

    def test_connection_delay_ordered(self):
        doc = tank_doc()
        doc["machines"][0]["programs"] = ["TANK", "AUX"]
        del doc["machines"][0]["inputs"]["input"]
        doc["machines"][0]["inputs"] = {}
        doc["connections"] = [{"a": "TANK", "b": "AUX", "delay": [7, 3]}]
        with pytest.raises(ScenarioError, match="min <= max"):
            scenario_from_dict(doc, table_for(TWO_PROG_SRC))


class TestModes:
    def doc_free(self, mode):
        doc = tank_doc(analysis={"mode": mode})
        doc["machines"][0]["inputs"]["input"] = {
            "kind": "free",
            "values": [True, False],
        }
        return doc

    def test_free_inputs_rejected_in_concrete(self):
        with pytest.raises(ScenarioError, match="symbolic"):
            scenario_from_dict(self.doc_free("concrete"), table_for())

    def test_free_inputs_fine_in_symbolic(self):
        scen = scenario_from_dict(self.doc_free("symbolic"), table_for())
        s0 = scen.initial_state()
        assert s0.options.symbolic

    def test_mode_override_revalidates(self):
        scen = scenario_from_dict(self.doc_free("symbolic"), table_for())
        with pytest.raises(ScenarioError, match="symbolic"):
            scen.initial_state(mode="concrete")

    def test_unknown_override_rejected(self):
        scen = scenario_from_dict(tank_doc(), table_for())
        with pytest.raises(ScenarioError, match="unknown option"):
            scen.initial_state(depth=3)

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("mode", "Symbolic", "'concrete' or 'symbolic'"),
            ("mode", True, "'concrete' or 'symbolic'"),
            ("por", "yes", "true or false"),
            ("clock_sep", 1, "true or false"),
            ("rcv_no_on_pending", 0, "true or false"),
            ("reliable_connect", "false", "true or false"),
        ],
    )
    def test_overrides_checked_like_the_file(self, key, value, expected):
        scen = scenario_from_dict(tank_doc(), table_for())
        with pytest.raises(ScenarioError, match=f"override {key} must be {expected}"):
            scen.initial_state(**{key: value})

    def test_override_flags_flow_into_options(self):
        scen = scenario_from_dict(tank_doc(), table_for())
        opts = scen.initial_state(por=True, clock_sep=True).options
        assert opts.por and opts.clock_sep
        # None means "keep the file's setting"
        assert not scen.initial_state(por=None).options.por


class TestDisk:
    def write(self, tmp_path, doc, src=TANK_SRC):
        (tmp_path / "tank.st").write_text(src)
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        return p

    def test_load_and_search(self, tmp_path):
        doc = tank_doc(sources=["tank.st"])
        scen = load_scenario(self.write(tmp_path, doc))
        res = search(
            scen.context(),
            scen.initial_state(),
            property_text=scen.analysis.property,
            bound=scen.analysis.bound,
        )
        assert res.verdict == "SolutionFound"
        (w,) = res.witnesses
        assert ("plc1", "waterLevel", F(0)) in w.valuations

    def test_missing_source(self, tmp_path):
        doc = tank_doc(sources=["ghost.st"])
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(p)

    def test_no_sources_at_all(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(tank_doc()))
        with pytest.raises(ScenarioError, match="sources"):
            load_scenario(p)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text("{nope")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(p)

    def test_document_must_be_an_object(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text("[1]")
        with pytest.raises(ScenarioError, match="a scenario is a JSON object"):
            load_scenario(p)

    def test_bad_source_reports_file(self, tmp_path):
        doc = tank_doc(sources=["tank.st"])
        p = self.write(tmp_path, doc, src="PROGRAM Broken\nEND_PROGRAM\nwat")
        with pytest.raises(ScenarioError):
            load_scenario(p)

    def test_a_source_the_lexer_rejects_reports_its_name(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(tank_doc()))
        bad = "PROGRAM P VAR x : INT; END_VAR x := 1 ? 2; END_PROGRAM"
        with pytest.raises(ScenarioError, match=r"^bad\.st: 1:39: unexpected character '\?'$"):
            load_scenario(p, extra_sources=((bad, "bad.st"),))

    def test_elaboration_errors_name_where_and_chain_from_the_original(self, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(tank_doc()))
        undeclared = "PROGRAM P VAR x : INT; END_VAR y := 1; END_PROGRAM\n" + TANK_SRC
        not_constant = TANK_SRC.replace("  input : BOOL;\n",
                                        "  input : BOOL;\n  y : INT;\n  x : INT := y + 1;\n")
        for src, where in ((undeclared, "bad.st: "),
                           (not_constant, "machine 'plc1': ")):
            with pytest.raises(ScenarioError) as info:
                load_scenario(p, extra_sources=((src, "bad.st"),))
            assert isinstance(info.value.__cause__, ElabError)
            assert str(info.value) == where + str(info.value.__cause__)

    def test_an_elaboration_error_names_the_source_of_its_unit(self, tmp_path):
        # The faulty unit is in the second of two sources; an error in no
        # one unit (an instantiation cycle) names the scenario file.
        (tmp_path / "tank.st").write_text(TANK_SRC)
        (tmp_path / "bad.st").write_text("PROGRAM P\nVAR x : INT; END_VAR\nzz(1);\nEND_PROGRAM\n")
        p = self.write(tmp_path, tank_doc(sources=["tank.st", "bad.st"]))
        with pytest.raises(ScenarioError) as info:
            load_scenario(p)
        assert str(info.value) == f"{tmp_path / 'bad.st'}: 3:1: P: unresolved name zz"
        assert info.value.__cause__.pou.name == "P"
        (tmp_path / "bad.st").write_text(
            "FUNCTION_BLOCK A\nVAR b : B; END_VAR\nEND_FUNCTION_BLOCK\n"
            "FUNCTION_BLOCK B\nVAR a : A; END_VAR\nEND_FUNCTION_BLOCK\n")
        with pytest.raises(ScenarioError, match=r"scenario\.json: in its sources, recursive"):
            load_scenario(p)

    def test_extra_sources_argument(self, tmp_path):
        doc = tank_doc()
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(doc))
        scen = load_scenario(p, extra_sources=((TANK_SRC, "inline"),))
        assert scen.machines[0].mid == "plc1"


LINK_SRC = """\
PROGRAM LINK
VAR_INPUT
  y : REAL;
END_VAR
VAR_OUTPUT
  o : REAL;
END_VAR
o := y;
END_PROGRAM
"""


def bundled(name):
    """A bundled scenario's document and program table, to edit and load."""
    data = resources.files(bench) / "data"
    doc = json.loads((data / f"{name}.json").read_text())
    units = [u for src in doc["sources"] for u in parse_file((data / src).read_text())]
    return doc, PouTable.from_units(units)


def test_nonlinear_flow_is_rejected_by_search():
    # a free input times elapsed time makes the flow's constraint nonlinear
    doc = {
        "machines": [
            {
                "id": "plc1",
                "programs": ["LINK"],
                "cycleTime": 5,
                "state": {"x": 0},
                "flow": {"x": "x + o * t"},
                "inputs": {"y": {"kind": "free", "min": 0, "max": 10}},
            }
        ],
        "analysis": {"mode": "symbolic", "bound": 20, "property": "x > 5"},
    }
    scen = scenario_from_dict(doc, table_for(LINK_SRC))
    with pytest.raises(SolverUnavailable, match="only linear arithmetic"):
        search(scen.context(), scen.initial_state(), "x > 5", bound=20)


@pytest.mark.parametrize(
    "prop, verdict, states", [("go1 = 1", "SolutionFound", 11), ("go1 = 2", "NoSolution", 19)]
)
def test_free_input_over_finite_values(prop, verdict, states):
    # The bundled `rv` with its first input free over {0, 1}: the fresh
    # variable is constrained to exactly those values.
    doc, table = bundled("rv")
    doc["machines"][0]["inputs"]["input1"] = {
        "program": "VEH1", "kind": "free", "values": [0, 1],
    }
    doc["analysis"]["mode"] = "symbolic"
    scen = scenario_from_dict(doc, table)
    s0 = scen.initial_state(por=True)
    r = search(scen.context(), s0, prop, bound=10)
    assert (r.verdict, r.states_explored) == (verdict, states)
    if r.found:
        (w,) = r.witnesses
        assert w.model["_u0"] == 1


BOOL_INPUT_SRC = """\
PROGRAM P
VAR_INPUT
  b : BOOL;
END_VAR
VAR_OUTPUT
  x : INT;
  y : INT;
  z : INT;
  w : INT;
END_VAR
x := 0; y := 0; z := 0; w := 0;
IF b THEN x := 1; END_IF;
IF NOT b THEN y := 1; END_IF;
IF b AND x = 1 THEN z := 1; END_IF;
IF b = TRUE THEN w := 1; END_IF;
END_PROGRAM
"""


@pytest.mark.parametrize("prop, b", [
    ("x = 1 AND y = 0 AND z = 1 AND w = 1", 1),
    ("x = 0 AND y = 1 AND z = 0 AND w = 0", 0),
    ("x = 1 AND y = 1", None),
])
def test_free_truth_valued_input_is_a_boolean(prop, b):
    # A free input over {TRUE, FALSE} is the atom `_u0 = 1` over a 0/1
    # variable, so IF, NOT, AND and = all take it as a truth value.
    doc = {"machines": [{"id": "plc1", "programs": ["P"], "cycleTime": 10, "state": {},
                         "inputs": {"b": {"kind": "free", "values": [True, False]}}}],
           "analysis": {"mode": "symbolic"}}
    scen = scenario_from_dict(doc, table_for(BOOL_INPUT_SRC))
    r = search(scen.context(), scen.initial_state(), prop, bound=10)
    if b is None:
        assert r.verdict == "NoSolution"
    else:
        (w,) = r.witnesses
        assert w.model["_u0"] == b


TYPED_INPUT_SRC = """\
PROGRAM P
VAR_INPUT
  b : BOOL;
  n : INT;
  txt : STRING;
END_VAR
VAR_OUTPUT
  y : INT;
END_VAR
IF NOT b THEN y := 1; END_IF;
IF txt = 'on' THEN y := n; END_IF;
END_PROGRAM
"""


def typed_input_doc(var, spec):
    inputs = {
        "b": {"kind": "script", "values": [False]},
        "n": {"kind": "script", "values": [2]},
        "txt": {"kind": "script", "values": ["on"]},
    }
    inputs[var] = spec
    return {"machines": [{"id": "plc1", "programs": ["P"], "cycleTime": 10, "state": {},
                          "inputs": inputs}],
            "analysis": {"mode": "symbolic"}}


@pytest.mark.parametrize("var, spec, match", [
    ("b", {"kind": "enumerate", "values": [1, 0]}, "1 does not match its declared type BOOL"),
    ("b", {"kind": "free", "values": [1, 0]}, "1 does not match its declared type BOOL"),
    ("b", {"kind": "script", "values": ["on"]}, "'on' does not match its declared type BOOL"),
    ("b", {"kind": "free", "min": 0, "max": 1}, "a free BOOL input needs a values list"),
    ("n", {"kind": "enumerate", "values": [True, 0]}, "True does not match its declared type INT"),
    ("txt", {"kind": "script", "values": [1]}, "1 does not match its declared type STRING"),
    ("txt", {"kind": "free", "values": ["on", "off"]}, "a STRING input cannot be free"),
    ("txt", {"kind": "free", "min": 0, "max": 1}, "a STRING input cannot be free"),
], ids=["bool-enumerate-numbers", "bool-free-numbers", "bool-text", "bool-free-interval",
        "int-truth-value", "string-number", "string-free-values", "string-free-interval"])
def test_input_values_have_the_declared_type(var, spec, match):
    with pytest.raises(ScenarioError, match=f"input '{var}': {match}"):
        scenario_from_dict(typed_input_doc(var, spec), table_for(TYPED_INPUT_SRC))


def test_a_string_input_reads_its_text():
    doc = typed_input_doc("txt", {"kind": "enumerate", "values": ["on", "off"]})
    scen = scenario_from_dict(doc, table_for(TYPED_INPUT_SRC))
    (spec,) = [i for i in scen.machines[0].inputs if i.var == "txt"]
    assert spec.values == ("on", "off")
    r = search(scen.context(), scen.initial_state(), "y = 2", bound=10)
    assert r.verdict == "SolutionFound"


def _set(*path_and_value):
    """An edit of a document: set the value at a path of keys and indices."""
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return edit


# json.loads accepts these two, and a Fraction holds neither
NAN, INF = json.loads("[NaN, Infinity]")

MALFORMED = [
    ("machine-entry", _set("machines", [1]), "'machines' entries must be objects"),
    ("connection-entry", _set("connections", [1]), "'connections' entries must be objects"),
    ("connections-object", _set("connections", {"a": 1}), "'connections' must be a list"),
    ("connection-end-list", _set("connections", 0, "a", ["x"]), "connection ends 'a' and 'b'"),
    ("bound-nan", _set("analysis", "bound", NAN), "analysis.bound: not a finite number"),
    ("bound-inf", _set("analysis", "bound", INF), "analysis.bound: not a finite number"),
    ("cycle-nan", _set("machines", 0, "cycleTime", NAN), "cycleTime: not a finite number"),
    ("cycle-inf", _set("machines", 0, "cycleTime", INF), "cycleTime: not a finite number"),
    ("state-nan", _set("machines", 0, "state", "level1", NAN), "'level1': not a finite number"),
    ("state-inf", _set("machines", 0, "state", "level1", INF), "'level1': not a finite number"),
    (
        "input-nan",
        _set("machines", 0, "inputs", "input", {"kind": "script", "values": [NAN]}),
        "input 'input': not a finite number",
    ),
    (
        "input-inf",
        _set("machines", 0, "inputs", "input", {"kind": "script", "values": [INF]}),
        "input 'input': not a finite number",
    ),
    ("analysis-number", _set("analysis", 5), "'analysis' must be an object"),
    ("analysis-list", _set("analysis", ["bound"]), "'analysis' must be an object"),
    ("programs-string", _set("machines", 0, "programs", "TANK1"), "'programs' must be a non-empty list of"),
    ("program-name", _set("machines", 0, "programs", [1]), "'programs' must be a non-empty list of"),
]


@pytest.mark.parametrize("edit, match", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED])
def test_malformed_document_names_the_field(edit, match):
    doc, table = bundled("ptpc")
    edit(doc)
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict(doc, table)


# -- the start rule ----------------------------------------------------------


def check_initial_state(scen, s0, doc):
    """An output starts in the plant at the program's value, unless the
    file gives it one; a preloaded machine has published its outputs,
    sensed its inputs and, with clock separation, waits a full cycle for
    the plant."""
    given = {md["id"]: set(md.get("state") or ()) for md in doc["machines"]}
    for m in s0.machines:
        plant = dict(m.state)
        preloaded = m.mid in scen.preload
        for p, env in m.programs:
            pou = scen.table.get(p)
            env = dict(env)
            for d in pou.outputs:
                if d.name in plant and (preloaded or d.name not in given[m.mid]):
                    assert plant[d.name] == m.cfg.read(env[d.name]), (m.mid, d.name)
            for d in pou.inputs if preloaded else ():
                if d.name in plant:
                    assert m.cfg.read(env[d.name]) == plant[d.name], (m.mid, d.name)
        assert m.cycle_index == (1 if preloaded else 0)
        sep = s0.options.clock_sep
        assert m.env_timer == (m.cycle_time if preloaded and sep else 0)


@pytest.mark.parametrize("mode", ["concrete", "symbolic"])
@pytest.mark.parametrize("name", bench.all_names())
def test_initial_state_follows_the_start_rule(name, mode):
    doc, table = bundled(name)
    as_bundled = scenario_from_dict(doc, table)
    # every machine that may be preloaded (script inputs only) is
    for md in doc["machines"]:
        specs = (md.get("inputs") or {}).values()
        md["preload"] = all(spec["kind"] == "script" for spec in specs)
    preloaded = scenario_from_dict(doc, table)
    for scen in (as_bundled, preloaded):
        for clock_sep in (False, True):
            s0 = scen.initial_state(mode=mode, clock_sep=clock_sep)
            check_initial_state(scen, s0, doc)


def test_preloaded_tank_senses_the_plant():
    doc, table = bundled("tank")
    doc["machines"][0]["preload"] = True
    scen = scenario_from_dict(doc, table)
    (m,) = scen.initial_state().machines
    assert m.cfg.read(dict(dict(m.programs)["TANK"])["waterLevel"]) == 10


def test_clock_separated_preload_takes_its_first_scan():
    # Both machines of `diamond` are preloaded with a cycle of 3: their
    # second scan starts when the plant has caught up, at clock 3.
    scen = bench.load("diamond")
    s0 = scen.initial_state(clock_sep=True)
    trace = simulate(scen.context(), s0, 7)
    starts = [s.clock for tid, s in trace[1:] if tid.cls == "start"]
    assert starts == [3, 6]


OUT_INIT_SRC = """\
PROGRAM P
VAR_OUTPUT
  pump : INT := 1;
  mode : STRING := "auto";
END_VAR
END_PROGRAM
"""


def test_output_initializers_reach_the_plant():
    doc = {"machines": [{"id": "m", "programs": ["P"], "cycleTime": 5}]}
    scen = scenario_from_dict(doc, table_for(OUT_INIT_SRC))
    s0 = scen.initial_state()
    assert dict(s0.machines[0].state) == {"mode": "auto", "pump": 1}
    r = search(scen.context(), s0, "pump = 1", bound=0)
    assert r.found and r.witnesses[0].path == ()


def test_preloaded_machine_publishes_over_the_file_value():
    doc = {"machines": [{"id": "m", "programs": ["P"], "cycleTime": 5,
                         "state": {"pump": 7}, "preload": True}]}
    scen = scenario_from_dict(doc, table_for(OUT_INIT_SRC))
    assert dict(scen.machines[0].state)["pump"] == 7
    assert dict(scen.initial_state().machines[0].state)["pump"] == 1


# -- the link-stability gate -------------------------------------------------

LINK_SRC_TEMPLATE = """\
PROGRAM A
VAR comm : CONNECT; go : BOOL; n : INT; END_VAR
comm(TRUE, 'B');
{stmt}
END_PROGRAM
PROGRAM B
VAR x : INT; END_VAR
x := 1;
END_PROGRAM
"""


def test_numbers_from_outside_are_ints_when_integral():
    """The file's numbers, the search bound and the simulation horizon reach
    the engine as ints when integral, as Fractions otherwise, never as floats."""
    doc = tank_doc(analysis={"mode": "concrete", "bound": "40/2"})
    doc["machines"][0].update(cycleTime=10.0, state={"waterLevel": 2.5})
    scen = scenario_from_dict(doc, table_for())
    (m,) = scen.machines
    s0 = scen.initial_state()
    (conn,) = linked(delay=(10.0, "40/2")).conns
    got = [m.cycle_time, dict(m.state)["waterLevel"], m.timer, m.env_timer, s0.clock,
           scen.analysis.bound, conn.delay_lo, conn.delay_hi]
    assert got == [10, F(5, 2), 0, 0, 0, 20, 10, 20]
    assert [type(v) for v in got] == [int, F, int, int, int, int, int, int]
    assert type(search(scen.context(), s0, bound=F(20, 2)).bound) is int
    assert type(simulate(scen.context(), s0, F(40, 2))[-1][1].clock) is int


def linked(stmt="", delay=(10, 20)):
    doc = {
        "machines": [
            {"id": "m1", "programs": ["A"], "cycleTime": 10},
            {"id": "m2", "programs": ["B"], "cycleTime": 10},
        ],
        "connections": [{"a": "A", "b": "B", "delay": list(delay)}],
    }
    return scenario_from_dict(doc, table_for(LINK_SRC_TEMPLATE.format(stmt=stmt)))


@pytest.mark.parametrize(
    "stmt, delay",
    [
        pytest.param("", (0, 20), id="zero-minimum-delay"),
        pytest.param("//delay(A, B, 5, 10)", (10, 20), id="delay-annotation"),
        pytest.param("disconnect('B');", (10, 20), id="disconnect"),
        pytest.param("IF n = 0 THEN disconnect('B'); END_IF;", (10, 20), id="disconnect-in-then"),
        pytest.param(
            "IF n = 0 THEN n := 1; ELSE disconnect('B'); END_IF;", (10, 20), id="disconnect-in-else"
        ),
        pytest.param(
            "WHILE n = 0 DO n := 1; disconnect('B'); END_WHILE;", (10, 20), id="disconnect-in-while"
        ),
        pytest.param("comm(go, 'B');", (10, 20), id="connect-enable-not-literal"),
        pytest.param("comm(ENC := FALSE, PARTNER := 'B');", (10, 20), id="connect-enable-false"),
    ],
)
def test_link_stability_gate_closes(stmt, delay):
    assert linked().context().comm_ample
    assert not linked(stmt, delay).context().comm_ample


@pytest.mark.parametrize("name", ["commdemo", "ptpc", "rvc", "therc", "swat2", "query1", "query2"])
def test_link_stability_gate_is_open_on_the_networked_models(name):
    scen = bench.load(name)
    assert scen.conns
    assert scen.context().comm_ample


FB_SRC = TANK_SRC + """
FUNCTION_BLOCK LATCH
VAR_OUTPUT
  q : BOOL;
END_VAR
q := TRUE;
END_FUNCTION_BLOCK
"""


def _machine_edit(**fields):
    """A document edit setting the machine's `fields`; None drops one."""

    def edit(doc):
        m = doc["machines"][0]
        for k, v in fields.items():
            if v is None:
                del m[k]
            else:
                m[k] = v

    return edit


def _two_programs(**top):
    """A document edit loading TANK and AUX on the machine, with `top`."""

    def edit(doc):
        _machine_edit(programs=["TANK", "AUX"], inputs={})(doc)
        doc.update(top)

    return edit


def _rejected_document(edit, src=TANK_SRC, mode="concrete"):
    def load():
        doc = tank_doc(analysis={"mode": mode})
        edit(doc)
        scenario_from_dict(doc, table_for(src))

    return load


def _rejected_property(name, text):
    def load():
        scen = bench.load(name)
        search(scen.context(), scen.initial_state(), text, bound=1)

    return load


def _rejected_sources(sources):
    """A load of a scenario file, next to `tank.st`, that lists `sources`."""

    def load():
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "tank.st").write_text(TANK_SRC)
            path = Path(d) / "scenario.json"
            path.write_text(json.dumps(tank_doc(sources=sources)))
            load_scenario(path)

    return load


def _rejected_source(text):
    """A load of a scenario file whose one source, `bad.st`, is `text`."""

    def load():
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "scenario.json"
            path.write_text(json.dumps(tank_doc()))
            load_scenario(path, extra_sources=((text, "bad.st"),))

    return load


def _rejected_body(stmt):
    """`_rejected_source` with the TANK program and a program P whose body,
    on line 3, is `stmt`."""
    return _rejected_source(
        f"PROGRAM P\nVAR c : CONNECT; x : INT; END_VAR\n{stmt}\nEND_PROGRAM\n{TANK_SRC}")


def _rejected_replay(name, tid):
    def load():
        scen = bench.load(name)
        replay(scen.context(), scen.initial_state(), [tid])

    return load


@pytest.mark.parametrize(
    "load, error, message",
    [
        pytest.param(
            lambda: bench.load("nope"), KeyError, "unknown benchmark 'nope'; choose from ptp,",
            id="benchmark-unknown",
        ),
        pytest.param(
            _rejected_document(_machine_edit(
                state={"waterLevel": 10, "t": 0},
                flow={"waterLevel": "waterLevel - pumpSwitch * t", "t": "t + t"})),
            ScenarioError, "^machine 'plc1' flow 't': 't' cannot be a state variable$",
            id="flow-of-the-time-variable",
        ),
        pytest.param(
            _rejected_document(_machine_edit(flow={"waterLevel": "waterLevel + a.b * t"})),
            ScenarioError, "^machine 'plc1' flow 'waterLevel': cannot name a.b here$",
            id="flow-names-a-field",
        ),
        pytest.param(
            _rejected_document(_machine_edit(flow={"waterLevel": "waterLevel + f(1) * t"})),
            ScenarioError, r"^machine 'plc1' flow 'waterLevel': cannot call f here$",
            id="flow-calls",
        ),
        pytest.param(
            _rejected_property("ptp", "plc9.level1 > 1"), PropertyError,
            "^cannot evaluate 'plc9.level1 > 1': no machine plc9$",
            id="property-unknown-machine",
        ),
        pytest.param(
            _rejected_replay("ptp", TransitionId("tick", "", "tick", (1000000,))), ReplayError,
            r"^transition tick\[1000000\] not enabled$", id="replay-a-tick-too-long",
        ),
        pytest.param(
            _rejected_body("//delay(1, B, 1, 2)"), ScenarioError,
            "^bad.st: 3:1: delay expects an identifier, got '1'$", id="delay-from-a-number",
        ),
        pytest.param(
            _rejected_body("//assertTime(a, 2)"), ScenarioError,
            "^bad.st: 3:1: bad annotation number 'a'$", id="assert-time-from-a-name",
        ),
        pytest.param(
            _rejected_source(f"PROGRAM P\nVAR c : CONNECT := 1; END_VAR\nEND_PROGRAM\n{TANK_SRC}"),
            ScenarioError,
            r"^bad\.st: 2:5: block instance c cannot take an initializer$",
            id="initializer-on-an-instance",
        ),
        pytest.param(
            _rejected_body("zz(1);"), ScenarioError,
            r"^bad\.st: 3:1: P: unresolved name zz$", id="call-undeclared",
        ),
        pytest.param(
            _rejected_body("y := 1;"), ScenarioError,
            r"^bad\.st: 3:1: P: assignment to undeclared y$",
            id="assign-undeclared",
        ),
        pytest.param(
            _rejected_body("c(TRUE, 'x', 3);"), ScenarioError,
            r"^bad\.st: 3:1: P: too many arguments to c$",
            id="call-too-many-arguments",
        ),
        pytest.param(
            _rejected_body("x := foo(1);"), ScenarioError,
            r"^bad\.st: 3:6: P: foo is not callable in an expression$",
            id="call-in-an-expression",
        ),
        pytest.param(
            _rejected_source(TANK_SRC.replace("  input : BOOL;\n",
                                              "  input : BOOL;\n  y : INT;\n  x : INT := y + 1;\n")),
            ScenarioError,
            "^machine 'plc1': 6:16: initializer is not constant: cannot name y here$",
            id="initializer-not-constant",
        ),
        pytest.param(
            _rejected_document(_machine_edit(cycleTime="ten")), ScenarioError,
            "machine 'plc1' cycleTime: not a number: 'ten'", id="cycle-time-text",
        ),
        pytest.param(
            _rejected_document(_machine_edit(cycleTime=[10])), ScenarioError,
            r"machine 'plc1' cycleTime: unsupported value \[10\]", id="cycle-time-list",
        ),
        pytest.param(
            _rejected_document(_machine_edit(cycleTime=None)), ScenarioError,
            "machine 'plc1': 'cycleTime' is required", id="cycle-time-missing",
        ),
        pytest.param(
            _rejected_document(_machine_edit(id=None)), ScenarioError,
            r"machine entry: 'id' \(string\) is required", id="id-missing",
        ),
        pytest.param(
            _rejected_document(_machine_edit(flow={"waterLevel": "waterLevel - * t"})),
            ScenarioError, "machine 'plc1' flow 'waterLevel': 1:14: expected an expression",
            id="flow-unparsable",
        ),
        pytest.param(
            _rejected_document(_machine_edit(inputs={"input": 5})), ScenarioError,
            "machine 'plc1' input 'input': expected an object", id="input-not-an-object",
        ),
        pytest.param(
            _rejected_document(
                _machine_edit(inputs={"y": {"program": "AUX", "kind": "script", "values": [1]}}),
                TWO_PROG_SRC,
            ),
            ScenarioError, "machine 'plc1' input 'y': 'AUX' not on this machine",
            id="input-program-elsewhere",
        ),
        pytest.param(
            _rejected_document(
                _machine_edit(inputs={"waterLevel": {"kind": "free", "values": []}}),
                mode="symbolic",
            ),
            ScenarioError, "machine 'plc1' input 'waterLevel': empty domain",
            id="free-input-empty-values",
        ),
        pytest.param(
            _rejected_document(
                _machine_edit(inputs={"waterLevel": {"kind": "free"}}), mode="symbolic"
            ),
            ScenarioError, "machine 'plc1' input 'waterLevel': free inputs need min/max",
            id="free-input-unbounded",
        ),
        pytest.param(
            _rejected_document(_machine_edit(programs=["LATCH"], inputs={}), FB_SRC),
            ScenarioError, "machine 'plc1': 'LATCH' is not a program", id="block-as-program",
        ),
        pytest.param(
            _rejected_document(lambda doc: doc.update(machines=[])), ScenarioError,
            "'machines' must be a non-empty list", id="no-machines",
        ),
        pytest.param(
            _rejected_document(
                _two_programs(connections=[{"a": "TANK", "b": "AUX", "latency": 5}]),
                TWO_PROG_SRC,
            ),
            ScenarioError, r"connection entry: unknown keys \['latency'\]",
            id="connection-unknown-key",
        ),
        pytest.param(
            _rejected_document(lambda doc: doc["analysis"].update(bound=-1)), ScenarioError,
            "analysis.bound must be >= 0", id="bound-negative",
        ),
        pytest.param(
            _rejected_document(
                _two_programs(connections=[{"a": "TANK", "b": "AUX", "delay": [5]}]),
                TWO_PROG_SRC,
            ),
            ScenarioError, r"connection delay must be \[min, max\]", id="delay-one-element",
        ),
        pytest.param(
            _rejected_document(
                _two_programs(connections=[{"a": "TANK", "b": "AUX"}, {"a": "AUX", "b": "TANK"}]),
                TWO_PROG_SRC,
            ),
            ScenarioError, "duplicate connection", id="connection-twice",
        ),
        pytest.param(
            _rejected_property("ptpc", "tank1.nosuch < 2"), PropertyError,
            "tank1 has no state variable nosuch", id="property-unknown-variable",
        ),
        pytest.param(
            _rejected_property("ptp", "level ? 1"), PropertyError,
            r"^cannot parse 'level \? 1': 1:7: unexpected character '\?'$", id="property-unlexable",
        ),
        pytest.param(
            _rejected_property("ptp", "level >"), PropertyError,
            r"^cannot parse 'level >': 1:8: expected an expression", id="property-unparsable",
        ),
        pytest.param(
            _rejected_sources([3]), ScenarioError, "source 3 is not a file name",
            id="source-a-number",
        ),
        pytest.param(
            _rejected_sources([["tank.st"]]), ScenarioError,
            r"source \['tank.st'\] is not a file name", id="source-a-list",
        ),
        pytest.param(
            _rejected_sources(["."]), ScenarioError, "source file '.' not found",
            id="source-a-directory",
        ),
        pytest.param(
            _rejected_sources("tank.st"), ScenarioError,
            "'sources' must be a list of file names, got 'tank.st'", id="sources-a-string",
        ),
        pytest.param(
            _rejected_sources({"tank.st": 1}), ScenarioError,
            r"'sources' must be a list of file names, got \{'tank.st': 1\}", id="sources-an-object",
        ),
    ],
)
def test_rejections_are_clean_errors(load, error, message):
    with pytest.raises(error, match=message):
        load()
