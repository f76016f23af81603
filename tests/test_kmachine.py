"""Execution-engine tests: scan cycles, block state, suspension."""

from fractions import Fraction

import pytest

from plcreach.kmachine import (
    Branch,
    Done,
    Failed,
    Internal,
    KConfig,
    NeedsComm,
    allocate,
    config_key,
    config_vars,
    const_eval,
    load_programs,
    pop_head,
    resume_comm,
    step,
)
from plcreach.st import Lit, PouTable, expr_to_st, parse_expression, parse_file
from plcreach.st.ast import AssertTimeAnn, DelayAnn
from plcreach.values import Cmp, Poly, RCV_ERROR

TANK_SRC = """
PROGRAM T1
    VAR_INPUT
        waterLevel : REAL;
    END_VAR
    VAR_OUTPUT
        pumpSwitch : INT;
    END_VAR
    VAR
        input : BOOL;
    END_VAR
    IF input THEN
        pumpSwitch := 1;
    ELSE
        pumpSwitch := 0;
    END_IF;
END_PROGRAM
"""


def make(src, programs=None):
    """`(table, layout, idle cfg)`: `layout` pairs each program with its env."""
    units = parse_file(src)
    table = PouTable.from_units(units)
    names = programs or [u.name for u in units if u.kind == "program"]
    return (table, *allocate(table, names))


def prog_loc(layout: tuple, prog: str, name: str) -> int:
    env = dict(dict(layout)[prog])
    return env[name]


def read_var(layout: tuple, cfg: KConfig, prog: str, name: str):
    return cfg.read(prog_loc(layout, prog, name))


def run_cycle(table, layout, cfg, comm=None, max_steps=500):
    cfg = load_programs(table, layout, cfg)
    labels = []
    for _ in range(max_steps):
        r = step(table, cfg)
        if isinstance(r, Done):
            return cfg, labels
        if isinstance(r, Internal):
            cfg = r.cfg
            labels.append(r.label)
        elif isinstance(r, NeedsComm):
            value = comm[r.name](r.argvalues)
            cfg = resume_comm(cfg, r.site, value)
            labels.append(r.name)
        elif isinstance(r, AssertTimeAnn):
            cfg = pop_head(cfg)
            labels.append("assert")
        else:
            raise AssertionError(f"unexpected outcome {r}")
    raise AssertionError("cycle did not finish")


class TestScanCycle:
    def test_tank_both_branches(self):
        table, layout, cfg = make(TANK_SRC)
        assert cfg.is_cycle_complete()
        cfg, labels = run_cycle(table, layout, cfg)
        assert labels == ["if-false", "assign"]
        assert read_var(layout, cfg, "T1", "pumpSwitch") == 0
        cfg = cfg.write(prog_loc(layout, "T1", "input"), True)
        cfg, labels = run_cycle(table, layout, cfg)
        assert labels == ["if-true", "assign"]
        assert read_var(layout, cfg, "T1", "pumpSwitch") == 1

    def test_single_assignment_is_one_step(self):
        table, layout, cfg = make("PROGRAM P VAR x : INT; END_VAR x := 1; END_PROGRAM")
        cfg = load_programs(table, layout, cfg)
        r = step(table, cfg)
        assert isinstance(r, Internal) and r.label == "assign"
        assert r.cfg.is_cycle_complete()

    def test_while_loop(self):
        src = """
        PROGRAM P
            VAR i : INT; END_VAR
            WHILE i < 3 DO
                i := i + 1;
            END_WHILE
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg, labels = run_cycle(table, layout, cfg)
        assert read_var(layout, cfg, "P", "i") == 3
        assert labels.count("while") == 4
        assert labels.count("if-true") == 3
        assert labels.count("if-false") == 1

    def test_two_programs_in_order(self):
        src = """
        PROGRAM A VAR_OUTPUT x : INT; END_VAR x := 1; END_PROGRAM
        PROGRAM B VAR_OUTPUT y : INT; END_VAR y := 2; END_PROGRAM
        """
        table, layout, cfg = make(src, programs=["A", "B"])
        cfg, labels = run_cycle(table, layout, cfg)
        assert labels == ["assign", "assign"]
        assert read_var(layout, cfg, "A", "x") == 1
        assert read_var(layout, cfg, "B", "y") == 2

    def test_exact_division_and_arithmetic(self):
        from fractions import Fraction

        src = """
        PROGRAM P
            VAR a : REAL; b : REAL; END_VAR
            a := 1 / 3;
            b := a * 3;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg, _ = run_cycle(table, layout, cfg)
        assert read_var(layout, cfg, "P", "a") == Fraction(1, 3)
        assert read_var(layout, cfg, "P", "b") == 1


class TestReturn:
    def test_return_skips_rest_of_program(self):
        src = """
        PROGRAM P
            VAR x : INT; END_VAR
            x := 1;
            RETURN;
            x := 2;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg, labels = run_cycle(table, layout, cfg)
        assert labels == ["assign", "return"]
        assert read_var(layout, cfg, "P", "x") == 1

    def test_return_only_ends_current_program(self):
        src = """
        PROGRAM A VAR x : INT; END_VAR RETURN; x := 9; END_PROGRAM
        PROGRAM B VAR_OUTPUT y : INT; END_VAR y := 2; END_PROGRAM
        """
        table, layout, cfg = make(src, programs=["A", "B"])
        cfg, labels = run_cycle(table, layout, cfg)
        assert labels == ["return", "assign"]
        assert read_var(layout, cfg, "A", "x") == 0
        assert read_var(layout, cfg, "B", "y") == 2

    def test_return_from_block_resumes_caller(self):
        src = """
        FUNCTION_BLOCK FB
            VAR_OUTPUT n : INT; END_VAR
            n := n + 1;
            RETURN;
            n := 99;
        END_FUNCTION_BLOCK
        PROGRAM P
            VAR f : FB; x : INT; END_VAR
            f();
            x := f.n;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg, labels = run_cycle(table, layout, cfg)
        assert labels == ["call", "assign", "return", "assign"]
        assert read_var(layout, cfg, "P", "x") == 1


class TestBlocks:
    COUNTER = """
    FUNCTION_BLOCK COUNTER
        VAR_INPUT inc : INT; END_VAR
        VAR_OUTPUT total : INT; END_VAR
        total := total + inc;
    END_FUNCTION_BLOCK
    PROGRAM P
        VAR c : COUNTER; seen : INT; END_VAR
        c(inc := 5);
        c(inc := 2);
        seen := c.total;
    END_PROGRAM
    """

    def test_state_persists_across_calls_and_cycles(self):
        table, layout, cfg = make(self.COUNTER)
        cfg, _ = run_cycle(table, layout, cfg)
        assert read_var(layout, cfg, "P", "seen") == 7
        cfg, _ = run_cycle(table, layout, cfg)
        assert read_var(layout, cfg, "P", "seen") == 14

    def test_unbound_inputs_keep_previous_value(self):
        src = """
        FUNCTION_BLOCK FB
            VAR_INPUT a : INT; b : INT; END_VAR
            VAR_OUTPUT sum : INT; END_VAR
            sum := a + b;
        END_FUNCTION_BLOCK
        PROGRAM P
            VAR f : FB; x : INT; y : INT; END_VAR
            f(3, 4);
            x := f.sum;
            f(a := 10);
            y := f.sum;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg, _ = run_cycle(table, layout, cfg)
        assert read_var(layout, cfg, "P", "x") == 7
        assert read_var(layout, cfg, "P", "y") == 14

    def test_nested_blocks_and_paths(self):
        src = """
        FUNCTION_BLOCK INNER
            VAR_OUTPUT who : STRING; END_VAR
            who := thisBlock;
        END_FUNCTION_BLOCK
        FUNCTION_BLOCK OUTER
            VAR i : INNER; END_VAR
            VAR_OUTPUT name : STRING; END_VAR
            i();
            name := i.who;
        END_FUNCTION_BLOCK
        PROGRAM P
            VAR o : OUTER; got : STRING; END_VAR
            o();
            got := o.name;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg, _ = run_cycle(table, layout, cfg)
        assert read_var(layout, cfg, "P", "got") == "o.i"

    def test_field_assignment_and_the_call_form_of_this_block(self):
        src = """
        FUNCTION_BLOCK FB
            VAR_INPUT i : INT; END_VAR
            VAR_OUTPUT twice : INT; who : STRING; END_VAR
            twice := i * 2;
            who := thisBlock();
        END_FUNCTION_BLOCK
        PROGRAM P
            VAR fb : FB; got : INT; name : STRING; END_VAR
            fb.i := 7;
            fb();
            got := fb.twice;
            name := fb.who;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg, labels = run_cycle(table, layout, cfg)
        assert labels[:2] == ["assign", "call"]
        assert read_var(layout, cfg, "P", "got") == 14
        assert read_var(layout, cfg, "P", "name") == "fb"


class TestSuspension:
    SENDER = """
    PROGRAM P
        VAR send : USEND; sig : INT; END_VAR
        sig := 42;
        send(TRUE, "T2", "rcv", sig);
    END_PROGRAM
    """

    def test_usend_body_suspends_in_order(self):
        table, layout, cfg = make(self.SENDER)
        seen = []

        def is_connected(args):
            seen.append(("isConnected", args))
            return True

        def send_data(args):
            seen.append(("sendData", args))
            return True

        comm = {"isConnected": is_connected, "sendData": send_data}
        cfg, labels = run_cycle(table, layout, cfg, comm)
        assert seen == [
            ("isConnected", ("T2",)),
            ("sendData", ("T2", "send", "rcv", 42)),
        ]
        assert read_var(layout, cfg, "P", "sig") == 42
        inst = cfg.read(prog_loc(layout, "P", "send"))
        env = dict(inst.env)
        assert cfg.read(env["DONE"]) is True
        assert cfg.read(env["STATUS"]) == 0

    def test_send_failure_path(self):
        table, layout, cfg = make(self.SENDER)
        comm = {"isConnected": lambda a: True, "sendData": lambda a: False}
        cfg, _ = run_cycle(table, layout, cfg, comm)
        inst = cfg.read(prog_loc(layout, "P", "send"))
        env = dict(inst.env)
        assert cfg.read(env["DONE"]) is False

    def test_urcv_delivery_and_ack_cycle(self):
        src = """
        PROGRAM P
            VAR rcv : URCV; got : INT; END_VAR
            rcv(TRUE, "T1", "send");
            got := rcv.DATA;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        inbox = [7]
        comm = {
            "isConnected": lambda a: True,
            "rcvData": lambda a: inbox.pop() if inbox else RCV_ERROR,
        }
        cfg, _ = run_cycle(table, layout, cfg, comm)
        assert read_var(layout, cfg, "P", "got") == 7
        env = dict(cfg.read(prog_loc(layout, "P", "rcv")).env)
        assert cfg.read(env["NDR"]) is True
        # Next cycle only acknowledges: NDR resets and the body returns early.
        cfg, labels = run_cycle(table, layout, cfg, comm)
        assert read_var(layout, cfg, "P", "got") == 7
        env = dict(cfg.read(prog_loc(layout, "P", "rcv")).env)
        assert cfg.read(env["NDR"]) is False
        assert "rcvData" not in labels

    def test_connect_request_statement(self):
        src = """
        PROGRAM P
            VAR c : CONNECT; ok : BOOL; END_VAR
            c(TRUE, "T2");
            ok := c.VALID;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        requests = []
        connected = {"state": False}

        def connect_request(args):
            requests.append(args)
            connected["state"] = True
            return True

        comm = {
            "connectRequest": connect_request,
            "isConnected": lambda a: connected["state"],
        }
        cfg, _ = run_cycle(table, layout, cfg, comm)
        assert requests == [("T2",)]
        assert read_var(layout, cfg, "P", "ok") is True


class TestSymbolic:
    def test_branch_on_symbolic_condition(self):
        src = """
        PROGRAM P
            VAR_INPUT level : REAL; END_VAR
            VAR_OUTPUT pump : INT; END_VAR
            IF level < 10 THEN
                pump := 1;
            ELSE
                pump := 0;
            END_IF;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg = cfg.write(prog_loc(layout, "P", "level"), Poly.var("_u0"))
        cfg = load_programs(table, layout, cfg)
        r = step(table, cfg)
        assert isinstance(r, Branch)
        assert isinstance(r.cond, Cmp) and r.cond.op == "<"
        then_done = step(table, r.then_cfg)
        assert isinstance(then_done, Internal) and then_done.label == "assign"
        assert then_done.cfg.is_cycle_complete()
        else_done = step(table, r.else_cfg)
        assert isinstance(else_done, Internal)

    def test_symbolic_arithmetic_flows_through_store(self):
        src = """
        PROGRAM P
            VAR_INPUT a : REAL; END_VAR
            VAR_OUTPUT b : REAL; END_VAR
            b := 2 * a + 1;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg = cfg.write(prog_loc(layout, "P", "a"), Poly.var("_u3"))
        cfg, _ = run_cycle(table, layout, cfg)
        got = read_var(layout, cfg, "P", "b")
        assert got == Poly.var("_u3").scale(2) + Poly.const(1)


class TestAnnotations:
    def test_assert_time_surfaces_then_pops(self):
        src = """
        PROGRAM P
            VAR x : INT; END_VAR
            x := 1;
            //assertTime(2, 7)
            x := 2;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg = load_programs(table, layout, cfg)
        r = step(table, cfg)
        cfg = r.cfg
        r = step(table, cfg)
        assert isinstance(r, AssertTimeAnn)
        assert (r.lo, r.hi) == (2, 7)
        cfg = pop_head(cfg)
        r = step(table, cfg)
        assert isinstance(r, Internal) and r.label == "assign"

    def test_delay_annotation_surfaces(self):
        src = """
        PROGRAM P
            VAR x : INT; END_VAR
            //delay(P1, P2, 3, 9)
            x := 1;
        END_PROGRAM
        """
        table, layout, cfg = make(src)
        cfg = load_programs(table, layout, cfg)
        r = step(table, cfg)
        assert isinstance(r, DelayAnn)
        assert (r.a, r.b, r.lo, r.hi) == ("P1", "P2", 3, 9)


class TestFailures:
    def test_division_by_zero_is_failure(self):
        src = "PROGRAM P VAR x : INT; y : INT; END_VAR x := 1 / y; END_PROGRAM"
        table, layout, cfg = make(src)
        cfg = load_programs(table, layout, cfg)
        r = step(table, cfg)
        assert isinstance(r, Failed)

    def test_string_comparison_limited_to_equality(self):
        src = 'PROGRAM P VAR s : STRING; b : BOOL; END_VAR b := s < "x"; END_PROGRAM'
        table, layout, cfg = make(src)
        cfg = load_programs(table, layout, cfg)
        r = step(table, cfg)
        assert isinstance(r, Failed)

    @pytest.mark.parametrize("value", [0, 1, Fraction(1, 2), Poly.var("_u0")])
    def test_a_number_is_not_a_branch_condition(self, value):
        # A branch takes a truth value or a boolean expression, as NOT does.
        src = "PROGRAM P VAR n : INT; y : INT; END_VAR IF n THEN y := 1; END_IF; END_PROGRAM"
        table, layout, cfg = make(src)
        cfg = load_programs(table, layout, cfg.write(prog_loc(layout, "P", "n"), value))
        r = step(table, cfg)
        assert r == Failed(f"not a condition: {value!r}")


class TestCanonicalForm:
    def test_config_key_roundtrip_equality(self):
        table, layout, cfg = make(TANK_SRC)
        cfg1, _ = run_cycle(table, layout, cfg)
        table2, layout2, cfg_b = make(TANK_SRC)
        cfg2, _ = run_cycle(table2, layout2, cfg_b)
        assert config_key(cfg1) == config_key(cfg2)

    def test_rename_makes_alpha_variants_equal(self):
        table, layout, cfg = make("PROGRAM P VAR_INPUT a : REAL; END_VAR a := a; END_PROGRAM")
        loc = prog_loc(layout, "P", "a")
        left = cfg.write(loc, Poly.var("_u1"))
        right = cfg.write(loc, Poly.var("_u9"))
        assert config_key(left) != config_key(right)
        assert config_key(left, {"_u1": "v0"}) == config_key(right, {"_u9": "v0"})

    def test_equal_configs_share_cached_hash_key_and_vars(self):
        def build():
            table, layout, cfg = make("PROGRAM P VAR_INPUT a : REAL; END_VAR a := a; END_PROGRAM")
            cfg = cfg.write(prog_loc(layout, "P", "a"), Poly.var("_u1"))
            return load_programs(table, layout, cfg)

        one, two = build(), build()
        assert one is not two
        assert hash(one) == hash(two)
        assert config_key(one) == config_key(two)
        assert config_vars(one) == config_vars(two) == ("_u1",)
        # Repeated calls answer from the instance's cache.
        assert hash(one) == hash(one) and config_vars(one) is config_vars(one)

    def test_replace_starts_without_stale_caches(self):
        table, layout, cfg = make("PROGRAM P VAR_INPUT a : REAL; END_VAR a := a; END_PROGRAM")
        loc = prog_loc(layout, "P", "a")
        sym = cfg.write(loc, Poly.var("_u1"))
        key, names = config_key(sym), config_vars(sym)
        hash(sym)
        conc = sym.write(loc, 3)
        assert config_key(conc) != key
        assert config_vars(conc) == ()
        assert names == ("_u1",)
        assert hash(conc) == hash(cfg.write(loc, 3))
        assert config_key(conc) == config_key(cfg.write(loc, 3))


def test_a_real_literal_is_kept_as_written_and_evaluates_to_an_int_when_integral():
    e = parse_expression("2.0 + 2.5")
    assert e.lhs == Lit(Fraction(2)) != Lit(2)
    assert expr_to_st(e) == "2.0 + 2.5"
    for text, want in (("2.0", 2), ("2.5", Fraction(5, 2)), ("2.0 + 2.5", Fraction(9, 2)), ("2.5 * 2", 5)):
        got = const_eval(parse_expression(text))
        assert got == want and type(got) is type(want)
