"""System-level rules: scan starts, time passage, communication, reduction."""

from dataclasses import replace
from fractions import Fraction

import pytest

from plcreach import comm
from plcreach.comm import machine_moves
from plcreach.kmachine import allocate
from plcreach.model import (
    Conn,
    InputSpec,
    Msg,
    Options,
    PLCMachine,
    SystemState,
    canonicalize,
    conn_pair,
    validate_flow,
)
from plcreach.por import TransitionId, check_independence, successors
from plcreach.solver import SmtCheck
from plcreach.st import PouTable, parse_file
from plcreach.st.builtins import COMM_INTRINSICS, INTRINSIC_ARITY
from plcreach.timed import (
    RuleCtx,
    compile_start,
    diagnose_stuck,
    due_machines,
    env_tick,
    start_scans,
    start_variants,
    tick_apply,
    tick_concrete,
    tick_menu,
    tick_symbolic,
)
from plcreach.values import RCV_ERROR, Poly, bor, cmp_eq, cmp_le, vmul, vsub

F = Fraction


# -- fixture plumbing --------------------------------------------------------

TANK_SRC = """
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

# Two-controller exchange: the sender mirrors the paper-style tank pair,
# the partner only listens so the delivered value is the only traffic.
COMM_T1_SRC = """
PROGRAM T1
VAR_INPUT
  waterLevel : REAL;
END_VAR
VAR_OUTPUT
  pumpSwitch : INT;
END_VAR
VAR
  input : INT;
  comm : CONNECT;
  send : USEND;
  rcv : URCV;
  sig_in : INT;
  sig_out : INT;
END_VAR
comm(TRUE, 'T2');
IF NOT comm.VALID THEN
  RETURN;
END_IF;
sig_out := input;
send(TRUE, 'T2', 'rcv', sig_out);
rcv(TRUE, 'T2', 'send');
sig_in := rcv.DATA;
pumpSwitch := sig_out - sig_in;
END_PROGRAM
"""

COMM_T2_SRC = """
PROGRAM T2
VAR_INPUT
  waterLevel : REAL;
END_VAR
VAR_OUTPUT
  pumpSwitch : INT;
END_VAR
VAR
  comm : CONNECT;
  rcv : URCV;
  sig_in : INT;
END_VAR
comm(TRUE, 'T1');
IF NOT comm.VALID THEN
  RETURN;
END_IF;
rcv(TRUE, 'T1', 'send');
sig_in := rcv.DATA;
pumpSwitch := 0 - sig_in;
END_PROGRAM
"""


def level_flow(level="waterLevel", switch="pumpSwitch"):
    # level drains one unit per time unit while the switch is on
    return vsub(Poly.var(level), vmul(Poly.var(switch), Poly.var("t")))


def table_for(*sources):
    units = []
    for src in sources:
        units.extend(parse_file(src))
    return PouTable.from_units(units)


def make_machine(
    table,
    mid,
    programs,
    state=None,
    flows=None,
    cycle_time=10,
    inputs=(),
    timer=0,
    preload=False,
):
    layout, cfg = allocate(table, tuple(programs))
    state_t = tuple(sorted((state or {}).items()))
    flow_t = tuple(sorted((flows or {}).items()))
    for nm, law in flow_t:
        validate_flow(nm, law)
    inputs = tuple(inputs)
    m = PLCMachine(
        mid=mid,
        cfg=cfg,
        timer=F(timer),
        env_timer=F(0),
        state=state_t,
        flow=flow_t,
        cycle_time=F(cycle_time),
        programs=layout,
        plan=compile_start(table, layout, state_t, inputs),
        inputs=inputs,
    )
    if preload:
        m = start_scans(make_system([m]), [mid], {}).machine(mid)
    return m


def make_system(machines, conns=(), options=None, clock=0):
    return SystemState(
        machines=tuple(sorted(machines, key=lambda m: m.mid)),
        conns=tuple(sorted(conns, key=lambda c: c.pair)),
        clock=F(clock),
        options=options or Options(),
    )


def ctx_for(table):
    return RuleCtx(table, SmtCheck())


def env_value(m, prog, name):
    env = dict(dict(m.programs)[prog])
    return m.cfg.read(env[name])


def take(ctx, s, mid, label=None):
    """The unique enabled move of one machine (optionally by label)."""
    moves = machine_moves(ctx, s, mid)
    if label is not None:
        moves = [v for v in moves if v.label == label]
    assert len(moves) == 1, [v.label for v in moves]
    return moves[0].state


def run_until(ctx, s, mid, stop_labels):
    """Advance a machine through unique moves until a stop label is next."""
    for _ in range(300):
        moves = machine_moves(ctx, s, mid)
        if not moves:
            return s, None
        labels = [v.label for v in moves]
        hit = [v for v in moves if v.label in stop_labels]
        if hit:
            return s, hit[0].label
        assert len(moves) == 1, labels
        s = moves[0].state
    raise AssertionError("machine did not reach " + str(stop_labels))


def run_scan(ctx, s, mid):
    """Drive one machine to scan completion through unique moves."""
    for _ in range(300):
        moves = machine_moves(ctx, s, mid)
        if not moves:
            return s
        assert len(moves) == 1, [v.label for v in moves]
        s = moves[0].state
    raise AssertionError("scan did not finish")


# -- single-controller cycle: pinned trace ----------------------------------


class TestSingleTankCycle:
    def setup_method(self):
        self.table = table_for(TANK_SRC)
        self.ctx = ctx_for(self.table)
        m = make_machine(
            self.table,
            "plc1",
            ("TANK",),
            state={"waterLevel": F(10), "pumpSwitch": F(0)},
            flows={"waterLevel": level_flow()},
            cycle_time=10,
            inputs=(InputSpec("TANK", "input", "script", (True,)),),
        )
        self.s0 = make_system([m])

    def test_start_senses_and_injects(self):
        variants = start_variants(self.ctx, self.s0)
        assert len(variants) == 1
        tid, s = variants[0]
        assert tid.key == ()
        m = s.machine("plc1")
        assert m.timer == 10
        assert m.cycle_index == 1
        assert env_value(m, "TANK", "waterLevel") == 10
        assert env_value(m, "TANK", "input") is True
        assert m.cfg.current_prog == "TANK"

    def test_full_cycle_values(self):
        (_, s), = start_variants(self.ctx, self.s0)
        s = take(self.ctx, s, "plc1", "if-true")
        s = take(self.ctx, s, "plc1", "assign")
        m = s.machine("plc1")
        assert m.cfg.is_cycle_complete()
        assert m.cfg.current_prog == ""
        # computed but not yet published
        assert env_value(m, "TANK", "pumpSwitch") == 1
        assert m.state_value("pumpSwitch") == 0

        jumps = tick_concrete(self.ctx, s)
        assert [t.key for t, _ in jumps] == [(F(10),)]
        s = jumps[0][1]
        m = s.machine("plc1")
        assert m.timer == 0
        assert m.state_value("waterLevel") == 10  # switch was still off
        assert s.clock == 10

        (_, s), = start_variants(self.ctx, s)
        m = s.machine("plc1")
        assert m.state_value("pumpSwitch") == 1  # previous cycle published
        assert m.cycle_index == 2

        s = tick_apply(self.ctx, s, F(6))
        m = s.machine("plc1")
        assert m.state_value("waterLevel") == 4
        assert m.timer == 4
        assert s.clock == 16

    def test_empty_script_repeats_last_value(self):
        (_, s), = start_variants(self.ctx, self.s0)
        s = run_scan(self.ctx, s, "plc1")
        s = tick_concrete(self.ctx, s)[0][1]
        (_, s), = start_variants(self.ctx, s)
        m = s.machine("plc1")
        assert env_value(m, "TANK", "input") is True  # script shorter than run


# -- two-controller exchange: pinned trace ----------------------------------


class TestCommTrace:
    def setup_method(self):
        self.table = table_for(COMM_T1_SRC, COMM_T2_SRC)
        self.ctx = ctx_for(self.table)
        mk = lambda mid, prog: make_machine(
            self.table,
            mid,
            (prog,),
            state={"waterLevel": F(10), "pumpSwitch": F(0)},
            flows={"waterLevel": level_flow()},
            cycle_time=10,
            inputs=(InputSpec("T1", "input", "script", (1,)),) if prog == "T1" else (),
        )
        self.s0 = make_system(
            [mk("plc1", "T1"), mk("plc2", "T2")],
            conns=[Conn(pair=conn_pair("T1", "T2"))],
            options=Options(rcv_no_on_pending=True, reliable_connect=True),
        )

    def test_exchange_values(self):
        ctx = self.ctx
        (_, s), = start_variants(ctx, self.s0)

        # plc1 reaches the connection request; success validates the link
        s, label = run_until(ctx, s, "plc1", {"conSucc", "conFail"})
        assert label == "conSucc"
        s = take(ctx, s, "plc1", "conSucc")
        assert s.conn("T1", "T2").valid is True

        # three units pass before the signal is handed to the network
        s, label = run_until(ctx, s, "plc1", {"sendData", "sendDataFail"})
        assert label == "sendData"
        s = tick_apply(ctx, s, F(3))
        s = take(ctx, s, "plc1", "sendData")
        buf = s.conn("T1", "T2").buffer
        assert len(buf) == 1
        msg = buf[0]
        assert (msg.sender, msg.receiver) == ("T1", "T2")
        assert (msg.send_fb, msg.recv_fb) == ("send", "rcv")
        assert msg.data == 1
        assert (msg.min_timer, msg.max_timer) == (F(10), F(20))

        # plc1's own receive finds nothing addressed to it
        s, label = run_until(ctx, s, "plc1", {"rcvData", "rcvNo", "rcvFail"})
        assert label == "rcvNo"
        s = take(ctx, s, "plc1", "rcvNo")
        s = run_scan(ctx, s, "plc1")
        m1 = s.machine("plc1")
        assert m1.cfg.is_cycle_complete()
        assert env_value(m1, "T1", "pumpSwitch") == 1  # sent 1, received 0

        # plc2: re-request on a validated link is a harmless success;
        # its receive sees the message but the window has not opened
        s, label = run_until(ctx, s, "plc2", {"conSucc", "conFail"})
        assert label == "conSucc"
        s = take(ctx, s, "plc2", "conSucc")
        assert s.conn("T1", "T2").valid is True
        s, label = run_until(ctx, s, "plc2", {"rcvData", "rcvNo"})
        assert label == "rcvNo"  # in transit: give-up allowed by options
        s = take(ctx, s, "plc2", "rcvNo")
        s = run_scan(ctx, s, "plc2")

        # to the scan boundary: menu offers exactly the remaining 7 units
        assert tick_menu(s) == [F(7)]
        s = tick_concrete(ctx, s)[0][1]
        assert s.clock == 10
        msg = s.conn("T1", "T2").buffer[0]
        assert (msg.min_timer, msg.max_timer) == (F(3), F(13))

        # second cycle: publish, then let the delivery window open
        (_, s), = start_variants(ctx, s)
        assert s.machine("plc1").state_value("pumpSwitch") == 1
        assert s.machine("plc2").state_value("pumpSwitch") == 0

        s, label = run_until(ctx, s, "plc2", {"rcvData", "rcvNo"})
        assert label == "rcvNo"  # still 3 units early
        s = tick_apply(ctx, s, F(3))
        msg = s.conn("T1", "T2").buffer[0]
        assert (msg.min_timer, msg.max_timer) == (F(0), F(10))
        moves = machine_moves(ctx, s, "plc2")
        assert [v.label for v in moves] == ["rcvData"]  # open window: no give-up
        s = moves[0].state
        assert s.conn("T1", "T2").buffer == ()
        assert s.machine("plc2").timer == 7

        s = run_scan(ctx, s, "plc2")
        m2 = s.machine("plc2")
        assert env_value(m2, "T2", "sig_in") == 1
        assert env_value(m2, "T2", "pumpSwitch") == -1


# -- communication rule variants --------------------------------------------

SEND_SRC = """
PROGRAM S1
VAR
  r : BOOL;
END_VAR
r := sendData('S2', 'blk', 'dst', 42);
END_PROGRAM
"""

RECV_SRC = """
PROGRAM S2
VAR
  r : ANY;
END_VAR
r := rcvData('S1', 'blk', 'dst');
END_PROGRAM
"""

DISC_SRC = """
PROGRAM S1
VAR
  x : INT;
END_VAR
disconnect('S2');
x := 1;
END_PROGRAM
"""

DELAY_SRC = """
PROGRAM S1
VAR
  x : INT;
END_VAR
//delay(S1, S2, 3, 7)
x := 1;
END_PROGRAM
"""

CONNECT_REQ_SRC = """
PROGRAM S1
VAR
  c : CONNECT;
END_VAR
c(TRUE, 'S2');
END_PROGRAM
"""


def comm_fixture(src, mid="m1", prog="S1", conns=(), options=None, cycle=10):
    table = table_for(src)
    m = make_machine(table, mid, (prog,), cycle_time=cycle, preload=True)
    s = make_system([m], conns=conns, options=options)
    return table, ctx_for(table), s


def test_every_communication_intrinsic_has_one_rule():
    assert set(comm._COMM_RULES) == COMM_INTRINSICS
    assert COMM_INTRINSICS == set(INTRINSIC_ARITY) - {"thisBlock"}


class TestConnectionRules:
    def test_unreliable_request_branches(self):
        _, ctx, s = comm_fixture(
            CONNECT_REQ_SRC, conns=[Conn(pair=conn_pair("S1", "S2"))]
        )
        s, _ = run_until(ctx, s, "m1", {"conSucc"})
        moves = machine_moves(ctx, s, "m1")
        assert sorted(v.label for v in moves) == ["conFail", "conSucc"]
        by = {v.label: v.state for v in moves}
        assert by["conSucc"].conn("S1", "S2").valid is True
        assert by["conFail"].conn("S1", "S2").valid is False

    def test_reliable_request_single_success(self):
        _, ctx, s = comm_fixture(
            CONNECT_REQ_SRC,
            conns=[Conn(pair=conn_pair("S1", "S2"))],
            options=Options(reliable_connect=True),
        )
        s, _ = run_until(ctx, s, "m1", {"conSucc"})
        moves = machine_moves(ctx, s, "m1")
        assert [v.label for v in moves] == ["conSucc"]

    def test_request_without_link_fails(self):
        _, ctx, s = comm_fixture(CONNECT_REQ_SRC)
        s, label = run_until(ctx, s, "m1", {"conSucc", "conFail"})
        assert label == "conFail"
        moves = machine_moves(ctx, s, "m1")
        assert [v.label for v in moves] == ["conFail"]

    def test_request_on_validated_link_is_noop_success(self):
        _, ctx, s = comm_fixture(
            CONNECT_REQ_SRC,
            conns=[Conn(pair=conn_pair("S1", "S2"), valid=True)],
        )
        s, _ = run_until(ctx, s, "m1", {"conSucc", "conFail"})
        moves = machine_moves(ctx, s, "m1")
        assert [v.label for v in moves] == ["conSucc"]
        assert moves[0].state.conn("S1", "S2").valid is True

    def test_disconnect_keeps_inflight_messages(self):
        msg = Msg("S1", "S2", "a", "b", 1, F(0), F(5), seq=0)
        _, ctx, s = comm_fixture(
            DISC_SRC,
            conns=[Conn(pair=conn_pair("S1", "S2"), valid=True, buffer=(msg,))],
        )
        s, label = run_until(ctx, s, "m1", {"disconnect"})
        assert label == "disconnect"
        s = take(ctx, s, "m1", "disconnect")
        c = s.conn("S1", "S2")
        assert c.valid is False
        assert len(c.buffer) == 1

    def test_delay_annotation_sets_bounds(self):
        _, ctx, s = comm_fixture(DELAY_SRC)
        assert s.conn("S1", "S2") is None
        s, label = run_until(ctx, s, "m1", {"setDelay"})
        assert label == "setDelay"
        s = take(ctx, s, "m1", "setDelay")
        c = s.conn("S1", "S2")
        assert (c.delay_lo, c.delay_hi) == (F(3), F(7))
        assert c.valid is False


class TestTransferRules:
    def test_send_on_valid_link(self):
        _, ctx, s = comm_fixture(
            SEND_SRC,
            conns=[Conn(pair=conn_pair("S1", "S2"), valid=True,
                        delay_lo=F(4), delay_hi=F(9))],
        )
        s, label = run_until(ctx, s, "m1", {"sendData", "sendDataFail"})
        assert label == "sendData"
        before_seq = s.msg_seq
        s = take(ctx, s, "m1", "sendData")
        msg, = s.conn("S1", "S2").buffer
        assert (msg.sender, msg.receiver, msg.send_fb, msg.recv_fb) == (
            "S1", "S2", "blk", "dst",
        )
        assert msg.data == 42
        assert (msg.min_timer, msg.max_timer) == (F(4), F(9))
        assert msg.seq == before_seq and s.msg_seq == before_seq + 1
        s = run_scan(ctx, s, "m1")
        assert env_value(s.machine("m1"), "S1", "r") is True

    def test_send_without_valid_link(self):
        _, ctx, s = comm_fixture(
            SEND_SRC, conns=[Conn(pair=conn_pair("S1", "S2"))]
        )
        s, label = run_until(ctx, s, "m1", {"sendData", "sendDataFail"})
        assert label == "sendDataFail"
        s = take(ctx, s, "m1", "sendDataFail")
        assert s.conn("S1", "S2").buffer == ()
        s = run_scan(ctx, s, "m1")
        assert env_value(s.machine("m1"), "S1", "r") is False

    def _recv_state(self, buffer, options=None, valid=True, conns=None):
        if conns is None:
            conns = [Conn(pair=conn_pair("S1", "S2"), valid=valid, buffer=buffer)]
        return comm_fixture(RECV_SRC, prog="S2", conns=conns, options=options)

    def test_receive_delivers_and_removes(self):
        msg = Msg("S1", "S2", "blk", "dst", 42, F(0), F(5), seq=3)
        _, ctx, s = self._recv_state((msg,))
        s, label = run_until(ctx, s, "m1", {"rcvData", "rcvNo", "rcvFail"})
        assert label == "rcvData"
        moves = machine_moves(ctx, s, "m1")
        assert [v.label for v in moves] == ["rcvData"]
        assert moves[0].key == (3,)
        s = moves[0].state
        assert s.conn("S1", "S2").buffer == ()
        s = run_scan(ctx, s, "m1")
        assert env_value(s.machine("m1"), "S2", "r") == 42

    def test_two_deliverable_messages_branch(self):
        msgs = (
            Msg("S1", "S2", "blk", "dst", 1, F(0), F(5), seq=0),
            Msg("S1", "S2", "blk", "dst", 2, F(0), F(9), seq=1),
        )
        _, ctx, s = self._recv_state(msgs)
        s, _ = run_until(ctx, s, "m1", {"rcvData"})
        moves = machine_moves(ctx, s, "m1")
        assert sorted(v.key for v in moves) == [(0,), (1,)]
        for v in moves:
            rest = v.state.conn("S1", "S2").buffer
            assert len(rest) == 1 and rest[0].seq != v.key[0]

    def test_pending_message_blocks_by_default(self):
        msg = Msg("S1", "S2", "blk", "dst", 7, F(4), F(9), seq=0)
        _, ctx, s = self._recv_state((msg,))
        s, label = run_until(ctx, s, "m1", {"rcvData", "rcvNo", "rcvFail"})
        assert label is None  # receive waits for the window
        assert machine_moves(ctx, s, "m1") == []

    def test_pending_message_giveup_with_option(self):
        msg = Msg("S1", "S2", "blk", "dst", 7, F(4), F(9), seq=0)
        _, ctx, s = self._recv_state(
            (msg,), options=Options(rcv_no_on_pending=True)
        )
        s, label = run_until(ctx, s, "m1", {"rcvData", "rcvNo", "rcvFail"})
        assert label == "rcvNo"
        s = take(ctx, s, "m1", "rcvNo")
        assert len(s.conn("S1", "S2").buffer) == 1
        s = run_scan(ctx, s, "m1")
        assert env_value(s.machine("m1"), "S2", "r") is RCV_ERROR

    def test_no_matching_message(self):
        msg = Msg("S1", "S2", "other", "dst", 7, F(0), F(9), seq=0)
        _, ctx, s = self._recv_state((msg,))
        s, label = run_until(ctx, s, "m1", {"rcvData", "rcvNo", "rcvFail"})
        assert label == "rcvNo"

    def test_receive_without_valid_link(self):
        _, ctx, s = self._recv_state((), valid=False)
        s, label = run_until(ctx, s, "m1", {"rcvData", "rcvNo", "rcvFail"})
        assert label == "rcvFail"
        s = take(ctx, s, "m1", "rcvFail")
        s = run_scan(ctx, s, "m1")
        assert env_value(s.machine("m1"), "S2", "r") is RCV_ERROR


# -- time menus and environment steps ---------------------------------------

IDLE_SRC = """
PROGRAM IDLE
VAR
  x : INT;
END_VAR
x := 1;
END_PROGRAM
"""

WINDOW_SRC = """
PROGRAM W
VAR
  x : INT;
END_VAR
//assertTime(3, 5)
x := 1;
END_PROGRAM
"""


class TestTimePassage:
    def test_menu_collects_event_boundaries(self):
        table = table_for(IDLE_SRC)
        m1 = make_machine(table, "m1", ("IDLE",), cycle_time=4, preload=True)
        m2 = make_machine(table, "m2", ("IDLE",), cycle_time=9, preload=True)
        msgs = (
            Msg("A", "B", "f", "g", 1, F(2), F(6), seq=0),
            Msg("A", "B", "f", "g", 2, F(0), F(12), seq=1),
        )
        s = make_system(
            [m1, m2], conns=[Conn(pair=conn_pair("A", "B"), valid=True, buffer=msgs)]
        )
        # scans still pending, so both machines can execute; time may pass too
        assert tick_menu(s) == [F(2), F(4)]
        t, s2 = tick_concrete(ctx_for(table), s)[-1]
        assert t.key == (4,)
        buf = s2.conn("A", "B").buffer
        assert (buf[0].min_timer, buf[0].max_timer) == (F(0), F(2))  # clamped
        assert (buf[1].min_timer, buf[1].max_timer) == (F(0), F(8))
        assert s2.machine("m1").timer == 0
        assert s2.machine("m2").timer == 5
        assert s2.ticked is False  # only a symbolic tick sets the fold flag

    def test_additive_jumps_merge(self):
        table = table_for(IDLE_SRC)
        m = make_machine(table, "m1", ("IDLE",), cycle_time=9, preload=True)
        s = make_system([m])
        one = tick_apply(ctx_for(table), tick_apply(ctx_for(table), s, F(2)), F(3))
        other = tick_apply(ctx_for(table), s, F(5))
        assert canonicalize(one) == canonicalize(other)

    def test_window_edges_reachable_and_gate_the_pop(self):
        table = table_for(WINDOW_SRC)
        ctx = ctx_for(table)
        m = make_machine(table, "m1", ("W",), cycle_time=10, preload=True)
        s = make_system([m])
        assert machine_moves(ctx, s, "m1") == []  # window not open yet
        assert tick_menu(s) == [F(3), F(5)]
        at3 = tick_concrete(ctx, s)[0][1]
        moves = machine_moves(ctx, at3, "m1")
        assert [v.label for v in moves] == ["assertTime"]
        done = run_scan(ctx, moves[0].state, "m1")
        assert env_value(done.machine("m1"), "W", "x") == 1
        at5 = tick_concrete(ctx, s)[1][1]
        assert [v.label for v in machine_moves(ctx, at5, "m1")] == ["assertTime"]
        assert tick_menu(at5) == []  # deadline edge: time waits for the pop
        popped = take(ctx, at5, "m1", "assertTime")
        assert tick_menu(popped) == [F(5)]  # scan boundary usable again

    @pytest.mark.parametrize("timer, notes", [
        (9, ["m1: waiting for time window (3,5)"]),  # 1 into the scan
        (4, ["m1: time window (3,5) missed"]),  # 6 into the scan
        (0, ["m1: scan overran its cycle time", "m1: time window (3,5) missed"]),
    ])
    def test_stuck_scan_is_diagnosed(self, timer, notes):
        # a scan still at its //assertTime(3, 5) head
        table = table_for(WINDOW_SRC)
        m = make_machine(table, "m1", ("W",), cycle_time=10, preload=True)
        s = make_system([replace(m, timer=F(timer))])
        assert diagnose_stuck(s) == notes

    def test_clock_separation_splits_physics_from_timers(self):
        from dataclasses import replace

        table = table_for(IDLE_SRC)
        m = make_machine(
            table,
            "m1",
            ("IDLE",),
            state={"level": F(8)},
            flows={"level": vsub(Poly.var("level"), Poly.var("t"))},
            cycle_time=6,
            preload=True,
        )
        m = replace(m, env_timer=F(6))
        s = make_system([m], options=Options(clock_sep=True))
        t, s2 = tick_concrete(ctx_for(table), s)[-1]
        assert t.key == (6,)
        assert s2.machine("m1").timer == 0
        assert s2.machine("m1").state_value("level") == 8  # physics untouched
        assert s2.clock == 0
        (t2, s3), = env_tick(ctx_for(table), s2)
        assert t2.key == (6,)
        assert s3.machine("m1").state_value("level") == 2
        assert s3.clock == 6
        assert s3.machine("m1").env_timer == 0

    def test_symbolic_tick_folds_chains(self):
        table = table_for(IDLE_SRC)
        ctx = ctx_for(table)
        m = make_machine(table, "m1", ("IDLE",), cycle_time=9, preload=True)
        s = make_system([m], options=Options(mode="symbolic"))
        (tid, s2), = tick_symbolic(ctx, s)
        assert s2.ticked is True
        assert tick_symbolic(ctx, s2) == []  # fold: no tick chains
        s3 = take(ctx, s2, "m1", "assign")
        assert s3.ticked is False
        # timer is now symbolic: 9 - d
        timer = s3.machine("m1").timer
        assert isinstance(timer, Poly)
        assert timer.substitute({tid.key[0]: Poly.const(4)}) == Poly.const(5)


# -- start variants ----------------------------------------------------------

CHOICE_SRC = """
PROGRAM P{n}
VAR_INPUT
  sig : INT;
END_VAR
VAR_OUTPUT
  y : INT;
END_VAR
y := sig;
END_PROGRAM
"""


class TestStartVariants:
    def test_enumerated_inputs_branch(self):
        table = table_for(CHOICE_SRC.format(n=1))
        ctx = ctx_for(table)
        m = make_machine(
            table,
            "m1",
            ("P1",),
            cycle_time=5,
            inputs=(InputSpec("P1", "sig", "enumerate", (F(0), F(1))),),
        )
        s = make_system([m])
        variants = start_variants(ctx, s)
        assert len(variants) == 2
        choices = [t.key for t, _ in variants]
        assert (("m1", "P1", "sig", F(0)),) in choices
        assert (("m1", "P1", "sig", F(1)),) in choices
        for tid, st in variants:
            got = env_value(st.machine("m1"), "P1", "sig")
            assert got == tid.key[0][3]

    def test_joint_start_is_cartesian(self):
        table = table_for(CHOICE_SRC.format(n=1), CHOICE_SRC.format(n=2))
        ctx = ctx_for(table)
        mk = lambda mid, prog: make_machine(
            table,
            mid,
            (prog,),
            cycle_time=5,
            inputs=(InputSpec(prog, "sig", "enumerate", (F(0), F(1))),),
        )
        s = make_system([mk("m1", "P1"), mk("m2", "P2")])
        variants = start_variants(ctx, s)
        assert len(variants) == 4
        assert len({t.key for t, _ in variants}) == 4

    def test_free_input_constrains_fresh_variable(self):
        table = table_for(CHOICE_SRC.format(n=1))
        ctx = ctx_for(table)
        m = make_machine(
            table,
            "m1",
            ("P1",),
            cycle_time=5,
            inputs=(InputSpec("P1", "sig", "free", lo=F(0), hi=F(10)),),
        )
        s = make_system([m], options=Options(mode="symbolic"))
        (_, st), = start_variants(ctx, s)
        v = env_value(st.machine("m1"), "P1", "sig")
        assert isinstance(v, Poly) and not v.is_const()
        assert len(st.constraints) == 2  # both interval bounds

    @pytest.mark.xfail(strict=True, reason=(
        "when the due machines cannot start jointly, due_machines lets the "
        "first go alone under its own pin, and the worlds where only a later "
        "machine is due get no start"))
    def test_a_failed_joint_start_covers_every_world(self):
        table = table_for(STEP2_SRC.format(n=1), STEP2_SRC.format(n=2))
        ctx = ctx_for(table)
        d = Poly.var("_d0")
        m1 = replace(make_machine(table, "m1", ("Q1",)), timer=d)
        m2 = replace(make_machine(table, "m2", ("Q2",)), timer=vsub(F(1), d))
        s = make_system([m1, m2], options=Options(mode="symbolic"))
        s = replace(s, fresh_counter=1).add_constraints(bor(cmp_eq(d, 0), cmp_eq(d, 1)))
        due, pinned = due_machines(ctx, s)
        assert [m.mid for m in due] == ["m1"]
        assert cmp_eq(d, 0) in pinned.constraints
        # In the world _d0 = 1 only m2 is due, so some start must begin its scan.
        starts = [st for t, st in successors(ctx, s, por=False) if t.cls == "start"]
        assert any(st.machine("m2").cycle_index == 1 for st in starts)


# -- symbolic branching ------------------------------------------------------


class TestSymbolicBranch:
    def _start(self, extra=None):
        src = """
PROGRAM P1
VAR_INPUT
  y : INT;
END_VAR
VAR_OUTPUT
  z : INT;
END_VAR
IF y > 5 THEN
  z := 1;
ELSE
  z := 0;
END_IF;
END_PROGRAM
"""
        table = table_for(src)
        ctx = ctx_for(table)
        m = make_machine(
            table,
            "m1",
            ("P1",),
            cycle_time=5,
            inputs=(InputSpec("P1", "y", "free", lo=F(0), hi=F(10)),),
        )
        s = make_system([m], options=Options(mode="symbolic"))
        (_, s), = start_variants(ctx, s)
        if extra is not None:
            s = s.add_constraints(extra)
        return ctx, s

    def test_the_two_arms_disable_each_other(self):
        ctx, s = self._start()
        arms = [t for t, _ in successors(ctx, s, por=False) if t.mid == "m1"]
        assert sorted(t.key[0][0] for t in arms) == ["if-false", "if-true"]
        assert check_independence(ctx, s, *arms) is False

    def test_both_arms_when_undetermined(self):
        ctx, s = self._start()
        moves = machine_moves(ctx, s, "m1")
        assert sorted(v.label for v in moves) == ["if-false", "if-true"]
        for v in moves:
            done = run_scan(ctx, v.state, "m1")
            z = env_value(done.machine("m1"), "P1", "z")
            assert z == (1 if v.label == "if-true" else 0)

    def test_infeasible_arm_dropped(self):
        ctx, s = self._start()
        y = env_value(s.machine("m1"), "P1", "y")
        ctx2, s2 = self._start(cmp_le(y, Poly.const(3)))
        moves = machine_moves(ctx2, s2, "m1")
        assert [v.label for v in moves] == ["if-false"]


# -- reduction shapes --------------------------------------------------------

STEP2_SRC = """
PROGRAM Q{n}
VAR
  x : INT;
END_VAR
x := 1;
//assertTime(4, 4)
x := 2;
END_PROGRAM
"""


def diamond_system():
    table = table_for(STEP2_SRC.format(n=1), STEP2_SRC.format(n=2))
    ctx = ctx_for(table)
    mk = lambda mid, prog: make_machine(table, mid, (prog,), cycle_time=3, preload=True)
    s = make_system([mk("m1", "Q1"), mk("m2", "Q2")])
    return ctx, s


class TestReduction:
    def test_full_enumeration_at_top(self):
        ctx, s = diamond_system()
        tids = [t for t, _ in successors(ctx, s, por=False)]
        labels = sorted(t.pretty() for t in tids)
        assert labels == ["assign(m1)", "assign(m2)", "tick[3]"]

    def test_reduced_enumeration_picks_lowest_machine(self):
        ctx, s = diamond_system()
        sel = successors(ctx, s, por=True)
        assert len(sel) == 1
        assert sel[0][0] == TransitionId("internal", "m1", "assign", ())

    def test_reduced_path_converges_with_full(self):
        ctx, s = diamond_system()
        # reduced: m1, m2, tick(3); full other order: tick, m2, m1
        path1 = s
        for _ in range(2):
            (tid, path1), = successors(ctx, path1, por=True)
        (tid, path1), = successors(ctx, path1, por=True)
        assert tid.cls == "tick"

        path2 = s
        steps = [
            lambda st: [x for t, x in successors(ctx, st, por=False) if t.cls == "tick"][0],
            lambda st: [x for t, x in successors(ctx, st, por=False)
                        if t == TransitionId("internal", "m2", "assign", ())][0],
            lambda st: [x for t, x in successors(ctx, st, por=False)
                        if t == TransitionId("internal", "m1", "assign", ())][0],
        ]
        for f in steps:
            path2 = f(path2)
        assert canonicalize(path1) == canonicalize(path2)
        assert successors(ctx, path1, por=False) == []  # closed: window never opens

    def test_start_preferred_when_due(self):
        table = table_for(TANK_SRC)
        ctx = ctx_for(table)
        m = make_machine(
            table,
            "plc1",
            ("TANK",),
            state={"waterLevel": F(10), "pumpSwitch": F(0)},
            flows={"waterLevel": level_flow()},
            cycle_time=10,
            inputs=(InputSpec("TANK", "input", "script", (True,)),),
        )
        s = make_system([m])
        sel = successors(ctx, s, por=True)
        assert [t.cls for t, _ in sel] == ["start"]
        full = successors(ctx, s, por=False)
        assert [t.cls for t, _ in full] == ["start"]  # timer 0 stops the clock


class TestIndependence:
    def test_a_transition_with_itself_is_vacuous(self):
        ctx, s = diamond_system()
        t = TransitionId("internal", "m1", "assign", ())
        assert check_independence(ctx, s, t, t) is None

    def test_a_pair_not_co_enabled_is_vacuous(self):
        ctx, s = diamond_system()
        # both machines are mid-scan, so no start is enabled
        start = TransitionId("start", "", "start", ())
        t = TransitionId("internal", "m1", "assign", ())
        assert check_independence(ctx, s, start, t) is None
        assert check_independence(ctx, s, t, start) is None

    def test_connect_success_and_failure_disable_each_other(self):
        _, ctx, s = comm_fixture(CONNECT_REQ_SRC, conns=[Conn(pair=conn_pair("S1", "S2"))])
        s, _ = run_until(ctx, s, "m1", {"conSucc"})
        outcomes = [t for t, _ in successors(ctx, s, por=False) if t.mid == "m1"]
        assert sorted(t.label for t in outcomes) == ["conFail", "conSucc"]
        assert check_independence(ctx, s, *outcomes) is False

    def test_internal_vs_internal(self):
        ctx, s = diamond_system()
        t1 = TransitionId("internal", "m1", "assign", ())
        t2 = TransitionId("internal", "m2", "assign", ())
        assert check_independence(ctx, s, t1, t2) is True

    def test_tick_vs_internal(self):
        ctx, s = diamond_system()
        t1 = TransitionId("tick", "", "tick", (F(3),))
        t2 = TransitionId("internal", "m1", "assign", ())
        assert check_independence(ctx, s, t1, t2) is True

    def test_start_vs_internal_of_other(self):
        table = table_for(TANK_SRC, IDLE_SRC)
        ctx = ctx_for(table)
        due = make_machine(
            table,
            "a1",
            ("TANK",),
            state={"waterLevel": F(10), "pumpSwitch": F(0)},
            flows={"waterLevel": level_flow()},
            cycle_time=10,
            inputs=(InputSpec("TANK", "input", "script", (True,)),),
        )
        busy = make_machine(table, "b1", ("IDLE",), cycle_time=4, preload=True)
        s = make_system([due, busy])
        t1 = TransitionId("start", "", "start", ())
        t2 = TransitionId("internal", "b1", "assign", ())
        assert check_independence(ctx, s, t1, t2) is True

    def test_tick_vs_send_is_dependent(self):
        # A send inserts fresh window timers, so its outcome depends on how
        # much time passed first; the oracle must report that, and the
        # reduction never prunes time steps around communication.
        _, ctx, s = comm_fixture(
            SEND_SRC,
            conns=[Conn(pair=conn_pair("S1", "S2"), valid=True)],
            cycle=10,
        )
        s, label = run_until(ctx, s, "m1", {"sendData"})
        assert label == "sendData"
        send = TransitionId("comm", "m1", "sendData", (s.msg_seq,))
        tick = TransitionId("tick", "", "tick", (F(10),))
        assert check_independence(ctx, s, tick, send) is False
        sel = successors(ctx, s, por=True)
        assert sorted(t.cls for t, _ in sel) == ["comm", "tick"]  # full set


# -- which moves are private -------------------------------------------------

LOOP_SRC = """
PROGRAM L
VAR
  i : INT;
END_VAR
WHILE i < 2 DO
  i := i + 1;
END_WHILE;
END_PROGRAM
"""

CONCHECK_SRC = """
PROGRAM S1
VAR
  b : BOOL;
END_VAR
b := isConnected('S2');
END_PROGRAM
"""


def ample_ctx(ctx, comm_ample):
    return replace(ctx, comm_ample=comm_ample)


def next_moves(ctx, s, mid, stop_labels):
    s, label = run_until(ctx, s, mid, stop_labels)
    assert label is not None
    return machine_moves(ctx, s, mid)


class TestPrivateMoves:
    """Each rule in `comm` decides, where it makes a move, whether the
    reduction may take the move alone."""

    def test_assignment_is_private(self):
        table = table_for(IDLE_SRC)
        m = make_machine(table, "m1", ("IDLE",), preload=True)
        (v,) = machine_moves(ctx_for(table), make_system([m]), "m1")
        assert (v.label, v.private) == ("assign", True)

    def test_loop_step_is_not_private(self):
        table = table_for(LOOP_SRC)
        m = make_machine(table, "m1", ("L",), preload=True)
        (v,) = machine_moves(ctx_for(table), make_system([m]), "m1")
        assert (v.label, v.private) == ("while", False)
        assert not comm.chainable(comm.step(table, m.cfg))

    def test_assert_time_is_not_private(self):
        table = table_for(WINDOW_SRC)
        m = make_machine(table, "m1", ("W",), cycle_time=10, preload=True)
        at3 = tick_concrete(ctx_for(table), make_system([m]))[0][1]
        (v,) = machine_moves(ctx_for(table), at3, "m1")
        assert (v.label, v.private) == ("assertTime", False)

    def test_both_arms_of_a_symbolic_branch_are_private(self):
        ctx, s = TestSymbolicBranch()._start()
        moves = machine_moves(ctx, s, "m1")
        assert sorted((v.label, v.private) for v in moves) == [
            ("if-false", True),
            ("if-true", True),
        ]

    @pytest.mark.parametrize(
        "valid, comm_ample, private",
        [(True, True, True), (True, False, False), (False, True, False)],
    )
    def test_connect_success_is_private_on_a_link_that_is_up(
        self, valid, comm_ample, private
    ):
        # Without comm_ample another machine may drop the link, and then
        # the request brings it back up: the two do not commute.
        _, ctx, s = comm_fixture(
            CONNECT_REQ_SRC,
            conns=[Conn(pair=conn_pair("S1", "S2"), valid=valid)],
            options=Options(reliable_connect=True),
        )
        ctx = ample_ctx(ctx, comm_ample)
        (v,) = next_moves(ctx, s, "m1", {"conSucc"})
        assert (v.label, v.private) == ("conSucc", private)

    @pytest.mark.parametrize(
        "valid, comm_ample, private",
        [(True, True, True), (True, False, False), (False, True, False)],
    )
    def test_status_read_is_private_on_an_up_link_with_comm_ample(
        self, valid, comm_ample, private
    ):
        _, ctx, s = comm_fixture(
            CONCHECK_SRC, conns=[Conn(pair=conn_pair("S1", "S2"), valid=valid)]
        )
        ctx = ample_ctx(ctx, comm_ample)
        (v,) = next_moves(ctx, s, "m1", {"conCheck"})
        assert (v.key, v.private) == ((valid,), private)

    @pytest.mark.parametrize("valid", [True, False])
    @pytest.mark.parametrize("comm_ample", [True, False])
    def test_send_is_never_private(self, valid, comm_ample):
        _, ctx, s = comm_fixture(
            SEND_SRC, conns=[Conn(pair=conn_pair("S1", "S2"), valid=valid)]
        )
        ctx = ample_ctx(ctx, comm_ample)
        (v,) = next_moves(ctx, s, "m1", {"sendData", "sendDataFail"})
        assert v.label == ("sendData" if valid else "sendDataFail")
        assert v.private is False

    @pytest.mark.parametrize(
        "comm_ample, delay_lo, rival, private",
        [
            (True, F(10), None, True),
            (False, F(10), None, False),
            # A send on the link could arrive before the deadline at 5.
            (True, F(3), None, False),
            # A message in transit opens at 2, before the deadline at 5.
            (True, F(10), F(2), False),
        ],
    )
    def test_receive_is_private_with_comm_ample_inside_the_horizon(
        self, comm_ample, delay_lo, rival, private
    ):
        buffer = (Msg("S1", "S2", "blk", "dst", 1, F(0), F(5), seq=0),)
        if rival is not None:
            buffer += (Msg("S1", "S2", "blk", "dst", 2, rival, F(9), seq=1),)
        conn = Conn(pair=conn_pair("S1", "S2"), valid=True, buffer=buffer,
                    delay_lo=delay_lo)
        _, ctx, s = comm_fixture(RECV_SRC, prog="S2", conns=[conn])
        ctx = ample_ctx(ctx, comm_ample)
        (v,) = next_moves(ctx, s, "m1", {"rcvData"})
        assert (v.label, v.key, v.private) == ("rcvData", (0,), private)
