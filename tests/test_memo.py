"""The memo tables of the successor path must not change the graph.

`RuleCtx.steps` and `RuleCtx.runs` hold step outcomes and whole private
runs per configuration, `RuleCtx.flows` the plant state after a time
step, and `RuleCtx.moves` and `RuleCtx.ticks` each machine's chained
moves and the time steps of concrete states without fresh variables; a
property keeps one result per distinct tuple of plant states.  A context
warmed by searches and simulations must enumerate the same transitions,
to the same states, as a fresh one; and a search must not step the same
configuration over and over.  The keys must be type-exact: `True == 1`,
yet only one of them is a number.

Cached hashes (of configurations, of syntax-tree nodes) must never outlive
the fields they were computed from.
"""

import ast
import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from plcreach import bench, comm, por, timed
from plcreach.explorer import PropertyError, compile_property, random_walk, search, simulate
from plcreach.kmachine import KConfig, config_vars
from plcreach.model import InputSpec, Options, canonicalize, exact_links
from plcreach.por import successors
from plcreach.scenario import scenario_from_dict
from plcreach.st import Lit, PouTable, parse_file
from plcreach.timed import tick_concrete
from plcreach.values import CACHES, copy_with, is_numeric

from test_system import ctx_for, env_value, make_machine, make_system, table_for

SRC = Path(__file__).resolve().parent.parent / "src" / "plcreach"

# (bundled model, search bound used to warm the context)
WALKS = [("ptpc", 5), ("rvc", 5), ("therc", 5), ("commdemo", 10)]


def _enumerated(ctx, s, por):
    # the canonical key ignores message identities; `msg_seq` and the
    # exact links hold them, with the class of every message's data
    return [(tid, canonicalize(st), st.msg_seq, exact_links(st))
            for tid, st in successors(ctx, s, por=por)]


@pytest.mark.parametrize("name, bound", WALKS, ids=[w[0] for w in WALKS])
def test_warm_context_enumerates_like_a_fresh_one(name, bound):
    scen = bench.load(name)
    s0 = scen.initial_state()
    warm = scen.context()
    for por in (False, True):
        search(warm, scen.initial_state(por=por), bound=bound)
    search(warm, scen.initial_state(clock_sep=True), bound=bound)
    search(warm, scen.initial_state(mode="symbolic", por=True), bound=3)
    simulate(warm, s0, 60)
    assert warm.steps and warm.runs and warm.moves and warm.ticks
    # a model with change laws has flowed its plant on every tick
    assert bool(warm.flows) == any(m.flow for m in s0.machines)
    for start in (s0, scen.initial_state(clock_sep=True)):
        walk = random_walk(scen.context(), start, 40, random.Random(3))
        assert len(walk) > 20
        for _, s in walk:
            for por in (False, True):
                assert _enumerated(warm, s, por) == _enumerated(scen.context(), s, por)


def test_a_symbolic_search_leaves_the_move_and_tick_memos_empty():
    scen = bench.load("commdemo")
    ctx = scen.context()
    r = search(ctx, scen.initial_state(mode="symbolic", por=True), bound=10)
    assert r.states_explored > 100 and ctx.steps
    assert not ctx.moves and not ctx.ticks and not ctx.links and not ctx.started


def _relinked(s, data=None, reverse_seqs=False):
    """`s` with the data of every message in its links set to `data`
    (unless None), or with the `seq`s of each buffer in reverse order."""
    def msgs(buffer):
        seqs = [m.seq for m in buffer][::-1] if reverse_seqs else [m.seq for m in buffer]
        return tuple(copy_with(m, data=m.data if data is None else data, seq=q)
                     for m, q in zip(buffer, seqs))
    return copy_with(s, conns=tuple(copy_with(c, buffer=msgs(c.buffer)) for c in s.conns))


TWINS = {
    "number-first": ({"data": 1}, {"data": True}),
    "truth-first": ({"data": True}, {"data": 1}),
    "seqs-swapped": ({}, {"reverse_seqs": True}),
}


@pytest.mark.parametrize("twins", TWINS.values(), ids=TWINS.keys())
def test_memoised_moves_and_ticks_tell_message_twins_apart(twins):
    # `Msg` equality ignores `seq`, and `1 == True`: the two states of a
    # pair are equal, field by field, yet their successors differ.
    scen = bench.load("ptpc")
    walk = random_walk(scen.context(), scen.initial_state(), 17, random.Random(3))
    s = walk[-1][1]
    # messages in flight, a send that reads the links, and a tick that
    # carries them
    assert [(m.data, m.seq) for c in s.conns for m in c.buffer] == [(0, 0), (1, 1)]
    labels = [tid.label for tid, _ in successors(scen.context(), s, por=False)]
    assert "sendData" in labels and "tick" in labels
    ctx = scen.context()
    got = []
    for edit in twins:
        t = _relinked(s, **edit)
        got.append([(tid, repr(st)) for tid, st in successors(ctx, t, por=False)])
        assert got[-1] == [(tid, repr(st)) for tid, st in successors(scen.context(), t, por=False)]
    assert got[0] != got[1]
    assert ctx.moves and ctx.ticks


def _shifted(s, by):
    """`s` with every flowed plant value moved by `by`."""
    machines = tuple(
        m.with_state({name: m.state_value(name) + by for name, _ in m.flow}) for m in s.machines
    )
    return copy_with(s, machines=machines)


def _simulated(ctx, s0, until):
    run = simulate(ctx, s0, until)
    return [tid for tid, _ in run], repr(run[-1][1])


@pytest.mark.parametrize("name", ["ptp", "rv", "ther", "swat1"])
def test_warm_context_simulates_like_a_fresh_one(name):
    scen = bench.load(name)
    warm = scen.context()
    simulate(warm, scen.initial_state(), 150)
    assert warm.flows
    for clock_sep in (False, True):
        for by in (0, 3, -2):
            s0 = _shifted(scen.initial_state(clock_sep=clock_sep), by)
            assert _simulated(warm, s0, 200) == _simulated(scen.context(), s0, 200)


def test_search_steps_each_configuration_about_once(monkeypatch):
    calls = Counter()
    real_step = comm.step

    def counted(table, cfg):
        calls[cfg] += 1
        return real_step(table, cfg)

    layers = Counter()

    def counting(mod, name):
        real = getattr(mod, name)

        def layer(*args):
            layers[name] += 1
            return real(*args)

        monkeypatch.setattr(mod, name, layer)

    monkeypatch.setattr(comm, "step", counted)
    counting(por, "machine_moves")
    counting(timed, "tick_apply")
    scen = bench.load("ptpc")
    r = search(scen.context(), scen.initial_state(por=False), bound=10)
    assert (r.states_explored, r.transitions_fired) == (6601, 15504)
    # Without the move and tick memos (`RuleCtx.moves`, `RuleCtx.ticks`)
    # this search made 26,498 move enumerations and 3,196 jumps; with them
    # keyed by the exact links and timer, 4,754 move enumerations.
    assert dict(layers) == {"machine_moves": 2614, "tick_apply": 158}
    # Without the memo this search made 100,994 calls on these 1,181
    # configurations.  `machine_moves` steps a configuration at most once,
    # and each private run is walked at most once.  The configurations a
    # run passes through are not kept (a long simulation would hold all of
    # them), so one that several runs reach is stepped once per run: 1,249
    # calls here.  The finished configurations of the two machines are
    # equal, and so one entry.
    assert len(calls) == 1181
    assert sum(calls.values()) == 1249


# -- type-exact keys ----------------------------------------------------------

# The interpreter does not type-check assignments: the scan that senses
# `c` leaves the number 1 in `sw`, the other one the truth value TRUE.
MIXED_SRC = """\
PROGRAM P
VAR_INPUT
  level : REAL;
  c : BOOL;
END_VAR
VAR_OUTPUT
  sw : INT;
END_VAR
IF c THEN
  sw := 1;
ELSE
  sw := TRUE;
END_IF;
END_PROGRAM
"""


def _published(c: bool):
    """The state just after the second scan start publishes `sw`."""
    doc = {
        "machines": [
            {
                "id": "plc1",
                "programs": ["P"],
                "cycleTime": 10,
                "state": {"level": 20},
                "flow": {"level": "level - sw * t"},
                "inputs": {"c": {"kind": "script", "values": [c]}},
            }
        ]
    }
    scen = scenario_from_dict(doc, PouTable.from_units(parse_file(MIXED_SRC)))
    s0 = scen.initial_state()
    run = simulate(scen.context(), s0, 10)
    (tid, s), = [p for p in successors(scen.context(), run[-1][1]) if p[0].cls == "start"]
    return scen, s0, s


def test_mixed_values_reach_the_plant():
    values = [dict(_published(c)[2].machines[0].state)["sw"] for c in (True, False)]
    assert [(v, type(v)) for v in values] == [(1, int), (True, bool)]


@pytest.mark.parametrize("first", [True, False], ids=["number-first", "truth-first"])
@pytest.mark.parametrize("text", ["sw = 1", "sw = TRUE", "sw <> 0"])
def test_memoised_property_is_exact(text, first):
    _, _, s_first = _published(first)
    _, _, s_second = _published(not first)
    # compile against a state well typed for `text`, with the plant moved
    # away so that compiling warms no entry read below
    for base in (s_first, s_second):
        try:
            prop = compile_property(_shifted(base, 100), text)
            break
        except PropertyError:
            pass
    for s in (s_first, s_second):
        try:
            want = compile_property(_shifted(base, 100), text)(s)
        except PropertyError as exc:
            with pytest.raises(PropertyError, match="type mismatch"):
                prop(s)
            assert "type mismatch" in str(exc)
        else:
            assert prop(s) == want and type(prop(s)) is type(want)


@pytest.mark.parametrize("first", [True, False], ids=["number-first", "truth-first"])
def test_memoised_flow_is_exact(first):
    scen, _, s_first = _published(first)
    _, _, s_second = _published(not first)
    ctx = scen.context()
    tick_concrete(ctx, s_first)
    assert ctx.flows
    for s in (s_first, s_second):
        got = tick_concrete(ctx, s)
        assert repr(got) == repr(tick_concrete(scen.context(), s))
        # the value the program wrote rides along through time unchanged
        (_, after), = got
        assert repr(after.machines[0].state_value("sw")) == repr(s.machines[0].state_value("sw"))


def test_true_is_not_the_literal_one():
    assert Lit(1) != Lit(True) and Lit(True) != Lit(1)
    assert Lit(1) == Lit(1) and Lit(True) == Lit(True)


BRANCH_SRC = """
PROGRAM P
VAR_INPUT lvl : REAL; END_VAR
VAR_OUTPUT sw : BOOL; END_VAR
IF lvl > 5 THEN sw := 1; ELSE sw := TRUE; END_IF;
END_PROGRAM
"""


def test_arms_that_differ_only_in_a_literal_class_stay_apart():
    # The arms' configurations differ only in `1` against `TRUE`; were they
    # equal, the step memo would give the second arm the first arm's run.
    table = table_for(BRANCH_SRC)
    ctx = ctx_for(table)
    m = make_machine(table, "m1", ("P",), cycle_time=10,
                     inputs=(InputSpec("P", "lvl", "free", lo=Fraction(0), hi=Fraction(10)),))
    (_, s), = successors(ctx, make_system([m], options=Options(mode="symbolic")), por=False)
    arms = {t.key[0][0]: repr(env_value(st.machine("m1"), "P", "sw"))
            for t, st in successors(ctx, s, por=False) if t.label == "seq"}
    assert arms == {"if-true": "1", "if-false": "True"}


# -- hashes cached on the instance -------------------------------------------


def _from_scratch(cfg: KConfig) -> KConfig:
    return KConfig(**{f.name: getattr(cfg, f.name) for f in fields(KConfig)})


def test_a_copied_configuration_hashes_as_one_built_from_scratch():
    cfg = bench.load("ptpc").initial_state().machines[0].cfg
    hash(cfg)
    loc, value = next((lc, v) for lc, v in enumerate(cfg.store) if is_numeric(v))
    store = tuple(v + 1 if lc == loc else v for lc, v in enumerate(cfg.store))
    for copy in (copy_with(cfg, store=store), cfg.write(loc, value + 1)):
        assert copy != cfg
        fresh = _from_scratch(copy)
        assert copy == fresh and hash(copy) == hash(fresh)
        assert copy.store == fresh.store


def _cache_names_in_source() -> set:
    """The instance-dict entries the package writes, read from its source:
    every string key that starts with one underscore and is assigned to
    by subscript (`d["_hash"] = ...`), and every module-level string
    constant that starts with one underscore (`_PIECE = "_key_piece"`,
    which is written as `d[entry]`)."""
    found = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        found.add(target.slice)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                found.add(node.value)
    return {c.value for c in found if isinstance(c, ast.Constant) and isinstance(c.value, str)
            and c.value.startswith("_") and not c.value.startswith("__")}


def _cache_names_in_records() -> set:
    """The instance-dict entries, other than fields, of every record
    reachable from the states of a concrete and a symbolic walk, each
    state canonicalized and its links keyed exactly."""
    scen = bench.load("ptpc")
    states = []
    for mode in ("concrete", "symbolic"):
        s0 = scen.initial_state(mode=mode)
        states += [s for _, s in random_walk(scen.context(), s0, 30, random.Random(5))]
    for s in states:
        canonicalize(s)
        exact_links(s)
    extra, seen, todo = set(), set(), list(states)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, tuple):
            todo.extend(obj)
        names = getattr(type(obj), "__dataclass_fields__", None)
        if names is not None:
            extra.update(k for k in obj.__dict__ if k not in names)
            todo.extend(obj.__dict__.values())
    return extra


def test_copy_with_changes_only_the_named_fields():
    s = bench.load("ptpc").initial_state()
    t = copy_with(s, ticked=True, msg_seq=4)
    assert (t.ticked, t.msg_seq) == (True, 4)
    assert copy_with(t, ticked=False, msg_seq=0) == s
    with pytest.raises(TypeError, match="clokc"):
        copy_with(s, clokc=Fraction(1))
    # `copy_with` drops exactly the caches named in `CACHES`: every one the
    # package writes must be named there, or a copy would keep a cache of
    # the fields it changed.
    assert _cache_names_in_source() <= set(CACHES)
    assert _cache_names_in_records() == set(CACHES)
    cfg = s.machines[0].cfg
    hash(cfg)
    config_vars(cfg)
    canonicalize(s)
    exact_links(s)
    for record in (cfg, s.machines[0], s.conns[0]):
        assert set(record.__dict__) > set(type(record).__dataclass_fields__)
        copy = copy_with(record)
        assert copy == record
        assert set(copy.__dict__) == set(type(record).__dataclass_fields__)
