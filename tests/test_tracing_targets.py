"""The benchmark's tracer rebinds program names; they must keep resolving.

`perfbench/tracing.py` times layers by rebinding module attributes from
outside the program, and `perfbench/calibration.py` rebinds
`explorer.successors`.  A refactor that moves or renames one of those
names would only show when the benchmark runs with `--trace 1`; this test
loads the tracer by path, unedited, and fails first.  So does a search
that stops calling `successors` the way the calibration wrapper passes
it on (by keyword only), or that counts another number of scan starts,
the numerator of `sim_cycles_per_s`.
"""

import importlib.util
from pathlib import Path

import pytest

from plcreach import bench, explorer, por

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load(TRACING)


@pytest.mark.parametrize("name", ["ptpc", "rvc"])
def test_a_concrete_full_search_passes_the_calibration_wrapper(name):
    """The two models of the `concrete-full` workload at its bound, under
    the wrappers an untraced benchmark run installs."""
    tracing = _load_tracing()
    calibration = _load(PERFBENCH / "calibration.py")
    scen = bench.load(name)
    samples, starts = [], [0]
    with tracing.counting_starts(starts), calibration.calibrating(samples):
        r = explorer.search(scen.context(), scen.initial_state(por=False), bound=10)
    assert (r.states_explored, r.transitions_fired) == (6601, 15504)
    # one enumeration per stored state, each through the wrapper, which
    # times a chunk at every EVERY-th
    assert len(samples) == r.states_explored // calibration.EVERY
    assert starts[0] == 1668
    assert explorer.successors is por.successors


def test_rebinding_targets_resolve_to_callables():
    tracing = _load_tracing()
    assert tracing.REBINDINGS
    for mod, attr, span in tracing.REBINDINGS:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr} ({span})"
    # counting_starts rebinds por.start_variants; calibration.py rebinds
    # explorer.successors.
    assert callable(getattr(por, "start_variants", None))
    assert callable(getattr(explorer, "successors", None))


def test_traced_search_runs_and_restores_the_names():
    tracing = _load_tracing()
    before = {(mod, attr): getattr(mod, attr) for mod, attr, _ in tracing.REBINDINGS}
    scen = bench.load("commdemo")
    s0 = scen.initial_state(mode="symbolic", por=True)
    ctx = scen.context()
    tracer = tracing.Tracer()
    tracer.trace_checker(ctx.checker)
    with tracer.installed():
        r = explorer.search(ctx, s0, "plc1.pumpSwitch < 0", bound=5)
    assert r.verdict == explorer.NO_SOLUTION
    assert tracer.aggs["por.successors"].calls == r.states_explored
    assert tracer.aggs["model.canonicalize"].calls > r.states_explored
    assert tracer.aggs["explorer.property"].calls == r.states_explored
    for (mod, attr), fn in before.items():
        assert getattr(mod, attr) is fn

    box = [0]
    with tracing.counting_starts(box):
        explorer.search(scen.context(), s0, bound=5)
    assert box[0] > 0


# Rebound names that the program no longer calls, with the reason.  A
# per-layer metric read through one of them is zero by construction.
DEAD_TARGETS = {
    ("plcreach.explorer", "due_machines"): (
        "the explorer stopped calling it; the name stays importable because "
        "the tracer rebinds it"
    ),
}


def test_every_rebound_name_stays_on_the_call_path():
    """Each traced name is called by a search, a simulation or the oracle.

    Resolving is not enough: a refactor that stops calling, say,
    `comm.feasible` would leave its layer metric at zero unnoticed.  The
    names are counted by wrappers of this test's own, installed the way
    the tracer installs its own.
    """
    tracing = _load_tracing()
    calls: dict = {}
    saved = []

    def counting(fn, key):
        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    try:
        for mod, attr, _ in tracing.REBINDINGS:
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, counting(fn, (mod.__name__, attr)))

        scen = bench.load("commdemo")
        s0 = scen.initial_state(mode="symbolic", por=True)
        explorer.search(scen.context(), s0, "plc1.pumpSwitch < 0", bound=5)

        scen = bench.load("ptpc")
        s0 = scen.initial_state(mode="concrete")
        explorer.search(scen.context(), s0, bound=5)

        scen = bench.load("ptp")
        s0 = scen.initial_state()
        explorer.simulate(scen.context(), s0, 95)

        ctx = scen.context()
        (start,) = por.successors(ctx, s0, por=False)
        s1 = start[1]
        succ = por.successors(ctx, s1, por=False)
        tick = next(tid for tid, _ in succ if tid.cls == "tick")
        move = next(tid for tid, _ in succ if tid.cls == "internal")
        por.check_independence(ctx, s1, tick, move)
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)

    for mod, attr, span in tracing.REBINDINGS:
        key = (mod.__name__, attr)
        if key in DEAD_TARGETS:
            assert key not in calls, f"{key} is called again; drop it from DEAD_TARGETS"
        else:
            assert calls.get(key), f"{mod.__name__}.{attr} ({span}) is never called"
