"""The benchmark's tracer rebinds program names; they must keep resolving.

`perfbench/tracing.py` times layers by rebinding module attributes from
outside the program, and `perfbench/calibration.py` rebinds
`explorer.successors`.  A refactor that moves or renames one of those
names would only show when the benchmark runs with `--trace 1`; this test
loads the tracer by path, unedited, and fails first.
"""

import importlib.util
from pathlib import Path

from plcreach import bench, explorer, por

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        r = explorer.search(ctx, s0, "plc1.pumpSwitch < 0", bound=5, por=True)
    assert r.verdict == explorer.NO_SOLUTION
    assert tracer.aggs["por.successors"].calls == r.states_explored
    assert tracer.aggs["model.canonicalize"].calls > r.states_explored
    assert tracer.aggs["explorer.property"].calls == r.states_explored
    for (mod, attr), fn in before.items():
        assert getattr(mod, attr) is fn

    box = [0]
    with tracing.counting_starts(box):
        explorer.search(scen.context(), s0, bound=5, por=True)
    assert box[0] > 0
