"""Partial order reduction must keep every verdict and every endpoint.

Each bundled model is searched twice, with and without POR.  Verdicts
come from a search for the case's property; scan-cycle endpoints from an
exhaustive search, since a search that stops at its first witness sees
an order-dependent part of the graph.
"""

import pytest

from plcreach import bench
from plcreach.explorer import search
from plcreach.scenario import scenario_from_dict
from plcreach.st import PouTable, parse_file

DIAMOND_DEFECT = (
    "POR drops a reachable state: without it the search finds x1 = 2 AND "
    "x2 = 0 by seq(m1), tick[3], start, with m1 starting alone while m2's "
    "scan is unfinished; with it the search ends in NoSolution and the "
    "endpoints drop from 3 to 1.  The ample set of one machine's private "
    "moves is not independent of another machine's start."
)

CASES = [
    pytest.param("commdemo", 20, None, id="commdemo"),
    pytest.param("ptpc", 5, None, id="ptpc"),
    pytest.param("rvc", 5, None, id="rvc"),
    pytest.param("therc", 10, None, id="therc"),
    pytest.param(
        "diamond",
        3,
        "x1 = 2 AND x2 = 0",
        id="diamond",
        marks=pytest.mark.xfail(strict=True, reason=DIAMOND_DEFECT),
    ),
]


def _outcome(name, bound, prop, por):
    scen = bench.load(name)
    s0 = scen.initial_state(por=por)
    full = search(scen.context(), s0, bound=bound)
    if prop is None:
        return full.verdict, full.endpoints
    found = search(scen.context(), s0, prop, bound=bound)
    return found.verdict, full.endpoints


@pytest.mark.parametrize("name, bound, prop", CASES)
def test_por_keeps_verdict_and_endpoints(name, bound, prop):
    full_verdict, full_endpoints = _outcome(name, bound, prop, por=False)
    reduced_verdict, reduced_endpoints = _outcome(name, bound, prop, por=True)
    assert reduced_verdict == full_verdict
    assert reduced_endpoints == full_endpoints


# m1 asks twice for the link; m2 drops it and looks again.  z = 1 needs m2
# to disconnect between m1's two requests, so that the second brings the
# link back up: a request on an up link is not private when a loaded
# program can drop links.
RELINK_SRC = """\
PROGRAM A
VAR n : INT; END_VAR
IF n = 0 THEN connectRequest('B'); connectRequest('B'); END_IF;
n := 1;
END_PROGRAM
PROGRAM B
VAR_OUTPUT z : INT; END_VAR
IF isConnected('A') THEN
  disconnect('A');
  IF isConnected('A') THEN z := 1; END_IF;
END_IF;
END_PROGRAM
"""

RELINK_DOC = {
    "machines": [
        {"id": "m1", "programs": ["A"], "cycleTime": 10},
        {"id": "m2", "programs": ["B"], "cycleTime": 10},
    ],
    "connections": [{"a": "A", "b": "B"}],
    "reliableConnect": True,
}


def test_por_keeps_the_verdict_of_a_request_after_a_disconnect():
    # Verdicts only: the endpoints of this model also differ by the start
    # after an overrun that the diamond case shows.
    scen = scenario_from_dict(RELINK_DOC, PouTable.from_units(parse_file(RELINK_SRC)))
    assert not scen.context().comm_ample
    verdicts = [
        search(scen.context(), scen.initial_state(por=por), "z = 1", bound=10).verdict
        for por in (False, True)
    ]
    assert verdicts == ["SolutionFound", "SolutionFound"]
