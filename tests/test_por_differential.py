"""Partial order reduction must keep every verdict and every endpoint.

Each bundled model is searched twice, with and without POR.  Verdicts
come from a search for the case's property; scan-cycle endpoints from an
exhaustive search, since a search that stops at its first witness sees
an order-dependent part of the graph.
"""

import pytest

from plcreach import bench
from plcreach.explorer import search

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
    full = search(scen.context(), s0, bound=bound, por=por)
    if prop is None:
        return full.verdict, full.endpoints
    found = search(scen.context(), s0, prop, bound=bound, por=por)
    return found.verdict, full.endpoints


@pytest.mark.parametrize("name, bound, prop", CASES)
def test_por_keeps_verdict_and_endpoints(name, bound, prop):
    full_verdict, full_endpoints = _outcome(name, bound, prop, por=False)
    reduced_verdict, reduced_endpoints = _outcome(name, bound, prop, por=True)
    assert reduced_verdict == full_verdict
    assert reduced_endpoints == full_endpoints
