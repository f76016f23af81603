"""Seeded inputs for the three benchmark workloads.

The seed only picks inputs: initial physical values, property thresholds,
scripted input sequences and simulation horizons.  Model structure (the
bundled `.st` programs, cycle times, link delays, search bounds and modes)
is fixed per workload, so every seed gives operations of the same size and
the timings of different seeds are comparable.  See NOTES.md for the
reasoning behind each expected verdict.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

SOLUTION_FOUND = "SolutionFound"
NO_SOLUTION = "NoSolution"

# Bound 10 is the smallest at which the two-machine models exchange a
# message (link delay >= 10) and start a second scan; below it the graphs
# have 253 states, at it 6601.
CONCRETE_BOUND = 10
# Symbolic POR searches with bound 5 stay inside the first scan cycle:
# 1721 states, 234 fresh solver queries.
SYMBOLIC_BOUND = 5
# The reachable symbolic query needs the second scan start at clock 10.
SYMBOLIC_FOUND_BOUND = 10
# Envelope margin: levels and positions change at rate at most 1, so within
# a bound b they move by at most b.  Thresholds at least MARGIN away from
# the start are unreachable for every bound used here.
MARGIN = (11, 20)


@dataclass(frozen=True)
class Query:
    """One operation of a workload: a search or a simulation."""

    name: str
    doc: dict  # scenario document handed to scenario_from_dict
    kind: str  # "search" | "simulate"
    bound: Fraction = Fraction(0)
    property: str = ""
    expected: str = ""  # expected verdict of a search
    until: Fraction = Fraction(0)  # simulation horizon


def _data():
    return resources.files("plcreach.bench") / "data"


def read_doc(model: str) -> dict:
    return json.loads((_data() / f"{model}.json").read_text())


def read_sources(queries) -> dict:
    """The .st texts the queries name, keyed by file name."""
    names = {src for q in queries for src in q.doc["sources"]}
    return {n: (_data() / n).read_text() for n in sorted(names)}


def _with_state(doc: dict, values: dict) -> dict:
    doc = copy.deepcopy(doc)
    for m in doc["machines"]:
        for name in list(m.get("state", {})):
            if name in values:
                m["state"][name] = values[name]
    doc.pop("analysis", None)
    return doc


def _margin(rng) -> int:
    return rng.randint(*MARGIN)


def _outside(rng, var: str, start: int) -> str:
    return f"{var} < {start - _margin(rng)} OR {var} > {start + _margin(rng)}"


# -- concrete-full ------------------------------------------------------------


def concrete_full(seed: int) -> list:
    """Exhaustive POR-off concrete queries on ptpc and rvc at bound 10.

    Both properties are unreachable, so each search explores the full
    6601-state graph.
    """
    rng = random.Random(f"concrete-full/{seed}")
    bound = Fraction(CONCRETE_BOUND)
    l1, l2 = rng.randint(10, 40), rng.randint(10, 40)
    p1, p2 = rng.randint(0, 20), rng.randint(0, 20)
    return [
        Query(
            "ptpc-unreachable",
            _with_state(read_doc("ptpc"), {"level1": l1, "level2": l2}),
            "search", bound,
            f"{_outside(rng, 'level1', l1)} OR {_outside(rng, 'level2', l2)}",
            NO_SOLUTION,
        ),
        Query(
            "rvc-unreachable",
            _with_state(read_doc("rvc"), {"pos1": p1, "pos2": p2}),
            "search", bound,
            f"pos1 < {p1} OR pos1 > {p1 + _margin(rng)} OR "
            f"pos2 < {p2} OR pos2 > {p2 + _margin(rng)}",
            NO_SOLUTION,
        ),
    ]


# -- symbolic-por -------------------------------------------------------------


def symbolic_por(seed: int) -> list:
    """Symbolic POR-on queries over the ptpc family (query1/query2 links).

    Two unreachable properties at bound 5 explore the whole first scan
    cycle; one reachable property at bound 10 needs the second scan start
    and yields a witness with a solver model.
    """
    rng = random.Random(f"symbolic-por/{seed}")
    base = read_doc("query1")
    out = []

    l1, l2 = rng.randint(10, 40), rng.randint(10, 40)
    out.append(Query(
        "query1-unreachable", _with_state(base, {"level1": l1, "level2": l2}),
        "search", Fraction(SYMBOLIC_BOUND),
        f"{_outside(rng, 'level1', l1)} OR {_outside(rng, 'level2', l2)}",
        NO_SOLUTION,
    ))
    l1 = rng.randint(5, 25)
    l2 = l1 + _margin(rng) + rng.randint(0, 20)
    out.append(Query(
        "query2-unreachable", _with_state(base, {"level1": l1, "level2": l2}),
        "search", Fraction(SYMBOLIC_BOUND), "level1 = level2", NO_SOLUTION,
    ))
    l1, l2 = rng.randint(10, 40), rng.randint(10, 40)
    out.append(Query(
        "query1-reachable", _with_state(base, {"level1": l1, "level2": l2}),
        "search", Fraction(SYMBOLIC_FOUND_BOUND),
        f"pump1 = 1 AND level1 > {l1 - _margin(rng)}",
        SOLUTION_FOUND,
    ))
    for q in out:
        q.doc["analysis"] = {"mode": "symbolic", "por": True}
    return out


# -- simulate -----------------------------------------------------------------

# Horizons in scan cycles; every model scans every 10 time units.  The band
# is narrow so that per-operation times of different seeds stay comparable.
HORIZON_CYCLES = (295, 305)
SCRIPT_LEN = 32


def _script(rng, values) -> list:
    return [rng.choice(values) for _ in range(SCRIPT_LEN)]


def simulate(seed: int) -> list:
    """Deterministic runs of the consolidated models over long horizons.

    The networked models are left out: under `simulate` they time-lock at
    clock 40 (see NOTES.md).
    """
    rng = random.Random(f"simulate/{seed}")
    out = []

    doc = _with_state(read_doc("ptp"), {
        "level1": rng.randint(10, 40), "level2": rng.randint(10, 40),
    })
    for spec in doc["machines"][0]["inputs"].values():
        spec["values"] = _script(rng, [True, False])
    out.append(("ptp", doc))

    doc = _with_state(read_doc("rv"), {
        "pos1": rng.randint(0, 20), "pos2": rng.randint(0, 20),
    })
    for spec in doc["machines"][0]["inputs"].values():
        spec["kind"] = "script"
        spec["values"] = _script(rng, [0, 1])
    out.append(("rv", doc))

    doc = _with_state(read_doc("ther"), {
        "t1": rng.randint(10, 50), "t2": rng.randint(10, 50),
    })
    out.append(("ther", doc))

    doc = _with_state(read_doc("swat1"), {
        "level": rng.randint(20, 50), "dp": rng.randint(0, 20),
    })
    out.append(("swat1", doc))

    return [
        Query(name, doc, "simulate", until=Fraction(10 * rng.randint(*HORIZON_CYCLES)))
        for name, doc in out
    ]


GENERATORS = {
    "concrete-full": concrete_full,
    "symbolic-por": symbolic_por,
    "simulate": simulate,
}
