"""Graph and peak-memory checks of the largest bundled searches.

Each case runs one search and fails (exit status 1) when its graph moves
or its peak RSS reaches the case's cap.  Peak RSS is per process, so run
one case per process:

    PYTHONPATH=src python tests/graph_memory.py <case>

`--list` prints the names of the cases.  pytest does not collect this
file; the caps are figures of Linux, where `ru_maxrss` is in KiB.
"""

import resource
import sys

from plcreach import bench
from plcreach.explorer import search


def _graph(r):
    return (r.verdict, r.states_explored, r.transitions_fired, len(r.endpoints),
            r.timelocks.count)


# name: (title, scenario, `initial_state` options, whether to search
# for the scenario's own property, the other search keywords, the
# graph's fields, the graph, the peak RSS cap in MB)
CASES = {
    # The symbolic POR search of `query1` at its own property and bound
    # 20, capped at 30,000 states (6-12 s).  Its graph must not move,
    # and its peak RSS must stay under 150 MB: about 86 MB on Python
    # 3.11, and over 360 MB without the renaming memo.
    "query1-capped": (
        "query1 capped at 30,000 states", "query1", {}, True,
        {"bound": 20, "max_states": 30000},
        lambda r: (r.verdict, r.states_explored, r.transitions_fired),
        ("BoundExhausted", 30000, 32707), 150),
    # The exhaustive concrete POR search of `ptpc` at bound 20 (about
    # 5 s), the largest graph the move and tick memos of `RuleCtx`
    # fill.  Its graph, time-locks included, must not move, and its
    # peak RSS must stay under 98.5 MB, 1.2 times the 82.2 MB it takes
    # on Python 3.11, with every successor built before its key is
    # looked up.
    "ptpc-por": (
        "ptpc at bound 20 with POR", "ptpc", {"por": True}, False, {"bound": 20},
        _graph, ("NoSolution", 66973, 95428, 26, 576), 98.5),
    # The exhaustive concrete search of `ptpc` at bound 20 without POR
    # (about 7 s).  It fires 2.36 transitions per stored state, 1.42
    # with POR, so it is where building a successor before looking
    # up its key costs memory first.  Its graph, time-locks included,
    # must not move, and its peak RSS must stay under 130.3 MB, 1.2
    # times the 108.6 MB it takes on Python 3.11.
    "ptpc-full": (
        "ptpc at bound 20 without POR", "ptpc", {}, False, {"bound": 20},
        _graph, ("NoSolution", 126489, 298048, 28, 576), 130.3),
    # The exhaustive symbolic POR search of `query1` at bound 10
    # (about 2 s): symbolic chains, ticks and the solver, on a graph
    # that ends.  Its graph, fresh solver queries included, must not
    # move, and its peak RSS must stay under 41.3 MB, 1.2 times the
    # 34.4 MB it takes on Python 3.11.
    "query1-symbolic": (
        "query1 at bound 10 with POR", "query1", {"mode": "symbolic", "por": True}, False,
        {"bound": 10},
        lambda r: (r.verdict, r.states_explored, r.transitions_fired, r.smt_queries,
                   len(r.endpoints), r.timelocks.count),
        ("NoSolution", 11753, 16892, 41, 5, 0), 41.3),
}


def run(name: str) -> int:
    title, model, options, own_property, keywords, fields, want, cap = CASES[name]
    scen = bench.load(model)
    prop = scen.analysis.property if own_property else None
    r = search(scen.context(), scen.initial_state(**options), prop, **keywords)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    got = fields(r)
    print(f"{title}: {got}, peak RSS {rss_mb:.1f} MB")
    if got != want:
        print(f"want {want}")
        return 1
    if rss_mb >= cap:
        print(f"peak RSS must stay under {cap} MB")
        return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--list"]:
        print("\n".join(CASES))
    elif len(sys.argv) == 2 and sys.argv[1] in CASES:
        sys.exit(run(sys.argv[1]))
    else:
        sys.exit(f"usage: {sys.argv[0]} --list | {' | '.join(CASES)}")
