"""Bundled benchmark scenarios.

Eight plant models in two families each: a consolidated single-machine
variant and a networked variant whose controllers exchange signals over
delayed links.  Every networked scenario sets `reliableConnect` (a
connect request on a configured link always succeeds) and
`rcvNoOnPending` (a receive may report no data while its messages are in
transit).  A few extra fixtures (single tank, send/receive demo, the
two-machine diamond, two reachability queries over the coupled tanks)
support the test suite.
"""

from __future__ import annotations

from importlib import resources

from ..scenario import Scenario, load_scenario

# Plant models.  Names ending in "c" are the communicating variants.
BENCHMARKS = ("ptp", "ptpc", "rv", "rvc", "ther", "therc", "swat1", "swat2")

# Fixtures for demos and for pinned engine queries.
EXTRAS = ("tank", "commdemo", "diamond", "query1", "query2")


def all_names() -> tuple[str, ...]:
    return BENCHMARKS + EXTRAS


def load(name: str) -> Scenario:
    """Load a bundled scenario by name."""
    if name not in BENCHMARKS + EXTRAS:
        raise KeyError(f"unknown benchmark {name!r}; choose from {', '.join(all_names())}")
    data = resources.files(__package__) / "data"
    with resources.as_file(data) as root:
        return load_scenario(root / f"{name}.json")
