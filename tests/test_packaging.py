"""Packaging metadata: every installed entry point must resolve."""

import importlib
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_resolve():
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"script {name!r}: {target} has no {part!r}"
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r}: {target} is not callable"
