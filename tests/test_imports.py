"""The package imports only the standard library and itself."""

import ast
import pathlib
import sys

import singbgg

SRC = pathlib.Path(singbgg.__file__).parent


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_is_standard_library_only():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    foreign = {
        f"{path.name}: {name}"
        for path in files
        for name in _imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"singbgg"}
    }
    assert foreign == set()


def test_fractions_only_for_weight_input():
    # Root data are integers; only user weight coordinates are rationals.
    users = {path.name for path in SRC.glob("*.py")
             if "fractions" in set(_imported_modules(path))}
    assert users == {"parabolic.py"}
