"""The package imports only the standard library and itself, and a one-shot
`bgg` process imports no module it does not use."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import singbgg

SRC = pathlib.Path(singbgg.__file__).parent

# Modules that cost a one-shot process milliseconds to import and that only
# some queries use: each is imported by the function that needs it.
DEFERRED = {"dataclasses", "inspect", "fractions", "decimal", "json", "hashlib"}


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


def test_no_permutation_helpers_in_src():
    # Elements are weights w(rho) and, inside the package, indices into the
    # group's tables: no module defines or imports the signed-root
    # permutation helpers, and only weyl.py applies the weight action.
    helpers = {"_compose", "_invert", "_num_inversions"}
    found, reflectors = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                names = {node.name}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, (ast.Attribute, ast.Name)):
                names = {node.attr if isinstance(node, ast.Attribute) else node.id}
            else:
                continue
            found |= {f"{path.name}: {n}" for n in names & helpers}
            if "_reflect" in names and not isinstance(node, ast.FunctionDef):
                reflectors.add(path.name)
    assert found == set()
    assert reflectors == {"weyl.py"}


def test_no_hand_written_immutability():
    # Value records are namedtuples: no class guards its own attributes.
    guards = {
        f"{path.name}: {node.name}.{item.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and item.name in ("__setattr__", "__delattr__")
    }
    assert guards == set()


def test_klpoly_holds_the_table_alone():
    # The block sums and their w0 reads sit in complexes.py: klpoly.py
    # imports nothing from parabolic.py, and among the modules only weyl.py,
    # which defines it, and complexes.py name lmul_w0_indices.
    imports = set()
    for node in ast.walk(ast.parse((SRC / "klpoly.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imports |= {node.module, *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            imports |= {alias.name for alias in node.names}
    assert {"parabolic", "singbgg.parabolic"} & imports == set()
    # an attribute, a name, a definition or an import
    namers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if "lmul_w0_indices" in {getattr(node, k, None) for k in ("attr", "id", "name")}
    }
    assert namers == {"weyl.py", "complexes.py"}


def test_fractions_only_for_weight_input():
    # Root data are integers; only user weight coordinates are rationals.
    users = {path.name for path in SRC.glob("*.py")
             if "fractions" in set(_imported_modules(path))}
    assert users == {"parabolic.py"}


def _fresh(*argv: str) -> str:
    """stdout of a fresh interpreter run with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_out_deferred_modules():
    # Measured against a bare interpreter, so whatever site imports is ignored.
    bare = set(_fresh("-c", "import sys; print(*sys.modules)").split())
    cli = set(_fresh("-c", "import sys, singbgg.cli; print(*sys.modules)").split())
    added = cli - bare
    assert "singbgg.cli" in added
    assert added & DEFERRED == set()


def test_deferred_imports_work_in_a_fresh_process(tmp_path):
    out = _fresh("-c", "from singbgg import CartanType, singularity_from_weight; "
                 "print(sorted(singularity_from_weight(CartanType('A', 3), "
                 "['3/2', '1/2', '1/2', '-1/2'])))")
    assert out == "[2]\n"
    out = _fresh("-m", "singbgg.cli", "mobius", "-t", "B", "-r", "3", "-s", "2,3",
                 "--w", "3232", "--x", "13232", "-f", "json")
    assert json.loads(out) == {"w": [2, 3, 2, 3], "x": [1, 2, 3, 2, 3],
                               "singular": [2, 3], "mobius": -1}
    cache = tmp_path / "b3.klv"
    argv = ("-m", "singbgg.cli", "klpoly", "-t", "B", "-r", "3", "--y", "3232",
            "--w", "2321232", "--cache", str(cache))
    assert _fresh(*argv) == "1+q\n"  # builds the table and saves it
    saved = cache.read_bytes()
    assert saved[:4] == b"KLV4"
    assert _fresh(*argv) == "1+q\n"  # loads it, checking the order digest
    assert cache.read_bytes() == saved


def test_test_oracle_not_exported():
    # The recursive Möbius oracle checks the package; it lives in tests/helpers.py.
    assert "mobius_oracle" not in singbgg.__all__
    assert not hasattr(singbgg, "mobius_oracle")
