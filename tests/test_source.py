"""Checks on the package source and the README."""

import ast
import doctest
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_package_has_no_assert_statements():
    # python -O strips asserts; every invariant must be an explicit check
    found = []
    for path in sorted((ROOT / "src" / "migsets").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found


def test_readme_examples_run():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted >= 5
    assert result.failed == 0
