import ast
from pathlib import Path

import pytest

import schurkit


def test_all_names_resolve():
    missing = [name for name in schurkit.__all__ if not hasattr(schurkit, name)]
    assert missing == []
    assert len(set(schurkit.__all__)) == len(schurkit.__all__)


def test_star_import():
    ns = {}
    exec("from schurkit import *", ns)
    assert set(schurkit.__all__) <= set(ns)


@pytest.mark.parametrize("module", ["krylov", "dense"])
def test_kernel_module_imports_nothing_from_the_package(module):
    # GMRES and the dense kernels sit below every other layer
    tree = ast.parse((Path(schurkit.__file__).parent / f"{module}.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert [m for m in imported if m.startswith((".", "schurkit"))] == []
