"""The module layering of heisenleib, read from each module's imports with
ast: the exact kernel (scalars, poly, linalg) imports no higher layer,
algebra sits on the kernel alone, and certify, the trust anchor, is
imported only by the layers that report on it (catalog, cli and the
package exports) and, function-locally, by heisenberg for the sp(2) locus."""

import ast
from pathlib import Path

import pytest

import heisenleib

PACKAGE = Path(heisenleib.__file__).parent
KERNEL = ("scalars", "poly", "linalg")  # in layer order


def imports(module: str) -> list:
    """(imported sibling module, imported names, function-local) per import."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = []

    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            inner = local or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                names = tuple(alias.name for alias in child.names)
                if child.module is None:  # from . import a, b
                    found.extend((name, (), inner) for name in names)
                else:
                    found.append((child.module, names, inner))
            elif isinstance(child, ast.ImportFrom) and child.module.startswith("heisenleib"):
                raise AssertionError(f"{module} imports {child.module} absolutely")
            visit(child, inner)

    visit(tree, False)
    return found


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def test_every_module_is_read():
    assert {"scalars", "poly", "linalg", "algebra", "heisenberg", "certify", "catalog",
            "constraints", "fileio", "cli", "__init__"} == set(MODULES)


@pytest.mark.parametrize("module", KERNEL)
def test_kernel_imports_no_higher_layer(module):
    lower = KERNEL[:KERNEL.index(module)]
    assert {name for name, _, _ in imports(module)} <= set(lower)


def test_algebra_sits_on_the_kernel():
    assert {name for name, _, _ in imports("algebra")} <= set(KERNEL)


def test_certify_importers():
    outside = [
        (module, names, local)
        for module in MODULES
        if module not in ("catalog", "cli", "__init__")
        for name, names, local in imports(module)
        if name == "certify"
    ]
    assert outside == [("heisenberg", ("sp2_nilpotency_locus",), True)]
