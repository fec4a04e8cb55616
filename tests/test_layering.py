"""The module layering of heisenleib, read from each module's imports with
ast: the exact kernel (scalars, poly, linalg) imports no higher layer,
algebra sits on the kernel alone, and certify, the trust anchor, is
imported only by the layers that report on it (catalog, cli and the
package exports) and, function-locally, by heisenberg for the sp(2) locus.
The private names each module takes from a sibling are pinned, so that a
new private coupling shows up as a diff of PRIVATE_COUPLINGS.  The names
that the benchmark's layer tracer wraps (perfbench/layertrace.py) must
resolve, so that a rename fails here and not only in a traced run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import heisenleib

PACKAGE = Path(heisenleib.__file__).parent
KERNEL = ("scalars", "poly", "linalg")  # in layer order


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def imports(module: str) -> list:
    """(imported sibling module, imported names, function-local) per import."""
    tree = parse(module)
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


# (module, sibling): the private names the module imports from the sibling
# or reads as attributes of the sibling module
PRIVATE_COUPLINGS = {
    ("algebra", "poly"): {"_ProductSums", "_sum_of_products"},
    ("certify", "algebra"): {"_closure_checks", "_series"},
    ("cli", "algebra"): {"_both_series"},
    ("constraints", "poly"): {"_Substituter", "_used_names"},
    ("heisenberg", "algebra"): {"_change_basis_with_inverse"},
    ("linalg", "poly"): {"_sum_of_products"},
}


def private_couplings(module: str) -> dict:
    found: dict = {}
    siblings = set()
    for sibling, names, _ in imports(module):
        if not names:  # from . import sibling
            siblings.add(sibling)
        for name in names:
            if name.startswith("_"):
                found.setdefault((module, sibling), set()).add(name)
    for node in ast.walk(parse(module)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            found.setdefault((module, node.value.id), set()).add(node.attr)
    return found


def test_private_couplings_are_pinned():
    found: dict = {}
    for module in MODULES:
        found.update(private_couplings(module))
    assert found == PRIVATE_COUPLINGS


LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def resolves(module_name: str, attr: str) -> bool:
    owner = importlib.import_module(module_name)
    for part in attr.split("."):  # "Class.method" is wrapped on its class
        owner = vars(owner).get(part)
        if owner is None:
            return False
    return callable(owner)


@pytest.mark.skipif(not LAYERTRACE.exists(), reason="no perfbench/ in this checkout")
def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)  # standard library only
    traced = layertrace.COARSE + layertrace.HOT
    assert traced and [
        f"{module_name}.{attr}" for module_name, attr, _ in traced
        if not resolves(module_name, attr)
    ] == []
