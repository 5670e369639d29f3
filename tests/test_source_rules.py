"""Rules on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "subdirac").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # python -O strips assert, so a runtime check written as one vanishes
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements at lines {lines}; raise a named error instead"


def ellipsis_einsum_lines(name):
    path = next(p for p in SOURCES if p.name == name)
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum" and node.args
            and isinstance(node.args[0], ast.Constant) and "..." in str(node.args[0].value)]


def test_geometry_has_no_ellipsis_einsum():
    # an np.einsum over "..." runs its small inner axes one point at a time;
    # geometry.py works on entry-major planes instead
    lines = ellipsis_einsum_lines("geometry.py")
    assert not lines, f"np.einsum with '...' subscripts at lines {lines}"


def test_spinor_layers_have_no_ellipsis_einsum():
    # the operator, the lift checks and the bilinears run on coefficient
    # planes against fixed tables, not on per-point matrices
    lines = {name: ellipsis_einsum_lines(name) for name in ("dirac.py", "weierstrass.py")}
    assert not any(lines.values()), f"np.einsum with '...' subscripts at lines {lines}"


def _called_name(func):
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_contiguous_copy_of_moved_axes(path):
    # per-point data stays in entry-major planes from the chart pass to the
    # consumers; a contiguous copy of an np.moveaxis view is a layout round trip
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called_name(node.func) == "ascontiguousarray"
             and node.args and isinstance(node.args[0], ast.Call)
             and _called_name(node.args[0].func) == "moveaxis"]
    assert not lines, f"np.ascontiguousarray(np.moveaxis(...)) at lines {lines}"


def test_spinor_layers_walk_no_staircase_of_their_own():
    # the staircase order (base column, then rows) lives in geometry.py; the
    # lift's sign chain and the path integral call its kernels
    lines = {}
    for name in ("dirac.py", "weierstrass.py"):
        path = next(p for p in SOURCES if p.name == name)
        tree = ast.parse(path.read_text(), filename=str(path))
        lines[name] = [node.lineno for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and _called_name(node.func) in ("cumsum", "cumprod")]
    assert not any(lines.values()), f"np.cumsum or np.cumprod at lines {lines}"


def test_lift_kernels_take_no_matrix_product():
    # the reflection lift is elementwise over the points, so a rotation's lift
    # does not depend on the rotations lifted with it by construction; a BLAS
    # product may round a column differently by where it sits in its operand
    path = next(p for p in SOURCES if p.name == "spinors.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    kernels = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and node.name in ("_reflection_lifts", "_blade_lift")]
    assert len(kernels) == 2
    lines = [node.lineno for kernel in kernels for node in ast.walk(kernel)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
             or isinstance(node, ast.Call)
             and _called_name(node.func) in ("dot", "matmul", "tensordot", "inner")]
    assert not lines, f"matrix products in the lift kernels at lines {lines}"


def _identifiers(node):
    """The names a node binds or reads: a variable, an attribute, an import or a def."""
    return {getattr(node, key, None) for key in ("id", "attr", "name", "asname")} - {None}


def test_only_clifford_names_the_blade_sign():
    # the blade-product sign and the signed coefficient rows built from it
    # live in clifford.py; the spin lift, the operator and its residual read
    # clifford._left_product_rows instead of signing rows of their own
    lines = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree)
                 if any(name.startswith("_blade_product_sign") for name in _identifiers(node))]
        if found and path.name != "clifford.py":
            lines[path.name] = found
    assert not lines, f"_blade_product_sign* named at lines {lines}"
