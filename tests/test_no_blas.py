"""The package makes no BLAS-dispatching numpy call.

numpy's ``@``, ``dot``, ``vdot``, ``inner``, ``matmul``, ``tensordot`` and
``linalg`` hand their work to the BLAS library (OpenBLAS in the usual
wheels), whose worker threads spin after each call and bill CPU time to the
process.  One ``@`` per Newton step of the kappa solve raised the pressure
benchmark's cpu_s from 0.94 to 1.07 s and its setup_s from 0.06 to 0.11 s on
a 2-core VM (Python 3.11, numpy 2.4).  The package's products are small or
batched, so ``np.einsum`` (which does not call BLAS unless asked to
optimize) and elementwise sums do the same work without the threads.
"""

import ast
from pathlib import Path

import mcf

BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}
SOURCES = sorted(Path(mcf.__file__).parent.glob("*.py"))


def blas_calls(tree):
    """(line, what) of every BLAS-dispatching construct in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in BLAS_NAMES:
            yield node.lineno, node.name


def test_the_check_finds_each_construct():
    src = ("a @ b\na @= b\nnp.dot(a, b)\nnp.linalg.eigvals(a)\n"
           "from numpy import inner\nimport numpy.linalg\n")
    found = [what for _, what in blas_calls(ast.parse(src))]
    assert found.count("@") == 2
    assert {"dot", "linalg", "inner", "numpy.linalg"} <= set(found)


def test_package_sources_make_no_blas_call():
    assert SOURCES
    hits = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in blas_calls(ast.parse(path.read_text()))
    ]
    assert not hits, hits
