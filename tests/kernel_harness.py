"""Kernels for an explicit stage-solver structure, shared by the kernel tests.

The library reads the structure from the tableau: a sequential sweep when
a_bar is exactly lower triangular, Jacobi sweeps otherwise.  The bit tests
run both structures on every tableau, so they hand _stepper a view of the
tableau with the structure set.  The kernel then derives its start matrix
from c, a_bar and that structure, as it does for every tableau.
"""

from types import SimpleNamespace

from symrkn.kernel import _stepper


def structured_stepper(t, f, q0, sequential, stage_tol=1e-14, max_iters=100):
    """(kind, advance) of _stepper for t solved with the given structure."""
    view = SimpleNamespace(
        c=t.c, a_bar=t.a_bar, b_bar=t.b_bar, b=t.b, lower_triangular=sequential
    )
    return _stepper(view, f, q0, stage_tol, max_iters)
