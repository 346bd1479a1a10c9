"""Second-order test problems q'' = f(t, q) with optional energy and exact
solution.

Scalar problems (dim 1) carry plain-float state and force functions built on
the math module so the integrator's scalar fast path stays allocation-free;
vector problems use numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class OdeProblem:
    """Descriptor of an initial value problem q'' = f(t, q).

    force maps (t, q) to the acceleration; energy is H(p, q); exact maps t to
    the state (q, p).  For dim 1 the state is held as plain floats, otherwise
    as (dim,) arrays.  reversible asserts H(-p, q) = H(p, q) with autonomous f.

    A vector force may also carry a batched form, force.stages(times, Q),
    mapping the (s,) stage times and the stacked (s, dim) stage values to
    the (s, dim) accelerations.  The Jacobi stage solver on array state then
    makes one stages call per sweep instead of s per-point calls; other
    solves use the per-point form.  stages must compute each row with the
    same floating-point operations as force(t_i, Q_i), so that results stay
    bit-identical; a result of the wrong shape raises ValueError.
    """

    dim: int
    force: Callable
    t0: float
    q0: object
    p0: object
    energy: Optional[Callable] = None
    exact: Optional[Callable] = None
    reversible: bool = False
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


def perturbed_pendulum() -> OdeProblem:
    """Pendulum with a 2q-perturbation: q'' = -sin q - (2/5) cos 2q.

    Started at (q, p) = (0, 2.5), a rotation regime with period close to 3.
    H(p, q) = p^2/2 - cos q + (1/5) sin 2q, invariant under p -> -p.
    """

    def force(t, q):
        return -math.sin(q) - 0.4 * math.cos(2.0 * q)

    def energy(p, q):
        return 0.5 * p * p - math.cos(q) + 0.2 * math.sin(2.0 * q)

    return OdeProblem(
        dim=1,
        force=force,
        t0=0.0,
        q0=0.0,
        p0=2.5,
        energy=energy,
        reversible=True,
        label="pendulum",
    )


def harmonic_oscillator(omega: float = 1.0) -> OdeProblem:
    """q'' = -omega^2 q from (q, p) = (1, 0), with closed-form solution."""
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    w = float(omega)
    q0, p0 = 1.0, 0.0

    def force(t, q):
        return -(w * w) * q

    def energy(p, q):
        return 0.5 * p * p + 0.5 * (w * w) * (q * q)

    def exact(t):
        s = t - 0.0
        return (
            q0 * math.cos(w * s) + (p0 / w) * math.sin(w * s),
            -q0 * w * math.sin(w * s) + p0 * math.cos(w * s),
        )

    return OdeProblem(
        dim=1,
        force=force,
        t0=0.0,
        q0=q0,
        p0=p0,
        energy=energy,
        exact=exact,
        reversible=True,
        label=f"harmonic(omega={w!r})",
    )


class _KeplerForce:
    """q'' = -q/|q|^3, per point and batched over stacked stage values.

    Both forms take x*x + y*y, its square root r, r*r*r, then the quotient,
    so every row of stages(times, Q) equals force(t_i, Q_i) bit for bit.
    """

    __slots__ = ()

    def __call__(self, t, q):
        r = math.sqrt(q[0] * q[0] + q[1] * q[1])
        return -q / (r * r * r)

    def stages(self, times, Q):
        x, y = Q[:, 0], Q[:, 1]
        r = np.sqrt(x * x + y * y)
        return -Q / (r * r * r)[:, None]


def kepler_2d(eccentricity: float = 0.0) -> OdeProblem:
    """Planar Kepler problem q'' = -q/|q|^3 on an orbit of semi-major axis 1.

    Initial data q0 = (1-e, 0), p0 = (0, sqrt((1+e)/(1-e))) give H = -1/2 and
    period 2 pi for every eccentricity in [0, 1).
    """
    e = float(eccentricity)
    if not 0.0 <= e < 1.0:
        raise ValueError("eccentricity must lie in [0, 1)")
    q0 = np.array([1.0 - e, 0.0])
    p0 = np.array([0.0, math.sqrt((1.0 + e) / (1.0 - e))])
    q0.flags.writeable = False
    p0.flags.writeable = False

    def energy(p, q):
        r = math.sqrt(q[0] * q[0] + q[1] * q[1])
        return 0.5 * (p[0] * p[0] + p[1] * p[1]) - 1.0 / r

    return OdeProblem(
        dim=2,
        force=_KeplerForce(),
        t0=0.0,
        q0=q0,
        p0=p0,
        energy=energy,
        reversible=True,
        label=f"kepler(e={e!r})",
    )
