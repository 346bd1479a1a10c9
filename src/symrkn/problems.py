"""Second-order test problems q'' = f(t, q) with optional energy and exact
solution.

Scalar problems carry plain-float state and math-module forces; vector
problems use numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np


@dataclass(frozen=True)
class OdeProblem:
    """Descriptor of an initial value problem q'' = f(t, q).

    force maps (t, q) to the acceleration; energy is H(p, q); exact maps t to
    the state (q, p).  q0 and p0 must have shape () or (1,) at dim 1 and
    (dim,) otherwise, else ValueError; the force and energy get floats for
    shape () and (dim,) arrays otherwise.

    force must be a function of (t, q) alone.  The stage solver may reuse
    its value at an iterate it has already evaluated: a stage solve that
    converges on an iterate with the bits of the one before it keeps that
    iterate's force (a zero is always evaluated again, as 0.0 == -0.0 but
    the force may tell them apart).

    A vector force gets a fresh float64 (dim,) array per call and must
    return a (dim,) array; a result of another shape raises ValueError.

    The forces of perturbed_pendulum and kepler_2d are not called by the
    stage solver, which writes their arithmetic into its kernel with the
    same IEEE operations (see _TEMPLATES); a force of another type, a
    subclass of these included, keeps its calls.
    """

    dim: int
    force: Callable
    t0: float
    q0: object
    p0: object
    energy: Optional[Callable] = None
    exact: Optional[Callable] = None
    label: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        shapes = [(), (1,)] if self.dim == 1 else [(self.dim,)]
        for name in ("q0", "p0"):
            shape = np.shape(getattr(self, name))
            if shape not in shapes:
                raise ValueError(
                    f"{name} has shape {shape}, expected "
                    f"{' or '.join(map(str, shapes))} for dim {self.dim}"
                )


class _ForceTemplate(NamedTuple):
    """Source text of a built-in force, for the stage-solver kernel to write
    in place of its calls.

    Each text is formatted once per point, with the point's components as
    {0}, {1}, ... and {r} the name of a float local for the point's texts.
    lets are statements run first, in order; values are the acceleration's
    components, as expressions: a template serves the state kinds with as
    many components (one: scalar and (1,) state).  When unsafe is set and
    true at a point, the kernel calls the force itself at that point, as
    it calls a force without a template.
    name names the kernel, names binds the global names the texts use, and
    the texts do the IEEE operations of the force's __call__, in its order.
    """

    name: str
    values: tuple
    lets: tuple = ()
    unsafe: Optional[str] = None
    names: tuple = ()


class _PendulumForce:
    """q'' = -sin q - (2/5) cos 2q on a float, or on a (1,) array as a
    (1,) array with the float's bits."""

    __slots__ = ()

    def __call__(self, t, q):
        if isinstance(q, np.ndarray):  # (1,) state, whose one float math needs
            return np.array([self(t, *q.tolist())])
        return -math.sin(q) - 0.4 * math.cos(2.0 * q)


class _PendulumEnergy:
    """H(p, q) = p^2/2 - cos q + (1/5) sin 2q of floats, or of (1,) rows
    with the floats' bits."""

    __slots__ = ()

    # names bound as locals, as a call per sample is paid where the energy
    # has no column form: a wrapped energy or the caller's own loop
    def __call__(self, p, q, ndarray=np.ndarray, cos=math.cos, sin=math.sin):
        if isinstance(q, ndarray):  # (1,) rows, whose one float math needs
            return self(*p.tolist(), *q.tolist())
        return 0.5 * p * p - cos(q) + 0.2 * sin(2.0 * q)


def _pendulum_energy_columns(p, q, out):
    """_PendulumEnergy of the columns p and q into out, in place.

    The IEEE operations of the float form, in its order, with one column
    of scratch: numpy's +, - and * round as float arithmetic does, and its
    sin and cos give math's bits (tests/test_problems.py checks them).
    """
    np.multiply(p, 0.5, out=out)
    out *= p
    x = np.cos(q)
    out -= x
    np.multiply(q, 2.0, out=x)
    np.sin(x, out=x)
    x *= 0.2
    out += x


# the column form of each built-in energy that has one, by the energy's
# exact type: a wrapped or replaced energy is called per sample
_ENERGY_COLUMNS = {_PendulumEnergy: _pendulum_energy_columns}


def perturbed_pendulum() -> OdeProblem:
    """Pendulum with a 2q-perturbation: q'' = -sin q - (2/5) cos 2q.

    Started at (q, p) = (0, 2.5), a rotation regime with period close to 3.
    H(p, q) = p^2/2 - cos q + (1/5) sin 2q, invariant under p -> -p.
    """
    return OdeProblem(
        dim=1,
        force=_PendulumForce(),
        t0=0.0,
        q0=0.0,
        p0=2.5,
        energy=_PendulumEnergy(),
        label="pendulum",
    )


def harmonic_oscillator(omega: float = 1.0) -> OdeProblem:
    """q'' = -omega^2 q from (q, p) = (1, 0), with closed-form solution."""
    if not 0.0 < omega < math.inf:
        raise ValueError("omega must be positive and finite")
    w = float(omega)
    q0, p0 = 1.0, 0.0

    def force(t, q):
        return -(w * w) * q

    def energy(p, q):
        if isinstance(q, np.ndarray):  # (1,) rows: the float run's value
            return energy(*p.tolist(), *q.tolist())
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
        label=f"harmonic(omega={w!r})",
    )


# Where 2**-500 <= |x|, |y| (or 0) and 2**-1000 <= r^3 <= 2**500, every
# operation of the Kepler force has a normal, finite exact result: numpy sets
# no floating-point flag but inexact, and plain floats give its bits.
_KEPLER_SMALL = 2.0**-500
_KEPLER_R3_MIN = 2.0**-1000
_KEPLER_R3_MAX = 2.0**500


class _KeplerForce:
    """q'' = -q/|q|^3 on a (2,) array.

    A numpy formula on float64 scalars: x*x + y*y, its square root r,
    r*r*r, then the negated coordinates over it, each operation under
    np.errstate.  The kernel writes the same operations in float
    arithmetic (its template); a call with a point outside the ranges
    above, such as r = 0, a subnormal or overflowing entry, inf or NaN,
    goes to this form point by point, which keeps numpy's bits and its
    warnings or errors.
    """

    __slots__ = ()

    def __call__(self, t, q):
        r = np.sqrt(q[0] * q[0] + q[1] * q[1])
        return -q / (r * r * r)


# the kernel's inline text of each built-in force, found by the force's
# exact type: a subclass or any other force keeps its calls
_TEMPLATES = {
    _PendulumForce: _ForceTemplate(
        "pendulum", ("-sin({0}) - 0.4 * cos(2.0 * {0})",),
        names=(("sin", math.sin), ("cos", math.cos)),
    ),
    _KeplerForce: _ForceTemplate(
        "kepler", ("-{0} / {r}", "-{1} / {r}"),
        lets=("{r} = sqrt({0} * {0} + {1} * {1})", "{r} = {r} * {r} * {r}"),
        unsafe=(
            f"not {_KEPLER_R3_MIN!r} <= {{r}} <= {_KEPLER_R3_MAX!r}"
            f" or {-_KEPLER_SMALL!r} < {{0}} < {_KEPLER_SMALL!r} and {{0}}"
            f" or {-_KEPLER_SMALL!r} < {{1}} < {_KEPLER_SMALL!r} and {{1}}"
        ),
        names=(("sqrt", math.sqrt),),
    ),
}


# Newton on Kepler's equation takes at most 12 iterations for e <= 0.99 and
# |t| <= 1e4; reaching the cap means it failed.
_KEPLER_NEWTON_CAP = 50


def _eccentric_anomaly(e, t):
    """E with E - e sin E = t, by Newton's method from t, or for e >= 0.8
    from the aphelion of t's period (floor %, also for negative t).

    The residual is taken on the unreduced t; the iteration stops once the
    residual a step removed, |dE|(1 - e cos E), is at most 4 eps max(1, |t|).
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    E = t if e < 0.8 else t - t % (2.0 * math.pi) + math.pi
    tol = 4.0 * math.ulp(1.0) * max(1.0, abs(t))
    for _ in range(_KEPLER_NEWTON_CAP):
        slope = 1.0 - e * math.cos(E)
        dE = (E - e * math.sin(E) - t) / slope
        E -= dE
        if abs(dE) * slope <= tol:
            return E
    raise RuntimeError(
        f"Kepler's equation did not converge for e={e!r}, t={t!r} "
        f"in {_KEPLER_NEWTON_CAP} Newton iterations"
    )


def kepler_2d(eccentricity: float = 0.0) -> OdeProblem:
    """Planar Kepler problem q'' = -q/|q|^3 on an orbit of semi-major axis 1.

    Initial data q0 = (1-e, 0), p0 = (0, sqrt((1+e)/(1-e))) give H = -1/2 and
    period 2 pi for every eccentricity in [0, 1), with perihelion at t = 0.

    exact(t) is the state on that orbit (Hairer, Lubich and Wanner, Geometric
    Numerical Integration, I.2): with E - e sin E = t solved by Newton's
    method, q = (cos E - e, sqrt(1-e^2) sin E) and
    p = (-sin E, sqrt(1-e^2) cos E)/(1 - e cos E).  exact(0) returns q0 and
    p0 themselves; a non-finite t raises ValueError.
    """
    e = float(eccentricity)
    if not 0.0 <= e < 1.0:
        raise ValueError("eccentricity must lie in [0, 1)")
    q0 = np.array([1.0 - e, 0.0])
    p0 = np.array([0.0, math.sqrt((1.0 + e) / (1.0 - e))])
    q0.flags.writeable = False
    p0.flags.writeable = False
    b = math.sqrt((1.0 - e) * (1.0 + e))

    def energy(p, q):
        r = math.sqrt(q[0] * q[0] + q[1] * q[1])
        if r == 0.0:
            return -math.inf  # the limit of -1/r
        return 0.5 * (p[0] * p[0] + p[1] * p[1]) - 1.0 / r

    def exact(t):
        if t == 0.0:
            # sqrt(1-e^2)/(1-e) is not always the bits of p0[1]
            return q0, p0
        E = _eccentric_anomaly(e, float(t))
        c, s = math.cos(E), math.sin(E)
        w = 1.0 - e * c
        return np.array([c - e, b * s]), np.array([-s / w, b * c / w])

    return OdeProblem(
        dim=2,
        force=_KeplerForce(),
        t0=0.0,
        q0=q0,
        p0=p0,
        energy=energy,
        exact=exact,
        label=f"kepler(e={e!r})",
    )
