"""Discrete RKN tableaus: quadrature discretization of the continuous-stage
coefficient functions, the five named reference methods, structural verifiers
(symmetry, symplecticity, simplifying assumptions, order bound), and the
rkn-tableau/1 interchange format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .cscoeff import SEARCH_CAP, SEARCH_TOL, AlphaMatrix, build_order4, eval_Abar_grid
from .errors import TableauFormatError, TableauValidationError
from .quadrature import QuadratureRule, lobatto_rule

FORMAT_TAG = "rkn-tableau/1"

#: Agreement required between hard-coded named tableaus and their
#: parameter-substitution reconstruction.
CROSSCHECK_TOL = 1e-14

_SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class RknTableau:
    """Coefficients (c, a_bar, b_bar, b) of an s-stage RKN method.

    The update reads
        Q_i = q0 + h c_i p0 + h^2 sum_j a_bar[i,j] f(Q_j)
        q1  = q0 + h p0 + h^2 sum_i b_bar[i] f(Q_i)
        p1  = p0 + h sum_i b[i] f(Q_i)
    """

    s: int
    c: np.ndarray = field(repr=False)
    a_bar: np.ndarray = field(repr=False)
    b_bar: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.s, int) or self.s < 1:
            raise ValueError("stage count s must be a positive integer")
        c = np.array(self.c, dtype=float)
        a_bar = np.array(self.a_bar, dtype=float)
        b_bar = np.array(self.b_bar, dtype=float)
        b = np.array(self.b, dtype=float)
        s = self.s
        if c.shape != (s,) or b_bar.shape != (s,) or b.shape != (s,):
            raise ValueError("c, b_bar, b must have shape (s,)")
        if a_bar.shape != (s, s):
            raise ValueError("a_bar must have shape (s, s)")
        for arr in (c, a_bar, b_bar, b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("tableau entries must be finite")
        if c.min() < -1e-12 or c.max() > 1.0 + 1e-12:
            raise ValueError("abscissae c must lie in [0, 1]")
        for name, arr in (("c", c), ("a_bar", a_bar), ("b_bar", b_bar), ("b", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def lower_triangular(self) -> bool:
        """True when every entry strictly above the diagonal is exactly zero."""
        return not np.any(np.triu(self.a_bar, k=1))


@dataclass(frozen=True)
class SimplifyingDegrees:
    """Largest indices of the discrete B / CN / DN assumptions that hold."""

    xi: int
    eta: int
    zeta: int
    max_residual: float


@dataclass(frozen=True)
class OrderBound:
    """Lower order bound min(xi, 2 eta + 2, eta + zeta) from the discrete search.

    weights_consistent records the b_bar = b (1 - c) precondition; when it
    fails the bound's hypotheses are not met and bound is 0.
    """

    bound: int
    weights_consistent: bool
    xi: int
    eta: int
    zeta: int


def discretize(m: AlphaMatrix, rule: QuadratureRule, label: str = "") -> RknTableau:
    """RKN tableau induced by Abar and a quadrature rule.

    a_bar[i,j] = b_j Abar(c_i, c_j) and b_bar = b (1 - c); the rule's nodes
    and weights pass through unchanged.  Abar is evaluated once on the whole
    c x c node grid by cscoeff.eval_Abar_grid, the one evaluator of Abar,
    whose summation order is fixed; each entry has the bits of eval_Abar at
    that node pair.
    """
    a_bar = rule.b[None, :] * eval_Abar_grid(m, rule.c, rule.c)
    b_bar = rule.b * (1.0 - rule.c)
    name = label or f"{m.label or 'csrkn'} @ {rule.kind}-{rule.s}"
    return RknTableau(rule.s, rule.c, a_bar, b_bar, rule.b, name)


# Hard-coded reference methods: common Lobatto-3 data plus per-method rows and
# the (alpha, beta, gamma) that regenerate them from the order-4 family.
_LOBATTO3_C = (0.0, 0.5, 1.0)
_LOBATTO3_BBAR = (1.0 / 6.0, 1.0 / 3.0, 0.0)
_LOBATTO3_B = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)

_NAMED = {
    "rkn-iiia": (
        (-1.0 / 12.0, 0.0, _SQRT5 / 60.0),
        (
            (0.0, 0.0, 0.0),
            (1.0 / 16.0, 1.0 / 12.0, -1.0 / 48.0),
            (1.0 / 6.0, 1.0 / 3.0, 0.0),
        ),
    ),
    "rkn-iiib": (
        (-1.0 / 12.0, _SQRT5 / 60.0, 0.0),
        (
            (0.0, -1.0 / 12.0, 0.0),
            (1.0 / 12.0, 1.0 / 12.0, 0.0),
            (1.0 / 6.0, 1.0 / 4.0, 0.0),
        ),
    ),
    "diagsymp": (
        (0.0, _SQRT5 / 30.0, _SQRT5 / 30.0),
        (
            (1.0 / 12.0, 0.0, 0.0),
            (1.0 / 12.0, 0.0, 0.0),
            (1.0 / 6.0, 1.0 / 3.0, 1.0 / 12.0),
        ),
    ),
    "rkn-a": (
        (-1.0 / 10.0, _SQRT5 / 150.0, _SQRT5 / 60.0),
        (
            (-1.0 / 360.0, -1.0 / 90.0, 1.0 / 72.0),
            (49.0 / 720.0, 13.0 / 180.0, -11.0 / 720.0),
            (13.0 / 72.0, 29.0 / 90.0, -1.0 / 360.0),
        ),
    ),
    "rkn-b": (
        (-1.0 / 10.0, _SQRT5 / 60.0, _SQRT5 / 150.0),
        (
            (-1.0 / 360.0, -11.0 / 180.0, 1.0 / 72.0),
            (29.0 / 360.0, 13.0 / 180.0, -1.0 / 360.0),
            (13.0 / 72.0, 49.0 / 180.0, -1.0 / 360.0),
        ),
    ),
}

#: Names of the reference methods, in the order listed above.
NAMED_METHODS = tuple(_NAMED)


def named_tableau(name: str) -> RknTableau:
    """One of the five reference methods: rkn-iiia, rkn-iiib, diagsymp,
    rkn-a, rkn-b.

    The stored entries are cross-validated against regenerating the tableau
    from the order-4 family parameters; disagreement beyond 1e-14 aborts,
    guarding against transcription errors in either data path.
    """
    key = name.strip().lower()
    if key not in _NAMED:
        raise ValueError(
            f"unknown tableau {name!r}; expected one of {sorted(_NAMED)}"
        )
    params, rows = _NAMED[key]
    t = RknTableau(
        3,
        np.array(_LOBATTO3_C),
        np.array(rows),
        np.array(_LOBATTO3_BBAR),
        np.array(_LOBATTO3_B),
        key,
    )
    ref = discretize(build_order4(*params), lobatto_rule(3))
    dev = max(
        np.abs(t.c - ref.c).max(),
        np.abs(t.a_bar - ref.a_bar).max(),
        np.abs(t.b_bar - ref.b_bar).max(),
        np.abs(t.b - ref.b).max(),
    )
    if dev > CROSSCHECK_TOL:
        raise TableauValidationError(
            f"stored {key} tableau disagrees with its parameter "
            f"reconstruction by {dev:.3e}"
        )
    return t


def adjoint(t: RknTableau) -> RknTableau:
    """Adjoint tableau (the inverse method with negated step size).

    With r = s+1-i in 1-based indexing:
        c*_i = 1 - c_r,  b*_i = b_r,  bbar*_i = b_r - bbar_r,
        abar*_ij = b_{s+1-j} (1 - c_r) - bbar_{s+1-j} + abar_{r, s+1-j}.
    """
    rev = slice(None, None, -1)
    c_star = 1.0 - t.c[rev]
    b_star = t.b[rev]
    b_bar_star = t.b[rev] - t.b_bar[rev]
    a_bar_star = (
        t.b[rev][None, :] * (1.0 - t.c[rev])[:, None]
        - t.b_bar[rev][None, :]
        + t.a_bar[rev, :][:, rev]
    )
    return RknTableau(
        t.s, c_star, a_bar_star, b_bar_star, b_star, f"adjoint({t.label})"
    )


def is_symmetric(t: RknTableau, tol: float = 1e-12) -> tuple[bool, float]:
    """Whether the tableau equals its adjoint; returns (verdict, deviation)."""
    adj = adjoint(t)
    dev = max(
        np.abs(t.c - adj.c).max(),
        np.abs(t.a_bar - adj.a_bar).max(),
        np.abs(t.b_bar - adj.b_bar).max(),
        np.abs(t.b - adj.b).max(),
    )
    return dev < tol, float(dev)


def is_symplectic(t: RknTableau, tol: float = 1e-12) -> tuple[bool, float]:
    """Classical RKN symplecticity conditions; returns (verdict, residual).

    (i)  b_bar_i = b_i (1 - c_i)
    (ii) b_i (b_bar_j - a_bar_ij) = b_j (b_bar_i - a_bar_ji)
    """
    r1 = np.abs(t.b_bar - t.b * (1.0 - t.c)).max()
    m = t.b[:, None] * (t.b_bar[None, :] - t.a_bar)
    r2 = np.abs(m - m.T).max()
    res = float(max(r1, r2))
    return res < tol, res


def _b_residual(t: RknTableau, kappa: int) -> float:
    return abs(float(t.b @ t.c ** (kappa - 1)) - 1.0 / kappa)


def _cn_residual(t: RknTableau, kappa: int) -> float:
    lhs = t.a_bar @ t.c ** (kappa - 1)
    rhs = t.c ** (kappa + 1) / (kappa * (kappa + 1.0))
    return float(np.abs(lhs - rhs).max())


def _dn_residual(t: RknTableau, kappa: int) -> float:
    lhs = (t.b * t.c ** (kappa - 1)) @ t.a_bar
    rhs = t.b * (
        t.c ** (kappa + 1) / (kappa * (kappa + 1.0))
        - t.c / kappa
        + 1.0 / (kappa + 1.0)
    )
    return float(np.abs(lhs - rhs).max())


def check_simplifying_discrete(
    t: RknTableau, tol: float = SEARCH_TOL
) -> SimplifyingDegrees:
    """Largest (xi, eta, zeta) with B(xi), CN(eta), DN(zeta) holding at tol.

    B(xi) covers kappa = 1..xi while CN(eta)/DN(zeta) cover kappa = 1..eta-1
    and 1..zeta-1, so eta and zeta are at least 1 vacuously.  All three
    searches stop at 13.
    """
    worst = 0.0
    xi = 0
    while xi < SEARCH_CAP:
        r = _b_residual(t, xi + 1)
        if r >= tol:
            break
        worst = max(worst, r)
        xi += 1
    eta = 1
    while eta < SEARCH_CAP:
        r = _cn_residual(t, eta)
        if r >= tol:
            break
        worst = max(worst, r)
        eta += 1
    zeta = 1
    while zeta < SEARCH_CAP:
        r = _dn_residual(t, zeta)
        if r >= tol:
            break
        worst = max(worst, r)
        zeta += 1
    return SimplifyingDegrees(xi, eta, zeta, worst)


def classical_order_bound(t: RknTableau, tol: float = 1e-12) -> OrderBound:
    """Discrete order lower bound min(xi, 2 eta + 2, eta + zeta).

    Requires b_bar = b (1 - c); when that fails the bound is reported as 0
    with weights_consistent False.  The bound is one-directional: methods may
    exceed it (their actual order is invisible to the moment-condition search).
    """
    deg = check_simplifying_discrete(t)
    consistent = bool(np.abs(t.b_bar - t.b * (1.0 - t.c)).max() < tol)
    bound = min(deg.xi, 2 * deg.eta + 2, deg.eta + deg.zeta) if consistent else 0
    return OrderBound(bound, consistent, deg.xi, deg.eta, deg.zeta)


def _fmt(x: float) -> str:
    # 17 significant digits: lossless float64 round trip
    return f"{x:.16e}"


def dumps_tableau(t: RknTableau) -> str:
    """Serialize to the rkn-tableau/1 interchange text."""
    rows = ",\n    ".join(
        "[" + ", ".join(_fmt(v) for v in row) + "]" for row in t.a_bar
    )
    vec = lambda a: "[" + ", ".join(_fmt(v) for v in a) + "]"
    return (
        "{\n"
        f'  "format": "{FORMAT_TAG}",\n'
        f'  "label": {json.dumps(t.label)},\n'
        f'  "s": {t.s},\n'
        f'  "c": {vec(t.c)},\n'
        f'  "a_bar": [\n    {rows}\n  ],\n'
        f'  "b_bar": {vec(t.b_bar)},\n'
        f'  "b": {vec(t.b)}\n'
        "}\n"
    )


def save_tableau(t: RknTableau, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_tableau(t))


def loads_tableau(text: str) -> RknTableau:
    """Parse the rkn-tableau/1 interchange text, rejecting unknown formats."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableauFormatError(f"not valid tableau text: {exc}") from exc
    if not isinstance(doc, dict):
        raise TableauFormatError("tableau document must be an object")
    fmt = doc.get("format")
    if fmt != FORMAT_TAG:
        raise TableauFormatError(
            f"unsupported format {fmt!r}; this reader understands {FORMAT_TAG!r}"
        )
    missing = [k for k in ("s", "c", "a_bar", "b_bar", "b") if k not in doc]
    if missing:
        raise TableauFormatError(f"missing fields: {', '.join(missing)}")
    s = doc["s"]
    if type(s) is not int:  # JSON true is a bool, which isinstance(s, int) passes
        raise TableauFormatError(f"stage count s must be an integer, not {s!r}")
    for key in ("c", "a_bar", "b_bar", "b"):
        todo = [doc[key]]
        while todo:
            v = todo.pop()
            if type(v) is list:
                todo.extend(v)
            elif type(v) is not float and type(v) is not int:
                # np.array(..., dtype=float) would read "0.5" as 0.5 and true as 1.0
                raise TableauFormatError(f"{key} entries must be numbers, not {v!r}")
    try:
        return RknTableau(
            s,
            np.array(doc["c"], dtype=float),
            np.array(doc["a_bar"], dtype=float),
            np.array(doc["b_bar"], dtype=float),
            np.array(doc["b"], dtype=float),
            str(doc.get("label", "")),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise TableauFormatError(f"malformed tableau fields: {exc}") from exc


def load_tableau(path) -> RknTableau:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_tableau(fh.read())
