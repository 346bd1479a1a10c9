"""Discrete RKN tableaus: quadrature discretization of the continuous-stage
coefficient functions, the five named reference methods, structural verifiers
(symmetry, symplecticity, simplifying assumptions, order bound), and the
rkn-tableau/1 interchange format.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from .cscoeff import SQRT5, AlphaMatrix, build_order4, eval_Abar_grid
from .errors import TableauFormatError, TableauValidationError
from .quadrature import QuadratureRule, lobatto_rule

FORMAT_TAG = "rkn-tableau/1"

#: Agreement required between hard-coded named tableaus and their
#: parameter-substitution reconstruction.
CROSSCHECK_TOL = 1e-14

#: Search cap for the largest satisfied simplifying-assumption index.
SEARCH_CAP = 13

#: Residual threshold separating pass from fail in that search.
SEARCH_TOL = 1e-10


@dataclass(frozen=True)
class RknTableau:
    """Coefficients (c, a_bar, b_bar, b) of an s-stage RKN method.

    The update reads
        Q_i = q0 + h c_i p0 + h^2 sum_j a_bar[i,j] f(Q_j)
        q1  = q0 + h p0 + h^2 sum_i b_bar[i] f(Q_i)
        p1  = p0 + h sum_i b[i] f(Q_i)

    Construction copies each field into a read-only float64 array and
    raises ValueError unless s is an int (a bool is not) of at least 1,
    the shapes are (s,) and (s, s), every entry is finite (one test over
    all four arrays) and c lies in [0, 1] up to 1e-12.
    """

    s: int
    c: np.ndarray = field(repr=False)
    a_bar: np.ndarray = field(repr=False)
    b_bar: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        s = self.s
        if not isinstance(s, int) or isinstance(s, bool) or s < 1:
            raise ValueError("stage count s must be a positive integer")
        c = np.array(self.c, dtype=float)
        a_bar = np.array(self.a_bar, dtype=float)
        b_bar = np.array(self.b_bar, dtype=float)
        b = np.array(self.b, dtype=float)
        if c.shape != (s,) or b_bar.shape != (s,) or b.shape != (s,):
            raise ValueError("c, b_bar, b must have shape (s,)")
        if a_bar.shape != (s, s):
            raise ValueError("a_bar must have shape (s, s)")
        if not np.isfinite(np.concatenate((c, a_bar.ravel(), b_bar, b))).all():
            raise ValueError("tableau entries must be finite")
        if np.minimum.reduce(c) < -1e-12 or np.maximum.reduce(c) > 1.0 + 1e-12:
            raise ValueError("abscissae c must lie in [0, 1]")
        for name, arr in (("c", c), ("a_bar", a_bar), ("b_bar", b_bar), ("b", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def lower_triangular(self) -> bool:
        """True when every entry strictly above the diagonal is exactly zero.

        Computed on first access and kept: the arrays are read-only.
        """
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
        (-1.0 / 12.0, 0.0, SQRT5 / 60.0),
        (
            (0.0, 0.0, 0.0),
            (1.0 / 16.0, 1.0 / 12.0, -1.0 / 48.0),
            (1.0 / 6.0, 1.0 / 3.0, 0.0),
        ),
    ),
    "rkn-iiib": (
        (-1.0 / 12.0, SQRT5 / 60.0, 0.0),
        (
            (0.0, -1.0 / 12.0, 0.0),
            (1.0 / 12.0, 1.0 / 12.0, 0.0),
            (1.0 / 6.0, 1.0 / 4.0, 0.0),
        ),
    ),
    "diagsymp": (
        (0.0, SQRT5 / 30.0, SQRT5 / 30.0),
        (
            (1.0 / 12.0, 0.0, 0.0),
            (1.0 / 12.0, 0.0, 0.0),
            (1.0 / 6.0, 1.0 / 3.0, 1.0 / 12.0),
        ),
    ),
    "rkn-a": (
        (-1.0 / 10.0, SQRT5 / 150.0, SQRT5 / 60.0),
        (
            (-1.0 / 360.0, -1.0 / 90.0, 1.0 / 72.0),
            (49.0 / 720.0, 13.0 / 180.0, -11.0 / 720.0),
            (13.0 / 72.0, 29.0 / 90.0, -1.0 / 360.0),
        ),
    ),
    "rkn-b": (
        (-1.0 / 10.0, SQRT5 / 60.0, SQRT5 / 150.0),
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
    guarding against transcription errors in either data path.  The check
    runs on the first build of each name in a process; later calls return
    that same tableau, which is frozen with read-only arrays.
    """
    key = name.strip().lower()
    if key not in _NAMED:
        raise ValueError(
            f"unknown tableau {name!r}; expected one of {sorted(_NAMED)}"
        )
    return _checked_named(key)


@functools.lru_cache(maxsize=None)
def _checked_named(key: str) -> RknTableau:
    params, rows = _NAMED[key]
    t = RknTableau(
        3,
        np.array(_LOBATTO3_C),
        np.array(rows),
        np.array(_LOBATTO3_BBAR),
        np.array(_LOBATTO3_B),
        key,
    )
    dev = _max_deviation(t, discretize(build_order4(*params), lobatto_rule(3)))
    if dev > CROSSCHECK_TOL:
        raise TableauValidationError(
            f"stored {key} tableau disagrees with its parameter "
            f"reconstruction by {dev:.3e}"
        )
    return t


def _max_deviation(t: RknTableau, u: RknTableau) -> float:
    """Largest entrywise |t - u| over c, a_bar, b_bar and b."""
    return float(max(
        np.maximum.reduce(np.abs(t.c - u.c)),
        np.maximum.reduce(np.abs(t.a_bar - u.a_bar), axis=None),
        np.maximum.reduce(np.abs(t.b_bar - u.b_bar)),
        np.maximum.reduce(np.abs(t.b - u.b)),
    ))


def adjoint(t: RknTableau) -> RknTableau:
    """Adjoint tableau (the inverse method with negated step size).

    With r = s+1-i in 1-based indexing:
        c*_i = 1 - c_r,  b*_i = b_r,  bbar*_i = b_r - bbar_r,
        abar*_ij = b_{s+1-j} (1 - c_r) - bbar_{s+1-j} + abar_{r, s+1-j}.
    """
    c_star = 1.0 - t.c[::-1]
    b_star = t.b[::-1]
    b_bar_rev = t.b_bar[::-1]
    a_bar_star = b_star * c_star[:, None] - b_bar_rev + t.a_bar[::-1, ::-1]
    return RknTableau(
        t.s, c_star, a_bar_star, b_star - b_bar_rev, b_star, f"adjoint({t.label})"
    )


def is_symmetric(t: RknTableau, tol: float = 1e-12) -> tuple[bool, float]:
    """Whether the tableau equals its adjoint; returns (verdict, deviation)."""
    dev = _max_deviation(t, adjoint(t))
    return dev < tol, dev


def is_symplectic(t: RknTableau, tol: float = 1e-12) -> tuple[bool, float]:
    """Classical RKN symplecticity conditions; returns (verdict, residual).

    (i)  b_bar_i = b_i (1 - c_i)
    (ii) b_i (b_bar_j - a_bar_ij) = b_j (b_bar_i - a_bar_ji)
    """
    r1 = np.maximum.reduce(np.abs(t.b_bar - t.b * (1.0 - t.c)))
    m = t.b[:, None] * (t.b_bar[None, :] - t.a_bar)
    r2 = np.maximum.reduce(np.abs(m - m.T), axis=None)
    res = float(max(r1, r2))
    return res < tol, res


def check_simplifying_discrete(
    t: RknTableau, tol: float = SEARCH_TOL
) -> SimplifyingDegrees:
    """Largest (xi, eta, zeta) with B(xi), CN(eta), DN(zeta) holding at tol.

    B(xi) covers kappa = 1..xi while CN(eta)/DN(zeta) cover kappa = 1..eta-1
    and 1..zeta-1, so eta and zeta are at least 1 vacuously.  All three
    searches stop at 13.  The residuals of kappa = 1..13 come from one table
    of the powers of c; each degree is read at the first kappa whose
    residual is not below tol (a NaN residual fails), and max_residual is
    the largest residual of the kappa that held.  The stacked 1 x s and
    s x 1 products run the same dot and matrix-vector products as one kappa
    at a time, so each residual has the bits of that per-kappa product.
    """
    c, b, a_bar = t.c, t.b, t.a_bar
    kappa = np.arange(1.0, SEARCH_CAP + 1.0)[:, None]
    pw = c ** np.arange(SEARCH_CAP + 2)[:, None]  # pw[n] = c^n
    pw[2] = c * c  # c ** 2 on its own is a square, which pow may round apart
    low = pw[:SEARCH_CAP]  # c^(kappa-1)
    high = pw[2:] / (kappa * (kappa + 1.0))  # c^(kappa+1) / (kappa (kappa+1))
    res = np.empty((3, SEARCH_CAP))  # B, CN and DN residuals of kappa = 1..13
    res[0] = np.abs((low[:, None, :] @ b)[:, 0] - 1.0 / kappa[:, 0])
    cn = (a_bar @ low[:, :, None])[:, :, 0] - high
    dn = ((b * low)[:, None, :] @ a_bar)[:, 0] - b * (high - c / kappa + 1.0 / (kappa + 1.0))
    np.maximum.reduce(np.abs(cn), axis=1, out=res[1])
    np.maximum.reduce(np.abs(dn), axis=1, out=res[2])
    held = res < tol
    held[1:, -1] = False  # CN and DN stop at kappa = 12
    held = np.logical_and.accumulate(held, axis=1)
    xi, eta, zeta = held.sum(axis=1).tolist()
    worst = float(np.maximum.reduce(res[held], initial=0.0))
    return SimplifyingDegrees(xi, eta + 1, zeta + 1, worst)


def classical_order_bound(t: RknTableau, tol: float = 1e-12) -> OrderBound:
    """Discrete order lower bound min(xi, 2 eta + 2, eta + zeta).

    Requires b_bar = b (1 - c); when that fails the bound is reported as 0
    with weights_consistent False.  The bound is one-directional: methods may
    exceed it (their actual order is invisible to the moment-condition search).
    """
    deg = check_simplifying_discrete(t)
    consistent = bool(np.maximum.reduce(np.abs(t.b_bar - t.b * (1.0 - t.c))) < tol)
    bound = min(deg.xi, 2 * deg.eta + 2, deg.eta + deg.zeta) if consistent else 0
    return OrderBound(bound, consistent, deg.xi, deg.eta, deg.zeta)


def _vec(values: list) -> str:
    # 17 significant digits: lossless float64 round trip
    return "[" + ", ".join(["%.16e"] * len(values)) % tuple(values) + "]"


def dumps_tableau(t: RknTableau) -> str:
    """Serialize to the rkn-tableau/1 interchange text."""
    rows = ",\n    ".join(map(_vec, t.a_bar.tolist()))
    return (
        "{\n"
        f'  "format": "{FORMAT_TAG}",\n'
        f'  "label": {json.dumps(t.label)},\n'
        f'  "s": {t.s},\n'
        f'  "c": {_vec(t.c.tolist())},\n'
        f'  "a_bar": [\n    {rows}\n  ],\n'
        f'  "b_bar": {_vec(t.b_bar.tolist())},\n'
        f'  "b": {_vec(t.b.tolist())}\n'
        "}\n"
    )


def save_tableau(t: RknTableau, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_tableau(t))


#: JSON number types; bool, an int subclass, is left out on purpose.
_NUMBER_TYPES = frozenset((float, int))


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
    label = doc.get("label", "")
    if type(label) is not str:
        raise TableauFormatError(f"label must be a string, not {label!r}")
    for key in ("c", "a_bar", "b_bar", "b"):
        todo = [[doc[key]]]
        while todo:  # one list at a time: a vector, or a_bar and its rows
            row = todo.pop()
            if _NUMBER_TYPES.issuperset(map(type, row)):
                continue
            for v in row:
                if type(v) is list:
                    todo.append(v)
                elif type(v) not in _NUMBER_TYPES:
                    # np.array(..., dtype=float) would read "0.5" as 0.5 and true as 1.0
                    raise TableauFormatError(f"{key} entries must be numbers, not {v!r}")
    try:
        return RknTableau(s, doc["c"], doc["a_bar"], doc["b_bar"], doc["b"], label)
    except (ValueError, TypeError, OverflowError) as exc:
        raise TableauFormatError(f"malformed tableau fields: {exc}") from exc


def load_tableau(path) -> RknTableau:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_tableau(fh.read())
