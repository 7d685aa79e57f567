"""Odd Jacobi theta function and relatives on a fixed elliptic curve.

Everything here is a function of a point on the curve C/(Z + tau*Z) with
Im(tau) > 0.  Values are produced as truncated Taylor jets so that callers
can differentiate analytically instead of by finite differences.

The evaluation strategy for the theta series is always: reduce the
argument to the fundamental cell, sum the defining series there (it
converges in a handful of terms), then restore the exact quasi-periodicity
factor.  This keeps magnitudes bounded for arbitrary arguments.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as _iproduct

import numpy as np

_PI = math.pi
_TWO_PI_I = 2j * math.pi

# Relative floor under which theta11 counts as "at a pole of 1/theta11".
POLE_FLOOR = 1e-12

_MAX_JET_ORDER = 6

# Relative term cutoff of the theta series, and its cap on the number of
# terms.
_EPS_TERM = 1e-16
_N_MAX = 64

# theta11'(0) is refused once the cancellation in its alternating series,
# sum |terms| / |sum|, times the double-precision unit roundoff exceeds this.
_CANCELLATION_LIMIT = 1e-8
_UNIT_ROUNDOFF = 2.2e-16

# Largest imaginary part of a theta-series sine evaluated by cmath.sin;
# above it e^{-2y} is far below the roundoff, so sin(x + iy) = (i/2) e^{y-ix}.
_SINE_GROWTH = 600.0

# Largest real part of an exponent whose exponential is a finite double.
_EXP_LIMIT = math.log(sys.float_info.max)


class EllipticError(ValueError):
    """Domain problem in the elliptic layer."""


class PoleProximityError(EllipticError):
    """An argument landed too close to a lattice point.

    Attributes
    ----------
    argument : str
        Which function argument hit the pole ('z' or 'c').
    nearest : complex
        The offending lattice point m*tau + n.
    """

    def __init__(self, message: str, *, argument: str, nearest: complex):
        super().__init__(message)
        self.argument = argument
        self.nearest = nearest


class SeriesConvergenceError(EllipticError):
    """Theta series missed the term cutoff within the term cap, the
    series for theta11'(0) cancels too far to be trusted, or the nome
    underflows.

    The first two signal |q| too close to 1 (Im tau too small), the last
    Im tau too large.
    """


@dataclass(frozen=True)
class ModularData:
    """Curve parameter, with its nome q = exp(2 pi i tau) and reduced basis.

    Parameters
    ----------
    tau : complex
        Modulus of the curve, Im(tau) > 0.
    """

    tau: complex
    q: complex = field(init=False)
    basis: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if not tau.imag > 0:
            raise ValueError(f"Im(tau) must be positive, got tau={tau}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "q", cmath.exp(_TWO_PI_I * tau))
        object.__setattr__(self, "basis", _gauss_reduce(tau))


def _gauss_reduce(tau: complex) -> tuple:
    """Lagrange-Gauss reduced basis of the lattice Z + tau*Z.

    Returns two pairs (n, m), each standing for the lattice vector
    n + m*tau, with |b1| <= |b2| and |Re(b2/b1)| <= 1/2, so that the angle
    between the two vectors lies in [60, 120] degrees.
    """
    a, b = (1, 0), (0, 1)

    def vec(c):
        return c[0] + c[1] * tau

    if abs(vec(a)) > abs(vec(b)):
        a, b = b, a
    while True:
        va, vb = vec(a), vec(b)
        mu = round((vb * va.conjugate()).real / abs(va) ** 2)
        b = (b[0] - mu * a[0], b[1] - mu * a[1])
        if abs(vec(b)) >= abs(va):
            return a, b
        a, b = b, a


@dataclass(frozen=True)
class LatticeReduction:
    """Decomposition z = z0 + m*tau + n with z0 in the fundamental cell."""

    z0: complex
    m: int
    n: int


def reduce_to_cell(z: complex, md: ModularData) -> LatticeReduction:
    """Split z into a cell representative and exact lattice multiples.

    The representative satisfies 0 <= Re(z0) < 1 and
    0 <= Im(z0)/Im(tau) < 1 (up to roundoff at the boundary), and
    z0 + m*tau + n reconstructs z.
    """
    z = complex(z)
    tau = md.tau
    m = math.floor(z.imag / tau.imag)
    z1 = z - m * tau
    n = math.floor(z1.real)
    return LatticeReduction(z0=z1 - n, m=m, n=n)


def nearest_lattice_point(z: complex, md: ModularData) -> complex:
    """Lattice point m*tau + n closest to z.

    z is written as x*b1 + y*b2 in the reduced basis of ``md``.  For a
    reduced basis the closest point has coordinates within one of the
    rounded (x, y), so the 3 x 3 neighbours around them contain it,
    however skewed or thin the lattice.
    """
    z = complex(z)
    (n1, m1), (n2, m2) = md.basis
    b1 = n1 + m1 * md.tau
    b2 = n2 + m2 * md.tau
    det = (b1.conjugate() * b2).imag
    x = round((z.conjugate() * b2).imag / det)
    y = round((b1.conjugate() * z).imag / det)
    best = None
    for p, k in _iproduct((x - 1, x, x + 1), (y - 1, y, y + 1)):
        cand = (p * m1 + k * m2) * md.tau + (p * n1 + k * n2)
        if best is None or abs(z - cand) < abs(z - best):
            best = cand
    return best


def lattice_distance(z: complex, md: ModularData) -> float:
    """Distance from z to the lattice Z + tau*Z."""
    return abs(z - nearest_lattice_point(z, md))


# ---------------------------------------------------------------------------
# Truncated multivariate Taylor jets.
# ---------------------------------------------------------------------------

Multi = tuple


@lru_cache(maxsize=None)
def jet_indices(nvars: int, total: int) -> tuple:
    """All multi-indices m of nvars entries with |m| <= total.

    Sorted by total degree, then lexicographically; the zero index comes
    first.
    """
    out = [
        m
        for m in _iproduct(range(total + 1), repeat=nvars)
        if sum(m) <= total
    ]
    out.sort(key=lambda m: (sum(m), m))
    return tuple(out)


@lru_cache(maxsize=None)
def _index_set(nvars: int, total: int) -> frozenset:
    return frozenset(jet_indices(nvars, total))


def _multi_factorial(m: Multi) -> float:
    out = 1.0
    for k in m:
        out *= math.factorial(k)
    return out


def _nonzero_items(coeffs: dict) -> list:
    """(index, coefficient, is_array) for every coefficient but scalar zeros."""
    out = []
    for m, c in coeffs.items():
        is_array = isinstance(c, np.ndarray)
        if is_array or c != 0:
            out.append((m, c, is_array))
    return out


class Jet:
    """Truncated Taylor expansion of a function of several variables.

    ``coeffs[m]`` is the Taylor coefficient d^m f / m! at the expansion
    point: a complex scalar, or an ndarray for vector- and matrix-valued
    functions.  The retained multi-indices are those of total degree
    |m| <= total; everything else is treated as zero, and a missing
    coefficient reads as the scalar 0.  Arithmetic truncates back
    to the same scheme, which is exact for the retained degrees.

    The product of two jets multiplies coefficients with ``@`` when both
    are arrays, so the factor order matters for matrix-valued jets, and
    with ``*`` otherwise; a non-jet factor scales every coefficient.
    """

    __slots__ = ("nvars", "total", "coeffs")

    def __init__(self, nvars, total, coeffs=None):
        self.nvars = int(nvars)
        self.total = int(total)
        self.coeffs = {} if coeffs is None else dict(coeffs)

    def _like(self, coeffs: dict) -> "Jet":
        out = Jet.__new__(Jet)
        out.nvars = self.nvars
        out.total = self.total
        out.coeffs = coeffs
        return out

    @classmethod
    def constant(cls, value, nvars, total):
        """Constant jet; ``value`` is a scalar or an ndarray."""
        if isinstance(value, np.ndarray):
            value = value.astype(complex, copy=False)
        else:
            value = complex(value)
        return cls(nvars, total, {(0,) * nvars: value})

    # -- basic accessors ----------------------------------------------

    @property
    def value(self):
        return self.coeffs.get((0,) * self.nvars, 0j)

    def coeff(self, m: Multi):
        return self.coeffs.get(tuple(m), 0j)

    def deriv(self, m: Multi):
        """Value of the derivative d^m f at the expansion point."""
        return self.coeff(m) * _multi_factorial(tuple(m))

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Jet"):
        if self.nvars != other.nvars or self.total != other.total:
            raise ValueError(
                f"jet scheme mismatch: {self.nvars}/{self.total} vs "
                f"{other.nvars}/{other.total}"
            )

    def __add__(self, other):
        out = dict(self.coeffs)
        if not isinstance(other, Jet):
            zero = (0,) * self.nvars
            out[zero] = out[zero] + other if zero in out else 0j + other
            return self._like(out)
        self._check(other)
        for m, c in other.coeffs.items():
            out[m] = out[m] + c if m in out else c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._like({m: c * other for m, c in self.coeffs.items()})
        self._check(other)
        keep = _index_set(self.nvars, self.total)
        right = _nonzero_items(other.coeffs)
        out = {}
        for ma, ca, a_array in _nonzero_items(self.coeffs):
            for mb, cb, b_array in right:
                m = tuple(a + b for a, b in zip(ma, mb))
                if m in keep:
                    prod = ca @ cb if a_array and b_array else ca * cb
                    out[m] = out[m] + prod if m in out else prod
        return self._like(out)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        v = self.value
        if v == 0:
            raise ZeroDivisionError("jet reciprocal at a zero value")
        out = {}
        for m in jet_indices(self.nvars, self.total):
            if sum(m) == 0:
                out[m] = 1.0 / v
                continue
            acc = 0j
            for ma, ca in self.coeffs.items():
                if sum(ma) == 0 or ca == 0:
                    continue
                if any(a > b for a, b in zip(ma, m)):
                    continue
                mb = tuple(b - a for a, b in zip(ma, m))
                acc += ca * out.get(mb, 0j)
            out[m] = -acc / v
        return self._like(out)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / complex(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * complex(other)

    # -- calculus -----------------------------------------------------

    def shift(self, delta) -> "Jet":
        """Jet of the partial derivative d^delta f; the total order drops
        by |delta|.
        """
        delta = tuple(delta)
        total = self.total - sum(delta)
        if total < 0:
            raise ValueError("jet does not carry that derivative")
        keep = _index_set(self.nvars, total)
        out = {}
        for m, c in self.coeffs.items():
            mm = tuple(k - d for k, d in zip(m, delta))
            if mm in keep:
                scale = 1
                for k, d in zip(m, delta):
                    scale *= math.perm(k, d)
                out[mm] = c * scale
        return Jet(self.nvars, total, out)

    def truncate(self, total) -> "Jet":
        keep = _index_set(self.nvars, int(total))
        return Jet(
            self.nvars, total, {m: c for m, c in self.coeffs.items() if m in keep}
        )

    def exp(self) -> "Jet":
        v = self.value
        zero = (0,) * self.nvars
        nil = self._like({m: c for m, c in self.coeffs.items() if m != zero})
        acc = Jet.constant(1.0, self.nvars, self.total)
        term = Jet.constant(1.0, self.nvars, self.total)
        for k in range(1, self.total + 1):
            term = term * nil * (1.0 / k)
            acc = acc + term
        return acc * cmath.exp(v)

    def log(self) -> "Jet":
        v = self.value
        if v == 0:
            raise ZeroDivisionError("jet log at a zero value")
        zero = (0,) * self.nvars
        nil = self._like({m: c / v for m, c in self.coeffs.items() if m != zero})
        acc = Jet.constant(cmath.log(v), self.nvars, self.total)
        term = Jet.constant(1.0, self.nvars, self.total)
        for k in range(1, self.total + 1):
            term = term * nil
            acc = acc + term * ((-1.0) ** (k + 1) / k)
        return acc

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, total={self.total}, value={self.value})"


def _linear_substitution(g, direction) -> Jet:
    """Jet in xi of g(direction . xi), from g's Taylor coefficients g[k]
    at the image direction . xi0 of the expansion point.

    The multinomial weights distribute each power of the increment over
    the xi variables; the result keeps every total degree below len(g).
    Coefficients of g may be scalars or arrays.
    """
    direction = [complex(d) for d in direction]
    order = len(g) - 1
    coeffs = {}
    for m in jet_indices(len(direction), order):
        k = sum(m)
        a = g[k]
        is_array = isinstance(a, np.ndarray)
        if not is_array and a == 0:
            continue
        c = a * math.factorial(k)
        for dr, mi in zip(direction, m):
            c *= dr**mi / math.factorial(mi)
        if is_array or c != 0:
            coeffs[m] = c
    return Jet(len(direction), order, coeffs)


# ---------------------------------------------------------------------------
# Theta series.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ThetaTable:
    """The parts of the theta series that do not depend on z, per term n:
    the amplitude -2 (-1)^n q^{(n+1/2)^2 / 2}; the log of that power of q,
    from the principal log of the nome e^{i pi tau}, for a term whose sine
    grows past _SINE_GROWTH; and the log of term n + 1's envelope without
    its sine.  Plus the scale floor of the convergence test."""

    amps: tuple
    logs: tuple
    envelopes: tuple
    floor: float


@lru_cache(maxsize=None)
def _theta_table(md: ModularData) -> _ThetaTable:
    """The theta series' table at md.tau.

    Raises :class:`SeriesConvergenceError` once the nome e^{i pi tau} is no
    longer a normal double (Im tau > 225.5), since its phase is then lost.
    """
    qt = cmath.exp(1j * _PI * md.tau)
    aqt = abs(qt)
    if aqt < sys.float_info.min:
        raise SeriesConvergenceError(
            f"the nome exp(i pi tau) = {aqt:.3g} underflows double precision "
            f"at tau={md.tau}; Im tau is too large"
        )
    log_qt = cmath.log(qt)
    log_aqt = -_PI * md.tau.imag
    terms = range(_N_MAX)
    return _ThetaTable(
        amps=tuple(-2.0 * (-1) ** nn * qt ** ((nn + 0.5) ** 2) for nn in terms),
        logs=tuple((nn + 0.5) ** 2 * log_qt for nn in terms),
        envelopes=tuple(log_aqt * (nn + 1.5) ** 2 for nn in terms),
        floor=2.0 * aqt ** 0.25,
    )


# sin(w + k pi/2) for k = 0..3, relative to sin(w), once sin(w) is taken as
# (i/2) e^{-iw}: each derivative of e^{-iw} brings a factor -i
_LARGE_SINE_CYCLE = (1.0, -1j, -1.0, 1j)


def _theta_series_coeffs(z0: complex, md: ModularData, order: int) -> list:
    """Taylor coefficients of the theta series at a reduced point.

    Sums the defining series over half-integers n + 1/2 (terms paired as
    n <-> -n-1), differentiating term by term: the k-th coefficient of
    term n is its amplitude times b^k / k! sin(b z0 + k pi/2), b = (2n+1) pi,
    and the sines cycle through s, c, -s, -c, so a term costs one sine and
    one cosine.  b^k / k! is one running product, which the convergence
    test forms for the next term's b and that term then reuses.  Stops
    once the envelope of the next term falls below _EPS_TERM relative to
    the partial sums, order by order, with an absolute floor at the
    natural scale of theta so that exact zeros of the value do not stall
    the test.

    Near the top of the cell at large Im tau the sine overflows on its own
    while the term is representable.  So the envelope, and a term whose
    sine grows past _SINE_GROWTH, are each taken from one summed exponent;
    that term takes q^{(n+1/2)^2 / 2} from the principal log of the nome,
    as the power does, so both kinds of term share one phase convention at
    any Re tau.
    """
    tab = _theta_table(md)
    amps, envelopes, floor = tab.amps, tab.envelopes, tab.floor
    imz = abs(z0.imag)
    partial = [0j] * (order + 1)
    # powers[k] = base^k / k! for the current term's base (2n + 1) pi
    powers = [1.0] * (order + 1)
    for k in range(order):
        powers[k + 1] = powers[k] * _PI / (k + 1)
    base = _PI
    for nn in range(_N_MAX):
        arg = base * z0
        if arg.imag <= _SINE_GROWTH:
            amp = amps[nn]
            s = cmath.sin(arg)
            if order:
                c = cmath.cos(arg)
                cycle = (s, c, -s, -c)
            else:
                cycle = (s,)
        else:
            amp = -1j * (-1) ** nn * cmath.exp(
                tab.logs[nn] + arg.imag - 1j * arg.real
            )
            cycle = _LARGE_SINE_CYCLE
        for k in range(order + 1):
            partial[k] += amp * powers[k] * cycle[k & 3]
        base = (2 * nn + 3) * _PI
        env = 2.0 * math.exp(envelopes[nn] + base * imz)
        converged = True
        p = 1.0
        for k in range(order + 1):
            powers[k] = p
            if converged and env * p > _EPS_TERM * (abs(partial[k]) + floor):
                converged = False
            p = p * base / (k + 1)
        if converged:
            return partial
    raise SeriesConvergenceError(
        f"theta series did not converge within {_N_MAX} terms for "
        f"tau={md.tau}; |q| is too close to 1"
    )


def _check_order(order: int):
    if not 0 <= order <= _MAX_JET_ORDER:
        raise ValueError(f"jet order must lie in [0, {_MAX_JET_ORDER}], got {order}")


def theta11_coeffs(z: complex, md: ModularData, order: int = 0) -> list:
    """Taylor coefficients of the odd Jacobi theta function at z, to the
    given order, as Python complex numbers (the list behind
    :func:`theta11`)."""
    _check_order(order)
    red = reduce_to_cell(z, md)
    a = _theta_series_coeffs(red.z0, md, order)
    if red.m == 0:
        return [-x for x in a] if red.n % 2 else a
    # Exact quasi-periodicity factor, itself expanded as a jet in z.
    sign = (-1) ** (red.m + red.n)
    expo = -1j * _PI * red.m * red.m * md.tau - _TWO_PI_I * red.m * red.z0
    # far above the cell at large Im tau the factor overflows on its own
    # while the series is tiny; then it enters one exponent with each sum
    folded = expo.real > _EXP_LIMIT
    s = 1.0 if folded else sign * cmath.exp(expo)
    w = -_TWO_PI_I * red.m
    # factor[j] = s w^j / j!, the factor's Taylor coefficients
    factor = [s]
    for j in range(order):
        factor.append(factor[j] * w / (j + 1))
    out = []
    for k in range(order + 1):
        acc = 0j
        for j in range(k + 1):
            acc += a[k - j] * factor[j]
        if folded and acc:
            acc = sign * cmath.exp(expo + cmath.log(acc))
        out.append(acc)
    return out


def theta11(z: complex, md: ModularData, order: int = 0) -> Jet:
    """Jet of the odd Jacobi theta function at z.

    The function is entire, odd, vanishes exactly on the lattice, and
    satisfies theta11(z+1) = -theta11(z) and
    theta11(z+tau) = -exp(-pi*i*tau - 2*pi*i*z) * theta11(z).
    """
    coeffs = theta11_coeffs(z, md, order)
    return Jet(1, order, {(k,): c for k, c in enumerate(coeffs)})


@lru_cache(maxsize=None)
def theta11_prime_at_zero(md: ModularData) -> complex:
    """theta11'(0), from the term-by-term derivative of the series.

    The series alternates, and as Im(tau) -> 0 its terms grow while the
    sum, 2*pi*|eta(tau)|^3, shrinks exponentially.  Raises
    :class:`SeriesConvergenceError` once that cancellation can cost more
    than _CANCELLATION_LIMIT in relative accuracy, and, as every theta
    series does, once the nome e^{i pi tau} is no longer a normal double
    (Im tau > 225.5).
    """
    value = _theta_series_coeffs(0j, md, 1)[1]
    spread = sum(
        abs(amp) * (2 * nn + 1) * _PI
        for nn, amp in enumerate(_theta_table(md).amps)
    )
    if spread * _UNIT_ROUNDOFF > _CANCELLATION_LIMIT * abs(value):
        raise SeriesConvergenceError(
            f"theta11'(0) cancels to {abs(value):.3g} from terms summing to "
            f"{spread:.3g} in size at tau={md.tau}; Im tau is too small"
        )
    return value


def _pole_check(value: complex, z: complex, md: ModularData, argument: str):
    if abs(value) < POLE_FLOOR * abs(theta11_prime_at_zero(md)):
        near = nearest_lattice_point(z, md)
        raise PoleProximityError(
            f"theta11 vanishes at {argument}={z}; nearest lattice point "
            f"{near} (= {_lattice_label(near, md)})",
            argument=argument,
            nearest=near,
        )


def _lattice_label(point: complex, md: ModularData) -> str:
    m = round(point.imag / md.tau.imag)
    n = round((point - m * md.tau).real)
    return f"{m}*tau + {n}"


def _series_quotient(num, den) -> list:
    """Taylor coefficients of num / den from theirs, to the order of num;
    den[0] must not vanish."""
    v = den[0]
    out = []
    for k, b in enumerate(num):
        acc = b
        for i in range(1, k + 1):
            acc -= den[i] * out[k - i]
        out.append(acc / v)
    return out


def zeta11(z: complex, md: ModularData, order: int = 0) -> Jet:
    """Jet of the logarithmic derivative theta11'/theta11 at z.

    Quasi-periodic: zeta11(z+1) = zeta11(z) and
    zeta11(z+tau) = zeta11(z) - 2*pi*i; simple pole with residue 1 at
    lattice points.  Raises :class:`PoleProximityError` near the lattice.
    """
    _check_order(order)
    z = complex(z)
    a = theta11_coeffs(z, md, order + 1)
    _pole_check(a[0], z, md, "z")
    # theta' has the coefficients (k + 1) a[k + 1]
    slope = [(k + 1) * a[k + 1] for k in range(order + 1)]
    coeffs = _series_quotient(slope, a)
    return Jet(1, order, {(k,): c for k, c in enumerate(coeffs)})


def w_kernel(c: complex, z: complex, md: ModularData, order: int = 0) -> Jet:
    """Bivariate jet of the quasi-periodic kernel w_c(z), to total order
    ``order``.

    w_c(z) = theta11'(0) * theta11(z - c) / (theta11(z) * theta11(-c)).

    Elliptic in c; in z it is 1-periodic and gains exp(2*pi*i*c) under
    z -> z + tau.  Simple pole with residue 1 at z on the lattice; poles
    in c on the lattice as well.  Variable 0 of the result is c, variable
    1 is z.
    """
    _check_order(order)
    c = complex(c)
    z = complex(z)
    tz = theta11_coeffs(z, md, order)
    tc = theta11_coeffs(-c, md, order)
    _pole_check(tz[0], z, md, "z")
    _pole_check(tc[0], -c, md, "c")
    # theta(z - c), theta(z) and theta(-c) as functions of (c, z)
    num = _linear_substitution(theta11_coeffs(z - c, md, order), (-1, 1))
    den_z = _linear_substitution(tz, (0, 1))
    den_c = _linear_substitution(tc, (-1, 0))
    return num * theta11_prime_at_zero(md) / (den_z * den_c)
