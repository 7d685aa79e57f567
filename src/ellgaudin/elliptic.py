"""Odd Jacobi theta function and relatives on a fixed elliptic curve.

Everything here is a function of a point on the curve C/(Z + tau*Z) with
Im(tau) > 0.  Values are produced as truncated Taylor jets so that callers
can differentiate analytically instead of by finite differences;
``theta11``, ``zeta11`` and ``w_kernel`` take arrays of arguments too.

The theta series is one exponential sum: each argument is split into a
point of the fundamental cell and a lattice shift, and the shift goes into
the exponent of each of a handful of terms, which then leave the double
range only about where theta does; no factor is restored after the sum.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from itertools import product as _iproduct
from operator import itemgetter

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


class ModularData(tuple):
    """The tuple (tau, q, basis) of a curve's modulus tau, Im(tau) > 0, its
    nome q = exp(2 pi i tau) and reduced basis; one tau, one cache key."""

    __slots__ = ()
    tau, q, basis = (property(itemgetter(i)) for i in range(3))

    def __new__(cls, tau):
        tau = complex(tau)
        if not tau.imag > 0:
            raise EllipticError(f"Im(tau) must be positive, got tau={tau}")
        return super().__new__(cls, (tau, cmath.exp(_TWO_PI_I * tau), _gauss_reduce(tau)))

    def __getnewargs__(self):  # copy and pickle rebuild from tau alone
        return (self.tau,)


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


def reduce_to_cell(zs, md: ModularData) -> tuple:
    """Split each z of the 1-D array zs into a cell representative and
    exact lattice multiples.

    Returns arrays (z0, m, n), with m and n integer-valued floats, such that
    0 <= Re(z0) < 1 and 0 <= Im(z0)/Im(tau) < 1 (up to roundoff at the
    boundary) and z0 + m*tau + n reconstructs z.
    """
    zs = np.asarray(zs, dtype=complex)
    m = np.floor(zs.imag / md.tau.imag)
    z1 = zs - m * md.tau
    n = np.floor(z1.real)
    return z1 - n, m, n


# The 3 x 3 neighbour offsets (dx, dy) of the lattice scan, in scan order.
_SCAN = np.array(list(_iproduct((-1, 0, 1), repeat=2)), dtype=float)


def _lattice_scan(zs: np.ndarray, md: ModularData) -> tuple:
    """The lattice points scanned around each z of the array zs and their
    distances to z, both of shape zs.shape + (9,).

    z is written as x*b1 + y*b2 in the reduced basis of ``md``.  For a
    reduced basis the closest point has coordinates within one of the
    rounded (x, y), so the 3 x 3 neighbours around them contain it,
    however skewed or thin the lattice.  They are scanned in the order
    (x - 1, y - 1), (x - 1, y), ..., (x + 1, y + 1).  Distances are taken
    with libm's hypot, as Python's abs takes them; NumPy's complex abs may
    differ from it in the last bit.
    """
    (n1, m1), (n2, m2) = md.basis
    b1 = n1 + m1 * md.tau
    b2 = n2 + m2 * md.tau
    det = (b1.conjugate() * b2).imag
    x = np.round((zs.conjugate() * b2).imag / det)[..., None] + _SCAN[:, 0]
    y = np.round((b1.conjugate() * zs).imag / det)[..., None] + _SCAN[:, 1]
    cands = (x * m1 + y * m2) * md.tau + (x * n1 + y * n2)
    diff = zs[..., None] - cands
    return cands, np.hypot(diff.real, diff.imag)


def nearest_lattice_point(z, md: ModularData):
    """Lattice point m*tau + n closest to z, elementwise over an array.

    The first of equally near points in the scan order of
    ``_lattice_scan`` wins.  A scalar z gives a Python complex, an array z
    an array.
    """
    cands, dists = _lattice_scan(np.asarray(z, dtype=complex), md)
    best = np.argmin(dists, axis=-1)
    out = np.take_along_axis(cands, best[..., None], axis=-1)[..., 0]
    return complex(out) if out.ndim == 0 else out


def lattice_distance(z, md: ModularData):
    """Distance from z to the lattice Z + tau*Z, elementwise over an
    array; a scalar z gives a float."""
    out = np.min(_lattice_scan(np.asarray(z, dtype=complex), md)[1], axis=-1)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Truncated multivariate Taylor jets, held as coefficient arrays.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def jet_indices(nvars: int, total: int) -> tuple:
    """All multi-indices m of nvars entries with |m| <= total.

    Sorted by total degree, then lexicographically; the zero index comes
    first, and the indices of a lower total are a prefix.
    """
    out = [
        m
        for m in _iproduct(range(total + 1), repeat=nvars)
        if sum(m) <= total
    ]
    out.sort(key=lambda m: (sum(m), m))
    return tuple(out)


def _multi_factorial(m) -> float:
    out = 1.0
    for k in m:
        out *= math.factorial(k)
    return out


class Jet:
    """Truncated Taylor expansion of a function of several variables.

    ``coeffs`` is one array whose axis 0 runs over
    jet_indices(nvars, total): entry p holds the Taylor coefficient
    d^m f / m! at the expansion point for the p-th multi-index m, a complex
    scalar or, along the further axes, a vector or a matrix (after a batch
    axis where there is one).  ``theta11``, ``zeta11`` and ``w_kernel`` at
    an array of arguments put the arguments' axes after axis 0, one
    expansion point per entry.  The order is degree-sorted, so truncating
    is taking a prefix; a stored prefix shorter than the scheme reads as
    zero beyond it, so a constant is stored with length 1.

    A jet only holds and reads its coefficients.  The arithmetic is on
    the arrays: ``array_jet_product``, ``linear_substitution_rows`` and
    ``derivative_table``.
    """

    __slots__ = ("nvars", "total", "coeffs")

    def __init__(self, nvars, total, coeffs):
        self.nvars = int(nvars)
        self.total = int(total)
        self.coeffs = np.asarray(coeffs, dtype=complex)

    @property
    def value(self):
        return self.coeffs[0]

    def coeff(self, m):
        """Taylor coefficient at the multi-index m, zero where not stored."""
        idx = jet_indices(self.nvars, self.total)
        m = tuple(m)
        p = idx.index(m) if m in idx else len(self.coeffs)
        return self.coeffs[p] if p < len(self.coeffs) else np.zeros_like(self.value)

    def deriv(self, m):
        """Value of the derivative d^m f at the expansion point."""
        return self.coeff(m) * _multi_factorial(m)

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, total={self.total}, value={self.value})"


@lru_cache(maxsize=None)
def _cauchy_table(nvars: int, total: int) -> tuple:
    """The Cauchy product over jet_indices(nvars, total): positions
    (left, right) of every pair of monomials whose product is retained,
    grouped by the position of that product, and where each group starts.
    Every group holds the pair (0, m) at least."""
    idx = jet_indices(nvars, total)
    place = {m: p for p, m in enumerate(idx)}
    left, right, starts = [], [], []
    for m in idx:
        starts.append(len(left))
        for i, a in enumerate(idx):
            if all(x <= y for x, y in zip(a, m)):
                left.append(i)
                right.append(place[tuple(y - x for x, y in zip(a, m))])
    return np.array(left), np.array(right), np.array(starts)


def array_jet_product(a, b, nvars: int, total: int, op=np.multiply) -> np.ndarray:
    """Product of two array jets in nvars variables to the given total.

    Axis 0 of each factor runs over jet_indices(nvars, total), or has
    length 1 for a constant, which scales the other factor; both factors
    have as many axes, and those after axis 0 broadcast.  Coefficients
    multiply with ``op``: np.multiply for scalar and vector values,
    np.matmul for matrix values, which keeps the factor order.  One gather
    per factor and one grouped sum, each product coefficient summed in the
    order of its left monomial.
    """
    if len(a) == 1 or len(b) == 1:
        return op(a, b)
    left, right, starts = _cauchy_table(nvars, total)
    return np.add.reduceat(op(a[left], b[right]), starts, axis=0)


@lru_cache(maxsize=None)
def derivative_table(nvars: int, delta: tuple, total: int) -> tuple:
    """The gather that turns a jet of f into the jet of d^delta f to the
    given total: per multi-index mm of jet_indices(nvars, total), the
    position of mm + delta in jet_indices(nvars, total + |delta|), and the
    falling factorials prod_i (mm_i + delta_i)! / mm_i!."""
    idx = jet_indices(nvars, total + sum(delta))
    place = {m: p for p, m in enumerate(idx)}
    rows = [tuple(x + d for x, d in zip(mm, delta)) for mm in jet_indices(nvars, total)]
    weights = [math.prod(map(math.perm, m, delta)) for m in rows]
    return np.array([place[m] for m in rows]), np.array(weights, dtype=float)


@lru_cache(maxsize=None)
def _substitution_table(nvars: int, total: int) -> tuple:
    """Per monomial m of jet_indices(nvars, total): |m|, the multinomial
    coefficient |m|! / m!, and m itself as an (n, nvars) array."""
    idx = np.array(jet_indices(nvars, total)).reshape(-1, nvars)
    degree = idx.sum(axis=1)
    weight = [math.factorial(sum(m)) / _multi_factorial(m) for m in idx.tolist()]
    return degree, np.array(weight), idx


def linear_substitution_rows(g, directions) -> np.ndarray:
    """Array jets in xi of g_r(directions[r] . xi), one for each row r.

    g holds along axis 1 the Taylor coefficients of each g_r at the image
    of the expansion point, with values of any shape after that axis,
    shape (R, total + 1, ...), and the (R, nvars) array directions the
    linear forms.  The result runs over jet_indices(nvars, total) along
    axis 0 and over the rows along axis 1, shape (n, R, ...).
    """
    g = np.asarray(g, dtype=complex)
    directions = np.asarray(directions, dtype=complex)
    degree, weight, idx = _substitution_table(directions.shape[1], g.shape[1] - 1)
    values = (1,) * (g.ndim - 2)
    powers = np.prod(directions ** idx[:, None, :], axis=-1)
    out = np.moveaxis(g[:, degree], 1, 0)
    out *= weight.reshape((-1, 1) + values)
    out *= powers.reshape(powers.shape + values)
    return out


# ---------------------------------------------------------------------------
# Theta series.
# ---------------------------------------------------------------------------

# Terms (rows times 2T) of a theta11_coeffs call summed at once; a row does
# not depend on the rows beside it, so the block only bounds its arrays.
_BLOCK = 4096


@lru_cache(maxsize=None)
def _term_plan(md: ModularData, order: int) -> tuple:
    """The theta series' term count T at md.tau and the given jet order,
    and L, the principal log of the nome e^{i pi tau}.

    theta11(z) = sum_K i (-1)^K e^{L (K + 1/2)^2 + i pi (2K + 1) z}, summed
    over the 2T terms K = -T..T-1.  T is fixed once, for the worst case of
    the cell (0 <= Im z0 < Im tau): T is the first count at which the
    envelope of the next pair of terms, at the top of the cell, falls below
    _EPS_TERM times the natural scale 2 |e^{i pi tau}|^{1/4} of theta, for
    every coefficient.  A test against the partial sums as well could only
    stop earlier, so T is never below the count such a test takes.

    Raises :class:`SeriesConvergenceError` once the nome e^{i pi tau} is no
    longer a normal double (Im tau > 225.5), since its phase is then lost,
    and when no T up to _N_MAX passes, as |q| is then too close to 1.
    """
    qt = cmath.exp(1j * _PI * md.tau)
    if abs(qt) < sys.float_info.min:
        raise SeriesConvergenceError(
            f"the nome exp(i pi tau) = {abs(qt):.3g} underflows double precision "
            f"at tau={md.tau}; Im tau is too large"
        )
    y = md.tau.imag
    bound = math.log(_EPS_TERM) + math.log(2.0) - _PI * y / 4
    for nn in range(_N_MAX):
        nxt = (2 * nn + 3) * _PI
        # log of the envelope of terms K = nn + 1 and -nn - 2 at the top of
        # the cell, without their factor nxt^k / k!
        env = math.log(2.0) - _PI * y * (nn + 1.5) ** 2 + nxt * y
        if all(
            env + k * math.log(nxt) - math.lgamma(k + 1) <= bound
            for k in range(order + 1)
        ):
            return nn + 1, cmath.log(qt)
    raise SeriesConvergenceError(
        f"theta series did not converge within {_N_MAX} terms for "
        f"tau={md.tau}; |q| is too close to 1"
    )


@lru_cache(maxsize=None)
def _term_constants(md: ModularData, order: int) -> tuple:
    """For the terms K = -T..T-1 of ``_term_plan``: 2K + 1, Re L (K + 1/2)^2
    and i (-1)^K cis(Im L (K + 1/2)^2), each a (2T,) array."""
    count, log_nome = _term_plan(md, order)
    ks = np.arange(-count, count)
    square = (ks + 0.5) ** 2
    phases = 1j * (1.0 - 2.0 * (ks % 2)) * np.exp(1j * (log_nome.imag * square))
    return 2.0 * ks + 1.0, log_nome.real * square, phases


def _check_order(order: int):
    if not 0 <= order <= _MAX_JET_ORDER:
        raise ValueError(f"jet order must lie in [0, {_MAX_JET_ORDER}], got {order}")


def theta11_coeffs(zs, md: ModularData, order: int = 0) -> np.ndarray:
    """Taylor coefficients of the odd Jacobi theta function to the given
    order at every z of the 1-D array zs: row b of the (len(zs), order + 1)
    result holds those at zs[b].

    Each z is written z0 + m tau + n, z0 = x + i y in the fundamental cell,
    and the shift goes into each term's exponent (DLMF 20.2(i), re-indexed
    by m): theta11(z) = (-1)^(m + n) sum_K i (-1)^K e^{E_K} with
    E_K = L (K + 1/2)^2 - i pi tau m^2 + i f_K z0, f_K = pi (2K + 1 - 2m),
    so a term leaves the double range only about where theta does.
    Coefficient k sums the terms times (i f_K)^k / k!.  A term's modulus
    comes from NumPy's vectorised real exp, its phase is the product of
    i (-1)^K cis(Im L (K + 1/2)^2) (``_term_constants``), one angle per row
    and cis(2 pi x)^(K + T), a cumulative product along the row: one cosine
    and one sine call per block, over two angles per row.  An order is one
    multiply and one sum over a C-contiguous (rows, terms) array, which
    sums a row the same way whatever the batch.

    Every row is computed, with NumPy's overflow and invalid-value errors
    ignored; ``theta11_faults`` names the fault of a row that is not finite.
    """
    _check_order(order)
    count, _ = _term_plan(md, order)
    odd, base, phases = _term_constants(md, order)
    # Re and Im of -i pi tau, the factor of m^2 in E_K
    lift_re, lift_im = _PI * md.tau.imag, -_PI * md.tau.real
    zs = np.asarray(zs, dtype=complex)
    out = np.empty((len(zs), order + 1), dtype=complex)
    step = max(1, _BLOCK // (2 * count))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(zs), step):
            rows = slice(start, start + step)
            z0, m, n = reduce_to_cell(zs[rows], md)
            mm = m * m
            freq = _PI * np.add.outer(-2.0 * m, odd)
            # the moduli e^{Re E_K}, in place
            scale = freq * z0.imag[:, None]
            np.subtract(base + (lift_re * mm)[:, None], scale, out=scale)
            np.exp(scale, out=scale)
            # the row's angle and sign (-1)^(m + n) times cis(2 pi x)^j
            angles = np.empty((2, len(z0)))
            np.multiply(2.0 * _PI, z0.real, out=angles[1])
            angles[0] = lift_im * mm + ((0.5 - count) - m) * angles[1]
            cis = np.empty((2, len(z0)), dtype=complex)
            np.cos(angles, out=cis.real)
            np.sin(angles, out=cis.imag)
            terms = np.empty((len(z0), 2 * count), dtype=complex)
            terms[:, 0] = cis[0] * (1.0 - 2.0 * ((m + n) % 2))
            terms[:, 1:] = cis[1, :, None]
            np.multiply.accumulate(terms, axis=1, out=terms)
            terms *= phases
            terms *= scale
            out[rows, 0] = terms.sum(axis=1)
            for k in range(1, order + 1):
                terms *= np.divide(freq, k, out=scale)
                out[rows, k] = terms.sum(axis=1)
        out *= 1j ** np.arange(order + 1)  # i^k from (i f_K)^k
    return out


def theta11(z, md: ModularData, order: int = 0) -> Jet:
    """Jet of the odd Jacobi theta function at z, a scalar or an array,
    whose entry b (after axis 0) has the bits of theta11(z[b]).

    The function is entire, odd, vanishes exactly on the lattice, and
    satisfies theta11(z+1) = -theta11(z) and
    theta11(z+tau) = -exp(-pi*i*tau - 2*pi*i*z) * theta11(z).
    """
    z = np.asarray(z, dtype=complex)
    rows = _pole_check(theta11_coeffs(z.ravel(), md, order), z.ravel(), md)
    return Jet(1, order, rows.T.reshape((order + 1,) + z.shape))


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
    value = complex(_pole_check(theta11_coeffs([0.0], md, 1), [0.0], md)[0, 1])
    odd, base, _ = _term_constants(md, 1)
    spread = float(np.sum(np.exp(base) * np.abs(_PI * odd)))
    if spread * _UNIT_ROUNDOFF > _CANCELLATION_LIMIT * abs(value):
        raise SeriesConvergenceError(
            f"theta11'(0) cancels to {abs(value):.3g} from terms summing to "
            f"{spread:.3g} in size at tau={md.tau}; Im tau is too small"
        )
    return value


# Faults of a theta or zeta argument, as ranks: the highest of several is
# the one an evaluation meets first.  Theta's series meets an OVERFLOW (a
# finite argument's row leaves the double range) and an INFINITE argument,
# the pole check a POLE, and zeta's quotient its own overflow, a QUOTIENT,
# and a NAN argument.
NAN, QUOTIENT, POLE, INFINITE, OVERFLOW = 1, 2, 3, 4, 5


def theta11_faults(zs, values, floor: float) -> np.ndarray:
    """The fault rank, or 0, of each argument zs from theta11's rows there:
    POLE where |theta| < ``floor`` (POLE_FLOOR |theta11'(0)| where theta
    divides, else 0), OVERFLOW where the row is not finite, and for a
    non-finite z, INFINITE where the cell reduction meets its infinity (Im
    z, or Re z beside a number), else NAN."""
    out = np.where(np.abs(values[:, 0]) < floor, POLE, 0)
    if not np.isfinite(values).all():  # a non-finite z gives a non-finite row
        z = np.asarray(zs, dtype=complex)
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        infinite = np.isinf(z.imag) | (np.isinf(z.real) & ~np.isnan(z.imag))
        out[bad] = np.where(np.isfinite(z), OVERFLOW, np.where(infinite, INFINITE, NAN))[bad]
    return out


def _raise_fault(faults, zs, md: ModularData, argument: str = "z"):
    """Raise the first highest-ranked fault of the arguments zs, if any:
    OverflowError, EllipticError if non-finite, or PoleProximityError."""
    if not faults.any():
        return
    r = int(np.argmax(faults))
    fault, z = faults[r], complex(np.asarray(zs)[r])
    if fault == POLE:
        point = nearest_lattice_point(z, md)
        raise PoleProximityError(
            f"theta11 vanishes at {argument}={z}; nearest lattice point "
            f"{point} (= {_lattice_label(point, md)})", argument=argument, nearest=point
        )
    if fault in (INFINITE, NAN):
        raise EllipticError(f"theta11 has a non-finite argument {z} at tau={md.tau}")
    kernel = "zeta11" if fault == QUOTIENT else "theta11"
    raise OverflowError(f"{kernel} leaves the double range at {z}, tau={md.tau}")


def _pole_check(values, zs, md: ModularData, argument: str | None = None) -> np.ndarray:
    """theta11's rows ``values`` at zs, once their fault is raised; a zero is
    a pole only where theta divides, at the variable ``argument`` ('z', 'c')."""
    floor = 0.0 if argument is None else POLE_FLOOR * abs(theta11_prime_at_zero(md))
    _raise_fault(theta11_faults(zs, values, floor), zs, md, argument)
    return values


def _lattice_label(point: complex, md: ModularData) -> str:
    m = round(point.imag / md.tau.imag)
    n = round((point - m * md.tau).real)
    return f"{m}*tau + {n}"


def _series_quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Taylor coefficients of num / den from theirs, row by row along the
    last axis, to the order of num; den[..., 0] must not vanish."""
    out = np.empty(num.shape, dtype=complex)
    v = den[..., 0]
    for k in range(num.shape[-1]):
        acc = num[..., k]
        for i in range(1, k + 1):
            acc = acc - den[..., i] * out[..., k - i]
        out[..., k] = acc / v
    return out


def _series_reciprocal(den: np.ndarray) -> np.ndarray:
    """Taylor coefficients of 1 / den, row by row along the last axis."""
    one = np.zeros(den.shape)
    one[..., 0] = 1.0
    return _series_quotient(one, den)


def zeta11_coeffs(zs, md: ModularData, order: int = 0) -> tuple:
    """Taylor coefficients of zeta11 = theta11'/theta11 to the given order at
    every z of the 1-D array zs, one row per argument, as the series
    quotient of theta's coefficients, and each argument's fault: theta's,
    as a divisor, else QUOTIENT where the quotient is not finite.  A row
    with a fault holds NaN."""
    _check_order(order)
    zs = np.asarray(zs, dtype=complex)
    a = theta11_coeffs(zs, md, order + 1)
    faults = theta11_faults(zs, a, POLE_FLOOR * abs(theta11_prime_at_zero(md)))
    with np.errstate(all="ignore"):
        # 2^-e, e the exponent of a0's larger part, keeps each row near 1
        # and, as a power of two, leaves its quotient unchanged to the bit
        _, e = np.frexp(np.maximum(abs(a[:, 0].real), abs(a[:, 0].imag)))
        a = a * np.ldexp(1.0, -e)[:, None]
        # theta' has the coefficients (k + 1) a[k + 1]
        out = _series_quotient(a[:, 1:] * np.arange(1, order + 2), a)
    if not np.isfinite(out).all():
        faults[(faults == 0) & ~np.isfinite(out).all(axis=1)] = QUOTIENT
    out[faults > 0] = np.nan
    return out, faults


def zeta11(z, md: ModularData, order: int = 0) -> Jet:
    """Jet of the logarithmic derivative theta11'/theta11 at z, a scalar or
    an array, batched as ``theta11``'s.

    Quasi-periodic: zeta11(z+1) = zeta11(z) and
    zeta11(z+tau) = zeta11(z) - 2*pi*i; simple pole with residue 1 at
    lattice points.  Raises the first fault of z (``_raise_fault``).
    """
    z = np.asarray(z, dtype=complex)
    coeffs, faults = zeta11_coeffs(z.ravel(), md, order)
    _raise_fault(faults, z.ravel(), md)
    return Jet(1, order, coeffs.T.reshape((order + 1,) + z.shape))


def w_kernel(c, z, md: ModularData, order: int = 0) -> Jet:
    """Bivariate jet of the quasi-periodic kernel w_c(z), to total order
    ``order``, at c and z, scalars or arrays broadcast together, whose
    entry b (after axis 0) has the bits of w_kernel(c[b], z[b]).

    w_c(z) = theta11'(0) * theta11(z - c) / (theta11(z) * theta11(-c)).

    Elliptic in c; in z it is 1-periodic and gains exp(2*pi*i*c) under
    z -> z + tau.  Simple pole with residue 1 at z on the lattice; poles
    in c on the lattice as well.  Variable 0 of the result is c, variable
    1 is z.  Raises the first fault of the call, then a pole of z, then
    one of c.
    """
    c, z = np.broadcast_arrays(np.asarray(c, dtype=complex), np.asarray(z, dtype=complex))
    shape, c, z = c.shape, c.ravel(), z.ravel()
    args = np.concatenate([z, -c, z - c])
    th = _pole_check(theta11_coeffs(args, md, order), args, md).reshape(3, len(c), order + 1)
    _pole_check(th[0], z, md, "z")
    _pole_check(th[1], -c, md, "c")
    # theta(z - c), 1/theta(z) and 1/theta(-c) as functions of (c, z)
    rows = np.concatenate([th[2:], _series_reciprocal(th[:2])]).transpose(0, 2, 1)
    subs = linear_substitution_rows(rows, [(-1, 1), (0, 1), (-1, 0)])
    num, inv_z, inv_c = np.moveaxis(subs, 1, 0)
    quotient = array_jet_product(num, inv_z, 2, order) * theta11_prime_at_zero(md)
    out = array_jet_product(quotient, inv_c, 2, order)
    return Jet(2, order, out.reshape(out.shape[:1] + shape))
