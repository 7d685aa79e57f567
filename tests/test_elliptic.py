"""Tests for the elliptic layer: theta11, zeta11, w_c, jets, reduction."""

import cmath
import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellgaudin import elliptic
from ellgaudin.elliptic import (
    INFINITE,
    NAN,
    OVERFLOW,
    POLE,
    QUOTIENT,
    EllipticError,
    ModularData,
    PoleProximityError,
    Jet,
    SeriesConvergenceError,
    array_jet_product,
    derivative_table,
    jet_indices,
    lattice_distance,
    nearest_lattice_point,
    reduce_to_cell,
    theta11,
    theta11_coeffs,
    theta11_prime_at_zero,
    theta11_faults,
    w_kernel,
    zeta11,
    zeta11_coeffs,
)

from oracles import (
    dict_derivative,
    dict_product,
    fd_derivative,
    fd_second,
    nearest_lattice_point_scan,
    richardson_pole_limit,
    theta11_coeffs_reference,
    theta11_direct,
    w_direct,
    zeta11_direct,
)

MD = ModularData(tau=0.8j)
MD2 = ModularData(tau=0.3 + 1.1j)
TWO_PI_I = 2j * math.pi


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# ModularData and reduction.
# ---------------------------------------------------------------------------


def test_modular_data_rejects_lower_half_plane():
    for tau, shown in ((0.5 - 0.1j, "(0.5-0.1j)"), (0.7, "(0.7+0j)")):
        with pytest.raises(ValueError) as info:
            ModularData(tau=tau)
        assert isinstance(info.value, EllipticError)
        assert str(info.value) == f"Im(tau) must be positive, got tau={shown}"


def test_modular_data_is_an_immutable_value_keyed_by_tau():
    # two curves built from one tau are one cache key of the term plans
    a, b = ModularData(0.37 + 0.91j), ModularData(tau=0.37 + 0.91j)
    assert a is not b and a == b and hash(a) == hash(b)
    assert (a.tau, a.q, a.basis) == (b.tau, b.q, b.basis)
    assert a != ModularData(0.37 + 0.92j)
    before = elliptic._term_plan.cache_info()
    elliptic._term_plan(a, 1)
    elliptic._term_plan(b, 1)
    after = elliptic._term_plan.cache_info()
    assert (after.currsize - before.currsize, after.hits - before.hits) == (1, 1)
    for name in ("tau", "q", "basis"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0.5j)
    assert a.tau == 0.37 + 0.91j
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is ModularData and twin == a and twin.basis == a.basis


def test_modular_data_q():
    md = ModularData(tau=0.3 + 1.1j)
    assert md.q == cmath.exp(TWO_PI_I * (0.3 + 1.1j))
    assert abs(md.q) < 1


@given(
    st.lists(
        st.tuples(
            st.floats(-8, 8, allow_nan=False), st.floats(-8, 8, allow_nan=False)
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_reduce_to_cell_properties(points):
    zs = np.array([complex(x, y) for x, y in points])
    z0, m, n = reduce_to_cell(zs, MD2)
    assert z0.shape == m.shape == n.shape == zs.shape
    assert np.all(m == np.round(m)) and np.all(n == np.round(n))
    assert np.all(
        np.abs(z0 + m * MD2.tau + n - zs) <= 1e-12 * np.maximum(1.0, np.abs(zs))
    )
    assert np.all((-1e-12 <= z0.real) & (z0.real < 1 + 1e-12))
    ratio = z0.imag / MD2.tau.imag
    assert np.all((-1e-12 <= ratio) & (ratio < 1 + 1e-12))


def test_reduce_to_cell_interior_point_is_fixed():
    z0, m, n = reduce_to_cell(np.array([0.3 + 0.2j, 1.3 + 1.0j]), MD)
    assert z0[0] == 0.3 + 0.2j and (m[0], n[0]) == (0, 0)
    assert abs(z0[1] - (0.3 + 0.2j)) < 1e-15 and (m[1], n[1]) == (1, 1)


@pytest.mark.parametrize(
    "tau", [0.3 + 0.06j, 3.3 + 0.5j, -2.4 + 0.4j, 0.8j], ids=str
)
def test_nearest_lattice_point_matches_brute_force(tau):
    # skewed and thin lattices, where a corner of the reduction cell can be
    # far from the nearest lattice point; brute force scans |m|, |n| <= 25
    md = ModularData(tau)
    grid = np.array([m * tau + n for m in range(-25, 26) for n in range(-25, 26)])
    rng = np.random.default_rng(17)
    for _ in range(200):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        truth = float(np.min(np.abs(z - grid)))
        near = nearest_lattice_point(z, md)
        m = round(near.imag / tau.imag)
        assert abs(near - m * tau - round((near - m * tau).real)) < 1e-12
        assert abs(abs(z - near) - truth) <= 1e-12
        assert abs(lattice_distance(z, md) - truth) <= 1e-12


@pytest.mark.parametrize(
    "tau", [0.8j, 0.3 + 0.06j, 3.3 + 0.5j, -2.4 + 0.4j], ids=str
)
def test_array_nearest_lattice_point_matches_scalar_scan(tau):
    # points spread over a few cells, plus exact midpoints between lattice
    # points, where two candidates tie and the scan keeps the first
    md = ModularData(tau)
    rng = np.random.default_rng(23)
    zs = rng.uniform(-3, 3, 2000) + 1j * rng.uniform(-3, 3, 2000)
    zs[:8] = [0.5, 0.5 * tau, 0.5 + 0.5 * tau, -0.5 - 1.5 * tau,
              1.5, 0.5 * (1 + tau), 2.5 - tau, -0.5]
    near = nearest_lattice_point(zs, md)
    dist = lattice_distance(zs, md)
    assert near.shape == dist.shape == zs.shape
    want = np.array([nearest_lattice_point_scan(complex(z), md) for z in zs])
    assert np.array_equal(near, want)
    assert np.array_equal(dist, [abs(complex(z - w)) for z, w in zip(zs, want)])
    # a scalar argument gives Python numbers, the same as its array entry
    assert type(nearest_lattice_point(zs[9], md)) is complex
    assert type(lattice_distance(zs[9], md)) is float
    assert nearest_lattice_point(zs[9], md) == near[9]


# ---------------------------------------------------------------------------
# theta11 values.
# ---------------------------------------------------------------------------


def test_theta_vanishes_at_zero():
    assert abs(theta11(0, MD).value) < 1e-15
    assert abs(theta11(0, MD2).value) < 1e-15


def test_theta_oddness():
    md = ModularData(tau=0.9j)
    z = 0.17 + 0.05j
    a = theta11(z, md).value
    b = theta11(-z, md).value
    assert rel_err(a, -b) <= 1e-12


def test_theta_matches_direct_series_sum():
    rng = np.random.default_rng(11)
    for md in (MD, MD2):
        for _ in range(25):
            z = complex(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5))
            assert rel_err(theta11(z, md).value, theta11_direct(z, md.tau)) <= 1e-11


def test_theta_period_one_antisymmetry():
    # theta11(z + 1) = -theta11(z), checked against the direct summation
    # oracle at both points.
    rng = np.random.default_rng(7)
    for md in (MD, MD2):
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = theta11(z + 1, md).value
            rhs = theta11(z, md).value
            assert rel_err(lhs, -theta11_direct(z, md.tau)) <= 1e-10
            assert rel_err(rhs, theta11_direct(z, md.tau)) <= 1e-10
            assert rel_err(lhs, -rhs) <= 1e-10


def test_theta_tau_quasi_periodicity():
    rng = np.random.default_rng(13)
    for md in (MD, MD2):
        for _ in range(50):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = theta11(z + md.tau, md).value
            factor = -cmath.exp(-1j * math.pi * md.tau - TWO_PI_I * z)
            assert rel_err(lhs, factor * theta11(z, md).value) <= 1e-10


def test_theta_large_argument_stays_finite():
    # Far from the cell the raw series would overflow; with the lattice
    # shift in each term's exponent, theta still equals the oracle's value
    # in the cell times the quasi-periodicity factor.
    z = 7.3 + 6.1j
    val = theta11(z, MD).value
    (z0,), (m,), (n,) = reduce_to_cell(np.array([z]), MD)
    factor = (-1) ** (m + n) * cmath.exp(
        -1j * math.pi * m**2 * MD.tau - TWO_PI_I * m * z0
    )
    assert rel_err(val, factor * theta11_direct(z0, MD.tau)) <= 1e-10


def test_theta_series_cap_error():
    md = ModularData(tau=0.001j)
    with pytest.raises(SeriesConvergenceError, match="within 64 terms"):
        theta11(0.3, md)


@pytest.mark.parametrize("tau", [0.03j, 0.02j, 0.01j])
def test_theta_prime_at_zero_refuses_cancelling_series(tau):
    # the alternating series loses 1.4e-7, 0.17 and everything here
    with pytest.raises(SeriesConvergenceError, match="cancels"):
        theta11_prime_at_zero(ModularData(tau))


@pytest.mark.parametrize(
    "tau", [0.04j, 0.3 + 0.02j, 0.45 + 0.01j, 0.3 + 0.06j]
)
def test_theta_prime_at_zero_matches_mpmath_where_accepted(tau):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        nome = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
        ref = complex(-mp.pi * mp.jtheta(1, 0, nome, 1))
    assert rel_err(theta11_prime_at_zero(ModularData(tau)), ref) <= 1e-9


@pytest.mark.parametrize("tau", [50j, 100j, 200j, 1.5 + 100j, 2 + 200j, -1.5 + 150j])
def test_theta_matches_mpmath_at_large_im_tau(tau):
    # points across the cell, up to its top edge, where a term's sine and
    # the convergence envelope overflowed on their own, and one cell below.
    # The reference sums the series in 60 digits with the principal power of
    # the nome exp(i pi tau), the convention of mpmath's q^{1/4}, so at
    # |Re tau| > 1 the terms taken from one summed exponent must keep the
    # phase of the ordinary terms.  (mp.jtheta itself returns wrong values
    # at some working precisions for a complex nome this small.)
    mp = pytest.importorskip("mpmath")
    md = ModularData(tau)
    for x, y in [(0.3, 0.5), (0.71, 0.97), (0.2, 0.02), (0.45, -0.6), (0.9, -0.98)]:
        z = x + y * md.tau
        jet = theta11(z, md, order=2)
        with mp.workdps(60):
            nome = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
            arg = mp.pi * mp.mpc(z.real, z.imag)
            refs = [
                complex(
                    -2
                    * mp.fsum(
                        (-1) ** n
                        * nome ** ((n + mp.mpf(0.5)) ** 2)
                        * ((2 * n + 1) * mp.pi) ** k
                        * mp.sin((2 * n + 1) * arg + k * mp.pi / 2)
                        for n in range(12)
                    )
                    / mp.factorial(k)
                )
                for k in range(3)
            ]
        for k, ref in enumerate(refs):
            assert rel_err(jet.coeff((k,)), ref) <= 1e-12


def theta_series_mp(mp, tau, z, order, nterms=12):
    """Taylor coefficients of theta at z, the series summed in 60 digits
    with the principal power of the nome exp(i pi tau)."""
    with mp.workdps(60):
        nome = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
        arg = mp.pi * mp.mpc(z.real, z.imag)
        return [
            complex(
                -2
                * mp.fsum(
                    (-1) ** n
                    * nome ** ((n + mp.mpf(0.5)) ** 2)
                    * ((2 * n + 1) * mp.pi) ** k
                    * mp.sin((2 * n + 1) * arg + k * mp.pi / 2)
                    for n in range(nterms)
                )
                / mp.factorial(k)
            )
            for k in range(order + 1)
        ]


@pytest.mark.parametrize(
    "tau, z", [(200j, 0.3 + 213j), (200j, 0.3 + 222j), (60j, 0.3 - 117j)]
)
def test_theta_beyond_the_neighbouring_cells_at_large_im_tau(tau, z):
    # the quasi-periodicity factor alone leaves the double range here
    # (e^{728.8} at 0.3 + 213i) while theta is representable (log|theta| =
    # 593.8 there), so the two are taken from one exponent
    mp = pytest.importorskip("mpmath")
    jet = theta11(z, ModularData(tau), order=2)
    for k, ref in enumerate(theta_series_mp(mp, tau, z, 2)):
        assert rel_err(jet.coeff((k,)), ref) <= 1e-12


@pytest.mark.parametrize("tau", [226j, 238j, 0.5 + 300j, 1000j])
def test_theta_prime_at_zero_refuses_underflowing_nome(tau):
    with pytest.raises(SeriesConvergenceError, match="too large"):
        theta11_prime_at_zero(ModularData(tau))
    # the nome's phase is lost there, so theta itself refuses too
    with pytest.raises(SeriesConvergenceError, match="too large"):
        theta11(0.3 + 0.4 * tau, ModularData(tau))


def test_theta_prime_at_zero_matches_direct():
    from oracles import theta11_prime_direct

    for md in (MD, MD2):
        assert (
            rel_err(theta11_prime_at_zero(md), theta11_prime_direct(0j, md.tau))
            <= 1e-12
        )


# ---------------------------------------------------------------------------
# Jets.
# ---------------------------------------------------------------------------


def test_theta_jets_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        jet = theta11(z, MD2, order=2)
        f = lambda x: theta11(x, MD2).value
        assert rel_err(jet.deriv((1,)), fd_derivative(f, z)) <= 1e-6
        assert rel_err(jet.deriv((2,)), fd_second(f, z)) <= 1e-6


def test_zeta_jets_match_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.5))
        jet = zeta11(z, MD, order=2)
        f = lambda x: zeta11(x, MD).value
        assert rel_err(jet.value, f(z)) <= 1e-14
        assert rel_err(jet.deriv((1,)), fd_derivative(f, z)) <= 1e-6
        assert rel_err(jet.deriv((2,)), fd_second(f, z)) <= 1e-6


def jtheta_coeffs_mp(mp, tau, z, order):
    """Taylor coefficients of theta and zeta at z to the given order, from
    mpmath.jtheta derivatives in 40 digits: theta11(z) =
    -jtheta(1, pi z, e^{i pi tau}), and zeta = theta'/theta divided out as
    power series in the same precision."""
    with mp.workdps(40):
        nome = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
        x = mp.pi * mp.mpc(z.real, z.imag)
        th = [
            -mp.pi**k * mp.jtheta(1, x, nome, k) / mp.factorial(k)
            for k in range(order + 2)
        ]
        ze = []
        for k in range(order + 1):
            acc = (k + 1) * th[k + 1]
            for i in range(1, k + 1):
                acc -= th[i] * ze[k - i]
            ze.append(acc / th[0])
        return [complex(c) for c in th[: order + 1]], [complex(c) for c in ze]


def coeff_error(jet, ref):
    """Largest coefficient error, relative to the largest reference
    coefficient."""
    return max(abs(jet.coeff((k,)) - r) for k, r in enumerate(ref)) / max(
        abs(r) for r in ref
    )


@pytest.mark.parametrize("tau", [0.8j, 0.3 + 0.06j, 1.7 + 2.3j, -2.4 + 0.4j, 40j])
def test_theta_and_zeta_jets_match_mpmath_jtheta(tau):
    # random points over three rows of cells and six columns, so most lie
    # outside the base cell, plus points near the top of the base cell and
    # of the cell above it, where a term's sine grows fastest; zeta's points
    # keep a fifth of the shortest period from the lattice
    mp = pytest.importorskip("mpmath")
    md = ModularData(tau)
    (n1, m1), _ = md.basis
    shortest = abs(n1 + m1 * md.tau)
    rng = np.random.default_rng(12)
    points = [rng.uniform(-3, 3) + rng.uniform(-1, 2) * md.tau for _ in range(10)]
    points += [rng.uniform(0, 1) + y * md.tau for y in (0.96, 0.995, 1.97)]
    worst = 0.0
    for z in points:
        ref_theta, ref_zeta = jtheta_coeffs_mp(mp, tau, z, 3)
        far = lattice_distance(z, md) >= 0.2 * shortest
        for order in range(4):
            ref = ref_theta[: order + 1]
            worst = max(worst, coeff_error(theta11(z, md, order), ref))
            if far:
                ref = ref_zeta[: order + 1]
                worst = max(worst, coeff_error(zeta11(z, md, order), ref))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# The batched kernel.
# ---------------------------------------------------------------------------

BATCH_TAUS = [0.8j, 0.3 + 0.06j, -2.4 + 0.4j, 40j, 200j]


def mixed_batch(md, seed=41):
    """In-cell points, points up to three cells above and below and up to
    three periods left or right, and points near the top of the cell."""
    rng = np.random.default_rng(seed)
    inside = [complex(x) + complex(y) * md.tau for x, y in rng.uniform(0, 1, (4, 2))]
    outside = [
        complex(rng.uniform(0, 1)) + (m + complex(rng.uniform(0, 1))) * md.tau + n
        for m, n in ((1, 0), (-1, 2), (2, -3), (-2, 1), (3, 0), (-3, -1))
    ]
    top = [complex(rng.uniform(0, 1)) + y * md.tau for y in (0.96, 0.995)]
    return np.array(inside + outside + top)


def jtheta_row(mp, tau, z, order):
    """Taylor coefficients of theta at z from mpmath.jtheta derivatives in
    40 digits, or None where they leave the double range."""
    with mp.workdps(40):
        nome = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
        x = mp.pi * mp.mpc(z.real, z.imag)
        row = [
            -mp.pi**k * mp.jtheta(1, x, nome, k) / mp.factorial(k)
            for k in range(order + 1)
        ]
        if max(abs(c) for c in row) > mp.mpf(1e300):
            return None
        return [complex(c) for c in row]


@pytest.mark.parametrize("tau", BATCH_TAUS)
def test_batched_theta_matches_mpmath_jtheta(tau):
    # out-of-cell arguments whose value leaves the double range are the
    # overflow fault of their rows, in one call with the rest, and raise
    # OverflowError through the raising check
    mp = pytest.importorskip("mpmath")
    md = ModularData(tau)
    batch = mixed_batch(md)
    refs = [jtheta_row(mp, tau, z, 3) for z in batch]
    fits = np.array([ref is not None for ref in refs])
    assert fits.sum() >= 8
    faults = theta11_faults(batch, theta11_coeffs(batch, md, 0), 0.0)
    assert faults.tolist() == np.where(fits, 0, OVERFLOW).tolist()
    for z in batch[~fits]:
        with pytest.raises(OverflowError):
            theta11(z, md, 0)
    for order in range(4):
        rows = theta11_coeffs(batch[fits], md, order)
        assert rows.shape == (fits.sum(), order + 1)
        for row, ref in zip(rows, [r for r in refs if r is not None]):
            ref = ref[: order + 1]
            err = max(abs(a - b) for a, b in zip(row, ref))
            assert err <= 1e-12 * max(abs(b) for b in ref)


@pytest.mark.parametrize("tau", BATCH_TAUS)
def test_theta_kernel_matches_its_term_by_term_reference(tau):
    # the phase-recurrence kernel against the series summed term by term,
    # each term's phase from its own cosine and sine: within 1e-13 of each
    # row's largest coefficient, and the overflow fault on the rows where
    # the reference raises OverflowError
    md = ModularData(tau)
    for z in mixed_batch(md):
        for order in range(4):
            rows = theta11_coeffs([z], md, order)
            fault = theta11_faults([z], rows, 0.0).tolist()
            try:
                want = theta11_coeffs_reference([z], md, order)[0]
            except OverflowError:
                assert fault == [OVERFLOW]
                continue
            assert fault == [0]
            got = rows[0]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("tau", BATCH_TAUS)
def test_batched_rows_match_arguments_taken_alone(tau):
    md = ModularData(tau)
    batch = mixed_batch(md, seed=43)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = np.array([
            z for z in batch if not theta11_faults([z], theta11_coeffs([z], md), 0.0).any()
        ])
        for order in range(4):
            rows = theta11_coeffs(fits, md, order)
            for z, row in zip(fits, rows):
                alone = theta11_coeffs([z], md, order)[0]
                assert np.max(np.abs(row - alone)) <= 1e-15 * np.max(np.abs(alone))
            zs = [z for z in fits if lattice_distance(z, md) > 0.05]
            rows, faults = zeta11_coeffs(zs, md, order)
            assert not faults.any()
            for z, row in zip(zs, rows):
                alone = zeta11_coeffs([z], md, order)[0][0]
                assert np.max(np.abs(row - alone)) <= 1e-15 * np.max(np.abs(alone))
    assert theta11_coeffs([], md, 2).shape == (0, 3)


def test_a_folded_row_leaves_the_other_rows_bit_for_bit():
    # at 0.62 + 213i the quasi-periodicity factor alone leaves the double
    # range and is folded into each coefficient's exponent; the rows beside
    # it, one cell above as well, come out exactly as they do alone
    md = ModularData(200j)
    rng = np.random.default_rng(44)
    others = rng.uniform(0, 1, 40) + 1j * rng.uniform(200.5, 212.5, 40)
    for order in range(4):
        rows = theta11_coeffs(np.concatenate([[0.62 + 213j], others]), md, order)
        assert np.all(np.isfinite(rows))
        for z, row in zip(others, rows[1:]):
            assert np.array_equal(row, theta11_coeffs([z], md, order)[0])


@pytest.mark.parametrize("tau", [0.8j, 0.3 + 0.06j, 1.5 + 100j, 200j])
def test_rows_across_blocks_equal_rows_taken_alone(monkeypatch, tau):
    # up to 600 rows: in the cell, up to 12 cells above or below it, and a
    # period to its left; the rows whose theta leaves the double range are
    # left out, since their values are not finite.  A block holds
    # about elliptic._BLOCK terms, so at 100i and 200i, whose series has
    # four, the rows fill one default block; blocks of 64 terms cut them
    # into many at every tau
    md = ModularData(tau)
    rng = np.random.default_rng(45)

    def cell(count):
        return rng.uniform(0, 1, count) + rng.uniform(0, 1, count) * md.tau

    shifts = rng.integers(-12, 13, 240)
    batch = np.concatenate([cell(240), cell(240) + shifts * md.tau, cell(120) - 1])
    rng.shuffle(batch)
    fits = [z for z in batch if not theta11_faults([z], theta11_coeffs([z], md, 3), 0.0).any()]
    # more than one block of 4,096 terms at 0.8i and 0.3+0.06i
    assert len(fits) > 300
    for block in (elliptic._BLOCK, 64):
        monkeypatch.setattr(elliptic, "_BLOCK", block)
        for order in range(4):
            rows = theta11_coeffs(fits, md, order)
            for z, row in zip(fits, rows):
                assert np.array_equal(row, theta11_coeffs([z], md, order)[0])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_overflowing_zeta_raises_and_never_warns(order):
    # about 16 cells above the cell, theta's coefficients approach the
    # double range; zeta, about -100i there, stays finite wherever theta
    # does, since its quotient is taken of rows scaled by a power of two;
    # where theta leaves the range, the row's fault is one a Newton solve
    # reads, never a warning or an unnamed non-finite value
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in np.arange(13.3, 13.45, 0.001):
            z = 0.3 + y * 1j
            (fault,) = theta11_faults([z], theta11_coeffs([z], MD, order + 1), 0.0)
            rows, (zeta_fault,) = zeta11_coeffs([z], MD, order)
            if fault:
                assert fault == zeta_fault == OVERFLOW and np.isnan(rows).all()
                outcomes.append("theta")
                continue
            assert zeta_fault in (0, QUOTIENT)
            assert np.all(np.isfinite(rows)) == (zeta_fault == 0)
            outcomes.append("zeta" if zeta_fault else "finite")
    assert outcomes[0] == "finite" and outcomes[-1] == "theta"
    assert "zeta" not in outcomes


def test_kernel_rows_report_their_own_faults():
    # one call over good arguments, one whose theta overflows, lattice
    # points, and non-finite ones: each row's fault is the one its
    # argument alone raises through the raising check, the good rows have
    # the bits of their one-row calls, and nothing warns.  An infinite
    # part meets theta's series as an infinity, unless Im z is NaN, which
    # makes the whole reduction NaN first
    nan, inf = math.nan, math.inf
    zs = np.array([
        0.31 + 0.2j, 0.3 + 300j, 0j, MD.tau, complex(nan, 0.4), complex(0.3, inf),
        complex(inf, nan), complex(nan, inf), 1.7 - 0.9j,
    ])
    want = [0, OVERFLOW, POLE, POLE, NAN, INFINITE, NAN, INFINITE, 0]
    floor = elliptic.POLE_FLOOR * abs(theta11_prime_at_zero(MD))
    errors = {OVERFLOW: OverflowError, POLE: PoleProximityError,
              NAN: EllipticError, INFINITE: EllipticError}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thetas = theta11_coeffs(zs, MD, 2)
        zetas, faults = zeta11_coeffs(zs, MD, 1)
        assert theta11_faults(zs, thetas, floor).tolist() == faults.tolist() == want
        # where theta divides nothing, its zeros are no fault
        assert theta11_faults(zs, thetas, 0.0).tolist() == [0 if f == POLE else f for f in want]
        for z, fault, theta, zeta in zip(zs, want, thetas, zetas):
            alone, (alone_fault,) = zeta11_coeffs([z], MD, 1)
            assert alone_fault == fault
            if not fault:
                assert np.array_equal(theta, theta11_coeffs([z], MD, 2)[0])
                assert np.array_equal(zeta, alone[0]) and np.all(np.isfinite(zeta))
                continue
            assert np.isnan(zeta).all()
            with pytest.raises(errors[fault]) as exc:
                zeta11(z, MD)
            if fault in (NAN, INFINITE):
                assert "non-finite argument" in str(exc.value)


@pytest.mark.parametrize("tau", [0.8j, 0.3 + 0.06j, 40j])
def test_kernels_on_array_arguments_give_each_entry_its_scalar_bits(tau):
    # theta11, zeta11 and w_kernel take a scalar or an array, c and z of w
    # broadcast together: each coefficient has the arguments' shape after
    # the monomial axis, each entry the bits of its own scalar call, and a
    # scalar's coefficients are one axis, as they always were
    md = ModularData(tau)
    rng = np.random.default_rng(48)
    zs, cs = (rng.uniform(0.1, 0.9, 10) + rng.uniform(0.1, 0.9, 10) * tau for _ in range(2))
    for order in range(3):
        theta = [theta11(z, md, order).coeffs for z in zs]
        zeta = [zeta11(z, md, order).coeffs for z in zs]
        w = [w_kernel(c, z, md, order).coeffs for c, z in zip(cs, zs)]
        w_c0 = [w_kernel(cs[0], z, md, order).coeffs for z in zs]
        monomials = len(jet_indices(2, order))
        assert [x.shape for x in (theta[0], zeta[0], w[0])] == [(order + 1,)] * 2 + [(monomials,)]
        for shape in [(5,), (2, 5), ()]:
            count = math.prod(shape)
            z, c = zs[:count].reshape(shape), cs[:count].reshape(shape)
            batched = [
                (theta11(z, md, order), theta),
                (zeta11(z, md, order), zeta),
                (w_kernel(c, z, md, order), w),
                (w_kernel(cs[0], z, md, order), w_c0),
            ]
            for jet, alone in batched:
                assert jet.coeffs.shape == alone[0].shape + shape
                rows = jet.coeffs.reshape(len(alone[0]), count).T
                assert all(row.tobytes() == a.tobytes() for row, a in zip(rows, alone))


def test_a_batch_names_the_argument_of_its_first_fault():
    # w checks its whole call, then the poles of z, then those of c, so a
    # batch with a pole of z and one of c names z; a NaN argument is named
    # as non-finite, by theta and zeta as well
    zs = np.array([0.31 + 0.2j, 0.52 + 0.4j, 0.7 + 0.1j])
    cs = np.array([0.2 + 0.3j, 0.45 + 0.5j, 0.66 + 0.25j])
    for i in range(3):
        z, c = zs.copy(), cs.copy()
        z[i] = 1e-14
        for args, argument in (((cs, z), "z"), ((cs, z[i]), "z")):
            with pytest.raises(PoleProximityError) as exc:
                w_kernel(*args, MD)
            assert exc.value.argument == argument
        with pytest.raises(PoleProximityError) as exc:
            zeta11(z.reshape(1, 3), MD)
        assert exc.value.argument == "z"
        c[i] = MD.tau + 1e-14
        for args, argument in (((c, zs), "c"), ((c, z), "z")):
            with pytest.raises(PoleProximityError) as exc:
                w_kernel(*args, MD)
            assert exc.value.argument == argument
        z[i] = c[i] = math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: theta11(z, MD, 2), lambda: zeta11(z, MD, 1),
                         lambda: w_kernel(cs, z, MD, 2), lambda: w_kernel(c, zs, MD)):
                with pytest.raises(EllipticError, match="non-finite argument"):
                    call()


def test_zeta_far_above_the_cell_is_quasi_periodic():
    # 16 cells above the cell, where theta's coefficients near the double
    # range, zeta(z) is zeta at the cell representative minus 2 pi i m
    z = 0.3 + 13.40j
    (z0,), (m,), (n,) = reduce_to_cell(np.array([z]), MD)
    assert (m, n) == (16, 0)
    want = zeta11_coeffs([z0], MD)[0][0, 0] - 2j * math.pi * m
    got = zeta11_coeffs([z], MD)[0][0, 0]
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("tau", [40j, 200j, 1.5 + 100j])
def test_overflowing_theta_raises_and_never_warns(tau):
    # the factor of an argument three cells above the cell leaves the double
    # range, and so does theta; an argument too far off the real axis is
    # the same overflow fault, and one that is not finite is named so: in
    # the row's fault, beside a good row, and by the raising check's error,
    # with no warning
    md = ModularData(tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z, fault, error in (
            (0.3 + 3.5 * md.tau, OVERFLOW, OverflowError),
            (0.3 + 1e300j, OVERFLOW, OverflowError),
            (complex(math.inf, 0.2), INFINITE, EllipticError),
        ):
            for order in (0, 2):
                zs = [0.2 + 0.3 * md.tau, z]
                rows = theta11_coeffs(zs, md, order)
                assert theta11_faults(zs, rows, 0.0).tolist() == [0, fault]
                assert np.all(np.isfinite(rows[0]))
                with pytest.raises(error):
                    theta11(z, md, order)
        # where the factor alone overflows but theta does not, the two
        # share one exponent
        for big, z in ((200j, 0.3 + 213j), (60j, 0.3 - 117j)):
            rows = theta11_coeffs([z, 0.4 + 0.5j], ModularData(big), 3)
            assert np.all(np.isfinite(rows))


def test_w_jets_match_finite_differences_both_arguments():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = complex(rng.uniform(0.1, 0.6), rng.uniform(0.05, 0.3))
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.5))
        jet = w_kernel(c, z, MD, 2)
        fc = lambda x: w_kernel(x, z, MD).value
        fz = lambda x: w_kernel(c, x, MD).value
        assert rel_err(jet.deriv((1, 0)), fd_derivative(fc, c)) <= 1e-6
        assert rel_err(jet.deriv((0, 1)), fd_derivative(fz, z)) <= 1e-6
        assert rel_err(jet.deriv((2, 0)), fd_second(fc, c)) <= 1e-6
        assert rel_err(jet.deriv((0, 2)), fd_second(fz, z)) <= 1e-6
        # mixed partial via nested differences
        h = 1e-4
        mixed = (
            w_kernel(c + h, z + h, MD).value
            - w_kernel(c + h, z - h, MD).value
            - w_kernel(c - h, z + h, MD).value
            + w_kernel(c - h, z - h, MD).value
        ) / (4 * h * h)
        assert rel_err(jet.deriv((1, 1)), mixed) <= 1e-6


@given(st.integers(1, 3), st.integers(0, 6))
def test_jet_indices_shape(nvars, t):
    idx = jet_indices(nvars, t)
    assert idx[0] == (0,) * nvars
    assert all(len(m) == nvars and sum(m) <= t for m in idx)
    assert len(set(idx)) == len(idx) == math.comb(t + nvars, nvars)


# ---------------------------------------------------------------------------
# Array jets against straight-line dict jets.
# ---------------------------------------------------------------------------

# (left value shape, right value shape, coefficient product): scalar,
# vector, scalar (on an axis of its own) times vector, and batched
# matrices in both orders
PRODUCT_CASES = [
    ((), (), np.multiply),
    ((4,), (4,), np.multiply),
    ((1,), (4,), np.multiply),
    ((3, 2, 2), (3, 2, 2), np.matmul),
]


def random_array(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("total", range(5))
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_array_jet_product_matches_dict_convolution(nvars, total):
    rng = np.random.default_rng(100 + 10 * nvars + total)
    idx = jet_indices(nvars, total)
    for left, right, op in PRODUCT_CASES:
        a = random_array(rng, (len(idx),) + left)
        b = random_array(rng, (len(idx),) + right)
        for x, y in ((a, b), (b, a)) if op is np.matmul else ((a, b),):
            # a full left factor, and a constant one stored with length 1
            for left_factor in (x, x[:1]):
                got = array_jet_product(left_factor, y, nvars, total, op)
                want = dict_product(dict(zip(idx, left_factor)), dict(zip(idx, y)), total, op)
                assert got.shape == (len(idx),) + np.broadcast_shapes(x.shape[1:], y.shape[1:])
                scale = max(float(np.max(np.abs(c))) for c in want.values())
                for m, c in zip(idx, got):
                    assert np.max(np.abs(c - want[m])) <= 1e-14 * scale
        # truncating the product is taking the product of the truncations,
        # and both are prefixes, to the bit
        full = array_jet_product(a, b, nvars, total, op)
        for lower in range(total):
            n = len(jet_indices(nvars, lower))
            assert jet_indices(nvars, lower) == idx[:n]
            low = array_jet_product(a[:n], b[:n], nvars, lower, op)
            assert np.array_equal(low, full[:n])


@pytest.mark.parametrize("total", range(5))
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_derivative_table_is_the_falling_factorial_gather(nvars, total):
    rng = np.random.default_rng(130 + 10 * nvars + total)
    idx = jet_indices(nvars, total)
    f = random_array(rng, (len(idx), 2))
    for delta in idx:
        rest = total - sum(delta)
        at, weight = derivative_table(nvars, delta, rest)
        for p, mm in enumerate(jet_indices(nvars, rest)):
            m = tuple(x + d for x, d in zip(mm, delta))
            assert idx[at[p]] == m
            literal = 1
            for x, d in zip(m, delta):
                for j in range(d):
                    literal *= x - j
            assert weight[p] == literal
        # the gathered jet of d^delta f is the literal one
        want = dict_derivative(dict(zip(idx, f)), delta, rest)
        got = f[at] * weight[:, None]
        for mm, c in zip(jet_indices(nvars, rest), got):
            assert np.array_equal(c, want[mm])


def test_jet_reads_zero_beyond_its_stored_prefix():
    jet = Jet(2, 3, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(jet.value, [1.0, 2.0])
    assert np.array_equal(jet.coeff((0, 1)), [3.0, 4.0])
    assert np.array_equal(jet.deriv((1, 2)), [0.0, 0.0])
    assert np.array_equal(jet.coeff((4, 0)), [0.0, 0.0])


# ---------------------------------------------------------------------------
# zeta11 identities.
# ---------------------------------------------------------------------------


def test_zeta_at_half():
    assert abs(zeta11(0.5, MD).value) < 1e-12


def test_zeta_periods():
    rng = np.random.default_rng(21)
    for md in (MD, MD2):
        for _ in range(20):
            z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.6))
            z1 = zeta11(z + 1, md).value
            zt = zeta11(z + md.tau, md).value
            z0 = zeta11(z, md).value
            assert rel_err(z1, z0) <= 1e-10
            assert abs((zt - z0) - (-TWO_PI_I)) <= 1e-10 * abs(TWO_PI_I)


def test_zeta_matches_direct():
    rng = np.random.default_rng(23)
    for _ in range(20):
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.6))
        assert rel_err(zeta11(z, MD2).value, zeta11_direct(z, MD2.tau)) <= 1e-10


def test_zeta_pole_normalization():
    # z * zeta11(z) -> 1, Richardson extrapolation over decreasing steps.
    lim = richardson_pole_limit(lambda h: zeta11(h, MD).value)
    assert abs(lim - 1) <= 1e-8


def test_zeta_pole_error_names_lattice_point():
    with pytest.raises(PoleProximityError) as exc:
        zeta11(1 + MD.tau + 1e-14, MD)
    assert exc.value.argument == "z"
    assert abs(exc.value.nearest - (1 + MD.tau)) < 1e-9
    assert "1*tau + 1" in str(exc.value)


# ---------------------------------------------------------------------------
# w kernel identities.
# ---------------------------------------------------------------------------


def test_w_periods_and_parity():
    rng = np.random.default_rng(31)
    for md in (MD, MD2):
        for _ in range(20):
            c = complex(rng.uniform(0.1, 0.7), rng.uniform(0.05, 0.4))
            z = complex(rng.uniform(0.1, 0.8), rng.uniform(0.05, 0.5))
            w0 = w_kernel(c, z, md).value
            assert rel_err(w_kernel(c, z + 1, md).value, w0) <= 1e-10
            assert (
                rel_err(w_kernel(c, z + md.tau, md).value, cmath.exp(TWO_PI_I * c) * w0)
                <= 1e-10
            )
            assert rel_err(w_kernel(c, -z, md).value, -w_kernel(-c, z, md).value) <= 1e-12


def test_w_matches_direct():
    rng = np.random.default_rng(37)
    for _ in range(20):
        c = complex(rng.uniform(0.1, 0.7), rng.uniform(0.05, 0.4))
        z = complex(rng.uniform(0.1, 0.8), rng.uniform(0.05, 0.5))
        assert rel_err(w_kernel(c, z, MD2).value, w_direct(c, z, MD2.tau)) <= 1e-10


def test_w_pole_normalization():
    c = 0.31 + 0.11j
    lim = richardson_pole_limit(lambda h: w_kernel(c, h, MD).value)
    assert abs(lim - 1) <= 1e-8


def test_w_pole_errors_distinguish_arguments():
    with pytest.raises(PoleProximityError) as exc_z:
        w_kernel(0.3, 1e-14, MD)
    assert exc_z.value.argument == "z"
    with pytest.raises(PoleProximityError) as exc_c:
        w_kernel(MD.tau + 1e-14, 0.4, MD)
    assert exc_c.value.argument == "c"


# ---------------------------------------------------------------------------
# Degeneration q -> 0.
# ---------------------------------------------------------------------------


def test_zeta_degenerates_to_cotangent():
    # q = 1e-10 exactly; zeta11 approaches pi*cot(pi z).
    tau = cmath.log(1e-10) / TWO_PI_I
    md = ModularData(tau=tau)
    assert abs(md.q - 1e-10) <= 1e-24
    for z in (0.17, 0.43 + 0.1j, 0.71 - 0.2j, 0.29j + 0.5):
        trig = math.pi / cmath.tan(math.pi * z)
        assert abs(zeta11(z, md).value - trig) <= 1e-8


def test_w_degenerates_to_trig():
    tau = cmath.log(1e-10) / TWO_PI_I
    md = ModularData(tau=tau)
    for (c, z) in ((0.23, 0.61), (0.37 + 0.05j, 0.52 - 0.08j)):
        trig = math.pi * (
            1 / cmath.tan(math.pi * z) - 1 / cmath.tan(math.pi * c)
        )
        assert abs(w_kernel(c, z, md).value - trig) <= 1e-8
