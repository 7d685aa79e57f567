"""Tests for the Bethe ansatz layer.

Key oracles:
- direct theta-series sums for the residuals (no argument reduction);
- closed-form roots of the rank-1 symmetric instances, where oddness and
  1-periodicity of the zeta kernel force the residual to vanish;
- a brute-force enumeration of the Bethe covector (every root-to-site
  map, every ordering, literal kernel chains) coded independently of the
  library's partition machinery;
- finite differences for all jets;
- the transfer operator itself: the eigen-residual ties the covector,
  the eigenvalue formula, and the operator together with no free knobs.
"""

import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ellgaudin import bethe
from ellgaudin.bethe import (
    BetheError,
    BetheSystem,
    default_assignment,
    halton_points,
)
from ellgaudin.cli import CheckRunner, load_config
from ellgaudin.elliptic import (
    INFINITE,
    NAN,
    OVERFLOW,
    POLE,
    EllipticError,
    ModularData,
    PoleProximityError,
    lattice_distance,
    w_kernel,
)
from ellgaudin.gaudin import (
    GaudinError,
    GaudinProblem,
    _kernel_series,
    sample_regular_cartan,
)
from ellgaudin.liealg import build_dual_verma, build_root_system

from oracles import (
    bethe_equations_scalar,
    bethe_residual_direct,
    bethe_solve_per_seed,
    bethe_vector_bruteforce_a1,
    bethe_vector_reference,
    fd_multi,
    halton_points_loop,
    newton_per_seed,
    same_bethe_solution,
    verify_eigenvector_reference,
    w_direct,
)

RNG = np.random.default_rng(20240817)

RS1 = build_root_system("A", 1)
MD = ModularData(0.8j)
TAU = 0.8j
ALPHA = np.asarray(RS1.simple_roots[0], dtype=complex)

Z2 = [0.11 + 0j, 0.43 + 0.27j]
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# rank-1 probes with 10 and 12 roots of one label on three dual-Verma sites
PROBES = Path(__file__).resolve().parent / "data"


def dual_verma_sites(cs, depth):
    return [
        build_dual_verma(RS1, tuple(c * a for a in ALPHA), depth=depth)
        for c in cs
    ]


def make_system(cs, depth=4, zs=Z2):
    prob = GaudinProblem(RS1, MD, list(zs), dual_verma_sites(cs, depth))
    return BetheSystem(prob)


# ---------------------------------------------------------------------------
# charge bookkeeping
# ---------------------------------------------------------------------------


def test_default_assignment_orders_labels():
    rs2 = build_root_system("A", 2)
    a0 = np.asarray(rs2.simple_roots[0], dtype=complex)
    a1 = np.asarray(rs2.simple_roots[1], dtype=complex)
    assert default_assignment(rs2, [a0 + a1, a1]) == (0, 1, 1)


def test_charge_mismatch_raises():
    prob = GaudinProblem(RS1, MD, Z2, dual_verma_sites([1.0, 1.0], depth=4))
    with pytest.raises(BetheError):
        # weights sum to twice the simple root; a single-root assignment
        # cannot balance the charge
        BetheSystem(prob, assignment=(0,))


def test_shallow_modules_rejected():
    # M = 2 needs M + ht(theta) = 3 in rank 1.  The problem refuses the
    # truncation before a Bethe system can be built on it.
    c = 0.73 + 0.21j
    with pytest.raises(GaudinError, match=r"M \+ ht\(theta\) = 3"):
        GaudinProblem(RS1, MD, Z2, dual_verma_sites([c, 2 - c], depth=2))


# ---------------------------------------------------------------------------
# the algebraic system
# ---------------------------------------------------------------------------


def test_residual_zero_at_half_period_single_site():
    mods = dual_verma_sites([1.0], depth=3)
    prob = GaudinProblem(RS1, MD, [0.13 + 0.05j], mods)
    sysb = BetheSystem(prob)
    res, _, _ = sysb.equations([[0.13 + 0.05j + 0.5]])
    assert np.max(np.abs(res)) < 1e-12


def test_residual_zero_at_symmetric_midpoints():
    sysb = make_system([0.5, 0.5], depth=3)
    mid = (Z2[0] + Z2[1]) / 2
    for t in (mid, mid + 0.5):
        res, _, _ = sysb.equations([[t]])
        assert np.max(np.abs(res)) < 1e-12


def test_residual_matches_direct_series():
    c = 0.73 + 0.21j
    sysb = make_system([c, 2 - c])
    t = np.array([0.21 + 0.13j, 0.52 + 0.4j])
    (res,), _, _ = sysb.equations([t])
    expect = bethe_residual_direct(
        t, Z2, [c * ALPHA, (2 - c) * ALPHA], [ALPHA, ALPHA], TAU
    )
    assert np.max(np.abs(res - expect)) < 1e-10


def test_jacobian_matches_finite_differences():
    c = 0.73 + 0.21j
    sysb = make_system([c, 2 - c])
    t0 = np.array([0.21 + 0.13j, 0.52 + 0.4j])
    _, (jac,), _ = sysb.equations([t0])
    h = 1e-6
    for k in range(2):
        e = np.zeros(2, dtype=complex)
        e[k] = h
        col = (sysb.equations([t0 + e])[0][0] - sysb.equations([t0 - e])[0][0]) / (2 * h)
        assert np.max(np.abs(col - jac[:, k])) / np.max(np.abs(jac)) < 1e-6


def test_residual_permutation_covariance():
    c = 0.73 + 0.21j
    sysb = make_system([c, 2 - c])
    t = np.array([0.21 + 0.13j, 0.52 + 0.4j])
    points = np.array([t, t[::-1], [0.37 + 0.61j, 0.05 + 0.29j]])
    res, jac, _ = sysb.equations(points)
    assert res.shape == (3, 2) and jac.shape == (3, 2, 2)
    assert np.max(np.abs(res[0] - res[1, ::-1])) == 0.0
    # every row of a stack is its one-row call, bit for bit, so a row's
    # numbers do not depend on which seeds share its Newton round; rows 0
    # and 1 take the root pair's zeta at opposite signs
    for r in range(len(points)):
        one_res, one_jac, _ = sysb.equations(points[r : r + 1])
        assert one_res.tolist() == res[r : r + 1].tolist()
        assert one_jac.tolist() == jac[r : r + 1].tolist()


def test_equations_raise_on_pole_collision():
    # a root on a site is its row's pole fault, and the row holds NaN; the
    # scalar loop, through the raising check, raises it
    sysb = make_system([0.5, 0.5], depth=3)
    res, jac, fault = sysb.equations([[Z2[0]]])
    assert fault.tolist() == [POLE]
    assert np.isnan(res).all() and np.isnan(jac).all()
    with pytest.raises(PoleProximityError):
        bethe_equations_scalar(sysb, [[Z2[0]]])


BETHE_CONFIGS = [
    path for path in sorted([*CONFIGS.glob("*.ini"), *PROBES.glob("*.ini")])
    if "[bethe]" in path.read_text(encoding="utf-8")
]


def same_bits(got, want) -> bool:
    """Equal arrays, compared as integers, so that signed zeros and NaN
    payloads count."""
    return got.shape == want.shape and np.array_equal(
        np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(want).view(np.int64)
    )


@pytest.mark.parametrize("path", BETHE_CONFIGS, ids=lambda path: path.name)
def test_equations_match_the_scalar_loop_bit_for_bit(path):
    # the array assembly multiplies and adds as the loop over Python
    # numbers does, in its order; the Halton stacks skip point 0, whose
    # roots coincide
    system = load_config(str(path)).system
    for count in (1, 2, 7, 256):
        points = system._seed_points(count + 1)[1:]
        got, want = system.equations(points), bethe_equations_scalar(system, points)
        assert all(same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("bad", [complex(np.nan, 0.4), complex(0.3, np.inf)])
def test_equations_refuse_a_nan_or_inf_row_as_the_scalar_loop_does(bad):
    # the kernel names the row's non-finite root, without a warning from
    # the assembly (the suite runs under -W error), and the scalar loop
    # raises it; every other row of the one call gets the scalar loop's
    # bits, and the bad one NaN
    fault = NAN if np.isnan(bad.real) else INFINITE
    system = load_config(str(PROBES / "a1_dual_verma_m10.ini")).system
    points = system._seed_points(8)[1:]
    points[3, 2] = bad
    with pytest.raises(EllipticError, match="non-finite argument"):
        bethe_equations_scalar(system, points)
    res, jac, faults = system.equations(points)
    assert faults.tolist() == [0, 0, 0, fault, 0, 0, 0]
    assert np.isnan(res[3]).all() and np.isnan(jac[3]).all()
    rows = [0, 1, 2, 4, 5, 6]
    want = bethe_equations_scalar(system, points[rows])
    assert same_bits(res[rows], want[0]) and same_bits(jac[rows], want[1])


def test_equations_give_each_row_of_a_mixed_stack_its_own_fault():
    # rows with a root far up the cell (theta overflows), on a site, NaN or
    # infinite, and two faults at once: each row's fault is the one the
    # scalar loop raises for that row alone, by the ranks of the elliptic
    # faults (an overflow or an infinite root before a pole, a pole before
    # a NaN), and a NaN or infinite root is named as non-finite.  One call
    # takes them all, and every good row has the bits of its one-row call
    system = load_config(str(PROBES / "a1_dual_verma_m10.ini")).system
    z = system.problem.positions
    points = system._seed_points(11)[1:]
    nan, inf = complex(np.nan, 0.4), complex(0.3, np.inf)
    points[1, 2] = 0.3 + 300j
    points[2, 4] = z[0]
    points[3, 2] = nan
    points[4, 2] = inf
    points[5, 1], points[5, 3] = z[1], nan
    points[6, 1], points[6, 3] = z[1], inf
    points[7, 1], points[7, 3] = z[0], 0.3 + 300j
    points[8, 2] = complex(np.inf, np.nan)
    want = [0, OVERFLOW, POLE, NAN, INFINITE, POLE, INFINITE, OVERFLOW, NAN, 0]
    raised = {
        OVERFLOW: (OverflowError, "theta11 leaves the double range"),
        POLE: (PoleProximityError, "theta11 vanishes"),
        NAN: (EllipticError, "non-finite argument"),
        INFINITE: (EllipticError, "non-finite argument"),
    }
    res, jac, faults = system.equations(points)
    assert faults.tolist() == want
    for r, fault in enumerate(want):
        one = system.equations(points[r : r + 1])
        assert one[2].tolist() == [fault]
        assert same_bits(res[r : r + 1], one[0]) and same_bits(jac[r : r + 1], one[1])
        if fault:
            assert np.isnan(res[r]).all() and np.isnan(jac[r]).all()
            error, message = raised[fault]
            with pytest.raises(error, match=message):
                bethe_equations_scalar(system, points[r : r + 1])
        else:
            want_res, want_jac = bethe_equations_scalar(system, points[r : r + 1])
            assert same_bits(one[0], want_res) and same_bits(one[1], want_jac)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def test_solver_converges_to_half_period_root():
    mods = dual_verma_sites([1.0], depth=3)
    z = 0.13 + 0.05j
    prob = GaudinProblem(RS1, MD, [z], mods)
    sysb = BetheSystem(prob)
    sols = sysb.solve(seeds=[np.array([z + 0.47 + 0.03j])])
    assert len(sols) == 1
    sol = sols[0]
    assert sol.residual < 1e-12
    d = sol.t[0] - (z + 0.5)
    assert abs(d - round(d.real)) < 1e-9


def test_solver_finds_symmetric_closed_form_and_dedups():
    sysb = make_system([0.5, 0.5], depth=3)
    mid = (Z2[0] + Z2[1]) / 2
    seed = np.array([mid + 0.51 + 0.01j])
    sols = sysb.solve(seeds=[seed, seed.copy(), seed + 1.0])
    assert len(sols) == 1  # unit shifts and copies collapse
    d = sols[0].t[0] - (mid + 0.5)
    assert abs(d - round(d.real)) < 1e-9


def test_solver_quasirandom_seeds_find_m2_roots():
    c = 0.73 + 0.21j
    sysb = make_system([c, 2 - c])
    sols = sysb.solve(n_seeds=12)
    assert sols, "no Bethe roots found from the default seed grid"
    for s in sols:
        assert s.residual < 1e-12
        assert s.iterations >= 0


def test_halton_leading_points():
    # radical inverses of 0..4 in bases 2, 3 and 5, bit for bit (3/5 is
    # computed as 3 * (1/5), one ulp above 0.6)
    assert halton_points(5, 3).tolist() == [
        [0.0, 0.0, 0.0],
        [0.5, 0.3333333333333333, 0.2],
        [0.25, 0.6666666666666666, 0.4],
        [0.75, 0.1111111111111111, 0.6000000000000001],
        [0.125, 0.4444444444444444, 0.8],
    ]
    assert halton_points(7, 2)[6].tolist() == [0.375, 0.2222222222222222]


def test_halton_matches_scipy_bitwise():
    qmc = pytest.importorskip("scipy.stats.qmc")
    for d in range(1, 9):
        ref = qmc.Halton(d=d, scramble=False).random(256)
        assert np.array_equal(halton_points(256, d), ref), d


@pytest.mark.parametrize("count, dim", [(1, 2), (48, 6), (257, 20), (4096, 24)])
def test_halton_points_match_the_point_by_point_loop_bit_for_bit(count, dim):
    # digit by digit over all points at once, each radical inverse summed
    # in the loop's order; 4,096 points in 24 dimensions are the n_seeds
    # cap at M = 12
    got, want = halton_points(count, dim), halton_points_loop(count, dim)
    assert same_bits(got, want)


# ---------------------------------------------------------------------------
# the Bethe covector
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tau", [0.8j, 0.3 + 0.06j, 1.7 + 2.3j, 40j])
def test_kernel_series_matches_bivariate_w_kernel(tau):
    # the bracket's kernel w_{c0+h}(x) in h comes from three theta values;
    # the (k, 0) coefficients of the bivariate w_kernel jet are that series
    md = ModularData(tau)
    rng = np.random.default_rng(90)
    checked = 0
    while checked < 6:
        (a, b), (p, q) = rng.uniform(0.05, 0.95, (2, 2))
        c0, x = complex(a) + complex(b) * md.tau, complex(p) + complex(q) * md.tau
        if min(lattice_distance(c0, md), lattice_distance(x, md)) < 0.05:
            continue
        checked += 1
        for order in range(4):
            (got,) = _kernel_series([c0], [x], md, order)
            jet = w_kernel(c0, x, md, order)
            want = [jet.coeff((k, 0)) for k in range(order + 1)]
            assert got.shape == (order + 1,)
            err = max(abs(g - w) for g, w in zip(got, want))
            assert err <= 1e-11 * max(abs(w) for w in want)


def test_vector_no_roots_is_constant_unit():
    mods = dual_verma_sites([0.0, 0.0], depth=2)
    prob = GaudinProblem(RS1, MD, Z2, mods)
    sysb = BetheSystem(prob, assignment=())
    H = np.array([0.23 - 0.17j])
    jet = sysb.vector_jet(np.zeros((1, 0)), [H], order=2)
    assert jet.coeffs.shape == (3, 1, 1)
    assert abs(jet.value[0, 0] - 1.0) < 1e-14
    assert np.max(np.abs(jet.coeffs[1:])) < 1e-14
    assert abs(sysb.eigenvalue(np.zeros((1, 0)), [[0.31 + 0.22j]])[0, 0]) < 1e-14


def test_vector_single_root_closed_form():
    c1 = 0.37 + 0.11j
    c2 = 1 - c1
    sysb = make_system([c1, c2], depth=3)
    t = np.array([0.2 + 0.15j])
    H = np.array([0.21 - 0.16j])
    cval = complex(ALPHA @ H)
    psi = sysb.vector_jet([t], [H]).value[0]
    tuples = sysb.problem.space.zero_tuples()
    expected = {
        (1, 0): 2 * c1 * w_direct(-cval, complex(t[0] - Z2[0]), TAU),
        (0, 1): 2 * c2 * w_direct(-cval, complex(t[0] - Z2[1]), TAU),
    }
    for tup, comp in zip(tuples, psi):
        assert abs(comp - expected[tup]) < 1e-10


def test_vector_two_roots_match_bruteforce_enumeration():
    c1 = 0.73 + 0.21j
    c2 = 2 - c1
    sysb = make_system([c1, c2])
    t = np.array([0.21 + 0.13j, 0.52 + 0.4j])
    tuples = sysb.problem.space.zero_tuples()
    for H in sample_regular_cartan(RS1, MD, RNG, 5):
        cval = complex(ALPHA @ H)
        psi = sysb.vector_jet([t], [H]).value[0]
        oracle = bethe_vector_bruteforce_a1(t, Z2, [c1, c2], cval, TAU)
        scale = max(abs(v) for v in oracle.values())
        for tup, comp in zip(tuples, psi):
            assert abs(comp - oracle[tup]) / scale < 1e-10


def test_vector_jets_match_finite_differences():
    c1 = 0.73 + 0.21j
    sysb = make_system([c1, 2 - c1])
    t = np.array([0.21 + 0.13j, 0.52 + 0.4j])
    H0 = np.array([0.31 - 0.22j])
    jet = sysb.vector_jet([t], [H0], order=2)

    def comp(idx):
        return lambda H: sysb.vector_jet([t], [H]).value[0, idx]

    dim = len(sysb.problem.space.zero_tuples())
    for idx in range(dim):
        for m, h in [((1,), 1e-5), ((2,), 1e-4)]:
            fd = fd_multi(comp(idx), H0, m, h=h)
            an = jet.coeff(m)[0, idx] * math.factorial(sum(m))
            assert abs(an - fd) / max(1.0, abs(fd)) < 1e-6


def reference_case(rank, fundamental, nsites, assignment):
    """A dual-Verma system at depth M + ht(theta) on the first nsites of
    three fixed points, with generic site weights summing to the given
    fundamental coordinates, those of the assigned roots' sum."""
    rs = build_root_system("A", rank)
    rng = np.random.default_rng(90 + 10 * rank + nsites)
    weights = [
        np.asarray(fundamental) / nsites + rng.uniform(-0.2, 0.2, rank)
        + 1j * rng.uniform(-0.2, 0.2, rank)
        for _ in range(nsites - 1)
    ]
    weights.append(np.asarray(fundamental) - np.sum(weights, axis=0))
    depth = len(assignment) + rank
    sites = [build_dual_verma(rs, rs.weight_from_fundamental(tuple(w)), depth) for w in weights]
    zs = [0.11, 0.43 + 0.27j, 0.71 + 0.52j][:nsites]
    return BetheSystem(GaudinProblem(rs, MD, zs, sites), assignment)


REFERENCE_CASES = [
    *[(1, (2 * M,), nsites, (0,) * M) for M in (1, 2, 3, 4) for nsites in (2, 3)],
    (2, (1, 1), 2, (0, 1)),  # alpha_1 + alpha_2
    (2, (3, 0), 2, (0, 0, 1)),  # 2 alpha_1 + alpha_2
    (3, (1, 0, 1), 2, (0, 1, 2)),  # alpha_1 + alpha_2 + alpha_3
]


@pytest.mark.parametrize("rank, fundamental, nsites, assignment", REFERENCE_CASES)
def test_vector_jet_matches_the_straight_line_reference(
    rank, fundamental, nsites, assignment
):
    sysb = reference_case(rank, fundamental, nsites, assignment)
    t = np.array([0.2 + 0.13j + (0.17 + 0.05j) * j for j in range(sysb.M)])
    H = sample_regular_cartan(sysb.problem.rs, MD, np.random.default_rng(91), 1)[0]
    for order in (0, 1, 2):
        jet = sysb.vector_jet([t], [H], order).coeffs[:, 0]
        ref = bethe_vector_reference(sysb, t, H, order)
        assert jet.shape == ref.coeffs.shape
        for got, want in zip(jet, ref.coeffs):
            scale = np.max(np.abs(want))
            assert scale > 0
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# eigenvalue and verification
# ---------------------------------------------------------------------------


def test_eigenvalue_period_one_in_u():
    c1 = 0.73 + 0.21j
    sysb = make_system([c1, 2 - c1])
    t = np.array([0.21 + 0.13j, 0.52 + 0.4j])
    u = 0.62 + 0.3j
    ((v1, v2),) = sysb.eigenvalue([t], [[u, u + 1]])
    assert abs(v1 - v2) / abs(v1) < 1e-10


def test_eigenvalue_over_an_array_matches_one_u_stacks():
    c1 = 0.73 + 0.21j
    sysb = make_system([c1, 2 - c1])
    t = np.array([0.21 + 0.13j, 0.52 + 0.4j])
    us = np.array([0.62 + 0.3j, -0.1 + 0.2j, 0.25 + 0.55j, 1.62 + 0.3j])
    (values,) = sysb.eigenvalue([t], [us])
    assert values.shape == us.shape
    singles = [sysb.eigenvalue([t], [[u]]) for u in us]
    assert all(v.shape == (1, 1) for v in singles)
    # each u is summed on its own, so the entries agree to the bit
    assert values.tolist() == [v[0, 0] for v in singles]


def test_batched_eigen_residual_is_the_max_over_single_points():
    c1 = 0.73 + 0.21j
    sysb = make_system([c1, 2 - c1])
    t = sysb.solve(n_seeds=8)[0].t
    hpts = sample_regular_cartan(RS1, MD, np.random.default_rng(81), 2)
    upts = [0.62 + 0.3j, -0.1 + 0.2j, 0.25 + 0.55j]
    (report,) = sysb.verify_eigenvector([t], [hpts], [upts])
    singles = [sysb.verify_eigenvector([t], [hpts], [[u]])[0] for u in upts]
    assert report["max_rel"] == max(r["max_rel"] for r in singles)
    assert report["min_norm"] == singles[0]["min_norm"]
    assert report["status"] == "ok"


def test_eigenvalue_matches_rayleigh_quotient():
    sysb = make_system([0.5, 0.5], depth=3)
    sols = sysb.solve(seeds=[np.array([(Z2[0] + Z2[1]) / 2 + 0.49 + 0.02j])])
    t = sols[0].t
    u = 0.62 + 0.3j
    H = np.array([0.31 - 0.22j])
    psi = sysb.vector_jet([t], [H]).value[0]
    lhs = sysb.problem.transfer([u], [H]).apply(sysb.vector_jet([t], [H], 2))[0]
    quotients = lhs[np.abs(psi) > 1e-8] / psi[np.abs(psi) > 1e-8]
    eig = sysb.eigenvalue([t], [[u]])[0, 0]
    assert np.max(np.abs(quotients - eig)) / abs(eig) < 1e-7


def test_eigen_residual_single_root_instances():
    for cs in ([0.5, 0.5], [0.37 + 0.11j, 0.63 - 0.11j]):
        sysb = make_system(cs, depth=3)
        sols = sysb.solve(n_seeds=8)
        assert sols
        hpts = sample_regular_cartan(RS1, MD, RNG, 2)
        upts = [0.62 + 0.3j, 0.25 + 0.55j]
        (report,) = sysb.verify_eigenvector([sols[0].t], [hpts], [upts])
        assert report["status"] == "ok"
        assert report["max_rel"] < 1e-7


def test_eigen_residual_two_roots():
    c1 = 0.73 + 0.21j
    sysb = make_system([c1, 2 - c1])
    sols = sysb.solve(n_seeds=8)
    assert sols
    hpts = sample_regular_cartan(RS1, MD, RNG, 2)
    upts = [0.62 + 0.3j, -0.1 + 0.2j]
    (report,) = sysb.verify_eigenvector([sols[0].t], [hpts], [upts])
    assert report["status"] == "ok"
    assert report["max_rel"] < 1e-6


def test_perturbed_roots_fail_verification():
    sysb = make_system([0.5, 0.5], depth=3)
    sols = sysb.solve(seeds=[np.array([(Z2[0] + Z2[1]) / 2 + 0.49 + 0.02j])])
    t_bad = sols[0].t + 1e-3
    hpts = sample_regular_cartan(RS1, MD, RNG, 2)
    upts = [0.62 + 0.3j, 0.25 + 0.55j]
    (report,) = sysb.verify_eigenvector([t_bad], [hpts], [upts])
    assert report["max_rel"] > 1e-4


def test_verification_inconclusive_below_threshold():
    sysb = make_system([0.5, 0.5], depth=3)
    sols = sysb.solve(n_seeds=8)
    hpts = sample_regular_cartan(RS1, MD, RNG, 1)
    (report,) = sysb.verify_eigenvector(
        [sols[0].t], [hpts], [[0.62 + 0.3j]], tiny=np.inf
    )
    assert report["status"] == "inconclusive"


# ---------------------------------------------------------------------------
# one batched pass over (solution, Cartan point) entries
# ---------------------------------------------------------------------------


# rank 1, M = 6 on three sites: Held-Karp layers of five and more terms,
# which numpy sums pairwise, so an entry axis in the wrong place in memory
# changes the eigen residual (4.2e-8 here) in its third digit
A1_M6 = """
[algebra]
series = A
rank = 1
[elliptic]
tau = 0.8i
[sites]
count = 3
z_1 = 0.11
kind_1 = dual_verma
weight_1 = 4.2660+0.0894i
depth_1 = 7
z_2 = 0.43+0.27i
kind_2 = dual_verma
weight_2 = 4.2405-0.2321i
depth_2 = 7
z_3 = 0.71+0.52i
kind_3 = dual_verma
weight_3 = 3.4935+0.1427i
depth_3 = 7
[bethe]
n_seeds = 16
max_solutions = 1
[sampling]
cartan_count = 3
u_count = 2
"""


# zero total charge: two rank-1 dual Verma sites of weights c and -c need
# no Bethe roots, and the empty root vector is still checked
ZERO_CHARGE = """
[algebra]
series = A
rank = 1
[elliptic]
tau = 0.8i
[sites]
count = 2
z_1 = 0.11
kind_1 = dual_verma
weight_1 = 1.3+0.2i
depth_1 = 2
z_2 = 0.43+0.27i
kind_2 = dual_verma
weight_2 = -1.3-0.2i
depth_2 = 2
[bethe]
assignment = auto
"""


@pytest.mark.parametrize(
    "config,negative,tiny,one_per_pass",
    [
        ("a1_bethe_m4", False, 1e-12, False),
        ("a1_bethe_m4", True, 1e-12, False),
        ("a1_bethe_m4", False, np.inf, False),
        ("a1_bethe_m4", True, 1e-12, True),
        ("a2_bethe_m2", False, 1e-12, False),
        ("a2_bethe_m2", True, 1e-12, False),
        ("a2_bethe_m2", False, np.inf, False),
        ("a2_bethe_m2", False, 1e-12, True),
        ("a1_m6", False, 1e-12, False),
        ("a1_m6", False, 1e-12, True),
        ("zero_charge", False, 1e-12, False),
        ("zero_charge", False, np.inf, False),
    ],
)
def test_batched_eigen_stage_equals_per_point_reference(
    monkeypatch, tmp_path, config, negative, tiny, one_per_pass
):
    # the stage checks every solution in one call; each solution's result
    # must be, to the bit, that of the loop over its Cartan points, also
    # when the entries are split into passes of one
    texts = {"a1_m6": A1_M6, "zero_charge": ZERO_CHARGE}
    if config in texts:
        path = tmp_path / f"{config}.ini"
        path.write_text(texts[config], encoding="utf-8")
    else:
        path = CONFIGS / f"{config}.ini"
    if one_per_pass:
        monkeypatch.setattr(bethe, "_PASS_BYTES", 1)
    transfers = []
    transfer = GaudinProblem.transfer

    def counted(self, *args, **kwargs):
        transfers.append(args)
        return transfer(self, *args, **kwargs)

    monkeypatch.setattr(GaudinProblem, "transfer", counted)
    calls = []
    verify = BetheSystem.verify_eigenvector

    def recording(self, t, h_points, u_points, tiny_=1e-12):
        out = verify(self, t, h_points, u_points, tiny=tiny)
        calls.append((self, t, h_points, u_points, out))
        return out

    monkeypatch.setattr(BetheSystem, "verify_eigenvector", recording)
    runner = CheckRunner(load_config(str(path)), "eigen-check", negative)
    runner.run()
    passes = len(transfers)
    (system, t, h_points, u_points, results), = calls
    assert len(results) == len(t) >= 1
    for k, result in enumerate(results):
        want = verify_eigenvector_reference(system, t[k], h_points[k], u_points[k], tiny)
        assert result == want
        # a one-solution stack, M = 0 included
        one = slice(k, k + 1)
        assert verify(system, t[one], h_points[one], u_points[one], tiny=tiny) == [want]
        assert result["status"] == ("inconclusive" if tiny == np.inf else "ok")
    entries = sum(len(h) for h in h_points) if tiny < 1 else 0
    assert passes == (entries if one_per_pass else min(entries, 1))
    records = [r for r in runner.report.records if r.name.startswith("eigen/")]
    assert [r.name for r in records] == [f"eigen/residual-{k:02d}" for k in range(len(t))]
    assert [r.passed for r in records] == [not negative and tiny < 1] * len(results)


def test_batched_vector_jet_equals_single_entries():
    system = BetheSystem(load_config(str(CONFIGS / "a2_bethe_m2.ini")).problem)
    rng = np.random.default_rng(91)
    hs = np.array(sample_regular_cartan(system.problem.rs, MD, rng, 4))
    ts = np.array([[0.21 + 0.13j, 0.52 + 0.4j], [0.35 + 0.2j, 0.61 + 0.33j]] * 2)
    for order in (0, 2):
        batched = system.vector_jet(ts, hs, order).coeffs
        assert batched.shape[1] == len(hs)
        for e, (t, H) in enumerate(zip(ts, hs)):
            assert np.array_equal(batched[:, e], system.vector_jet([t], [H], order).coeffs[:, 0])
    for t, H in [(ts[:3], hs[:2]), (ts[0], hs)]:
        with pytest.raises(BetheError, match="differ in number"):
            system.vector_jet(t, H)


def test_stacked_eigenvalue_equals_single_solutions():
    c1 = 0.73 + 0.21j
    sysb = make_system([c1, 2 - c1])
    ts = np.array([[0.21 + 0.13j, 0.52 + 0.4j], [0.33 + 0.1j, 0.71 + 0.45j]])
    us = np.array([[0.62 + 0.3j, -0.1 + 0.2j, 0.25 + 0.55j], [0.4 + 0.6j, 0.1 + 0.3j, 0.8 + 0.2j]])
    values = sysb.eigenvalue(ts, us)
    assert values.shape == us.shape
    for t, u, row in zip(ts, us, values):
        assert row.tolist() == sysb.eigenvalue([t], [u])[0].tolist()


def test_verify_stack_with_differing_samples_per_solution():
    c1 = 0.73 + 0.21j
    sysb = make_system([c1, 2 - c1])
    sols = sysb.solve(n_seeds=8)
    rng = np.random.default_rng(93)
    ts = np.array([sols[0].t, sols[0].t + 1e-3])
    hs = [sample_regular_cartan(RS1, MD, rng, 3) for _ in ts]
    us = [[0.62 + 0.3j, -0.1 + 0.2j], [0.25 + 0.55j, 0.4 + 0.6j]]
    results = sysb.verify_eigenvector(ts, hs, us)
    for t, h, u, result in zip(ts, hs, us, results):
        assert result == verify_eigenvector_reference(sysb, t, h, u)
    assert results[0]["max_rel"] < 1e-6 < 1e-4 < results[1]["max_rel"]


# ---------------------------------------------------------------------------
# rank 2
# ---------------------------------------------------------------------------


RS2 = build_root_system("A", 2)


def rank2_overflow_system():
    """Rank 2, M = 3 at depth 5: from Halton seed 14 of 48 a Newton step
    diverges until theta11's quasi-periodicity factor overflows."""
    weights = [(1.46 + 0.42j, 0.31 - 0.1j), (1.54 - 0.42j, -0.31 + 0.1j)]
    mods = [
        build_dual_verma(RS2, RS2.weight_from_fundamental(w), depth=5)
        for w in weights
    ]
    return BetheSystem(GaudinProblem(RS2, MD, Z2, mods), assignment=(0, 0, 1))


def test_newton_overflow_fails_only_its_seed(monkeypatch):
    # From some of these seeds a Newton step diverges until theta11
    # overflows; that seed fails, the rest solve.
    sysb = rank2_overflow_system()
    calls = record_faults(monkeypatch, sysb)
    sols = sysb.solve(n_seeds=48)
    assert any(OVERFLOW in faults for _, faults in calls)
    assert sols
    for sol in sols:
        res = bethe_residual_direct(sol.t, Z2, sysb.weights, sysb.alphas, TAU)
        assert np.max(np.abs(res)) < 1e-9


# ---------------------------------------------------------------------------
# the lockstep solver against the per-seed reference
# ---------------------------------------------------------------------------


def assert_solves_as_per_seed(sysb, sols, **kwargs):
    """The solutions of solve(**kwargs) are the per-seed reference's, bit
    for bit: the roots, the residuals and the Newton step counts, in the
    same order."""
    ref = bethe_solve_per_seed(sysb, **kwargs)
    assert [(s.t.tobytes(), s.residual.hex(), s.iterations) for s in sols] == [
        (t.tobytes(), residual.hex(), iterations) for t, residual, iterations in ref
    ]


def record_faults(monkeypatch, sysb):
    """Wrap the system's equations to record, per call, its stack of
    points and the fault of each row."""
    calls = []
    equations = sysb.equations

    def recorded(t):
        out = equations(t)
        calls.append((np.asarray(t), out[2].tolist()))
        return out

    monkeypatch.setattr(sysb, "equations", recorded)
    return calls


def reference_rounds(sysb, points) -> int:
    """The Newton rounds of a lockstep solve from the seeds points: the
    most evaluations that one seed takes alone in the per-seed reference,
    counted as its ``equations`` calls."""
    equations, most = sysb.equations, 0
    for seed in points:
        calls = []
        sysb.equations = lambda t, calls=calls: calls.append(t) or equations(t)
        newton_per_seed(sysb, seed, 1e-12, 200)
        most = max(most, len(calls))
    sysb.equations = equations
    return most


@pytest.mark.parametrize(
    "name", [path.name for path in sorted(CONFIGS.glob("*.ini")) if "[bethe]" in path.read_text()]
)
def test_lockstep_solve_matches_per_seed_reference_on_configs(name):
    cfg = load_config(str(CONFIGS / name))
    kwargs = dict(
        n_seeds=cfg.bethe["n_seeds"],
        tol=cfg.bethe["newton_tol"],
        max_iter=cfg.bethe["max_iter"],
        guard=cfg.sampling["pole_guard"],
    )
    sols = cfg.system.solve(**kwargs)
    assert sols
    assert_solves_as_per_seed(cfg.system, sols, **kwargs)


def test_lockstep_solve_matches_per_seed_reference_past_an_overflow(monkeypatch):
    # one call per round, 29 of them: the one round with a fault holds 9
    # seeds, one of whose candidates overflows and is dropped, while the
    # other 8 go on from the same call
    sysb = rank2_overflow_system()
    rounds = reference_rounds(sysb, sysb.screened_seeds(48))
    calls = record_faults(monkeypatch, sysb)
    sols = sysb.solve(n_seeds=48)
    assert len(calls) == rounds == 29
    assert [(len(t), faults.count(OVERFLOW)) for t, faults in calls if any(faults)] == [(9, 1)]
    assert_solves_as_per_seed(sysb, sols, n_seeds=48)


def test_lockstep_matches_reference_from_an_overflowing_seed(monkeypatch):
    sysb = rank2_overflow_system()
    seeds = sysb._seed_points(18)[12:]
    rounds = reference_rounds(sysb, sysb.screened_seeds(seeds=seeds))
    calls = record_faults(monkeypatch, sysb)
    sols = sysb.solve(seeds=seeds)
    assert len(calls) == rounds
    assert [(len(t), faults) for t, faults in calls if any(faults)] == [(2, [OVERFLOW, 0])]
    assert_solves_as_per_seed(sysb, sols, seeds=seeds)


def test_lockstep_matches_reference_through_a_pole_proximity_damping(monkeypatch):
    # the full Newton step from this seed lands on the site z_2 to within
    # 6e-16, so that candidate's row is near a pole and the halved step is
    # tried next; the other seeds ride in the same rounds, one call each
    sysb = make_system([0.62 + 0.05j, 0.38 - 0.05j])
    pole_seed = np.array([0.6487186910430601 + 0.8574726121154863j])
    seeds = np.concatenate([[pole_seed], sysb._seed_points(8)])
    rounds = reference_rounds(sysb, sysb.screened_seeds(seeds=seeds))
    calls = record_faults(monkeypatch, sysb)
    sols = sysb.solve(seeds=seeds)
    assert len(calls) == rounds
    near_poles = [(t, faults) for t, faults in calls if any(faults)]
    assert [(len(t), faults.count(POLE)) for t, faults in near_poles] == [(9, 1)]
    t, faults = near_poles[0]
    assert abs(t[faults.index(POLE), 0] - Z2[1]) < 1e-12
    assert_solves_as_per_seed(sysb, sols, seeds=seeds)


def test_lockstep_matches_reference_past_a_singular_jacobian(monkeypatch):
    # the Jacobian at one seed is zeroed, so the first round's one stacked
    # solve leaves that seed out, and it fails; no solve raises
    sysb = make_system([0.62 + 0.05j, 0.38 - 0.05j])
    seeds = sysb._seed_points(8)
    equations = sysb.equations

    def singular_at_seed_3(t):
        res, jac, fault = equations(t)
        jac[np.all(t == seeds[3], axis=1)] = 0.0
        return res, jac, fault

    sysb.equations = singular_at_seed_3
    rounds = reference_rounds(sysb, sysb.screened_seeds(seeds=seeds))
    calls = record_faults(monkeypatch, sysb)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a) or solve(a, b))
    sols = sysb.solve(seeds=seeds)
    assert len(calls) == rounds
    assert len(solves) < len(calls)
    assert solves[0].shape == (len(seeds) - 1, 1, 1)
    assert not any((a == 0).all(axis=(1, 2)).any() for a in solves)
    assert_solves_as_per_seed(sysb, sols, seeds=seeds)


def test_lockstep_matches_reference_at_the_max_iter_exit():
    # one acceptance rule: a seed under tol after exactly max_iter steps is
    # accepted as on any earlier step, also where a root ends within guard
    # of a site or of another root, since guard only filters the seeds
    sysb = rank2_overflow_system()
    seeds = sysb._seed_points(24)
    for guard in (0.05, 0.1):
        capped = sysb.solve(seeds=seeds, max_iter=8, guard=guard)
        assert any(s.iterations == 8 and sysb._too_close([s.t], guard)[0] for s in capped)
        assert_solves_as_per_seed(sysb, capped, seeds=seeds, max_iter=8, guard=guard)
    # per seed, a higher cap keeps every solution reached within the lower
    points = seeds[~sysb._too_close(seeds, 0.1)]
    low = sysb._lockstep(points, 1e-12, 8)
    high = sysb._lockstep(points, 1e-12, 9)
    assert any(a is None and b is not None for a, b in zip(low, high))
    for a, b in zip(low, high):
        if a is not None:
            assert (a.t.tobytes(), a.residual, a.iterations) == (
                b.t.tobytes(), b.residual, b.iterations
            )


# ---------------------------------------------------------------------------
# solutions identified modulo shifts and relabellings
# ---------------------------------------------------------------------------


def random_relabelling_case(rng, tol):
    """Labels, roots t and a few rows of roots to compare them with.

    Roots of one group lie within 2 tol of each other at times.  Each row
    is t with the roots of every label group permuted, integer shifts and
    noise of up to 1.2 tol per part.  At times one of its roots is moved
    off by 1 to 3 tol, or, where t_j lies near t_(j-1), the partner of t_j
    is moved onto a third root of the group: every root still has a
    partner, but two roots of t may share one."""
    M = int(rng.integers(1, 7))
    labels = tuple(sorted(rng.integers(0, int(rng.integers(1, 4)), size=M).tolist()))
    t = rng.uniform(0, 1, M) + 1j * rng.uniform(0, 0.8, M)
    near = []
    for j in range(1, M):
        if labels[j] == labels[j - 1] and rng.random() < 0.4:
            t[j] = t[j - 1] + tol * (rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2))
            near.append(j)
    rows = []
    for _ in range(int(rng.integers(1, 3))):
        perm = np.arange(M)
        for a in set(labels):
            group = [j for j in range(M) if labels[j] == a]
            perm[group] = rng.permutation(group)
        noise = rng.uniform(-1.2, 1.2, M) + 1j * rng.uniform(-1.2, 1.2, M)
        row = t[perm] + rng.integers(-3, 4, M) + tol * noise
        move = rng.random()
        if move < 0.3:
            row[rng.integers(M)] += tol * rng.uniform(1, 3) * np.exp(2j * np.pi * rng.random())
        elif move < 0.6 and near:
            j = near[rng.integers(len(near))]
            third = [k for k in range(M) if labels[k] == labels[j] and k not in (j, j - 1)]
            if third:
                k = third[rng.integers(len(third))]
                row[np.flatnonzero(perm == j)[0]] = row[np.flatnonzero(perm == k)[0]] + 2
        rows.append(row)
    return labels, t, rows


def test_equivalent_matches_the_permutation_oracle():
    # _equivalent reads only which roots share a label; the oracle tries
    # every permutation within every label group
    rng = np.random.default_rng(2110)
    tol = 1e-8
    outcomes = {True: 0, False: 0}
    # cases where every root of t and of some row has a partner there, and
    # a root has two or more: only a matching decides these
    crowded = {True: 0, False: 0}
    for _ in range(5000):
        labels, t, rows = random_relabelling_case(rng, tol)
        stub = SimpleNamespace(assignment=labels, _same_label=np.equal.outer(labels, labels))
        got = BetheSystem._equivalent(stub, t, rows, tol)
        assert got == any(same_bethe_solution(stub, t, row, tol) for row in rows)
        outcomes[got] += 1
        d = t[:, None] - np.array(rows)[:, None, :]
        close = (np.abs(d.imag) <= tol) & (np.abs(d.real - np.round(d.real)) <= tol)
        close &= stub._same_label
        partners = np.minimum(close.sum(axis=2), close.sum(axis=1))
        if np.any((partners.min(axis=1) > 0) & (close.sum(axis=2).max(axis=1) > 1)):
            crowded[got] += 1
    assert min(outcomes.values()) > 1000
    assert min(crowded.values()) > 50


def test_equivalent_on_solutions_of_a_config():
    cfg = load_config(str(CONFIGS / "a1_bethe_m4.ini"))
    sysb = cfg.system
    found = [s.t for s in sysb.solve(n_seeds=64)]
    assert len(found) > 2
    for k, t in enumerate(found):
        copy = t[[2, 0, 3, 1]] + np.array([1, -2, 0, 3])
        assert sysb._equivalent(copy, found)
        assert not sysb._equivalent(copy, found[:k] + found[k + 1 :])
        assert not sysb._equivalent(copy + 1e-6, found)


def test_many_roots_of_one_label_load_without_a_relabelling_table():
    # 12! relabellings once raised MemoryError at load
    path = str(PROBES / "a1_dual_verma_m12.ini")
    tracemalloc.start()
    try:
        cfg = load_config(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.system.M == 12
    assert peak < 50e6


def test_ten_roots_of_one_label_solve():
    cfg = load_config(str(PROBES / "a1_dual_verma_m10.ini"))
    sysb = cfg.system
    sols = sysb.solve(n_seeds=256, guard=cfg.sampling["pole_guard"])
    assert sols
    for s in sols:
        assert s.residual < 1e-12
    # distinct solutions stay distinct modulo shifts and relabellings
    for k, s in enumerate(sols[1:], start=1):
        assert not sysb._equivalent(s.t, [f.t for f in sols[:k]])
