"""Tests for the transfer-operator layer.

Key oracles:
- a hand-built rank-1 two-site model assembled with literal Kronecker
  products, hand-written 2x2 module matrices and direct lattice sums for
  the kernels, compared entry-by-entry against the library operator;
- finite differences for every analytic jet;
- an independent straight-product evaluation of the Weyl-Kac denominator;
- the small-q trigonometric degeneration of the exchange potential.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from ellgaudin import gaudin
from ellgaudin.cli import CheckRunner, load_config
from ellgaudin.elliptic import Jet, ModularData, jet_indices
from ellgaudin.gaudin import (
    GaudinError,
    GaudinProblem,
    check_regular,
    commutativity_residual,
    sample_regular_cartan,
    sample_spectral_points,
    weyl_kac_pi,
)
from ellgaudin.liealg import build_dual_verma, build_irrep, build_root_system

from oracles import (
    commutativity_residual_reference,
    pair_stack_two_pass,
    potential_jet_reference,
    w_direct,
    zeta11_direct,
)

RNG = np.random.default_rng(424242)

RS1 = build_root_system("A", 1)
RS2 = build_root_system("A", 2)
RS3 = build_root_system("A", 3)
MD = ModularData(0.8j)
MD2 = ModularData(0.3 + 1.1j)
MD3 = ModularData(-0.4 + 0.6j)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fund_problem(md=MD, zs=(0.13, 0.41 + 0.2j)):
    fund = build_irrep(RS1, RS1.fundamental_weights[0])
    return GaudinProblem(RS1, md, list(zs), [fund, fund])


# ---------------------------------------------------------------------------
# Weyl-Kac denominator
# ---------------------------------------------------------------------------


def pi_direct(rs, md, H, nterms=200):
    """Literal product evaluation of the denominator."""
    q = md.q
    val = q ** (rs.dim_g / 24.0)
    for n in range(1, nterms + 1):
        val *= (1 - q**n) ** rs.rank
    for alpha in rs.positive_roots:
        a = complex(alpha @ H)
        val *= np.exp(1j * np.pi * a) - np.exp(-1j * np.pi * a)
    for alpha in rs.roots:
        e = np.exp(2j * np.pi * complex(alpha @ H))
        for n in range(1, nterms + 1):
            val *= 1 - q**n * e
    return val


def eta_direct(md, nterms=200):
    """Literal product evaluation of eta = q^{1/24} (q;q)_inf."""
    val = md.q ** (1 / 24.0)
    for n in range(1, nterms + 1):
        val *= 1 - md.q**n
    return val


def pi_value(rs, md, H):
    """Pi from the library's theta product and the literal eta:
    (-i)^{|Phi+|} eta^{l - |Phi+|} prod_{alpha>0} theta(alpha(H))."""
    npos = rs.n_positive
    product = weyl_kac_pi(rs, md, H).product.value
    return (-1j) ** npos * eta_direct(md) ** (rs.rank - npos) * product


DENOMINATOR_CASES = [(RS1, MD), (RS2, MD2), (RS3, MD), (RS2, MD3), (RS3, MD3)]


@pytest.mark.parametrize("rs,md", DENOMINATOR_CASES)
def test_denominator_value_vs_direct_product(rs, md):
    rng = np.random.default_rng(5)
    for H in sample_regular_cartan(rs, md, rng, 4):
        got = pi_value(rs, md, H)
        want = pi_direct(rs, md, H)
        assert abs(got - want) / abs(want) < 1e-12


def test_denominator_rank1_antisymmetry():
    H = np.array([0.23 + 0.11j])
    a = weyl_kac_pi(RS1, MD, H).product.value
    b = weyl_kac_pi(RS1, MD, -H).product.value
    assert abs(a + b) / abs(a) < 1e-12


def test_denominator_log_jets_vs_finite_differences():
    # the product's jet and the log-derivative jets d_r log Pi against
    # central differences of the product's and of d_r log Pi's values
    rng = np.random.default_rng(6)
    for rs, md in [(RS1, MD), (RS2, MD2)]:
        for H in sample_regular_cartan(rs, md, rng, 3):
            data = weyl_kac_pi(rs, md, H, order=2)
            p0 = data.product.value
            h = 1e-5
            for r in range(rs.rank):
                e = np.zeros(rs.rank)
                e[r] = 1.0
                plus = weyl_kac_pi(rs, md, H + h * e)
                minus = weyl_kac_pi(rs, md, H - h * e)
                pp, pm = plus.product.value, minus.product.value
                fd1 = (pp - pm) / (2 * h)
                fd2 = (pp - 2 * p0 + pm) / h**2
                em = tuple(1 if s == r else 0 for s in range(rs.rank))
                e2 = tuple(2 if s == r else 0 for s in range(rs.rank))
                assert abs(data.product.deriv(em) - fd1) < 1e-6 * max(1, abs(fd1))
                assert abs(data.product.deriv(e2) - fd2) < 1e-5 * max(1, abs(fd2))
                fd_log = fd1 / p0
                assert abs(data.d_log[r].value - fd_log) < 1e-6 * max(1, abs(fd_log))
                for s in range(rs.rank):
                    es = tuple(1 if i == s else 0 for i in range(rs.rank))
                    mixed = data.d_log[s].deriv(em)
                    fd = (plus.d_log[s].value - minus.d_log[s].value) / (2 * h)
                    assert abs(mixed - fd) < 1e-5 * max(1, abs(fd))
                    # d_r d_s log Pi is symmetric
                    assert abs(mixed - data.d_log[r].deriv(es)) < 1e-12 * max(1, abs(fd))


def test_denominator_tau_derivative_vs_finite_differences():
    # at rank 2 the eta^{l - |Phi+|} factor enters as well
    h = 1e-6
    for rs, md, H in [
        (RS1, MD, np.array([0.21 - 0.13j])),
        (RS2, MD2, np.array([0.21 - 0.13j, 0.05 + 0.17j])),
    ]:
        got = weyl_kac_pi(rs, md, H).dtau_log.value
        p0 = pi_value(rs, md, H)
        pp = pi_value(rs, ModularData(md.tau + h), H)
        pm = pi_value(rs, ModularData(md.tau - h), H)
        fd = (pp - pm) / (2 * h * p0)
        assert abs(got - fd) < 1e-6 * max(1, abs(fd))


def test_denominator_tau_derivative_jet_vs_finite_differences():
    # mixed d_tau d_xi derivative through the jet of dtau_log
    H = np.array([0.21 - 0.13j])
    h = 1e-5
    data = weyl_kac_pi(RS1, MD, H, order=1)
    got = data.dtau_log.deriv((1,))
    dp = weyl_kac_pi(RS1, MD, H + h).dtau_log.value
    dm = weyl_kac_pi(RS1, MD, H - h).dtau_log.value
    fd = (dp - dm) / (2 * h)
    assert abs(got - fd) < 1e-6 * max(1, abs(fd))


@pytest.mark.parametrize("rs,md", DENOMINATOR_CASES)
def test_denominator_heat_identity(rs, md):
    # (1/2) sum_r ((d_r log Pi)^2 + d_r^2 log Pi) = 2 pi i hvee d_tau log Pi
    rng = np.random.default_rng(7)
    for H in sample_regular_cartan(rs, md, rng, 4):
        data = weyl_kac_pi(rs, md, H, order=1)
        lhs = 0.0
        for r in range(rs.rank):
            em = tuple(1 if s == r else 0 for s in range(rs.rank))
            L = data.d_log[r].value
            lhs += 0.5 * (L**2 + data.d_log[r].deriv(em))
        rhs = 2j * np.pi * rs.dual_coxeter * data.dtau_log.value
        assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_denominator_small_q_degeneration():
    # as q -> 0 only the sine factors survive (up to q^{dim g/24})
    tau = complex(np.log(1e-10) / (2j * np.pi))
    md = ModularData(tau)
    H = np.array([0.31 + 0.07j])
    got = pi_value(RS1, md, H)
    a = complex(RS1.positive_roots[0] @ H)
    want = md.q ** (RS1.dim_g / 24.0) * (
        np.exp(1j * np.pi * a) - np.exp(-1j * np.pi * a)
    )
    assert abs(got - want) / abs(want) < 1e-9


def test_denominator_rejects_singular_points():
    # alpha(H) = 1 sits on the lattice
    H = np.array([1.0 / math.sqrt(2)])
    with pytest.raises(GaudinError, match="singular"):
        weyl_kac_pi(RS1, MD, H)


# ---------------------------------------------------------------------------
# hand-built rank-1 oracle for the transfer operator
# ---------------------------------------------------------------------------


def transfer_oracle_rank1(md, zs, H, u):
    """Coefficients of the two-site spin-1/2 transfer operator, built from
    scratch: hand-written module matrices, literal Kronecker products and
    direct lattice sums, restricted to the two zero-weight basis vectors
    (0,1) and (1,0) of the product basis."""
    E = np.array([[0, 1], [0, 0]], dtype=complex)
    F = np.array([[0, 0], [1, 0]], dtype=complex)
    Hm = np.array([[1, 0], [0, -1]], dtype=complex)
    h1 = Hm / math.sqrt(2)  # normalised so the trace form gives (h1|h1)=1
    sq2 = math.sqrt(2)
    xi = complex(H[0])
    c = sq2 * xi  # alpha(H)

    def star(x):
        return x.T

    def kron(i, mat):
        mats = [mat if i == 0 else np.eye(2), mat if i == 1 else np.eye(2)]
        return np.kron(mats[0], mats[1])

    zero = [1, 2]  # rows/cols of (0,1) and (1,0) in the product basis

    zeta = [zeta11_direct(z - u, md.tau) for z in zs]
    A = sum(zeta[i] * kron(i, star(h1)) for i in range(2))
    A0 = A[np.ix_(zero, zero)]

    W = np.zeros((4, 4), dtype=complex)
    for sgn, ep, em in [(+1, E, F), (-1, F, E)]:
        cc = sgn * c
        for i in range(2):
            wi = w_direct(cc, zs[i] - u, md.tau)
            for j in range(2):
                wj = w_direct(-cc, zs[j] - u, md.tau)
                W += 0.5 * wi * wj * (kron(j, star(em)) @ kron(i, star(ep)))
    W0 = W[np.ix_(zero, zero)]

    return {
        (2,): 0.5 * np.eye(2, dtype=complex),
        (1,): -A0,
        (0,): 0.5 * (A0 @ A0) + W0,
    }


def test_transfer_matches_hand_built_oracle():
    zs = [0.13, 0.41 + 0.2j]
    prob = fund_problem()
    rng = np.random.default_rng(8)
    us = sample_spectral_points(MD, zs, rng, 2)
    for H in sample_regular_cartan(RS1, MD, rng, 3):
        for u in us:
            got = prob.transfer([u], [H]).evaluate()
            want = transfer_oracle_rank1(MD, zs, H, u)
            assert set(got) == set(want)
            for m in want:
                scale = max(1.0, float(np.max(np.abs(want[m]))))
                assert np.max(np.abs(got[m] - want[m])) < 1e-10 * scale


def test_potential_jet_vs_finite_differences():
    prob = fund_problem()
    rng = np.random.default_rng(9)
    u = sample_spectral_points(MD, prob.positions, rng, 1)[0]
    for H in sample_regular_cartan(RS1, MD, rng, 3):
        jet = prob.potential_jet([H], [u], order=2)
        h = 1e-5
        vp = prob.potential_jet([H + h], [u]).value
        vm = prob.potential_jet([H - h], [u]).value
        fd1 = (vp - vm) / (2 * h)
        fd2 = (vp - 2 * jet.value + vm) / h**2
        s1 = max(1.0, float(np.max(np.abs(fd1))))
        s2 = max(1.0, float(np.max(np.abs(fd2))))
        assert np.max(np.abs(jet.deriv((1,)) - fd1)) < 1e-6 * s1
        assert np.max(np.abs(jet.deriv((2,)) - fd2)) < 1e-4 * s2


# irreducible sites by fundamental-weight labels; each weight sum lies in
# the root lattice
REFERENCE_CASES = {
    "a1_n2": (RS1, [[1], [1]]),
    "a1_n4": (RS1, [[1], [1], [1], [1]]),
    "a2_n2": (RS2, [[1, 0], [0, 1]]),
    "a2_n3": (RS2, [[1, 0], [1, 0], [1, 0]]),
    "a3_n2": (RS3, [[1, 0, 0], [0, 0, 1]]),
    "a3_n4": (RS3, [[0, 1, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]]),
}


@pytest.mark.parametrize("tau", [0.8j, 0.3 + 0.06j])
@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_potential_jet_matches_straight_line_reference(name, tau):
    rs, labels = REFERENCE_CASES[name]
    md = ModularData(tau)
    modules = [build_irrep(rs, rs.weight_from_fundamental(w)) for w in labels]
    cells = [(0.05, 0.1), (0.52, 0.31), (0.27, 0.66), (0.81, 0.45)]
    zs = [x + y * md.tau for x, y in cells[: len(modules)]]
    prob = GaudinProblem(rs, md, zs, modules)
    rng = np.random.default_rng(12)
    u = sample_spectral_points(md, zs, rng, 1)[0]
    H = sample_regular_cartan(rs, md, rng, 1)[0]
    for order in (0, 1, 2):
        got = prob.potential_jet([H], [u], order).coeffs[:, 0]
        want = potential_jet_reference(prob, H, u, order)
        assert got.shape == want.coeffs.shape
        scale = float(np.max(np.abs(want.coeffs)))
        assert float(np.max(np.abs(got - want.coeffs))) <= 1e-12 * scale


def test_potential_small_q_trigonometric_limit():
    # q -> 0: w_c(z) -> pi (cot(pi z) - cot(pi c)); rebuild the potential
    # from that formula and compare
    tau = complex(np.log(1e-10) / (2j * np.pi))
    md = ModularData(tau)
    zs = [0.13, 0.41 + 0.2j]
    prob = fund_problem(md=md, zs=zs)
    E = np.array([[0, 1], [0, 0]], dtype=complex)
    F = np.array([[0, 0], [1, 0]], dtype=complex)

    def wtrig(c, z):
        return np.pi * (1 / np.tan(np.pi * z) - 1 / np.tan(np.pi * c))

    def kron(i, mat):
        mats = [mat if i == 0 else np.eye(2), mat if i == 1 else np.eye(2)]
        return np.kron(mats[0], mats[1])

    rng = np.random.default_rng(10)
    # the trigonometric limit needs |Im(z-u)| and |Im alpha(H)| small
    # compared to Im tau, so keep u near the real axis
    u = 0.71 + 0.05j
    zero = [1, 2]
    for H in sample_regular_cartan(RS1, md, rng, 3, box=0.5):
        c = math.sqrt(2) * complex(H[0])
        W = np.zeros((4, 4), dtype=complex)
        for sgn, ep, em in [(+1, E, F), (-1, F, E)]:
            cc = sgn * c
            for i in range(2):
                for j in range(2):
                    W += (
                        0.5
                        * wtrig(cc, zs[i] - u)
                        * wtrig(-cc, zs[j] - u)
                        * (kron(j, em.T) @ kron(i, ep.T))
                    )
        want = W[np.ix_(zero, zero)]
        got = prob.potential_jet([H], [u]).value[0]
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) < 1e-6 * scale


# ---------------------------------------------------------------------------
# commuting family
# ---------------------------------------------------------------------------


def test_transfer_family_commutes_rank1():
    prob = fund_problem()
    rng = np.random.default_rng(11)
    us = sample_spectral_points(MD, prob.positions, rng, 2)
    hs = sample_regular_cartan(RS1, MD, rng, 3)
    res = commutativity_residual(prob, us[:1], us[1:], hs)
    assert res["max_rel"] < 1e-12


def test_transfer_family_commutes_rank2():
    mods = [
        build_irrep(RS2, RS2.weight_from_fundamental([1, 0])),
        build_irrep(RS2, RS2.weight_from_fundamental([0, 1])),
    ]
    prob = GaudinProblem(RS2, MD2, [0.05, 0.52 + 0.31j], mods)
    rng = np.random.default_rng(12)
    us = sample_spectral_points(MD2, prob.positions, rng, 2)
    hs = sample_regular_cartan(RS2, MD2, rng, 3)
    res = commutativity_residual(prob, us[:1], us[1:], hs)
    assert res["max_rel"] < 1e-12


def test_transfer_family_commutes_dual_verma_sites():
    c = 0.37 + 0.11j
    alpha = RS1.simple_roots[0]
    mods = [
        build_dual_verma(RS1, c * alpha, depth=4),
        build_dual_verma(RS1, (1 - c) * alpha, depth=4),
    ]
    prob = GaudinProblem(RS1, MD, [0.11, 0.43 + 0.27j], mods)
    rng = np.random.default_rng(13)
    us = sample_spectral_points(MD, prob.positions, rng, 2)
    hs = sample_regular_cartan(RS1, MD, rng, 2)
    res = commutativity_residual(prob, us[:1], us[1:], hs)
    assert res["max_rel"] < 1e-12


def _dense_commutator(parts1, parts2):
    """The values at H of the commutator of the two operators by generic
    composition, which has no batch axis: batched parts are composed entry
    by entry and the values stacked."""
    (v1, a1), (v2, a2) = parts1, parts2
    if a1.ndim == 2:
        return gaudin.transfer_operator(v1, a1).commutator(
            gaudin.transfer_operator(v2, a2)
        ).evaluate()
    entries = [
        _dense_commutator(
            (Jet(v1.nvars, v1.total, v1.coeffs[:, b]), a1[b]),
            (Jet(v2.nvars, v2.total, v2.coeffs[:, b]), a2[b]),
        )
        for b in range(len(a1))
    ]
    return {m: np.stack([values[m] for values in entries]) for m in entries[0]}


def _values_gap(parts1, parts2):
    """Largest entry gap between the closed-form commutator values and the
    dense commutator of the two operators, and the dense values.  The
    closed form leaves out the coefficients that vanish identically, so an
    absent key reads as zero."""
    dense = _dense_commutator(parts1, parts2)
    closed = gaudin.commutator_values(parts1, parts2)
    assert closed.keys() <= dense.keys()
    gap = max(np.max(np.abs(closed.get(m, 0.0) - dense[m])) for m in dense)
    return gap, dense


def random_parts(rng, nvars, dim, batch):
    """A random order-2 jet of V and random diagonals of A_r, with a batch
    axis of that length, or none for batch None."""
    lead = () if batch is None else (batch,)
    n = len(jet_indices(nvars, 2))
    v = rng.normal(size=(n,) + lead + (dim, dim, 2)) @ [1, 1j]
    a = rng.normal(size=lead + (dim, nvars, 2)) @ [1, 1j]
    return Jet(nvars, 2, v), a


@pytest.mark.parametrize("batch", [None, 3])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_closed_form_commutator_matches_composition(nvars, batch):
    # on random operators of the class (1/2) Delta - sum_r A_r d_r + V the
    # commutator is O(1), so the closed form is compared to the dense
    # Leibniz composition relative to the commutator's own size
    rng = np.random.default_rng(600 + 10 * nvars + (batch or 0))
    for dim in (1, 4):
        first, second = (random_parts(rng, nvars, dim, batch) for _ in range(2))
        gap, dense = _values_gap(first, second)
        size = max(np.max(np.abs(v)) for v in dense.values())
        assert size > 1.0
        assert gap <= 1e-13 * size
        if batch is not None:
            # the residual's scale is max_coeff_norm, also where 1/2 wins
            for v, a in (first, (Jet(nvars, 2, first[0].coeffs * 1e-3), first[1] * 1e-3)):
                want = gaudin.transfer_operator(v, a).max_coeff_norm()
                assert np.array_equal(gaudin._coeff_scale(v, a), want)
            assert np.all(want == 0.5)
        # [T, T] vanishes to the bit; NaN in A reaches every coefficient
        # formed, those of order 0 and 1
        same = gaudin.commutator_values(first, first)
        assert all(np.max(np.abs(v)) == 0.0 for v in same.values())
        nan = (first[0], first[1] * np.nan)
        values = gaudin.commutator_values(nan, second)
        assert {sum(m) for m in values} == {0, 1}
        assert all(np.isnan(v).all() for v in values.values())


def test_closed_form_commutator_needs_second_order_jets():
    rng = np.random.default_rng(610)
    zero, cartan = random_parts(rng, 2, 3, None)
    short = Jet(2, 1, zero.coeffs[:3])
    with pytest.raises(ValueError, match="second order"):
        gaudin.commutator_values((short, cartan), (zero, cartan))


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIGS.glob("*.ini")))
def test_closed_form_commutator_matches_composition_on_the_model(config):
    # on the model the commutator vanishes, so the gap is measured against
    # the product of the two operators' largest coefficients, the scale
    # of the commute records
    prob = load_config(str(CONFIGS / f"{config}.ini")).problem
    rng = np.random.default_rng(620)
    us = np.array(sample_spectral_points(prob.md, prob.positions, rng, 6))
    for H in sample_regular_cartan(prob.rs, prob.md, rng, 2):
        hs = [H] * 3
        first = prob.transfer_parts(us[0::2], hs, 2)
        second = prob.transfer_parts(us[1::2], hs, 2)
        scale = (prob.transfer(us[0::2], hs, 2).max_coeff_norm()
                 * prob.transfer(us[1::2], hs, 2).max_coeff_norm())
        assert np.array_equal(
            scale, gaudin._coeff_scale(*first) * gaudin._coeff_scale(*second)
        )
        gap, _ = _values_gap(first, second)
        assert gap <= 1e-13 * np.min(scale)


# ---------------------------------------------------------------------------
# batch axis over spectral parameters
# ---------------------------------------------------------------------------


def irrep_pair_problem(rank):
    rs, md = (RS1, MD) if rank == 1 else (RS2, MD2)
    mods = [
        build_irrep(rs, rs.fundamental_weights[0]),
        build_irrep(rs, rs.fundamental_weights[rank - 1]),
    ]
    return GaudinProblem(rs, md, [0.05, 0.52 + 0.31j], mods)


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("rank", [1, 2])
def test_batched_transfer_rows_match_scalar_calls(rank, order, batch):
    prob = irrep_pair_problem(rank)
    dim = prob.space.dim0
    rng = np.random.default_rng(90 + 10 * rank + batch)
    H = sample_regular_cartan(prob.rs, prob.md, rng, 1)[0]
    us = np.array(sample_spectral_points(prob.md, prob.positions, rng, batch))
    op = prob.transfer(us, [H] * batch, order)
    assert op.k == order
    for b, u in enumerate(us):
        one = gaudin._lane(prob.transfer_parts([u], [H], order), 0)
        assert one.coeffs.keys() == op.coeffs.keys()
        scale = max(np.max(np.abs(jet.coeffs)) for jet in one.coeffs.values())
        for m, jet in one.coeffs.items():
            want, got = jet.coeffs, op.coeffs[m].coeffs
            # only the potential varies with xi; the other coefficients are
            # constants, stored with length 1
            assert want.shape[1:] == (dim, dim)
            stored = 1 if sum(m) else len(jet_indices(prob.rs.rank, order))
            assert len(want) == len(got) == stored
            if sum(m) == 2:
                # the constant 0.5 * identity stays unbatched
                assert got.shape == want.shape
            else:
                assert got.shape == (len(want), batch, dim, dim)
                got = got[:, b]
            assert np.max(np.abs(got - want)) <= 1e-15 * scale


@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("rank", [1, 2])
def test_paired_transfer_parts_equal_per_point_calls(rank, order):
    # Cartan points paired with the spectral parameters, each repeated over
    # its own batch of u as the eigen check pairs them: every entry equals
    # the call at its point alone, to the bit
    prob = irrep_pair_problem(rank)
    rng = np.random.default_rng(97 + rank)
    hs = np.array(sample_regular_cartan(prob.rs, prob.md, rng, 3))
    us = np.array(sample_spectral_points(prob.md, prob.positions, rng, 6)).reshape(3, 2)
    zero, cartan = prob.transfer_parts(us.ravel(), np.repeat(hs, 2, axis=0), order)
    assert zero.coeffs.shape[1] == cartan.shape[0] == us.size
    # coefficient-major: each coefficient's lanes are one contiguous slab
    assert zero.coeffs.flags.c_contiguous
    for p, (H, row) in enumerate(zip(hs, us)):
        want_zero, want_cartan = prob.transfer_parts(row, [H, H], order)
        assert np.array_equal(zero.coeffs[:, 2 * p : 2 * p + 2], want_zero.coeffs)
        assert np.array_equal(cartan[2 * p : 2 * p + 2], want_cartan)
    with pytest.raises(GaudinError, match="differ in number"):
        prob.transfer_parts(us.ravel(), hs, order)


def test_paired_regularity_check_names_the_first_singular_point():
    # a stack of points is checked in order; the first singular one names
    # its root as a single point would
    simple = np.asarray(RS2.simple_roots, dtype=complex)
    good, bad, worse = (
        np.linalg.solve(simple, np.array(values, dtype=complex))
        for values in [(0.31 + 0.2j, 0.42 - 0.1j), (0.31 + 0.2j, 1.0), (0.8j, -0.8j)]
    )
    check_regular(RS2, MD, np.array([good, good]))
    with pytest.raises(GaudinError, match="root #1 takes"):
        check_regular(RS2, MD, np.array([good, bad, worse]))


@pytest.mark.parametrize("rank", [1, 2])
def test_paired_commutativity_residual_is_the_max_over_single_pairs(rank):
    prob = irrep_pair_problem(rank)
    rng = np.random.default_rng(95 + rank)
    hs = sample_regular_cartan(prob.rs, prob.md, rng, 2)
    us = np.array(sample_spectral_points(prob.md, prob.positions, rng, 6))
    got = commutativity_residual(prob, us[0::2], us[1::2], hs)
    singles = [
        commutativity_residual(prob, [u1], [u2], hs)
        for u1, u2 in zip(us[0::2], us[1::2])
    ]
    assert got["max_rel"] < 1e-12
    for key, value in got.items():
        if key == "per_pair":
            assert value.tolist() == [single["max_rel"] for single in singles]
        else:
            assert value == max(single[key] for single in singles)
    same = commutativity_residual(prob, us[:3], us[:3], hs)
    assert same["max_rel"] == 0.0
    with pytest.raises(GaudinError, match="differ in number"):
        commutativity_residual(prob, us[:2], us[:3], hs)


# every config whose zero-weight space has dim0 <= 60; the M = 10 and 12
# probes of tests/data have dim0 66 and 91
SMALL_COMMUTE_CONFIGS = [
    *sorted(CONFIGS.glob("*.ini")),
    CONFIGS.parent / "tests" / "data" / "a1_bethe_m4_seeds256.ini",
]


@pytest.mark.parametrize("one_per_pass", [False, True])
@pytest.mark.parametrize("path", SMALL_COMMUTE_CONFIGS, ids=lambda p: p.stem)
def test_batched_commutativity_residual_equals_per_point_reference(
    monkeypatch, path, one_per_pass
):
    # the commute stage's samples and call: every (Cartan point, pair)
    # entry matches the point-by-point loop to the bit, whether the
    # entries share one pass or take one pass each
    if one_per_pass:
        monkeypatch.setattr(gaudin, "_COMMUTE_PASS_BYTES", 1)
    runner = CheckRunner(load_config(str(path)), "commute-check", False)
    prob = runner.problem
    assert prob.space.dim0 <= 60
    hs = runner._cartan_points()
    us = runner._spectral_points(prob.positions, 2 * runner.cfg.sampling["pair_count"])
    got = commutativity_residual(prob, us[0::2], us[1::2], hs)
    want = commutativity_residual_reference(prob, us[0::2], us[1::2], hs)
    assert got["per_pair"].tolist() == want["per_pair"].tolist()
    assert got["max_rel"] == want["max_rel"]


@pytest.mark.parametrize(
    "values,first",
    [
        ((0.31 + 0.2j, 1.0), 1),  # alpha_2(H) = 1
        ((0.31 + 0.2j, 0.69 - 0.2j + 0.8j), 2),  # (alpha_1 + alpha_2)(H) = 1 + tau
        ((0.8j, -0.8j), 0),  # every root on the lattice
    ],
)
def test_regularity_check_names_the_first_singular_root(values, first):
    # the positive roots are alpha_1, alpha_2 and alpha_1 + alpha_2
    simple = np.asarray(RS2.simple_roots, dtype=complex)
    H = np.linalg.solve(simple, np.array(values, dtype=complex))
    with pytest.raises(GaudinError, match=f"root #{first} takes"):
        check_regular(RS2, MD, H[None])


# ---------------------------------------------------------------------------
# conjugated transfer operator
# ---------------------------------------------------------------------------


def tilde_problem(rank):
    """A two-site problem of the given rank, its curve and three regular
    Cartan points with a spectral parameter."""
    if rank == 1:
        prob, md = fund_problem(), MD
    else:
        rs = {2: RS2, 3: RS3}[rank]
        labels = [[1] + [0] * (rank - 1), [0] * (rank - 1) + [1]]
        mods = [build_irrep(rs, rs.weight_from_fundamental(w)) for w in labels]
        md = {2: MD2, 3: MD}[rank]
        prob = GaudinProblem(rs, md, [0.05, 0.52 + 0.31j], mods)
    rng = np.random.default_rng(15)
    u = sample_spectral_points(md, prob.positions, rng, 1)[0]
    return prob, u, sample_regular_cartan(prob.rs, md, rng, 3)


def route_gap(prob, u, H):
    """Largest coefficient difference of the two conjugated-operator
    routes, relative to the explicit route's largest coefficient."""
    va = prob.tilde_transfer(u, H, route="conjugation").evaluate()
    vb = prob.tilde_transfer(u, H, route="explicit").evaluate()
    scale = max(float(np.max(np.abs(v))) for v in vb.values())
    return max(
        float(np.max(np.abs(np.asarray(va.get(m, 0)) - np.asarray(vb.get(m, 0)))))
        for m in set(va) | set(vb)
    ) / scale


@pytest.mark.parametrize("builder", ["rank1", "rank2", "rank3"])
def test_tilde_routes_agree(builder):
    prob, u, hs = tilde_problem(int(builder[-1]))
    for H in hs:
        assert route_gap(prob, u, H) < 1e-10


@pytest.mark.parametrize("rank", [1, 2])
def test_tilde_routes_disagree_without_the_tau_term(monkeypatch, rank):
    # negative control: with d_tau log Pi zeroed the explicit route loses
    # its 2 pi i h_vee d_tau log Pi term, and the routes part
    original = gaudin.weyl_kac_pi

    def without_tau_term(*args):
        data = original(*args)
        zero = Jet(data.dtau_log.nvars, data.dtau_log.total, data.dtau_log.coeffs * 0.0)
        return data._replace(dtau_log=zero)

    monkeypatch.setattr(gaudin, "weyl_kac_pi", without_tau_term)
    prob, u, hs = tilde_problem(rank)
    for H in hs:
        assert route_gap(prob, u, H) > 0.1


def test_tilde_transfer_rejects_unknown_route():
    prob = fund_problem()
    with pytest.raises(GaudinError, match="route"):
        prob.tilde_transfer(0.7j, np.array([0.2 + 0.31j]), route="sideways")


# ---------------------------------------------------------------------------
# validation and sampling
# ---------------------------------------------------------------------------


def test_problem_requires_nontrivial_zero_weight_space():
    fund = build_irrep(RS1, RS1.fundamental_weights[0])
    with pytest.raises(GaudinError, match="zero-weight"):
        GaudinProblem(RS1, MD, [0.1], [fund])


def test_problem_validates_site_count():
    fund = build_irrep(RS1, RS1.fundamental_weights[0])
    with pytest.raises(GaudinError, match="position"):
        GaudinProblem(RS1, MD, [0.1], [fund, fund])


def test_check_regular_passes_generic_point():
    check_regular(RS1, MD, np.array([[0.2 + 0.31j]]))


def test_sampler_respects_guard():
    rng = np.random.default_rng(16)
    for H in sample_regular_cartan(RS1, MD, rng, 10, guard=0.05):
        check_regular(RS1, MD, [H], guard=0.05)
    zs = [0.13, 0.41 + 0.2j]
    for u in sample_spectral_points(MD, zs, rng, 10, guard=0.05):
        for z in zs:
            from ellgaudin.elliptic import nearest_lattice_point

            assert abs((z - u) - nearest_lattice_point(z - u, MD)) >= 0.05


def sampler_cases():
    """240 seeded sampler calls: three root systems and four curves, the
    thin one at 0.3+0.06i among them, counts 0 to 12, and guards from
    0.01 up to ones that reject most draws."""
    rng = np.random.default_rng(17)
    curves = [MD, MD2, MD3, ModularData(0.3 + 0.06j)]
    for case in range(240):
        rs = (RS1, RS2, RS3)[case % 3]
        md = curves[case % 4]
        nsites = 1 + case % 5
        zs = rng.uniform(0, 1, nsites) + rng.uniform(0, 1, nsites) * md.tau
        box = float(rng.uniform(0.2, 1.5))
        guard = float(rng.choice([0.01, 0.03, 0.05]))
        if case % 8 == 0:
            # rejects most draws: about 0.4 of the Cartan points and 0.2 of
            # the spectral points pass
            rs, md, box, guard = RS2, MD, 1.5, 0.25
            zs = rng.uniform(0, 1, 5) + rng.uniform(0, 1, 5) * md.tau
        yield case, rs, md, zs, int(rng.integers(0, 13)), box, guard


def test_samplers_equal_draw_by_draw_loops_to_the_bit():
    # one lattice_distance call per round of draws leaves every draw, every
    # accept or reject decision and the stream after it as they were
    from oracles import sample_regular_cartan_per_draw, sample_spectral_points_per_draw

    rejected = 0
    for case, rs, md, zs, count, box, guard in sampler_cases():
        batched, looped = np.random.default_rng(case), np.random.default_rng(case)
        hs = sample_regular_cartan(rs, md, batched, count, box, guard)
        want = sample_regular_cartan_per_draw(rs, md, looped, count, box, guard)
        assert len(hs) == len(want) == count
        assert all(np.array_equal(h, w) for h, w in zip(hs, want))
        assert batched.bit_generator.state == looped.bit_generator.state
        us = sample_spectral_points(md, zs, batched, count, guard)
        want = sample_spectral_points_per_draw(md, zs, looped, count, guard)
        assert [complex(u) for u in us] == want
        assert batched.bit_generator.state == looped.bit_generator.state
        # draws the loop rejected show as a stream advanced past count draws
        probe = np.random.default_rng(case)
        sample_regular_cartan_per_draw(rs, md, probe, count, box, guard)
        sample_spectral_points_per_draw(md, zs, probe, count, guard)
        fresh = np.random.default_rng(case)
        fresh.uniform(size=2 * count * rs.rank + 2 * count)
        rejected += probe.bit_generator.state != fresh.bit_generator.state
    assert rejected >= 30


def test_samplers_give_up_after_as_many_draws_as_the_loop():
    from oracles import sample_regular_cartan_per_draw, sample_spectral_points_per_draw

    zs = [0.13, 0.41 + 0.2j]
    calls = [
        (sample_regular_cartan, sample_regular_cartan_per_draw, (RS2, MD), dict(box=0.8, guard=5.0)),
        (sample_spectral_points, sample_spectral_points_per_draw, (MD, zs), dict(guard=5.0)),
    ]
    for batched_call, looped_call, head, kwargs in calls:
        for count in (1, 3):
            batched, looped = np.random.default_rng(9), np.random.default_rng(9)
            with pytest.raises(GaudinError) as got:
                batched_call(*head, batched, count, **kwargs)
            with pytest.raises(GaudinError) as want:
                looped_call(*head, looped, count, **kwargs)
            assert str(got.value) == str(want.value)
            assert f"in {gaudin._MAX_TRIES} draws" in str(got.value)
            assert batched.bit_generator.state == looped.bit_generator.state


# ---------------------------------------------------------------------------
# site operators against the dense tensor-product reference
# ---------------------------------------------------------------------------


def _dv(rs, fund, depth):
    return build_dual_verma(rs, rs.weight_from_fundamental(fund), depth)


def _irrep(rs, fund):
    return build_irrep(rs, rs.weight_from_fundamental(fund))


SITE_OPERATOR_CASES = {
    "a1_irrep_dv_dv": lambda: [
        _irrep(RS1, [1]), _dv(RS1, [1.3 + 0.2j], 3), _dv(RS1, [1.7 - 0.2j], 3)
    ],
    "a1_n3_m3": lambda: [
        _dv(RS1, [1.9 + 0.1j], 4), _dv(RS1, [2.2 - 0.3j], 4),
        _dv(RS1, [1.9 + 0.2j], 4),
    ],
    "a2_dv_dv_m2": lambda: [
        _dv(RS2, [0.74 + 0.22j, 0.31 - 0.1j], 4),
        _dv(RS2, [0.26 - 0.22j, 0.69 + 0.1j], 4),
    ],
    "a2_irrep_dv_dv_m1": lambda: [
        _irrep(RS2, [1, 0]), _dv(RS2, [0.6 + 0.3j, -0.2 - 0.1j], 3),
        _dv(RS2, [0.4 - 0.3j, -0.8 + 0.1j], 3),
    ],
    "a2_3_3bar_adj": lambda: [
        _irrep(RS2, [1, 0]), _irrep(RS2, [0, 1]), _irrep(RS2, [1, 1])
    ],
    "a3_irrep_dv": lambda: [_irrep(RS3, [1, 0, 0]), _dv(RS3, [1, -1, 0], 4)],
}


@pytest.mark.parametrize("name", sorted(SITE_OPERATOR_CASES))
def test_site_operators_match_dense_reference(name):
    # h_r^(i), held as the site weights at the zero-weight tuples, and
    # e_{-a}^(j) e_a^(i) built on the zero-weight space agree with the
    # Kronecker products on the full space, restricted afterwards
    modules = SITE_OPERATOR_CASES[name]()
    rs = modules[0].rs
    zs = [0.11, 0.43 + 0.27j, 0.74 + 0.58j][: len(modules)]
    prob = GaudinProblem(rs, MD, zs, modules)
    space = prob.space
    assert space.dim0 > 0
    nsites = len(modules)
    for i in range(nsites):
        for r in range(rs.rank):
            ref = space.restrict_zero(
                space.op_full(i, modules[i].dual_matrix(rs.h_ortho[r]))
            )
            hstar = np.diag(prob._site_weights[i, :, r])
            assert np.max(np.abs(hstar - ref)) <= 1e-14

    def pair_ref(i, j, k):
        e_plus = rs.root_vectors[k]
        e_minus = rs.root_vectors[rs.negative_of(k)]
        return space.restrict_zero(
            space.op_full(j, modules[j].dual_matrix(e_minus))
            @ space.op_full(i, modules[i].dual_matrix(e_plus))
        )

    # one stack per positive root, carrying the negative root's term with
    # the sites swapped
    assert len(prob._pair) == rs.n_positive
    for k, stack in enumerate(prob._pair):
        assert stack.shape == (nsites, nsites, space.dim0, space.dim0)
        for i in range(nsites):
            for j in range(nsites):
                ref = pair_ref(i, j, k) + pair_ref(j, i, rs.negative_of(k))
                assert np.max(np.abs(stack[i, j] - ref)) <= 1e-14


PAIR_STACK_CONFIGS = [
    *sorted(CONFIGS.glob("*.ini")),
    *sorted((CONFIGS.parent / "tests" / "data").glob("*.ini")),
]


@pytest.mark.parametrize(
    "path", [*PAIR_STACK_CONFIGS, None], ids=lambda p: p.stem if p else "a3_100_001"
)
def test_pair_stack_equals_the_two_pass_build_bit_for_bit(path):
    # one pass per positive root, doubling the product across two sites
    # and taking the anticommutator on one, gives every bit of the
    # two-pass build, signed zeros included; None is the rank-3 irrep
    # pair (1,0,0) x (0,0,1)
    if path is None:
        prob = GaudinProblem(
            RS3, MD, [0.11, 0.43 + 0.27j], [_irrep(RS3, [1, 0, 0]), _irrep(RS3, [0, 0, 1])]
        )
    else:
        prob = load_config(str(path)).problem
    got, want = prob._pair, pair_stack_two_pass(prob)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_dual_verma_depth_below_m_plus_highest_root_refused():
    # rank 2, M = 2: a pair term reaches height 4 on one site
    weights = ([0.74 + 0.22j, 0.31 - 0.1j], [0.26 - 0.22j, 0.69 + 0.1j])
    shallow = [_dv(RS2, w, 3) for w in weights]
    with pytest.raises(GaudinError, match=r"M \+ ht\(theta\) = 4"):
        GaudinProblem(RS2, MD, [0.11, 0.43 + 0.27j], shallow)
    deep = [_dv(RS2, w, 4) for w in weights]
    assert GaudinProblem(RS2, MD, [0.11, 0.43 + 0.27j], deep).space.dim0 == 6
