"""Tests for the matrix-jet differential-operator calculus.

Oracles: exponential-type functions exp(a.xi) M have closed-form jets and
closed-form images under coefficient * d^beta operators, so application
and composition can be checked exactly; finite differences provide an
independent cross-check for first-order actions, and the straight-line
dict-jet composition of ``tests/oracles.py`` a term-by-term one.
Operators hold their coefficient jets at one base point H, so every
oracle jet is built there.
"""

import math

import numpy as np
import pytest

from ellgaudin.diffop import DiffOperator, MAX_TOTAL_ORDER
from ellgaudin.elliptic import Jet, array_jet_product, derivative_table, jet_indices

RNG = np.random.default_rng(20240817)


def rand_matrix(dim):
    return RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))


def rand_vector(dim):
    return RNG.normal(size=dim) + 1j * RNG.normal(size=dim)


def exp_jet(a, mat, H, order):
    """Jet at H of exp(a.xi) * mat to total order ``order``, exact."""
    a = np.asarray(a, dtype=complex)
    mat = np.asarray(mat, dtype=complex)
    H = np.asarray(H, dtype=complex)
    val = np.exp(a @ H)
    coeffs = []
    for m in jet_indices(len(a), order):
        c = val
        for ai, mi in zip(a, m):
            c *= ai**mi / math.factorial(mi)
        coeffs.append(c * mat)
    return Jet(len(a), order, coeffs)


def constant(mat, nvars, order):
    """A constant jet, stored with length 1."""
    return Jet(nvars, order, [mat])


def exp_apply(a, mat, beta, b, vec, H):
    """Value of (exp(a.xi) mat d^beta) exp(b.xi) vec at H, closed form."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    H = np.asarray(H, dtype=complex)
    scale = np.exp(a @ H) * np.exp(b @ H)
    for bi, k in zip(b, beta):
        scale *= bi**k
    return scale * (np.asarray(mat) @ np.asarray(vec))


# ---------------------------------------------------------------------------
# Matrix-valued jets
# ---------------------------------------------------------------------------


def test_matrix_jet_constant_and_value():
    m = rand_matrix(3)
    jet = constant(m, 2, 2)
    assert np.allclose(jet.value, m)
    assert jet.value.shape == (3, 3)
    # beyond its stored prefix a jet reads zeros of its value's shape
    for mm in jet_indices(2, 2)[1:]:
        assert jet.coeff(mm).shape == (3, 3)
        assert not np.any(jet.coeff(mm))
    assert not np.any(jet.deriv((0, 2)))


def test_matrix_jet_empty_shift_is_zero():
    # composing after d_1 skips the derivative of a constant coefficient:
    # the composition keeps only the term that carries d_1 on
    m = rand_matrix(2)
    d1 = DiffOperator(2, 2, {(1, 0): constant(np.eye(2), 2, 2)})
    mul = DiffOperator(2, 2, {(0, 0): constant(m, 2, 2)})
    comp = d1.compose(mul)
    assert set(comp.coeffs) == {(1, 0)}
    assert comp.coeffs[(1, 0)].coeffs.shape == (1, 2, 2)
    assert np.array_equal(comp.coeffs[(1, 0)].value, m)


def test_matrix_jet_product_is_noncommutative_convolution():
    H = np.array([0.2, -0.4])
    ja = exp_jet([0.3, -0.2], rand_matrix(2), H, 2)
    jb = exp_jet([0.1, 0.7], rand_matrix(2), H, 2)

    def product(a, b):
        return Jet(2, 2, array_jet_product(a.coeffs, b.coeffs, 2, 2, np.matmul))

    prod = product(ja, jb)
    # value and first derivatives follow the Leibniz rule
    assert np.allclose(prod.value, ja.value @ jb.value)
    for r in range(2):
        e = tuple(1 if i == r else 0 for i in range(2))
        expect = ja.deriv(e) @ jb.value + ja.value @ jb.deriv(e)
        assert np.allclose(prod.deriv(e), expect)
    # matrix factors do not commute
    anti = product(jb, ja)
    assert not np.allclose(prod.value, anti.value)


def test_matrix_jet_shift_matches_analytic_derivative():
    a = np.array([0.4 + 0.1j, -0.3 + 0.2j])
    mat = rand_matrix(2)
    H = np.array([0.1, 0.3])
    jet = exp_jet(a, mat, H, 3)
    # the jet of d^(1,1) f to order 1, gathered off f's jet to order 3
    at, weight = derivative_table(2, (1, 1), 1)
    shifted = Jet(2, 1, jet.coeffs[at] * weight[:, None, None])
    # d^2/dxi1 dxi2 exp(a.xi) mat = a1 a2 exp(a.H) mat
    expect = a[0] * a[1] * np.exp(a @ H) * mat
    assert np.allclose(shifted.value, expect)
    # remaining first derivative of the shifted jet
    expect1 = a[0] ** 2 * a[1] * np.exp(a @ H) * mat
    assert np.allclose(shifted.deriv((1, 0)), expect1)


def test_matrix_jet_from_scalar():
    # a scalar jet times a constant matrix scales every coefficient
    nvars, total = 2, 2
    values = {(0, 0): 1.5, (1, 0): 2.0, (0, 2): -1.0}
    s = Jet(nvars, total, [values.get(m, 0.0) for m in jet_indices(nvars, total)])
    m = rand_matrix(2)
    jet = Jet(nvars, total, array_jet_product(s.coeffs[:, None, None], m[None], nvars, total))
    assert np.allclose(jet.value, 1.5 * m)
    assert np.allclose(jet.coeff((1, 0)), 2.0 * m)
    assert np.allclose(jet.coeff((0, 2)), -1.0 * m)
    assert np.allclose(jet.coeff((1, 1)), 0)


# ---------------------------------------------------------------------------
# DiffOperator application
# ---------------------------------------------------------------------------


def test_apply_zeroth_order_multiplication():
    dim, nvars = 3, 2
    mat = rand_matrix(dim)
    a = np.array([0.2, -0.5])
    b = np.array([0.3, 0.1])
    vec = rand_vector(dim)
    H = np.array([0.7, -0.2])
    op = DiffOperator(nvars, dim, {(0, 0): exp_jet(a, mat, H, 0)})
    got = op.apply(exp_jet(b, vec, H, 0))
    expect = exp_apply(a, mat, (0, 0), b, vec, H)
    assert np.allclose(got, expect)


def test_apply_matches_finite_difference_gradient():
    dim, nvars = 2, 2
    mat = rand_matrix(dim)
    vec = rand_vector(dim)
    a = np.array([0.15, -0.4])
    b = np.array([-0.2, 0.55])
    H = np.array([0.3, 0.2])
    op = DiffOperator(nvars, dim, {(1, 0): exp_jet(a, mat, H, 0)})
    got = op.apply(exp_jet(b, vec, H, 1))

    def pointwise(x):
        return np.exp(b @ x) * vec

    h = 1e-6
    Hp = H.copy().astype(complex)
    Hm = H.copy().astype(complex)
    Hp[0] += h
    Hm[0] -= h
    fd = (pointwise(Hp) - pointwise(Hm)) / (2 * h)
    expect = np.exp(a @ H) * mat @ fd
    assert np.max(np.abs(got - expect)) < 1e-7


def test_apply_second_order_closed_form():
    dim, nvars = 2, 3
    mat = rand_matrix(dim)
    vec = rand_vector(dim)
    a = np.array([0.1, 0.2, -0.3])
    b = np.array([0.4, -0.1, 0.25])
    beta = (1, 0, 1)
    H = np.array([0.0, 0.5, -0.2])
    op = DiffOperator(nvars, dim, {beta: exp_jet(a, mat, H, 0)})
    got = op.apply(exp_jet(b, vec, H, 2))
    expect = exp_apply(a, mat, beta, b, vec, H)
    assert np.allclose(got, expect)


def test_apply_needs_the_operator_order():
    dim, nvars = 2, 1
    H = np.array([0.1])
    op = DiffOperator(nvars, dim, {(2,): constant(np.eye(dim), nvars, 0)})
    with pytest.raises(ValueError, match="order"):
        op.apply(exp_jet([0.3], rand_vector(dim), H, 1))


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def test_compose_matches_sequential_application():
    dim, nvars = 2, 2
    m1, m2 = rand_matrix(dim), rand_matrix(dim)
    a1 = np.array([0.3, -0.1])
    a2 = np.array([-0.2, 0.4])
    b = np.array([0.15, 0.25])
    vec = rand_vector(dim)
    beta1, beta2 = (1, 0), (0, 1)
    H = np.array([0.6, -0.3])
    op1 = DiffOperator(nvars, dim, {beta1: exp_jet(a1, m1, H, 0)})
    op2 = DiffOperator(nvars, dim, {beta2: exp_jet(a2, m2, H, 1)})
    comp = op1.compose(op2)
    got = comp.apply(exp_jet(b, vec, H, 2))
    # op2 f = exp((a2+b).xi) * b_2 * m2 vec, then apply op1 in closed form
    inner_vec = b[1] * (m2 @ vec)
    expect = exp_apply(a1, m1, beta1, a2 + b, inner_vec, H)
    assert np.allclose(got, expect)


def test_compose_derivative_of_coefficient():
    # d_1 (coeff(xi) f) needs the coefficient's own derivative; check the
    # mixed term survives with the right weight.
    dim, nvars = 2, 1
    mat = rand_matrix(dim)
    a = np.array([0.8])
    b = np.array([-0.3])
    vec = rand_vector(dim)
    H = np.array([0.2])
    dop = DiffOperator(nvars, dim, {(1,): constant(np.eye(dim), nvars, 0)})
    mul = DiffOperator(nvars, dim, {(0,): exp_jet(a, mat, H, 1)})
    comp = dop.compose(mul)
    got = comp.apply(exp_jet(b, vec, H, 1))
    expect = (a[0] + b[0]) * np.exp((a + b) @ H) * (mat @ vec)
    assert np.allclose(got, expect)


def test_compose_jets_match_closed_form():
    # exp(a1.xi) m1 d^beta o exp(a2.xi) m2 d^gamma has coefficient
    # binom(beta, delta) a2^delta exp((a1+a2).xi) m1 m2 at beta-delta+gamma;
    # the composed jets carry order min(k1, k2 - |beta|) and agree with the
    # closed form at every retained degree
    dim, nvars = 2, 2
    m1, m2 = rand_matrix(dim), rand_matrix(dim)
    a1 = np.array([0.3 + 0.1j, -0.2])
    a2 = np.array([-0.4, 0.25 - 0.2j])
    beta, gamma = (2, 0), (0, 1)
    H = np.array([0.1 - 0.2j, 0.35])
    for k1, k2, k in [(3, 4, 2), (1, 4, 1), (3, 2, 0)]:
        op1 = DiffOperator(nvars, dim, {beta: exp_jet(a1, m1, H, k1)})
        op2 = DiffOperator(nvars, dim, {gamma: exp_jet(a2, m2, H, k2)})
        comp = op1.compose(op2)
        assert comp.k == k
        assert set(comp.coeffs) == {(2, 1), (1, 1), (0, 1)}
        for delta in [(0, 0), (1, 0), (2, 0)]:
            mu = (2 - delta[0], 1)
            scale = math.comb(2, delta[0]) * a2[0] ** delta[0]
            want = exp_jet(a1 + a2, scale * (m1 @ m2), H, k)
            got = comp.coeffs[mu]
            assert (got.nvars, got.total) == (2, k)
            for m in jet_indices(2, k):
                assert np.allclose(got.coeff(m), want.coeff(m), atol=1e-13)


def test_compose_needs_enough_jet_orders():
    dim, nvars = 2, 1
    H = np.array([0.3])
    second = DiffOperator(nvars, dim, {(2,): constant(np.eye(dim), nvars, 0)})
    mul = DiffOperator(nvars, dim, {(0,): exp_jet([0.5], rand_matrix(dim), H, 1)})
    with pytest.raises(ValueError, match="differentiated"):
        second.compose(mul)


def test_compose_associative():
    dim, nvars = 2, 2
    H = np.array([0.1, -0.7])
    ops = []
    for beta in [(1, 0), (0, 1), (0, 0)]:
        a = RNG.normal(size=nvars) * 0.4
        jet = exp_jet(a, rand_matrix(dim), H, 2)
        ops.append(DiffOperator(nvars, dim, {beta: jet}))
    lhs = ops[0].compose(ops[1]).compose(ops[2])
    rhs = ops[0].compose(ops[1].compose(ops[2]))
    va, vb = lhs.evaluate(), rhs.evaluate()
    keys = set(va) | set(vb)
    for k in keys:
        x = va.get(k, np.zeros((dim, dim)))
        y = vb.get(k, np.zeros((dim, dim)))
        assert np.max(np.abs(x - y)) < 1e-12


def test_canonical_commutator_is_identity():
    # [d_r, xi_r .] = 1
    dim, nvars = 3, 2
    r = 1
    H = np.array([0.4, -0.9])
    e_r = tuple(1 if i == r else 0 for i in range(nvars))
    # xi_r = H_r + (xi_r - H_r), its jet at H to order 1
    coordinate = Jet(nvars, 1, [np.eye(dim) * (m == e_r) for m in jet_indices(nvars, 1)])
    coordinate.coeffs[0] = np.eye(dim) * H[r]
    dop = DiffOperator(nvars, dim, {e_r: constant(np.eye(dim), nvars, 1)})
    xop = DiffOperator(nvars, dim, {(0,) * nvars: coordinate})
    comm = dop.commutator(xop)
    vals = comm.evaluate()
    assert np.allclose(vals[(0, 0)], np.eye(dim))
    for m, v in vals.items():
        if m != (0, 0):
            assert np.max(np.abs(v)) < 1e-14


def test_commutator_jacobi_identity():
    dim, nvars = 2, 2
    H = np.array([-0.2, 0.35])
    ops = []
    for beta in [(1, 0), (0, 1), (1, 0)]:
        a = RNG.normal(size=nvars) * 0.3
        jet = exp_jet(a, rand_matrix(dim), H, 2)
        ops.append(DiffOperator(nvars, dim, {beta: jet}))
    A, B, C = ops
    total = (
        A.commutator(B).commutator(C)
        + B.commutator(C).commutator(A)
        + C.commutator(A).commutator(B)
    )
    scale = max(op.max_coeff_norm() for op in ops) ** 3
    for v in total.evaluate().values():
        assert np.max(np.abs(v)) < 1e-12 * max(scale, 1.0)


def test_sum_keeps_the_lower_jet_order():
    dim, nvars = 2, 1
    H = np.array([0.2])
    a, b = rand_matrix(dim), rand_matrix(dim)
    op1 = DiffOperator(nvars, dim, {(1,): exp_jet([0.4], a, H, 3)})
    op2 = DiffOperator(nvars, dim, {(1,): exp_jet([-0.7], b, H, 1)})
    total = op1 + op2
    assert total.k == 1
    want = exp_jet([0.4], a, H, 1).coeffs + exp_jet([-0.7], b, H, 1).coeffs
    assert np.allclose(total.coeffs[(1,)].coeffs, want)
    # a constant coefficient reads as zero beyond its stored value
    total = op1 + DiffOperator(nvars, dim, {(1,): constant(b, nvars, 3)})
    assert total.k == 3
    want = exp_jet([0.4], a, H, 3).coeffs
    want[0] += b
    assert np.array_equal(total.coeffs[(1,)].coeffs, want)


def test_coefficient_jets_share_one_order():
    dim, nvars = 2, 1
    coeffs = {
        (1,): constant(np.eye(dim), nvars, 1),
        (0,): constant(np.eye(dim), nvars, 0),
    }
    with pytest.raises(ValueError, match="one order"):
        DiffOperator(nvars, dim, coeffs)


def test_compose_order_cap():
    dim, nvars = 2, 1
    second = DiffOperator(nvars, dim, {(2,): constant(np.eye(dim), nvars, 3)})
    third = DiffOperator(nvars, dim, {(3,): constant(np.eye(dim), nvars, 3)})
    with pytest.raises(ValueError, match="exceeds"):
        second.compose(third)
    assert second.order + third.order > MAX_TOTAL_ORDER


def test_second_order_commutator_top_terms_cancel():
    # two pure second-order operators with scalar (identity) coefficients
    # commute exactly; the implementation must produce explicit zeros
    dim, nvars = 2, 2
    H = np.array([0.25, 0.4])
    f1 = exp_jet([0.3, -0.2], np.eye(dim), H, 2)
    f2 = exp_jet([-0.1, 0.5], np.eye(dim), H, 2)
    op1 = DiffOperator(nvars, dim, {(2, 0): f1})
    op2 = DiffOperator(nvars, dim, {(0, 2): f2})
    comm = op1.commutator(op2)
    vals = comm.evaluate()
    for m, v in vals.items():
        if sum(m) == 4:
            # top-degree coefficients are identical sums and cancel exactly
            assert np.max(np.abs(v)) == 0.0


# ---------------------------------------------------------------------------
# Composition against the straight-line reference.
# ---------------------------------------------------------------------------


def random_coefficient(rng, dim, kind):
    """A random matrix, a random multiple of the identity, or (sometimes)
    zero.

    The kind "mixed" picks a matrix or a multiple of the identity per
    coefficient.  The kind "batched" gives a stack of three matrices,
    shape (3, dim, dim)."""
    if kind == "mixed":
        kind = ("scalar", "matrix")[rng.integers(2)]
    shape = (3, dim, dim) if kind == "batched" else (dim, dim)
    if rng.random() < 0.1:
        return np.zeros(shape)
    if kind == "scalar":
        return complex(rng.normal(), rng.normal()) * np.eye(dim)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_operator(rng, nvars, dim, order, k, kind):
    """Operator of the given order with coefficient jets of order k.

    About a third of the derivative multi-indices below the top one are
    left out, and about a third of every jet's coefficients are zero.
    About a quarter of the jets are constants, stored with length 1.  With
    the kind "batched", every jet is batched or unbatched at random, so
    the two meet in sums and products.
    """
    betas = [m for m in jet_indices(nvars, order)]
    top = [m for m in betas if sum(m) == order]
    keep = {top[rng.integers(len(top))]}
    keep |= {m for m in betas if rng.random() < 2 / 3}
    coeffs = {}
    for beta in sorted(keep):
        jet_kind = kind
        if kind == "batched":
            jet_kind = ("batched", "matrix")[rng.integers(2)]
        count = 1 if rng.random() < 0.25 else len(jet_indices(nvars, k))
        jet = [
            random_coefficient(rng, dim, jet_kind) * (rng.random() < 2 / 3)
            for _ in range(count)
        ]
        coeffs[beta] = Jet(nvars, k, jet)
    return DiffOperator(nvars, dim, coeffs)


def coefficient_values(op, nvars, k):
    """Every coefficient of every jet of op, with zeros where a coefficient
    or a jet entry is not stored."""
    return {
        (mu, m): op.coeffs[mu].coeff(m) for mu in op.coeffs for m in jet_indices(nvars, k)
    }


@pytest.mark.parametrize("kind", ["scalar", "matrix", "mixed"])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_compose_matches_straight_line_reference(nvars, kind):
    from oracles import compose_reference

    rng = np.random.default_rng(70 + 3 * nvars + len(kind))
    dim = 2
    for p in range(MAX_TOTAL_ORDER + 1):
        for q in range(MAX_TOTAL_ORDER + 1 - p):
            for k in range(4):
                # the result carries order min(left.k, right.k - p) = k
                extra = int(rng.integers(2))
                left_k, right_k = (k, p + k + extra) if rng.integers(2) else (
                    k + extra, p + k
                )
                left = random_operator(rng, nvars, dim, p, left_k, kind)
                right = random_operator(rng, nvars, dim, q, right_k, kind)
                got = left.compose(right)
                want = compose_reference(left, right)
                assert got.k == want.k == k
                # a term that vanishes because it differentiates a constant
                # is skipped, so got may lack a coefficient that is zero
                assert set(got.coeffs) <= set(want.coeffs)
                for jet in got.coeffs.values():
                    assert jet.nvars == nvars and jet.total == k
                mine = coefficient_values(got, nvars, k)
                theirs = coefficient_values(want, nvars, k)
                scale = max(float(np.max(np.abs(c))) for c in theirs.values())
                for key, value in theirs.items():
                    err = float(np.max(np.abs(mine.get(key, 0) - value)))
                    assert err <= 1e-13 * scale


@pytest.mark.parametrize("kind", ["scalar", "matrix", "mixed"])
@pytest.mark.parametrize("nvars", [1, 2])
def test_commutator_equals_difference_of_compositions(nvars, kind):
    # the commutator subtracts the two compositions' coefficient arrays;
    # negation is exact, so it must give the values of compose(a, b) -
    # compose(b, a) to the bit, also when the two compositions carry
    # different jet orders
    rng = np.random.default_rng(90 + nvars + len(kind))
    for p, q, left_k, right_k in [
        (2, 2, 2, 2), (1, 2, 2, 2), (2, 1, 3, 2), (0, 2, 2, 1), (1, 1, 1, 3),
    ]:
        a = random_operator(rng, nvars, 2, p, left_k, kind)
        b = random_operator(rng, nvars, 2, q, right_k, kind)
        before = [{m: np.copy(jet.coeffs) for m, jet in op.coeffs.items()} for op in (a, b)]
        got = a.commutator(b)
        ab, ba = a.compose(b), b.compose(a)
        k = min(ab.k, ba.k)
        assert got.k == k
        assert got.coeffs.keys() == ab.coeffs.keys() | ba.coeffs.keys()
        mine = coefficient_values(got, nvars, k)
        first = coefficient_values(ab, nvars, k)
        second = coefficient_values(ba, nvars, k)
        for key, value in mine.items():
            want = first.get(key, 0) - second.get(key, 0)
            assert np.array_equal(value, np.broadcast_to(want, value.shape))
        # the operators themselves are left as they were
        for op, saved in zip((a, b), before):
            assert op.coeffs.keys() == saved.keys()
            assert all(np.array_equal(op.coeffs[m].coeffs, saved[m]) for m in saved)


@pytest.mark.parametrize("dim", [1, 4])
@pytest.mark.parametrize("nvars", [1, 2])
def test_batched_apply_equals_apply_per_entry(nvars, dim):
    # a function jet batched like the operator, (n, B, dim), gives one row
    # per entry, each to the bit what the entry's operator gives alone
    rng = np.random.default_rng(700 + 10 * nvars + dim)
    n = len(jet_indices(nvars, 2))
    for _ in range(4):
        op = random_operator(rng, nvars, dim, 2, 1, "batched")
        fjet = Jet(nvars, 2, rng.normal(size=(n, 3, dim, 2)) @ [1, 1j])
        got = op.apply(fjet)
        assert got.shape == (3, dim)
        for b in range(3):
            entry = DiffOperator(nvars, dim, {
                m: Jet(nvars, 1, jet.coeffs[:, b] if jet.coeffs.ndim == 4 else jet.coeffs)
                for m, jet in op.coeffs.items()
            })
            alone = entry.apply(Jet(nvars, 2, fjet.coeffs[:, b]))
            assert np.array_equal(got[b], alone)


def test_compose_refuses_batched_coefficients():
    # composition has no batch axis; a batched coefficient on either side
    # is refused rather than broadcast against the monomial axis
    rng = np.random.default_rng(710)
    plain = random_operator(rng, 1, 2, 1, 2, "matrix")
    stack = Jet(1, 2, [random_coefficient(rng, 2, "batched")])
    batched = DiffOperator(1, 2, {(1,): stack, (0,): plain.coeffs[(1,)]})
    for left, right in ((batched, plain), (plain, batched)):
        with pytest.raises(ValueError, match="unbatched"):
            left.compose(right)
        with pytest.raises(ValueError, match="unbatched"):
            left.commutator(right)
