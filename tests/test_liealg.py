"""Tests for root systems, irreps, dual Vermas, and zero-weight spaces."""

import functools
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from ellgaudin import liealg
from ellgaudin.cli import load_config
from ellgaudin.liealg import (
    LieAlgebraError,
    RepresentedModule,
    TensorSpace,
    build_dual_verma,
    build_irrep,
    build_root_system,
    min_dual_verma_depth,
    module_lowering,
    normalized_form,
    root_budget,
)

from oracles import (
    cartan_matrix,
    casimir_scalar,
    dual_action,
    freudenthal_multiplicities,
    normalized_form_direct,
    weight_from_simple_roots,
    weyl_dimension,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)


def maxabs(m):
    return float(np.max(np.abs(m)))


# ---------------------------------------------------------------------------
# Root system data.
# ---------------------------------------------------------------------------


def test_unsupported_series_and_rank():
    with pytest.raises(LieAlgebraError):
        build_root_system("B", 2)
    with pytest.raises(LieAlgebraError):
        build_root_system("A", 4)


def test_a1_roots_and_rho():
    assert A1.roots.shape == (2, 1)
    assert np.allclose(A1.roots[0], -A1.roots[1])
    # rho = alpha/2 for a single positive root
    assert np.allclose(A1.rho, A1.positive_roots[0] / 2)


def test_root_counts():
    assert A2.n_positive == 3
    assert len(A3.roots) == 12


def test_cartan_matrices():
    assert np.array_equal(cartan_matrix(A2), [[2, -1], [-1, 2]])
    assert np.array_equal(
        cartan_matrix(A3), [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    )


def test_rho_is_half_sum_and_sum_of_fundamentals():
    for rs in (A1, A2, A3):
        assert np.allclose(rs.rho, rs.positive_roots.sum(axis=0) / 2, atol=1e-12)
        assert np.allclose(
            rs.rho, rs.fundamental_weights.sum(axis=0), atol=1e-12
        )


def coroot(rs, k):
    """H_alpha = [e_alpha, e_-alpha] in the defining representation."""
    return comm(rs.root_vectors[k], rs.root_vectors[rs.negative_of(k)])


def test_long_root_norm_via_ad_trace_oracle():
    # (alpha|alpha) = 2: oracle is Tr(ad H_alpha ad H_alpha) / (2 h),
    # computed from explicit ad matrices on an independent basis.
    for rs in (A1, A2, A3):
        basis = list(rs.root_vectors) + list(rs.h_ortho)
        h_alpha = coroot(rs, 0)
        val = normalized_form_direct(h_alpha, h_alpha, basis, rs.dual_coxeter)
        # (H_alpha|H_alpha) = (alpha|alpha) under the identification
        assert abs(val - 2) < 1e-10


def test_normalized_form_examples():
    rs = A1
    E1, F1 = rs.root_vectors
    assert abs(normalized_form(E1, F1, rs) - 1) < 1e-12
    assert abs(normalized_form(E1, E1, rs)) < 1e-12
    basis = list(rs.root_vectors) + list(rs.h_ortho)
    assert (
        abs(normalized_form(E1, F1, rs) - normalized_form_direct(E1, F1, basis, 2))
        < 1e-12
    )


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_normalized_form_matches_direct_oracle(rank):
    # random traceless complex elements; the oracle solves each ad column
    # from the Gram matrix of the trace pairing
    rs = (A1, A2, A3)[rank - 1]
    basis = list(rs.root_vectors) + list(rs.h_ortho)
    rng = np.random.default_rng(rank)
    for _ in range(4):
        x, y = rng.normal(size=(2, rs.n, rs.n)) + 1j * rng.normal(size=(2, rs.n, rs.n))
        x, y = (m - np.trace(m) / rs.n * np.eye(rs.n) for m in (x, y))
        got = normalized_form(x, y, rs)
        want = normalized_form_direct(x, y, basis, rs.dual_coxeter)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_h_basis_orthonormal_under_normalized_form():
    for rs in (A1, A2, A3):
        for r in range(rs.rank):
            for s in range(rs.rank):
                val = normalized_form(rs.h_ortho[r], rs.h_ortho[s], rs)
                assert abs(val - (1 if r == s else 0)) < 1e-10


def test_root_vector_pairing_is_kronecker_delta():
    for rs in (A1, A2):
        vecs = rs.root_vectors
        for k, v in enumerate(vecs):
            for k2, v2 in enumerate(vecs):
                val = normalized_form(v, v2, rs)
                expect = 1.0 if k2 == rs.negative_of(k) else 0.0
                assert abs(val - expect) < 1e-10


def test_jacobi_identity_exhaustive():
    for rs in (A1, A2, A3):
        basis = list(rs.root_vectors) + list(rs.h_ortho)
        for a in basis:
            for b in basis:
                for c in basis:
                    jac = (
                        comm(a, comm(b, c))
                        + comm(b, comm(c, a))
                        + comm(c, comm(a, b))
                    )
                    assert maxabs(jac) < 1e-12


def comm(a, b):
    return a @ b - b @ a


def test_coordinates_reproduce_pairings():
    # alpha(H) = coords(alpha) . coords(H) for the orthonormal chart
    rs = A2
    H = 0.3 * rs.h_ortho[0] + (0.1 - 0.7j) * rs.h_ortho[1]
    coords = np.array([0.3, 0.1 - 0.7j])
    for k, (a, b) in enumerate(rs.roots_ab):
        val = H[a, a] - H[b, b]
        root = rs.roots[k]
        assert abs(val - root @ coords) < 1e-12


# ---------------------------------------------------------------------------
# Irreps.
# ---------------------------------------------------------------------------


def _check_module_relations(mod: RepresentedModule, tol=1e-12):
    """[x, y] is represented by the commutator of the matrices of x and y,
    for every pair of root vectors and h_r, where root vector k acts by
    ``roots[k]`` and h_r by the r-th weight coordinates; ``represent``
    reproduces each of those matrices."""
    rs = mod.rs
    gens = list(zip(mod.roots, rs.root_vectors))
    gens += [(np.diag(mod.weights[:, r]), h) for r, h in enumerate(rs.h_ortho)]
    for (a, (m1, x)), (b, (m2, y)) in itertools.combinations(enumerate(gens), 2):
        lhs = comm(m1, m2)
        rhs = mod.represent(comm(x, y))
        assert maxabs(lhs - rhs) <= tol * max(1.0, maxabs(lhs)), (a, b)
    for m, x in gens:
        assert maxabs(m - mod.represent(x)) <= tol * max(1.0, maxabs(m))


def _check_weight_grading(mod: RepresentedModule):
    """Root vectors shift weights by their root; h_r is diagonal with the
    weights' r-th coordinates."""
    rs = mod.rs
    for k, root in enumerate(rs.roots):
        i, j = np.nonzero(np.abs(mod.roots[k]) > 1e-10)
        assert np.allclose(mod.weights[i], mod.weights[j] + root, atol=1e-9)
    for r in range(rs.rank):
        h = mod.represent(rs.h_ortho[r])
        assert maxabs(h - np.diag(np.diag(h))) < 1e-10
        assert np.allclose(np.diag(h), mod.weights[:, r], atol=1e-10)


def test_a1_fundamental_matches_hand_written_sl2():
    mod = build_irrep(A1, A1.fundamental_weights[0])
    assert mod.dim == 2
    # weights {omega, omega - alpha}
    omega = A1.fundamental_weights[0]
    alpha = A1.positive_roots[0]
    assert np.allclose(mod.weights[0].real, omega, atol=1e-12)
    assert np.allclose(mod.weights[1].real, omega - alpha, atol=1e-12)
    # generators in this basis are the Pauli-type sl2 matrices
    assert np.allclose(mod.represent(coroot(A1, 0)), np.diag([1, -1]), atol=1e-10)
    E, F = mod.roots
    # phases of the basis are fixed up to sign; E and F entries multiply to 1
    assert abs(E[0, 1] * F[1, 0] - 1) < 1e-10
    assert abs(E[1, 0]) < 1e-12 and abs(F[0, 1]) < 1e-12


def test_trivial_rep():
    mod = build_irrep(A1, np.zeros(1))
    assert mod.dim == 1
    assert mod.roots.shape == (2, 1, 1)
    assert maxabs(mod.roots) < 1e-14
    for x in (*A1.root_vectors, *A1.h_ortho):
        assert maxabs(mod.represent(x)) < 1e-14


# every dominant weight of coordinate sum <= 4 at ranks 1-3, and rank-1
# weights 7 and 8
IRREP_WEIGHTS = [
    (rs, fund)
    for rs in (A1, A2, A3)
    for fund in itertools.product(range(5), repeat=rs.rank)
    if sum(fund) <= 4
] + [(A1, (7,)), (A1, (8,))]


def test_irrep_dimensions_against_weyl_oracle():
    known = {(1,): 2, (2,): 3, (3,): 4, (7,): 8, (1, 0): 3, (0, 1): 3,
             (1, 1): 8, (2, 1): 15, (1, 0, 0): 4, (0, 1, 0): 6, (0, 1, 2): 45}
    for rs, fund in IRREP_WEIGHTS:
        lam = rs.weight_from_fundamental(fund)
        mod = build_irrep(rs, lam)
        dim = weyl_dimension(lam.real, rs.positive_roots, rs.rho)
        assert dim == known.get(fund, dim)
        assert mod.dim == dim, fund
        assert np.allclose(mod.weights[0], lam.real, atol=1e-12)
        _check_module_relations(mod)
        _check_weight_grading(mod)
        casimir = sum(mod.represent(h) @ mod.represent(h) for h in rs.h_ortho)
        casimir = casimir + sum(
            mod.roots[k] @ mod.roots[rs.negative_of(k)]
            for k in range(len(rs.roots))
        )
        scalar = casimir_scalar(lam, rs.rho)
        assert maxabs(casimir - scalar * np.eye(mod.dim)) <= 1e-12 * max(
            1.0, maxabs(casimir)
        ), fund
        coords = np.linalg.solve(rs.simple_roots.T, (lam - mod.weights).real.T).T
        counts: dict = {}
        for c in np.rint(coords).astype(int):
            counts[tuple(c)] = counts.get(tuple(c), 0) + 1
        assert counts == freudenthal_multiplicities(
            lam, rs.simple_roots, rs.positive_roots, rs.rho
        ), fund


def test_irrep_commutation_relations():
    for rs, fund in [(A1, [2]), (A2, [1, 0]), (A2, [1, 1])]:
        mod = build_irrep(rs, rs.weight_from_fundamental(fund))
        _check_module_relations(mod)


def test_irrep_weight_grading():
    _check_weight_grading(build_irrep(A2, A2.weight_from_fundamental([1, 1])))


def test_irrep_rejects_non_dominant():
    with pytest.raises(LieAlgebraError):
        build_irrep(A1, -A1.fundamental_weights[0])
    with pytest.raises(LieAlgebraError):
        build_irrep(A1, 0.37 * A1.positive_roots[0])


# ---------------------------------------------------------------------------
# Dual Vermas.
# ---------------------------------------------------------------------------


def test_dual_verma_j_covector_basics():
    lam = (0.37 + 0.11j) * A1.positive_roots[0]
    mod = build_dual_verma(A1, lam, depth=3)
    j = mod.j_covector
    # supported exactly on the weight-lambda line, value 1 on the highest
    top = [i for i in range(mod.dim) if np.allclose(mod.weights[i], lam)]
    assert len(top) == 1
    assert j[top[0]] == 1
    assert np.count_nonzero(j) == 1


def test_dual_verma_sl2_height_one_pairing():
    # j(E_1 . (F-dual vector at height 1)) = lambda(H_1)
    c = 0.37 + 0.11j
    lam = c * A1.positive_roots[0]
    lam_h1 = complex(lam @ A1.simple_roots[0])  # lambda(H_1)
    mod = build_dual_verma(A1, lam, depth=2)
    e0 = np.zeros(mod.dim, dtype=complex)
    e0[0] = 1.0
    v1 = mod.roots[1] @ e0  # f_alpha
    out = mod.roots[0] @ v1  # e_alpha
    assert abs(mod.j_covector @ out - lam_h1) < 1e-12


def test_dual_verma_weight_grading():
    lam = (0.25 - 0.4j) * A2.positive_roots[0] + 0.7 * A2.positive_roots[1]
    mod = build_dual_verma(A2, lam, depth=3)
    # dual Verma has the same weights as the Verma: lambda minus root sums
    assert np.allclose(mod.weights[0], lam)
    rs = A2
    for k in range(len(rs.roots)):
        m = mod.roots[k]
        for i in range(mod.dim):
            for j in range(mod.dim):
                if abs(m[i, j]) > 1e-10:
                    assert np.allclose(
                        mod.weights[i], mod.weights[j] + rs.roots[k], atol=1e-9
                    )


def test_dual_verma_interior_commutation():
    # commutation relations hold exactly on columns of height < depth
    lam = (0.6 + 0.2j) * A1.positive_roots[0]
    depth = 4
    mod = build_dual_verma(A1, lam, depth=depth)
    E, F = mod.roots
    H = mod.represent(coroot(A1, 0))
    lhs = comm(E, F) - H
    # columns of height < depth see exact actions; the boundary column may not
    for j in range(mod.dim - 1):
        assert maxabs(lhs[:, j]) < 1e-12


def test_dual_verma_truncation_stability():
    # j(E-strings) do not depend on the depth once it covers the string.
    lam = (0.8 - 0.3j) * A2.positive_roots[0] + (0.1 + 0.2j) * A2.positive_roots[1]
    shallow = build_dual_verma(A2, lam, depth=2)
    deep = build_dual_verma(A2, lam, depth=5)

    def bracket_value(mod, word, start_mono_idx):
        v = np.zeros(mod.dim, dtype=complex)
        v[start_mono_idx] = 1.0
        for i in word:
            v = mod.roots[i] @ v  # the simple root vectors come first
        return mod.j_covector @ v

    # Both enumerations sort monomials by (height, exponents), so the
    # shallow basis is an exact prefix of the deep one.
    assert np.allclose(deep.weights[: shallow.dim], shallow.weights)
    for start in range(shallow.dim):
        for word in ([0], [1], [0, 1], [1, 0], [0, 0]):
            a = bracket_value(shallow, word, start)
            b = bracket_value(deep, word, start)
            assert abs(a - b) < 1e-11


def test_dual_verma_E_exact_below_depth():
    # E-action on height < depth agrees between depths (exactness claim)
    lam = (1.1 + 0.5j) * A1.positive_roots[0]
    m3 = build_dual_verma(A1, lam, depth=3)
    m5 = build_dual_verma(A1, lam, depth=5)
    E3 = m3.roots[0]
    E5 = m5.roots[0]
    assert maxabs(E3[: m3.dim, : m3.dim] - E5[: m3.dim, : m3.dim]) < 1e-12


# ---------------------------------------------------------------------------
# Dual action.
# ---------------------------------------------------------------------------


def dual_of(mod, x):
    """Dual action of the algebra element x from the module's root slices
    and its weights: sum_k x_k dual_root(k) + diag(weights . h(x))."""
    rs = mod.rs
    out = np.diag(mod.weights @ rs.cartan_coords(x))
    for k, c in enumerate(rs.root_coords(x)):
        out = out + c * mod.dual_root(k)
    return out


def test_dual_action_is_anti_homomorphism():
    mod = build_irrep(A2, A2.weight_from_fundamental([1, 0]))
    rs = A2
    e, s = rs.root_vectors, rs.n_positive
    a = e[0] + 0.3 * e[s + 1]
    b = coroot(rs, 0) - 2j * e[1]
    lhs = dual_of(mod, a) @ dual_of(mod, b) - dual_of(mod, b) @ dual_of(mod, a)
    rhs = -(comm(mod.represent(a), mod.represent(b))).T
    assert maxabs(lhs - rhs) < 1e-12
    # root by root: the dual actions bracket as minus the transposed brackets
    for k, l in itertools.product(range(len(rs.roots)), repeat=2):
        lhs = comm(mod.dual_root(k), mod.dual_root(l))
        assert maxabs(lhs + comm(mod.represent(e[k]), mod.represent(e[l])).T) < 1e-12


def test_dual_action_fundamental_h():
    mod = build_irrep(A1, A1.fundamental_weights[0])
    got = np.diag(mod.weights @ A1.cartan_coords(coroot(A1, 0)))
    assert np.allclose(got, np.diag([1, -1]).T, atol=1e-10)
    assert np.allclose(got, mod.represent(coroot(A1, 0)).T, atol=1e-10)
    # e acts on the dual basis by the transpose: it carries the highest
    # weight covector down
    assert np.array_equal(mod.dual_root(0), [[0, 0], [1, 0]])


def test_dual_action_trivial_rep():
    mod = build_irrep(A1, np.zeros(1))
    assert maxabs(mod.dual_root(0)) < 1e-14
    assert maxabs(mod.dual_root(1)) < 1e-14
    assert maxabs(mod.weights) < 1e-14


def _site_kinds(rs):
    """The defining and adjoint irreps of rank rs.rank (spin 1 at rank 1)
    and a dual Verma module of generic highest weight."""
    unit = np.eye(rs.rank)
    lam = rs.weight_from_fundamental([0.7 + 0.2j, 0.4 - 0.3j, 0.6 + 0.1j][: rs.rank])
    return [
        build_irrep(rs, rs.weight_from_fundamental(unit[0])),
        build_irrep(rs, rs.weight_from_fundamental(unit[0] + unit[-1])),
        build_dual_verma(rs, lam, rs.rank + 2),
    ]


@pytest.mark.parametrize("rs", [A1, A2, A3], ids=["A1", "A2", "A3"])
def test_dual_root_is_a_view_equal_to_the_contracted_dual_action(rs):
    # dual_root(k) reads one slice of the root stack, with no copy, and it
    # equals to the bit the dual action represent contracts from the whole
    # stack: the transposed action for an irrep, the action of the
    # transposed root vector for a dual Verma module
    for mod in _site_kinds(rs):
        for k, e in enumerate(rs.root_vectors):
            got = mod.dual_root(k)
            assert np.shares_memory(got, mod.roots)
            want = dual_action(mod, e)
            # tobytes reads either layout in C order, signed zeros included
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous == (mod.kind == "dual_verma")


# ---------------------------------------------------------------------------
# Zero-weight spaces.
# ---------------------------------------------------------------------------


def test_zero_weight_dims():
    fund = build_irrep(A1, A1.fundamental_weights[0])
    assert TensorSpace([fund, fund]).dim0 == 2
    assert TensorSpace([fund]).dim0 == 0
    three = build_irrep(A2, A2.weight_from_fundamental([1, 0]))
    threebar = build_irrep(A2, A2.weight_from_fundamental([0, 1]))
    assert TensorSpace([three, threebar]).dim0 == 3


def test_zero_weight_preserved_by_dual_pairs():
    # rho*_j(e_{-a}) rho*_i(e_a) preserves V*(0)
    fund = build_irrep(A1, A1.fundamental_weights[0])
    adj = build_irrep(A1, A1.weight_from_fundamental([2]))
    ts = TensorSpace([fund, fund, adj])
    assert ts.dim0 == 4
    rs = A1
    nroots = len(rs.roots)
    nonzero = [i for i in range(ts.dim) if i not in set(ts.zero_indices)]
    for i in range(3):
        for j in range(3):
            for k in range(nroots):
                kneg = rs.negative_of(k)
                mat = (
                    ts.op_full(j, ts.modules[j].roots[kneg]).T
                    @ ts.op_full(i, ts.modules[i].roots[k]).T
                )
                block = mat[np.ix_(nonzero, ts.zero_indices)]
                assert maxabs(block) < 1e-12


def test_zero_weight_projector_commutes_with_h():
    fund = build_irrep(A1, A1.fundamental_weights[0])
    ts = TensorSpace([fund, fund])
    proj = np.zeros((ts.dim, ts.dim))
    for i in ts.zero_indices:
        proj[i, i] = 1.0
    for h in A1.h_ortho:
        hfull = ts.op_full(0, fund.represent(h)) + ts.op_full(1, fund.represent(h))
        assert maxabs(proj @ hfull.T - hfull.T @ proj) < 1e-12


def _zero_tuples_by_full_walk(modules):
    """Zero-weight tuples from a walk over the whole product, in order."""
    out = []
    for tup in itertools.product(*(range(m.dim) for m in modules)):
        w = np.zeros(modules[0].rs.rank, dtype=complex)
        for m, k in zip(modules, tup):
            w = w + m.weights[k]
        if np.max(np.abs(w)) < 1e-9:
            out.append(tup)
    return out


@functools.lru_cache(maxsize=None)
def _mixed_instances():
    def dv(rs, fund, depth):
        return build_dual_verma(rs, rs.weight_from_fundamental(fund), depth)

    fund = build_irrep(A1, A1.fundamental_weights[0])
    adj = build_irrep(A1, A1.weight_from_fundamental([2]))
    three = build_irrep(A2, A2.weight_from_fundamental([1, 0]))
    threebar = build_irrep(A2, A2.weight_from_fundamental([0, 1]))
    four = build_irrep(A3, A3.weight_from_fundamental([1, 0, 0]))
    fourbar = build_irrep(A3, A3.weight_from_fundamental([0, 0, 1]))
    return [
        [fund, fund, adj],
        [fund, dv(A1, [1.3 + 0.2j], 3), dv(A1, [1.7 - 0.2j], 3)],
        [three, threebar, build_irrep(A2, A2.weight_from_fundamental([1, 1]))],
        [three, dv(A2, [0.5 + 0.1j, 0.3 - 0.1j], 4),
         dv(A2, [-0.5 - 0.1j, 0.7 + 0.1j], 4)],
        [four, fourbar],
        [four, dv(A3, [1, -1, 0], 4)],
        # total weight outside the root lattice: no zero-weight tuple
        [fund, dv(A1, [0.7 + 0.2j], 3)],
    ]


@pytest.mark.parametrize("case", range(7))
def test_zero_tuples_match_full_product_walk(case):
    modules = _mixed_instances()[case]
    ts = TensorSpace(modules)
    expected = _zero_tuples_by_full_walk(modules)
    assert ts.zero_tuples() == expected
    assert ts.dim == math.prod(m.dim for m in modules)
    all_tuples = list(np.ndindex(*ts.dims))
    assert [all_tuples[i] for i in ts.zero_indices] == expected


def test_min_dual_verma_depth_is_height_plus_highest_root():
    # M = ht(sum lambda_i) plus ht(theta) = rank in type A
    assert min_dual_verma_depth(A1, [A1.weight_from_fundamental([1.3 + 0.2j]),
                                     A1.weight_from_fundamental([2.7 - 0.2j])]) == 3
    lam = A2.weight_from_fundamental([0.74 + 0.22j, 0.31 - 0.1j])
    rest = weight_from_simple_roots(A2, [1, 1]) - lam
    assert min_dual_verma_depth(A2, [lam, rest]) == 4
    assert min_dual_verma_depth(A3, [weight_from_simple_roots(A3, [1, 2, 1])]) == 7
    # outside the positive root lattice there is no zero-weight space
    assert min_dual_verma_depth(A1, [A1.weight_from_fundamental([0.7])]) is None
    assert min_dual_verma_depth(A1, [-A1.simple_roots[0]]) is None


def test_root_budget_counts_simple_roots():
    omega = A1.fundamental_weights[0]
    alpha = A1.simple_roots[0]
    assert list(root_budget(A1, [omega, omega])) == [1]
    assert list(root_budget(A1, [alpha, alpha])) == [2]


def test_root_budget_rejects_non_lattice_sum():
    # None: no zero-weight space, so the charge condition fails
    assert root_budget(A1, [A1.fundamental_weights[0], np.zeros(1)]) is None


def test_root_budget_accepts_any_complex_split():
    c = 0.37 + 0.11j
    alpha = A1.simple_roots[0]
    assert list(root_budget(A1, [c * alpha, (1 - c) * alpha])) == [1]


@pytest.mark.parametrize("rs", [A1, A2, A3], ids=["A1", "A2", "A3"])
def test_fundamental_weights_are_dual_to_the_simple_roots(rs):
    # so the simple-root coordinates of a weight are its pairings with the
    # fundamental weights, with no linear solve
    assert maxabs(rs.simple_roots @ rs.fundamental_weights.T - np.eye(rs.rank)) < 1e-15


def test_lowering_and_budget_agree_with_a_linear_solve_on_every_config(monkeypatch):
    # every site of every config: the rounded coordinates are those of a
    # solve in the simple-root basis
    root = Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("configs/*.ini")) + sorted(root.glob("tests/data/*.ini"))
    problems = [p for p in (load_config(str(path)).problem for path in paths) if p is not None]

    def coordinates():
        return [
            ([module_lowering(mod) for mod in p.modules],
             root_budget(p.rs, [mod.highest_weight for mod in p.modules]).tolist())
            for p in problems
        ]

    got = coordinates()
    monkeypatch.setattr(liealg, "_root_coords", lambda rs, weights: np.linalg.solve(
        rs.simple_roots.T.astype(complex), np.asarray(weights, dtype=complex).T
    ).T)
    assert got == coordinates()
