"""Independent oracles used by the test suite.

Everything in this file is deliberately written as straight-line brute
force, separate from the library's evaluation strategies: direct lattice
sums with no argument reduction, central finite differences instead of
analytic jets, exhaustive enumeration instead of closed forms.
"""

from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np

_PI = math.pi


def theta11_direct(z: complex, tau: complex, nterms: int = 40) -> complex:
    """Literal sum of the defining theta series over n in [-nterms, nterms)."""
    acc = 0j
    for n in range(-nterms, nterms):
        acc += cmath.exp(
            1j * _PI * tau * (n + 0.5) ** 2
            + 2j * _PI * (z + 0.5) * (n + 0.5)
        )
    return acc


def theta11_prime_direct(z: complex, tau: complex, nterms: int = 40) -> complex:
    acc = 0j
    for n in range(-nterms, nterms):
        acc += (
            2j * _PI * (n + 0.5)
            * cmath.exp(
                1j * _PI * tau * (n + 0.5) ** 2
                + 2j * _PI * (z + 0.5) * (n + 0.5)
            )
        )
    return acc


def zeta11_direct(z: complex, tau: complex, nterms: int = 40) -> complex:
    return theta11_prime_direct(z, tau, nterms) / theta11_direct(z, tau, nterms)


def w_direct(c: complex, z: complex, tau: complex, nterms: int = 40) -> complex:
    return (
        theta11_prime_direct(0j, tau, nterms)
        * theta11_direct(z - c, tau, nterms)
        / (theta11_direct(z, tau, nterms) * theta11_direct(-c, tau, nterms))
    )


def theta11_coeffs_reference(zs, md, order: int = 0) -> np.ndarray:
    """``elliptic.theta11_coeffs`` summed term by term: every term's phase
    from its own cosine and sine, its powers of the frequency from a loop
    over the orders, and one einsum per block of 256 rows.  Raises
    OverflowError where a term leaves the double range or an argument is
    infinite; a NaN argument gives NaN coefficients."""
    from ellgaudin.elliptic import _check_order, _term_plan, reduce_to_cell

    _check_order(order)
    count, log_nome = _term_plan(md, order)
    ks = np.arange(-count, count)
    base = log_nome * (ks + 0.5) ** 2
    signs = 1.0 - 2.0 * (ks % 2)
    # i^(k + 1): the i of every term times i^k from its frequency's k-th power
    cycle = np.array([1j, -1, -1j, 1])[np.arange(order + 1) % 4]
    zs = np.asarray(zs, dtype=complex)
    out = np.empty((len(zs), order + 1), dtype=complex)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for start in range(0, len(zs), 256):
                rows = slice(start, start + 256)
                z0, m, n = reduce_to_cell(zs[rows], md)
                freq = _PI * (2.0 * (ks - m[:, None]) + 1.0)
                shift = -1j * _PI * md.tau * m**2
                re = (base.real + shift.real[:, None]) - freq * z0.imag[:, None]
                im = (base.imag + shift.imag[:, None]) + freq * z0.real[:, None]
                parts = np.stack([np.cos(im), np.sin(im)], axis=1)
                parts *= (np.exp(re) * signs)[:, None]
                powers = np.empty((len(z0), order + 1, 2 * count))
                powers[:, 0] = 1.0
                for k in range(order):
                    powers[:, k + 1] = powers[:, k] * freq / (k + 1)
                sums = np.einsum("bct,bkt->bck", parts, powers)
                if np.isinf(sums).any():
                    raise FloatingPointError("overflow encountered in einsum")
                sign = 1.0 - 2.0 * ((m + n) % 2)
                out[rows] = (sums[:, 0] + 1j * sums[:, 1]) * (sign[:, None] * cycle)
    except FloatingPointError as exc:
        raise OverflowError(f"theta11 leaves the double range ({exc})") from None
    return out


# ---------------------------------------------------------------------------
# Finite differences.
# ---------------------------------------------------------------------------


def fd_derivative(f, x: complex, h: float = 1e-5) -> complex:
    """Central difference f'(x) for a holomorphic f, real step."""
    return (f(x + h) - f(x - h)) / (2 * h)


def fd_second(f, x: complex, h: float = 1e-4) -> complex:
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


def fd_gradient(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Componentwise central differences for f: C^n -> C (holomorphic)."""
    x = np.asarray(x, dtype=complex)
    out = np.zeros(x.shape, dtype=complex)
    for r in range(x.size):
        e = np.zeros(x.shape, dtype=complex)
        e[r] = h
        out[r] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def fd_multi(f, x: np.ndarray, m, h: float = 1e-4) -> complex:
    """Central-difference mixed partial d^m f at x, |m| <= 2."""
    m = tuple(m)
    order = sum(m)
    x = np.asarray(x, dtype=complex)
    if order == 0:
        return f(x)
    if order == 1:
        r = m.index(1)
        e = np.zeros(x.shape, dtype=complex)
        e[r] = h
        return (f(x + e) - f(x - e)) / (2 * h)
    if order == 2:
        if 2 in m:
            r = m.index(2)
            e = np.zeros(x.shape, dtype=complex)
            e[r] = h
            return (f(x + e) - 2 * f(x) + f(x - e)) / (h * h)
        r, s = [i for i, k in enumerate(m) if k == 1]
        er = np.zeros(x.shape, dtype=complex)
        es = np.zeros(x.shape, dtype=complex)
        er[r] = h
        es[s] = h
        return (
            f(x + er + es) - f(x + er - es) - f(x - er + es) + f(x - er - es)
        ) / (4 * h * h)
    raise ValueError("finite differences implemented for |m| <= 2 only")


def richardson_pole_limit(f, steps=(1e-2, 1e-3, 1e-4)) -> complex:
    """Extrapolate g(h) = h*f(h) to h = 0 by Neville's scheme.

    For a function with a simple pole of residue 1 at the origin the
    product h*f(h) is analytic near 0; polynomial extrapolation through a
    decreasing sequence of steps recovers the value at 0 to high order.
    """
    hs = list(steps)
    g = [h * f(h) for h in hs]
    for j in range(1, len(hs)):
        for i in range(len(hs) - j):
            g[i] = g[i + 1] + (g[i + 1] - g[i]) * hs[i + j] / (
                hs[i] - hs[i + j]
            )
    return g[0]


# ---------------------------------------------------------------------------
# Lie algebra oracles.
# ---------------------------------------------------------------------------


def ad_matrix(x: np.ndarray, basis: list) -> np.ndarray:
    """Matrix of ad(x) on the span of ``basis`` (defining-rep matrices).

    Coordinates are extracted with the trace pairing against a dual set
    solved from the Gram matrix, so this works for any basis of the span.
    """
    k = len(basis)
    gram = np.array(
        [[np.trace(a @ b) for b in basis] for a in basis], dtype=complex
    )
    cols = []
    for b in basis:
        y = x @ b - b @ x
        rhs = np.array([np.trace(a @ y) for a in basis], dtype=complex)
        cols.append(np.linalg.solve(gram, rhs))
    return np.stack(cols, axis=1)


def normalized_form_direct(
    x: np.ndarray, y: np.ndarray, basis: list, dual_coxeter: int
) -> complex:
    """(1/2h) Tr(ad x ad y) from explicit ad matrices."""
    return np.trace(ad_matrix(x, basis) @ ad_matrix(y, basis)) / (
        2 * dual_coxeter
    )


def dual_action(mod, x: np.ndarray) -> np.ndarray:
    """Transpose action of the algebra element x (a defining matrix) on
    the dual of mod's underlying space, from ``represent``.

    (A acting on Phi)(v) = Phi(A v), so products reverse under this map.
    Irreducible modules are stored by their own action, so this is the
    plain transpose.  Dual Verma modules are stored already acting on the
    dual space via the transpose-compose-involution construction; undoing
    the involution (transposing the defining matrix) recovers the plain
    transpose action.  Either way the Cartan subalgebra acts on the dual
    basis by the weights.
    """
    if mod.kind == "dual_verma":
        return mod.represent(np.asarray(x).T)
    return mod.represent(x).T


def cartan_matrix(rs) -> np.ndarray:
    """The Cartan matrix (alpha_i | alpha_j) of the simple roots, as
    integers."""
    return np.rint(rs.simple_roots @ rs.simple_roots.T).astype(int)


def weight_from_simple_roots(rs, coeffs) -> np.ndarray:
    """The weight sum_i coeffs[i] alpha_i."""
    return np.asarray(coeffs, dtype=complex) @ rs.simple_roots.astype(complex)


def weyl_dimension(lam, positive_roots, rho) -> int:
    """Weyl dimension formula; weights given in orthonormal coordinates."""
    num = 1.0
    den = 1.0
    for alpha in positive_roots:
        num *= np.dot(lam + rho, alpha)
        den *= np.dot(rho, alpha)
    return round((num / den).real)


def casimir_scalar(lam, rho) -> float:
    """(lam, lam + 2 rho): the quadratic Casimir of the normalized form,
    sum_r h_r^2 + sum_alpha e_alpha e_-alpha, on the irreducible module of
    highest weight lam."""
    lam = np.real(lam)
    return float(np.dot(lam, lam + 2 * np.asarray(rho)))


def freudenthal_multiplicities(lam, simple_roots, positive_roots, rho) -> dict:
    """Weight multiplicities of the irreducible module of highest weight lam
    by Freudenthal's recursion,

        ((lam + rho)^2 - (mu + rho)^2) m(mu)
            = 2 sum_{alpha > 0} sum_{k >= 1} (mu + k alpha, alpha) m(mu + k alpha),

    keyed by the simple-root coordinates c of lam - mu.  The coordinates
    run over the box 0 <= c_i <= 2 ht(lam), which holds every weight, in
    order of height; a mu other than lam with (mu + rho)^2 >= (lam + rho)^2
    is no weight of the module.  Only nonzero multiplicities are returned.
    """
    lam = np.real(lam)
    simple = np.asarray(simple_roots, dtype=float)
    positive = np.asarray(positive_roots, dtype=float)

    def to_simple(v):
        return np.linalg.solve(simple.T, v)

    root_coords = [tuple(int(round(x)) for x in to_simple(a)) for a in positive]
    bound = math.ceil(2 * to_simple(lam).sum() - 1e-9)
    top = np.dot(lam + rho, lam + rho)
    mult = {}
    for c in sorted(product(range(bound + 1), repeat=len(simple)), key=sum):
        if not any(c):
            mult[c] = 1
            continue
        mu = lam - np.dot(c, simple)
        gap = top - np.dot(mu + rho, mu + rho)
        if gap < 1e-9:
            continue
        acc = 0.0
        for a, alpha in zip(root_coords, positive):
            k = 1
            while all(ci >= k * ai for ci, ai in zip(c, a)):
                above = tuple(ci - k * ai for ci, ai in zip(c, a))
                acc += mult.get(above, 0) * np.dot(mu + k * alpha, alpha)
                k += 1
        m = round(2 * acc / gap)
        if m:
            mult[c] = m
    return mult


# ---------------------------------------------------------------------------
# Bethe-layer oracles (rank 1).
# ---------------------------------------------------------------------------


def bethe_residual_direct(t, zs, weights, alphas, tau, nterms: int = 60):
    """Literal Bethe residuals from the direct theta-series zeta.

    res_j = sum_i (a_j|lam_i) zeta(t_j - z_i)
            - sum_{k != j} (a_j|a_k) zeta(t_j - t_k).
    """
    t = list(t)
    out = []
    for j, tj in enumerate(t):
        acc = 0j
        for lam, z in zip(weights, zs):
            acc += complex(np.dot(alphas[j], lam)) * zeta11_direct(
                tj - z, tau, nterms
            )
        for k, tk in enumerate(t):
            if k == j:
                continue
            acc -= complex(np.dot(alphas[j], alphas[k])) * zeta11_direct(
                tj - tk, tau, nterms
            )
        out.append(acc)
    return np.array(out, dtype=complex)


def bethe_kernel_arguments(system, t) -> tuple:
    """The zeta arguments of ``BetheSystem.equations`` at the rows of the
    stack t, as Python numbers, row after row: t_j - z_i for every root and
    site, then s (t_j - t_k) for the pairs j < k in lexicographic order,
    s = -1 where (Im, Re) of t_j - t_k is below (0, 0); and the signs s of
    every row."""
    M, zs = system.M, system.problem.positions
    pairs = [(j, k) for j in range(M) for k in range(j + 1, M)]
    args, signs = [], []
    for roots in np.asarray(t, dtype=complex).tolist():
        diffs = [roots[j] - roots[k] for j, k in pairs]
        signs.append([-1.0 if (d.imag, d.real) < (0.0, 0.0) else 1.0 for d in diffs])
        args += [tj - z for tj in roots for z in zs]
        args += [s * d for s, d in zip(signs[-1], diffs)]
    return args, signs


def bethe_equations_scalar(system, t):
    """``BetheSystem.equations`` as a loop over Python numbers: the kernel
    values of every row from one ``zeta11_coeffs`` call, which raises the
    first fault among them, then each row's terms summed from 0j in a
    fixed order, the sites first, then the pairs j < k in lexicographic
    order.  The reference that the library's array assembly must match bit
    for bit."""
    from ellgaudin.elliptic import _raise_fault, zeta11_coeffs

    stack = np.asarray(t, dtype=complex).tolist()
    M, zs = system.M, system.problem.positions
    alphas = np.reshape(system.alphas, (M, system.problem.rs.rank))
    site_pairing = (alphas @ np.transpose(system.weights)).tolist()
    root_pairing = (alphas @ alphas.T).tolist()
    pairs = [(j, k) for j in range(M) for k in range(j + 1, M)]
    args, signs = bethe_kernel_arguments(system, stack)
    ze, faults = zeta11_coeffs(args, system.problem.md, 1)
    _raise_fault(faults, args, system.problem.md)
    ze = ze.tolist()
    nsite = M * len(zs)
    width = nsite + len(pairs)
    out_res, out_jac = [], []
    for r, row_signs in enumerate(signs):
        sites = ze[r * width : r * width + nsite]
        pair_values = ze[r * width + nsite : (r + 1) * width]
        res = [0j] * M
        jac = [[0j] * M for _ in range(M)]
        for j, row in enumerate(site_pairing):
            for pair, (value, slope) in zip(row, sites[j * len(zs) : (j + 1) * len(zs)]):
                res[j] += pair * value
                jac[j][j] += pair * slope
        for (j, k), sign, (value, slope) in zip(pairs, row_signs, pair_values):
            pair = root_pairing[j][k]
            value = pair * (sign * value)
            slope = pair * slope
            res[j] -= value
            res[k] += value
            jac[j][j] -= slope
            jac[k][k] -= slope
            jac[j][k] += slope
            jac[k][j] += slope
        out_res.append(res)
        out_jac.append(jac)
    return (np.array(out_res, dtype=complex).reshape(len(stack), M),
            np.array(out_jac, dtype=complex).reshape(len(stack), M, M))


def equations_alone(system, t):
    """``system.equations`` at the one point t, then the raising check of
    the point's kernel arguments: zeta at all of them from one call, whose
    first fault ``_raise_fault`` raises, as PoleProximityError near a pole,
    OverflowError or EllipticError otherwise.  Returns (res, jac)."""
    from ellgaudin.elliptic import _raise_fault, zeta11_coeffs

    (res,), (jac,), _ = system.equations(np.asarray(t)[None])
    args, _ = bethe_kernel_arguments(system, [t])
    _raise_fault(zeta11_coeffs(args, system.problem.md, 1)[1], args, system.problem.md)
    return res, jac


def newton_per_seed(system, t0, tol, max_iter):
    """One seed's damped Newton iteration, seed by seed with a single
    solve per step, each point evaluated alone by ``equations_alone``: the
    reference for the lockstep solver.  A candidate near a pole halves the
    damping, any other fault fails the seed.  Returns (t, residual,
    iterations) or None."""
    from ellgaudin.elliptic import EllipticError, PoleProximityError

    t = np.asarray(t0, dtype=complex)
    try:
        res, jac = equations_alone(system, t)
    except (EllipticError, OverflowError):
        return None
    best = float(np.max(np.abs(res)))
    for it in range(1, max_iter + 1):
        if best < tol:
            return t, best, it - 1
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            return None
        damp = 1.0
        for _ in range(25):
            cand = t - damp * step
            try:
                res_c, jac_c = equations_alone(system, cand)
            except PoleProximityError:
                damp /= 2
                continue
            except (EllipticError, OverflowError):
                return None
            norm_c = float(np.max(np.abs(res_c)))
            if norm_c < best or best < 1e-9:
                t, res, jac, best = cand, res_c, jac_c, norm_c
                break
            damp /= 2
        else:
            return None
    return (t, best, max_iter) if best < tol else None


def halton_points_loop(count: int, dim: int) -> np.ndarray:
    """The first ``count`` points of the unscrambled Halton sequence, point
    by point: each radical inverse summed digit by digit from the least
    significant one, as Python numbers."""
    bases = [p for p in range(2, 200) if all(p % q for q in range(2, p))][:dim]
    pts = np.zeros((count, dim))
    for j, b in enumerate(bases):
        for i in range(count):
            f, x, k = 1.0, 0.0, i
            while k > 0:
                f /= b
                x += f * (k % b)
                k //= b
            pts[i, j] = x
    return pts


def same_bethe_solution(system, ta, tb, tol: float = 1e-8) -> bool:
    """Same roots up to integer shifts and permutations within each group
    of roots sharing a simple-root label, by trying every permutation."""
    groups: dict = {}
    for j, a in enumerate(system.assignment):
        groups.setdefault(a, []).append(j)
    for choice in product(*(_permutations(idx) for idx in groups.values())):
        mapping = {}
        for orig, permed in zip(groups.values(), choice):
            mapping.update(zip(orig, permed))
        diffs = [ta[j] - tb[mapping[j]] for j in range(len(ta))]
        if all(abs(d.imag) <= tol and abs(d.real - round(d.real)) <= tol for d in diffs):
            return True
    return False


def bethe_solve_per_seed(system, n_seeds=32, tol=1e-12, max_iter=200,
                         guard=0.05, seeds=None):
    """``BetheSystem.solve`` one seed after another: each seed filtered,
    iterated by ``newton_per_seed`` and deduplicated against the solutions
    before it, then sorted as the library sorts.  Returns
    (t, residual, iterations) triples."""
    from ellgaudin.elliptic import lattice_distance

    if seeds is None:
        seeds = system._seed_points(n_seeds)
    found = []
    for seed in seeds:
        seed = np.asarray(seed, dtype=complex)
        gaps = [tj - z for tj in seed for z in system.problem.positions]
        gaps += [
            seed[j] - seed[k] for j in range(len(seed)) for k in range(j + 1, len(seed))
        ]
        if any(lattice_distance(g, system.problem.md) < guard for g in gaps):
            continue
        sol = newton_per_seed(system, seed, tol, max_iter)
        if sol is None or any(same_bethe_solution(system, sol[0], f[0]) for f in found):
            continue
        found.append(sol)
    found.sort(
        key=lambda s: tuple(
            (round(x.real - math.floor(x.real), 9), round(x.imag, 9))
            for x in np.sort_complex(s[0])
        )
    )
    return found


def _sl2_raising_string_coeff(mu: complex, m: int) -> complex:
    """Pairing of an m-fold raising string against the rank-1 Verma basis.

    In a highest-weight module with h-eigenvalue 2*mu on the top line and
    lowering basis v, Fv, F^2 v, ..., the coefficient of the top line in
    E^m F^m v is prod_{k=0}^{m-1} (k+1)(2*mu - k).
    """
    acc = 1.0 + 0j
    for k in range(m):
        acc *= (k + 1) * (2 * mu - k)
    return acc


def bethe_vector_bruteforce_a1(t, zs, cs, cval, tau, nterms: int = 60):
    """Rank-1 Bethe covector by exhaustive enumeration.

    ``t`` are the Bethe roots, ``zs`` the site points, ``cs`` the root
    coefficients of the site weights (lambda_i = cs[i] * alpha), and
    ``cval`` the value alpha(H) at the chosen Cartan point.  Components
    are indexed by the occupation tuples (k_1..k_N) with sum = len(t),
    in lexicographic order.

    Every term is enumerated literally: each map from roots to sites,
    each ordering of the roots at a site, the chain of kernels
    w_{-(accumulated)}(t_prev - t_next) ending on the site point, and the
    raising-string coefficient of the site module.
    """
    M = len(t)
    N = len(zs)
    comps: dict = {}
    for assign in product(range(N), repeat=M):
        occ = tuple(sum(1 for a in assign if a == i) for i in range(N))
        term = 1.0 + 0j
        for i in range(N):
            group = [j for j in range(M) if assign[j] == i]
            if not group:
                continue
            site_sum = 0j
            for sigma in _permutations(group):
                chain = 1.0 + 0j
                for pos, j in enumerate(sigma):
                    sub = -(pos + 1) * cval
                    target = (
                        t[sigma[pos + 1]] if pos + 1 < len(sigma) else zs[i]
                    )
                    chain *= w_direct(sub, t[j] - target, tau, nterms)
                site_sum += chain
            term *= site_sum * _sl2_raising_string_coeff(cs[i], len(group))
        comps[occ] = comps.get(occ, 0j) + term
    return comps


def _permutations(seq):
    if len(seq) <= 1:
        yield tuple(seq)
        return
    for i, x in enumerate(seq):
        for rest in _permutations(seq[:i] + seq[i + 1 :]):
            yield (x,) + rest


def bethe_vector_reference(system, t, H, order: int = 0):
    """The Bethe vector of a BetheSystem as a Jet, by the literal sum.

    For every zero-weight basis tuple (k_1..k_N), every map of the roots to
    the sites and, at each site a, every ordering sigma of its roots: the
    coefficient of F_{sigma_1} ... F_{sigma_m} j_cov at k_a times the chain
    of kernels w_{-prefix sum}(t_{sigma_p} - t_{sigma_{p+1}}), the last one
    ending on z_a, all as dict jets in xi.  Each kernel is the literal
    univariate series ``univariate_w`` at c0 = -P(H), substituted into xi
    by ``dict_substitution``.  Kernels and brackets are memoised by their
    arguments; no partial product over orderings or subsets is shared.
    """
    from functools import lru_cache

    prob = system.problem
    t = np.asarray(t, dtype=complex)
    H = np.asarray(H, dtype=complex)
    rank, M = prob.rs.rank, system.M
    simple = np.asarray(prob.rs.simple_roots, dtype=complex)
    targets = list(t) + list(prob.positions)
    one = (0,) * rank

    @lru_cache(maxsize=None)
    def kernel(prefix, j, target):
        direction = np.array(prefix, dtype=float) @ simple
        x = t[j] - targets[target]
        row = univariate_w(complex(-(direction @ H)), complex(x), prob.md, order)
        return dict_substitution(row, -direction)

    @lru_cache(maxsize=None)
    def bracket(a, subset, k):
        mod = prob.modules[a]
        if not subset:
            return {one: complex(mod.j_covector[k])}
        acc = {}
        for sigma in _permutations(list(subset)):
            vec = np.asarray(mod.j_covector, dtype=complex)
            for j in reversed(sigma):
                vec = mod.roots[mod.rs.n_positive + system.assignment[j]] @ vec
            jet = {one: vec[k]}
            for pos, j in enumerate(sigma):
                labels = [system.assignment[i] for i in sigma[: pos + 1]]
                prefix = tuple(labels.count(r) for r in range(rank))
                target = sigma[pos + 1] if pos + 1 < len(sigma) else M + a
                jet = dict_product(jet, kernel(prefix, j, target), order)
            acc = dict_sum(acc, jet)
        return acc

    nsites = len(prob.modules)
    comps = []
    for tup in prob.space.zero_tuples():
        acc = {}
        for assign in product(range(nsites), repeat=M):
            term = {one: 1.0}
            for a in range(nsites):
                subset = tuple(j for j in range(M) if assign[j] == a)
                term = dict_product(term, bracket(a, subset, tup[a]), order)
            acc = dict_sum(acc, term)
        comps.append(acc)
    coeffs = {m: np.array([c.get(m, 0j) for c in comps]) for m in set().union(*comps)}
    return as_jet(rank, order, coeffs)


def verify_eigenvector_reference(system, t, h_points, u_points, tiny: float = 1e-12):
    """The eigen check of one solution as a loop over its Cartan points:
    per point, the Bethe vector's jet alone and one transfer operator over
    all ``u_points`` applied to it, folded point by point into the largest
    relative residual, the smallest vector norm and a status."""
    max_rel = 0.0
    min_norm = math.inf
    seen_nonzero = False
    us = np.asarray(u_points, dtype=complex).reshape(-1)
    (eigs,) = system.eigenvalue([t], [us])
    for H in h_points:
        H = np.asarray(H, dtype=complex)
        psi_jet = system.vector_jet([t], [H], 2)
        psi = psi_jet.value
        norm = float(np.max(np.abs(psi)))
        min_norm = min(min_norm, norm)
        if norm < tiny or not len(us):
            continue
        seen_nonzero = True
        lhs = system.problem.transfer(us, [H] * len(us)).apply(psi_jet)
        rel = np.max(np.abs(lhs - eigs[:, None] * psi), axis=1) / norm
        max_rel = np.maximum(max_rel, np.max(rel))
    status = "ok" if seen_nonzero else "inconclusive"
    return {"max_rel": float(max_rel), "min_norm": min_norm, "status": status}


# ---------------------------------------------------------------------------
# Straight-line dict jets.
# ---------------------------------------------------------------------------
# A dict jet maps multi-indices m to the Taylor coefficients d^m f / m!,
# scalars or arrays; a missing one is zero.  These loops are the literal
# definitions, written apart from the library's array jets.


def dict_of(jet) -> dict:
    """The coefficients of a library Jet as a dict jet."""
    from ellgaudin.elliptic import jet_indices

    return {m: jet.coeff(m) for m in jet_indices(jet.nvars, jet.total)}


def as_jet(nvars: int, total: int, coeffs: dict):
    """The library Jet of a dict jet of the given scheme."""
    from ellgaudin.elliptic import Jet, jet_indices

    shape = np.broadcast_shapes(*(np.shape(c) for c in coeffs.values()))
    out = np.zeros((len(jet_indices(nvars, total)),) + shape, dtype=complex)
    for p, m in enumerate(jet_indices(nvars, total)):
        if m in coeffs:
            out[p] = coeffs[m]
    return Jet(nvars, total, out)


def dict_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out[m] + c if m in out else c
    return out


def dict_product(a: dict, b: dict, total: int, op=np.multiply) -> dict:
    """The truncated product: every pair of coefficients whose degrees sum
    to at most total, multiplied with op, in the order of a's entries."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            if sum(m) <= total:
                c = op(ca, cb)
                out[m] = out[m] + c if m in out else c
    return out


def dict_derivative(a: dict, delta, total: int) -> dict:
    """The dict jet of d^delta f to the given total from f's: the
    coefficient at m - delta is the one at m times m! / (m - delta)!."""
    out = {}
    for m, c in a.items():
        mm = tuple(k - d for k, d in zip(m, delta))
        if min(mm, default=0) >= 0 and sum(mm) <= total:
            out[mm] = c * math.prod(math.perm(k, d) for k, d in zip(m, delta))
    return out


def dict_substitution(g, direction) -> dict:
    """Dict jet in xi of g(direction . xi), from g's Taylor coefficients
    g[k]: the multinomial weights distribute each power of the increment
    over the xi variables, to every total degree below len(g)."""
    from ellgaudin.elliptic import jet_indices

    direction = [complex(d) for d in direction]
    coeffs = {}
    for m in jet_indices(len(direction), len(g) - 1):
        c = g[sum(m)] * math.factorial(sum(m))
        for dr, mi in zip(direction, m):
            c = c * (dr**mi / math.factorial(mi))
        coeffs[m] = c
    return coeffs


# ---------------------------------------------------------------------------
# Straight-line exchange potential.
# ---------------------------------------------------------------------------


def univariate_w(c0: complex, z: complex, md, order: int) -> list:
    """Taylor coefficients in h of w_{c0+h}(z) =
    theta'(0) theta(z - c0 - h) / (theta(z) theta(-c0 - h)), from theta's
    coefficients at z - c0 and at -c0 (odd ones negated for -h), a literal
    reciprocal series and a literal Cauchy product."""
    from ellgaudin.elliptic import theta11_coeffs, theta11_prime_at_zero

    tz, num, den = theta11_coeffs([z, z - c0, -c0], md, order).tolist()
    num = [(-1) ** k * c for k, c in enumerate(num)]
    den = [(-1) ** k * c for k, c in enumerate(den)]
    inv = []
    for k in range(order + 1):
        acc = (1.0 if k == 0 else 0.0) - sum(den[i] * inv[k - i] for i in range(1, k + 1))
        inv.append(acc / den[0])
    scale = theta11_prime_at_zero(md) / tz[0]
    return [
        scale * sum(num[p] * inv[k - p] for p in range(k + 1)) for k in range(order + 1)
    ]


def potential_jet_reference(prob, H, u: complex, order: int = 0):
    """The exchange potential of a GaudinProblem, one kernel pair at a time.

    For every positive root alpha and every site pair (i, j), the
    univariate series of w_{alpha(H)}(z_i - u) and w_{-alpha(H)}(z_j - u)
    are multiplied, substituted into the xi variables and added with the
    stacked pair operator e_{-alpha}^(j) e_alpha^(i) + e_alpha^(i)
    e_{-alpha}^(j), which carries the root -alpha's term with the sites
    swapped; no theta value is shared.
    """
    H = np.asarray(H, dtype=complex)
    u = complex(u)
    rs, md = prob.rs, prob.md
    acc = {}
    for k, alpha in enumerate(rs.positive_roots):
        c0 = complex(alpha @ H)
        lower = [univariate_w(c0, z - u, md, order) for z in prob.positions]
        # w_{-c}(z) in c at c0: the series of w at -c0 with odd terms negated
        upper = [
            [(-1.0) ** m * v for m, v in enumerate(univariate_w(-c0, z - u, md, order))]
            for z in prob.positions
        ]
        for i in range(len(prob.positions)):
            for j in range(len(prob.positions)):
                prod = dict_product(
                    {(m,): v for m, v in enumerate(lower[i])},
                    {(m,): v for m, v in enumerate(upper[j])},
                    order,
                )
                jet = dict_substitution([prod[(m,)] for m in range(order + 1)], alpha)
                pair = 0.5 * prob._pair[k][i, j]
                acc = dict_sum(acc, {m: c * pair for m, c in jet.items()})
    return as_jet(rs.rank, order, acc)


def pair_stack_two_pass(problem) -> np.ndarray:
    """A GaudinProblem's stacked pair operators, one pass per root.

    Each of the 2 |Phi+| roots gets its own pass, with its own dual
    actions on every site, contracted from the root stack by
    ``dual_action``, and the root -alpha's pass is added to alpha's with
    the sites swapped: _pair[k, i, j] = P(i, j, alpha) + P(j, i, -alpha),
    no use made of two sites' operators commuting.
    """
    rs = problem.rs
    tuples = problem.space.zero_array
    nsites = len(problem.modules)
    grid = [np.ix_(tuples[:, i], tuples[:, i]) for i in range(nsites)]
    differ = [
        tuples[:, i][:, None] != tuples[:, i][None, :] for i in range(nsites)
    ]
    mismatches = sum(d.astype(int) for d in differ)

    def on_sites(mat, *sites):
        # entries of mat where the tuples agree off the given sites
        off = mismatches - sum(differ[i] for i in set(sites))
        return np.where(off == 0, mat, 0)

    def pair(k):
        # P(i, j, root k) for every site pair, shape (N, N, dim0, dim0)
        lower = [dual_action(mod, rs.root_vectors[k]) for mod in problem.modules]
        raise_ = [
            dual_action(mod, rs.root_vectors[rs.negative_of(k)])
            for mod in problem.modules
        ]
        out = np.empty((nsites, nsites) + mismatches.shape, dtype=complex)
        for i in range(nsites):
            for j in range(nsites):
                if i == j:
                    mat = (raise_[i] @ lower[i])[grid[i]]
                else:
                    mat = raise_[j][grid[j]] * lower[i][grid[i]]
                out[i, j] = on_sites(mat, i, j)
        return out

    return np.array([
        pair(k) + pair(rs.negative_of(k)).transpose(1, 0, 2, 3)
        for k in range(rs.n_positive)
    ])


# ---------------------------------------------------------------------------
# Straight-line operator composition.
# ---------------------------------------------------------------------------


def compose_reference(left, right):
    """Operator composition left after right, one Leibniz term at a time.

    Every term differentiates the right coefficient's whole dict jet,
    truncates the left one to the result's order and multiplies them with
    ``dict_product``; a result coefficient collects every term, zero or
    not.
    """
    from ellgaudin.diffop import MAX_TOTAL_ORDER, DiffOperator

    if left.order + right.order > MAX_TOTAL_ORDER:
        raise ValueError(
            f"composition order {left.order + right.order} exceeds "
            f"{MAX_TOTAL_ORDER}"
        )
    k = min(left.k, right.k - left.order)
    if k < 0:
        raise ValueError(
            f"coefficient jets of order {right.k} cannot be differentiated "
            f"{left.order} times"
        )
    out: dict = {}
    for beta, a in left.coeffs.items():
        a = {m: c for m, c in dict_of(a).items() if sum(m) <= k}
        for gamma, b in right.coeffs.items():
            b = dict_of(b)
            for delta in product(*(range(x + 1) for x in beta)):
                mu = tuple(bt - d + g for bt, d, g in zip(beta, delta, gamma))
                binom = math.prod(math.comb(x, d) for x, d in zip(beta, delta))
                term = dict_product(a, dict_derivative(b, delta, k), k, np.matmul)
                term = {m: c * binom for m, c in term.items()}
                out[mu] = dict_sum(out.get(mu, {}), term)
    return DiffOperator(
        left.nvars,
        left.dim,
        {mu: as_jet(left.nvars, k, c) for mu, c in out.items()},
    )


def nearest_lattice_point_scan(z: complex, md) -> complex:
    """Nearest lattice point by a scalar scan of the 3 x 3 neighbours of
    the rounded reduced-basis coordinates, in the order (x - 1, y - 1),
    (x - 1, y), ..., keeping the first of equally near candidates."""
    (n1, m1), (n2, m2) = md.basis
    b1 = n1 + m1 * md.tau
    b2 = n2 + m2 * md.tau
    det = (b1.conjugate() * b2).imag
    x = round((z.conjugate() * b2).imag / det)
    y = round((b1.conjugate() * z).imag / det)
    best = None
    for p, k in product((x - 1, x, x + 1), (y - 1, y, y + 1)):
        cand = (p * m1 + k * m2) * md.tau + (p * n1 + k * n2)
        if best is None or abs(z - cand) < abs(z - best):
            best = cand
    return best


# ---------------------------------------------------------------------------
# The CLI's sample stream in plain Python integers.
# ---------------------------------------------------------------------------


def splitmix64_words(seed: int):
    """The 64-bit words of ``cli._Uniforms(seed)``, one at a time, with
    Python integers masked to 64 bits: SplitMix64 (Steele, Lea & Flood,
    OOPSLA 2014) keyed by folding the seed's little-endian 64-bit words."""
    mask, golden = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        return z ^ (z >> 31)

    key = 0
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = mix(((key ^ ((seed >> shift) & mask)) + golden) & mask)
    n = 0
    while True:
        n += 1
        yield mix((key + n * golden) & mask)


# ---------------------------------------------------------------------------
# Samplers one draw at a time.
# ---------------------------------------------------------------------------


def sample_regular_cartan_per_draw(rs, md, rng, count, box=0.8, guard=0.05):
    """``gaudin.sample_regular_cartan`` one draw and one regularity check
    at a time."""
    from ellgaudin.gaudin import _MAX_TRIES, GaudinError, check_regular

    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > _MAX_TRIES:
            raise GaudinError(
                f"could not sample {count} regular Cartan points with parts in [-{box}, "
                f"{box}] and every root {guard} from the lattice in {_MAX_TRIES} draws"
            )
        H = rng.uniform(-box, box, rs.rank) + 1j * rng.uniform(-box, box, rs.rank)
        try:
            check_regular(rs, md, [H], guard)
        except GaudinError:
            continue
        out.append(H)
    return out


def sample_spectral_points_per_draw(md, positions, rng, count, guard=0.05):
    """``gaudin.sample_spectral_points`` one draw and one
    ``lattice_distance`` call at a time."""
    from ellgaudin.elliptic import lattice_distance
    from ellgaudin.gaudin import _MAX_TRIES, GaudinError

    positions = np.asarray(positions, dtype=complex)
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > _MAX_TRIES:
            raise GaudinError(
                f"could not sample {count} spectral points at least {guard} "
                f"from {len(positions)} poles in {_MAX_TRIES} draws"
            )
        u = rng.uniform(0.0, 1.0) + rng.uniform(0.05, 0.95) * md.tau
        if np.any(lattice_distance(positions - u, md) < guard):
            continue
        out.append(u)
    return out


def sweep_offsets_listwise(runner):
    """The spectral points of ``CheckRunner._build_sweep``, each candidate
    line built point by point as complex((k + 0.5) / n) + y tau: the first
    line, y = 0.29 + 0.017 step, every point of which lies at least
    ``pole_guard`` from the lattice translates of the sites and of the
    first solution's roots, or None.  Every point is screened against
    every pole, 2,000 points at a time, up to the first that fails."""
    from ellgaudin.elliptic import lattice_distance

    n = runner.cfg.sampling["sweep_points"]
    guard = runner.cfg.sampling["pole_guard"]
    poles = np.concatenate([runner.problem.positions, runner._solutions[0]])
    tau = runner.md.tau
    for step in range(40):
        y = 0.29 + 0.017 * step
        candidate = np.array([complex((k + 0.5) / n) + y * tau for k in range(n)])
        if all(
            np.all(lattice_distance(block[:, None] - poles[None, :], runner.md) >= guard)
            for block in np.split(candidate, range(2000, n, 2000))
        ):
            return candidate
    return None


# ---------------------------------------------------------------------------
# Check stages one kernel call per point, pair and contour.
# ---------------------------------------------------------------------------


def commutativity_residual_reference(prob, u1s, u2s, h_points) -> dict:
    """``gaudin.commutativity_residual`` point by point: per Cartan point,
    one ``transfer_parts`` call for all u1 and one for all u2, each pair's
    relative residual folded into a running per-pair maximum over the
    points."""
    from functools import reduce

    from ellgaudin.gaudin import _batch_max, _coeff_scale, commutator_values

    u1s = np.asarray(u1s, dtype=complex).reshape(-1)
    u2s = np.asarray(u2s, dtype=complex).reshape(-1)
    per_pair = 0.0
    for H in h_points:
        first = prob.transfer_parts(u1s, [H] * len(u1s), 2)
        second = prob.transfer_parts(u2s, [H] * len(u2s), 2)
        values = commutator_values(first, second)
        scale = _coeff_scale(*first) * _coeff_scale(*second)
        norm = reduce(np.maximum, map(_batch_max, values.values()))
        per_pair = np.maximum(per_pair, norm / np.maximum(scale, 1e-300))
    return {"max_rel": float(np.max(per_pair)), "per_pair": per_pair}


def contour_coeffs(f, z0: complex, r: float) -> dict:
    """{k: (a_k, max|f|/r^k)} for k = -1..2 by the 16-point trapezoidal
    rule on |z - z0| = r, f called on that contour's points alone."""
    unit = np.exp(2j * np.pi * np.arange(16) / 16)
    vals = np.asarray(f(z0 + r * unit))
    peak = float(np.abs(vals).max())
    return {k: (vals @ unit**-k / 16 / r**k, peak / r**k) for k in (-1, 0, 1, 2)}


def elliptic_stage_reference(md, zs, cs, jet_points: int) -> dict:
    """The residuals of the elliptic stage's records, record name ->
    value, with one kernel call per shift and function for the period
    records and one per contour (``contour_coeffs``) for the others, at the
    stage's sample points zs and cs."""
    from ellgaudin.cli import _contour_error, _contour_radius, _rel
    from ellgaudin.elliptic import (
        lattice_distance,
        theta11,
        theta11_coeffs,
        w_kernel,
        zeta11,
        zeta11_coeffs,
    )

    def theta(x):
        return theta11_coeffs(x, md)[:, 0]

    def zeta(x):
        return zeta11_coeffs(x, md)[0][:, 0]

    def w_on(c, z):
        return w_kernel(c, z, md).value

    two_pi_i = 2j * math.pi
    base, cbase = np.array(zs), np.array(cs)
    th, ze, wv = [], [], []
    for shift in (0, 1, md.tau):
        points = base + shift
        th.append(theta(points))
        ze.append(zeta(points))
        wv.append(w_on(cbase, points))
    factor = -np.exp(-1j * math.pi * md.tau - two_pi_i * base)
    out = {
        "theta-period-1": _rel(th[1], -th[0]),
        "theta-period-tau": _rel(th[2], factor * th[0]),
        "zeta-period-1": _rel(ze[1], ze[0]),
        "zeta-period-tau": float(np.max(np.abs(ze[2] - (ze[0] - two_pi_i))))
        / abs(two_pi_i),
        "w-period-1": _rel(wv[1], wv[0]),
        "w-period-tau": _rel(wv[2], np.exp(two_pi_i * cbase) * wv[0]),
    }
    (n1, m1), _ = md.basis
    r0 = _contour_radius(abs(n1 + m1 * md.tau))
    out["pole-normalization"] = np.max([
        _contour_error(contour_coeffs(f, 0, r0), {-1: target})
        for f, target in (
            (zeta, 1),
            (lambda h: w_on(cs[0], h), 1),
            (lambda h: w_on(h, zs[0]), -1),
        )
    ])
    jet_res = 0.0
    for z, c in zip(zs[:jet_points], cs):
        rz, rc = (_contour_radius(lattice_distance(x, md)) for x in (z, c))
        jt = theta11(z, md, order=2).coeff
        jz = zeta11(z, md, order=2).coeff
        jw = w_kernel(c, z, md, 2).coeff
        for f, z0, r, expected in (
            (theta, z, rz, {1: jt((1,)), 2: jt((2,))}),
            (zeta, z, rz, {1: jz((1,)), 2: jz((2,))}),
            (lambda x: w_on(x, z), c, rc, {1: jw((1, 0)), 2: jw((2, 0))}),
            (lambda x: w_on(c, x), z, rz, {1: jw((0, 1)), 2: jw((0, 2))}),
            (lambda h: w_on(c + h, z + h), 0, min(rz, rc),
             {2: jw((2, 0)) + jw((1, 1)) + jw((0, 2))}),
        ):
            jet_res = np.maximum(jet_res, _contour_error(contour_coeffs(f, z0, r), expected))
    out["jets-vs-contour"] = jet_res
    return {f"elliptic/{key}": value for key, value in out.items()}
