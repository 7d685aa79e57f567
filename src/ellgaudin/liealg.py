"""Type A root systems and the representations the Gaudin layer consumes.

The algebra sl(rank+1) is realized concretely by matrix units in the
defining representation; that realization fixes every structure-constant
sign deterministically and makes the normalized invariant form equal to
the defining-representation trace form.  Weights and roots are carried as
coordinate vectors in an orthonormal basis of the Cartan subalgebra, so
pairings are plain (bilinear, unconjugated) dot products and evaluation
against a Cartan point is a dot product as well.

A module is its weight basis and one stack of root-vector matrices: the
Cartan subalgebra acts diagonally by the weights, and every other element
through its coefficients along the root vectors.  Modules come in two
kinds:

* finite irreducibles with dominant integral highest weight, built on the
  Gelfand-Tsetlin basis by its explicit formulas;
* truncated dual Verma modules for arbitrary complex highest weight,
  realized on the dual of a height-truncated Poincare-Birkhoff-Witt basis
  with the transpose-contragredient action.
"""

from __future__ import annotations

import math

import numpy as np

_WEIGHT_TOL = 1e-9
# integrality slack for simple-root coordinates of weight sums; the exact
# zero test is the one with _WEIGHT_TOL
_BUDGET_TOL = 1e-6


class LieAlgebraError(ValueError):
    """Unsupported input in the Lie algebra layer."""


# ---------------------------------------------------------------------------
# Root system.
# ---------------------------------------------------------------------------


class RootSystemData:
    """Everything about one algebra A_l, rank l <= 3.

    Attributes
    ----------
    simple_roots, positive_roots, roots, fundamental_weights : ndarray
        Coordinate vectors in the orthonormal Cartan basis, one row per
        root/weight.
    rho : ndarray
        Half sum of positive roots.
    roots_ab, root_vectors :
        ``root_vectors[k]`` is the matrix unit E_ab, (a, b) = ``roots_ab[k]``,
        which realizes the root ``roots[k]`` in the defining representation;
        positive roots come first, then their negatives in the same order,
        so the pairing partner of index k is ``negative_of(k)``.
    h_ortho : ndarray
        Orthonormal Cartan basis as diagonal defining-representation
        matrices, shape (rank, rank + 1, rank + 1).
    """

    def __init__(self, series: str, rank: int):
        if series != "A":
            raise LieAlgebraError(f"unsupported series {series!r}; only 'A' is built")
        if not 1 <= rank <= 3:
            raise LieAlgebraError(f"unsupported rank {rank}; supported range is 1..3")
        self.series = series
        self.rank = rank
        n = rank + 1
        self.n = n
        self.dual_coxeter = n
        self.dim_g = n * n - 1

        # positive roots eps_a - eps_b, a < b, ordered by height then lex,
        # so the simple roots come first
        pos_ab = sorted(
            ((a, b) for a in range(n) for b in range(a + 1, n)),
            key=lambda ab: (ab[1] - ab[0], ab),
        )
        self.roots_ab = tuple(pos_ab) + tuple((b, a) for (a, b) in pos_ab)
        self.root_vectors = np.zeros((len(self.roots_ab), n, n), dtype=complex)
        for k, (a, b) in enumerate(self.roots_ab):
            self.root_vectors[k, a, b] = 1.0

        # Orthonormal Cartan basis via Gram-Schmidt on the diagonals of
        # H_i = E_ii - E_i+1,i+1 under the trace form (equal to the
        # normalized invariant form here).
        diags = []
        coeff = []  # h_r = sum_j coeff[r][j] * H_j
        for i in range(rank):
            v = np.zeros(n, dtype=complex)
            v[i], v[i + 1] = 1.0, -1.0
            c = np.zeros(rank)
            c[i] = 1.0
            for u, cu in zip(diags, coeff):
                proj = (u * v).sum().real
                v = v - proj * u
                c = c - proj * cu
            nrm = math.sqrt((v * v).sum().real)
            diags.append(v / nrm)
            coeff.append(c / nrm)
        self.h_ortho = np.array([np.diag(d) for d in diags])

        # eps_a - eps_b evaluated on h_r
        diags = np.array(diags).real
        self.positive_roots = np.array([diags[:, a] - diags[:, b] for a, b in pos_ab])
        self.roots = np.vstack([self.positive_roots, -self.positive_roots])
        self.simple_roots = self.positive_roots[:rank].copy()
        # omega_i(h_r) = coefficient of H_i in h_r
        self.fundamental_weights = np.array(coeff).T.copy()
        self.rho = self.fundamental_weights.sum(axis=0)
        self.root_heights = tuple(b - a for (a, b) in pos_ab)

    # -- helpers --------------------------------------------------------

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

    def negative_of(self, k: int) -> int:
        s = self.n_positive
        return k + s if k < s else k - s

    def weight_from_fundamental(self, coeffs) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=complex)
        return coeffs @ self.fundamental_weights

    def fundamental_coords(self, weight) -> np.ndarray:
        """Pairings weight(H_i); integral dominant weights give ints."""
        return np.asarray(weight, dtype=complex) @ self.simple_roots.T.astype(
            complex
        )

    def root_coords(self, x) -> np.ndarray:
        """Coefficients along the root vectors of a defining matrix, or of
        a stack of them along the leading axes: its off-diagonal entries."""
        a, b = np.array(self.roots_ab).T
        return np.asarray(x)[..., a, b]

    def cartan_coords(self, x) -> np.ndarray:
        """Coordinates in h_r of the Cartan part of a defining matrix, or
        of a stack of them along the leading axes: the trace form of its
        diagonal with the diagonals of h_r."""
        return np.diagonal(x, axis1=-2, axis2=-1) @ np.diagonal(
            self.h_ortho, axis1=1, axis2=2
        ).T


def build_root_system(series: str, rank: int) -> RootSystemData:
    """Construct the root-system data for series 'A', rank 1..3."""
    return RootSystemData(series, rank)


def normalized_form(x: np.ndarray, y: np.ndarray, rs: RootSystemData) -> complex:
    """Invariant bilinear form: trace of ad(x) ad(y) over twice the dual
    Coxeter number.  Arguments are defining-representation matrices; each
    ad matrix brackets its argument with the whole basis (root vectors,
    then h_r) in one stacked product and reads the coordinates off."""
    basis = np.concatenate([rs.root_vectors, rs.h_ortho])

    def ad(m):
        br = m @ basis - basis @ m
        return np.concatenate([rs.root_coords(br), rs.cartan_coords(br)], axis=1).T

    return complex(np.trace(ad(x) @ ad(y))) / (2 * rs.dual_coxeter)


# ---------------------------------------------------------------------------
# Truncated Verma machinery.
# ---------------------------------------------------------------------------


class _TruncatedVerma:
    """Height-truncated Verma module on the PBW basis.

    Basis vectors are monomials f_{b1}^{k1} ... f_{bs}^{ks} applied to the
    highest weight vector, with positive roots b1 < ... < bs in the fixed
    order of the root system and total height at most ``depth``.  Lowering
    operators that would leave the truncation are dropped; everything else
    acts exactly.
    """

    def __init__(self, rs: RootSystemData, lam: np.ndarray, depth: int):
        self.rs = rs
        self.lam = np.asarray(lam, dtype=complex)
        s = rs.n_positive
        hts = rs.root_heights

        monos = []

        def rec(prefix, pos, height):
            if pos == s:
                monos.append(tuple(prefix))
                return
            max_k = (depth - height) // hts[pos]
            for k in range(max_k + 1):
                rec(prefix + [k], pos + 1, height + k * hts[pos])

        rec([], 0, 0)
        monos.sort(key=lambda k: (sum(ki * h for ki, h in zip(k, hts)), k))
        self.monomials = monos
        self.index = {m: i for i, m in enumerate(monos)}
        self.dim = len(monos)
        self.weights = np.array(
            [
                self.lam - sum((ki * rs.positive_roots[i] for i, ki in enumerate(m)),
                               np.zeros(rs.rank))
                for m in monos
            ],
            dtype=complex,
        )

        # bracket tables between root vectors: [e_g, e_d] decomposed into
        # root-vector coefficients and a Cartan remainder
        self._brackets = {}
        self._apply_memo = {}

    def _bracket(self, g: int, d: int):
        key = (g, d)
        if key not in self._brackets:
            rs = self.rs
            vecs = rs.root_vectors
            m = vecs[g] @ vecs[d] - vecs[d] @ vecs[g]
            coords = rs.root_coords(m)
            parts = [(int(k), coords[k]) for k in np.flatnonzero(coords)]
            cart = rs.cartan_coords(m) if np.any(np.diag(m)) else None
            self._brackets[key] = (parts, cart)
        return self._brackets[key]

    def apply_root(self, g: int, mono) -> dict:
        """Action of the root vector with index g on a basis monomial.

        Returns a dict monomial -> coefficient.  Index g refers to the
        full root list of the root system (positives then negatives).
        """
        key = (g, mono)
        memo = self._apply_memo
        if key in memo:
            return memo[key]
        rs = self.rs
        s = rs.n_positive
        out: dict = {}
        if not any(mono):
            if g >= s:  # lowering operator on the highest weight vector
                new = list(mono)
                new[g - s] += 1
                new = tuple(new)
                if new in self.index:
                    out[new] = 1.0 + 0j
            # raising operator kills the highest weight vector
        else:
            b = next(i for i, k in enumerate(mono) if k > 0)
            if g >= s and g - s <= b:
                new = list(mono)
                new[g - s] += 1
                new = tuple(new)
                if new in self.index:
                    out[new] = 1.0 + 0j
            else:
                rest = list(mono)
                rest[b] -= 1
                rest = tuple(rest)
                # X f_b m' = f_b (X m') + [X, f_b] m'
                fb = s + b
                for m2, c2 in self.apply_root(g, rest).items():
                    for m3, c3 in self.apply_root(fb, m2).items():
                        out[m3] = out.get(m3, 0j) + c2 * c3
                parts, cart = self._bracket(g, fb)
                for (k, ck) in parts:
                    for m3, c3 in self.apply_root(k, rest).items():
                        out[m3] = out.get(m3, 0j) + ck * c3
                if cart is not None:
                    # the weight of rest, evaluated on the Cartan part
                    w = self.weights[self.index[rest]]
                    out[rest] = out.get(rest, 0j) + complex(w @ cart)
        out = {m: c for m, c in out.items() if c != 0}
        memo[key] = out
        return out

    def matrix_of_root(self, g: int) -> np.ndarray:
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for j, mono in enumerate(self.monomials):
            for m2, c in self.apply_root(g, mono).items():
                m[self.index[m2], j] = c
        return m


# ---------------------------------------------------------------------------
# Represented modules.
# ---------------------------------------------------------------------------


class RepresentedModule:
    """A g-module on a weight basis.

    ``weights[i]`` is the weight of basis vector i in orthonormal
    coordinates, so the Cartan subalgebra acts diagonally by the weights.
    ``roots[k]`` is the matrix of the root vector with index k of the
    root system (positives, then negatives), one stack of shape
    (2 |Phi+|, dim, dim).  For dual Verma modules ``j_covector`` extracts
    the coefficient along the highest weight line (the pairing with the
    highest weight vector of the underlying Verma module).
    """

    def __init__(self, rs: RootSystemData, kind: str, highest_weight: np.ndarray,
                 weights: np.ndarray, roots: np.ndarray,
                 j_covector: np.ndarray | None = None, depth: int | None = None):
        self.rs, self.kind, self.highest_weight = rs, kind, highest_weight
        self.weights, self.roots = weights, roots
        self.j_covector, self.depth = j_covector, depth

    @property
    def dim(self) -> int:
        return len(self.weights)

    def represent(self, x: np.ndarray) -> np.ndarray:
        """Action of an arbitrary algebra element (defining matrix): the
        root-vector stack weighted by x's nonzero root coordinates, so a root
        vector's action is one stack slice, plus diag(weights @ cartan_coords(x))."""
        coords = self.rs.root_coords(x)
        nonzero = np.flatnonzero(coords)
        out = np.tensordot(coords[nonzero], self.roots[nonzero], 1)
        return out + np.diag(self.weights @ self.rs.cartan_coords(x))

    def dual_matrix(self, x: np.ndarray) -> np.ndarray:
        """Transpose action of x on the dual of the underlying space.

        (A acting on Phi)(v) = Phi(A v), so products reverse under this
        map.  Irreducible modules are stored by their own action, so this
        is the plain transpose.  Dual Verma modules are stored already
        acting on the dual space via the transpose-compose-involution
        construction; undoing the involution (transposing the defining
        matrix) recovers the plain transpose action.  Either way the
        Cartan subalgebra acts on the dual basis by the weights.
        """
        if self.kind == "dual_verma":
            return self.represent(np.asarray(x).T)
        return self.represent(x).T


def build_dual_verma(
    rs: RootSystemData, lam, depth: int
) -> RepresentedModule:
    """Truncated dual Verma module with highest weight lam.

    Realized on the dual basis of the truncated PBW basis; the action of
    an element x is the transpose of the Verma action of the
    defining-representation transpose of x.  This is the contragredient
    twist that keeps the highest weight equal to lam: raising operators
    climb toward the highest covector, and the pairing functional applied
    after a string of simple raisings reproduces Verma matrix elements
    exactly for heights below the truncation depth.  Since the transpose
    of the root vector with index k is the one with index -k, the stored
    ``roots[k]`` is the transposed Verma matrix of root -k.
    """
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (rs.rank,):
        raise LieAlgebraError(
            f"highest weight must have {rs.rank} orthonormal coordinates"
        )
    if depth < 1:
        raise LieAlgebraError("depth must be at least 1")
    tv = _TruncatedVerma(rs, lam, depth)
    roots = [tv.matrix_of_root(rs.negative_of(k)).T for k in range(len(rs.roots))]
    j = np.zeros(tv.dim, dtype=complex)
    j[tv.index[(0,) * rs.n_positive]] = 1.0
    return RepresentedModule(
        rs=rs,
        kind="dual_verma",
        highest_weight=lam,
        weights=tv.weights,
        roots=np.array(roots),
        j_covector=j,
        depth=depth,
    )


def _gt_patterns(top: tuple) -> list:
    """Gelfand-Tsetlin patterns with top row ``top``, each a tuple of rows
    from the bottom (length 1) up to ``top``: row k - 1 interlaces row k,
    m_{k,i} >= m_{k-1,i} >= m_{k,i+1}."""
    if len(top) == 1:
        return [(top,)]
    out = []
    for off in np.ndindex(*(a - b + 1 for a, b in zip(top, top[1:]))):
        row = tuple(b + o for b, o in zip(top[1:], off))
        out += [below + (top,) for below in _gt_patterns(row)]
    return out


def build_irrep(rs: RootSystemData, lam) -> RepresentedModule:
    """Finite irreducible module with dominant integral highest weight.

    Built on the Gelfand-Tsetlin basis of the gl(n) irreducible with top
    row m_a = f_a + ... + f_l (m_n = 0), f the fundamental coordinates of
    lam: E_kk acts diagonally, which gives the weights, E_k,k+1 and
    E_k+1,k act by the rational formulas of A. Molev, arXiv:math/0211289,
    section 2, in l_ki = m_ki - i + 1, and the other root vectors are
    commutators.  Basis vectors are ordered by weight, highest first; the
    dimension is checked against the Weyl dimension formula.
    """
    lam = np.asarray(lam, dtype=complex)
    fund = rs.fundamental_coords(lam)
    if np.max(np.abs(fund.imag)) > _WEIGHT_TOL:
        raise LieAlgebraError(f"highest weight {lam} is not real dominant")
    fund_int = np.rint(fund.real)
    if np.max(np.abs(fund.real - fund_int)) > _WEIGHT_TOL or np.min(fund_int) < 0:
        raise LieAlgebraError(
            f"highest weight with pairings {fund.real} is not dominant integral"
        )
    lam = rs.weight_from_fundamental(fund_int).real.astype(complex)

    n = rs.n
    top = tuple(int(sum(fund_int[a:])) for a in range(n - 1)) + (0,)
    # E_aa acts on a pattern by the sum of row a + 1 minus that of row a
    weight = {p: tuple(sum(p[a]) - (sum(p[a - 1]) if a else 0) for a in range(n))
              for p in _gt_patterns(top)}
    pats = sorted(weight, key=weight.get, reverse=True)
    index = {p: s for s, p in enumerate(pats)}
    dim = len(pats)
    mu = np.array([weight[p] for p in pats], dtype=float)

    E = {}
    for k in range(1, n):  # E_k,k+1 and E_k+1,k; rows numbered 1..n
        up = np.zeros((dim, dim), dtype=complex)
        down = np.zeros((dim, dim), dtype=complex)
        for s, p in enumerate(pats):
            l = [()] + [[m - i for i, m in enumerate(row)] for row in p]
            for i, li in enumerate(l[k]):
                den = math.prod(li - x for j, x in enumerate(l[k]) if j != i)
                for step, mat, num in (
                    (1, up, -math.prod(li - x for x in l[k + 1])),
                    (-1, down, math.prod(li - x for x in l[k - 1])),
                ):
                    row = list(p[k - 1])
                    row[i] += step
                    t = index.get(p[: k - 1] + (tuple(row),) + p[k:])
                    if t is not None:
                        mat[t, s] = num / den
        E[k - 1, k], E[k, k - 1] = up, down
    for d in range(2, n):  # E_ab = [E_ac, E_cb], c the neighbour of a toward b
        for a in range(n - d):
            for x, c, y in ((a, a + 1, a + d), (a + d, a + d - 1, a)):
                E[x, y] = E[x, c] @ E[c, y] - E[c, y] @ E[x, c]

    hdiag = np.diagonal(rs.h_ortho, axis1=1, axis2=2).real.T  # (n, rank)
    mod = RepresentedModule(
        rs=rs,
        kind="irrep",
        highest_weight=lam,
        weights=(mu @ hdiag).astype(complex),
        roots=np.array([E[ab] for ab in rs.roots_ab]),
    )
    expected = _weyl_dimension(rs, lam)
    if mod.dim != expected:
        raise LieAlgebraError(
            f"irrep construction produced dimension {mod.dim}, Weyl formula "
            f"gives {expected}"
        )
    return mod


def _weyl_dimension(rs: RootSystemData, lam: np.ndarray) -> int:
    num = 1.0
    den = 1.0
    for alpha in rs.positive_roots:
        num *= float((lam.real + rs.rho) @ alpha)
        den *= float(rs.rho @ alpha)
    return round(num / den)


# ---------------------------------------------------------------------------
# Tensor products and zero-weight spaces.
# ---------------------------------------------------------------------------


class TensorSpace:
    """Tensor product of represented modules with its zero-weight data.

    The product basis is ordered row-major (last factor fastest), matching
    the Kronecker products used to promote single-factor operators.  Only
    the zero-weight tuples are enumerated: every basis weight of a site is
    lambda_i - beta with beta in the positive root lattice, so a prefix of
    sites whose summed beta exceeds that of sum(lambda_i) in some
    simple-root coordinate cannot be completed and is pruned.
    """

    def __init__(self, modules, tol: float = _WEIGHT_TOL):
        self.modules = list(modules)
        if not self.modules:
            raise LieAlgebraError("tensor product needs at least one factor")
        self.rs = self.modules[0].rs
        self.dims = [m.dim for m in self.modules]
        budget = root_budget(self.rs, [m.highest_weight for m in self.modules])
        tuples = [] if budget is None else self._candidates(budget)
        arr = np.array(tuples, dtype=int).reshape(len(tuples), len(self.modules))
        # the zero test the full product would apply, in the same order of
        # summation, on the candidates whose lowering matches the budget
        w = np.zeros((len(arr), self.rs.rank), dtype=complex)
        for pos, m in enumerate(self.modules):
            w += m.weights[arr[:, pos]]
        self.zero_array = arr[np.max(np.abs(w), axis=1, initial=0.0) < tol]
        self.zero_indices = np.ravel_multi_index(tuple(self.zero_array.T), self.dims)

    def _candidates(self, budget: np.ndarray) -> list:
        """Tuples whose summed site lowering equals budget, in lex order."""
        lowering = [module_lowering(m) for m in self.modules]
        last: dict = {}
        for k, beta in enumerate(lowering[-1]):
            last.setdefault(beta, []).append(k)
        out = []

        def rec(prefix, left):
            if len(prefix) == len(lowering) - 1:
                for k in last.get(left, ()):
                    out.append(prefix + (k,))
                return
            for k, beta in enumerate(lowering[len(prefix)]):
                rest = tuple(a - b for a, b in zip(left, beta))
                if min(rest) >= 0:
                    rec(prefix + (k,), rest)

        rec((), tuple(int(b) for b in budget))
        return out

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def dim0(self) -> int:
        return len(self.zero_indices)

    def zero_tuples(self):
        return [tuple(int(k) for k in tup) for tup in self.zero_array]

    def op_full(self, i: int, mat: np.ndarray) -> np.ndarray:
        """Operator acting on factor i, promoted to the full product.

        Dense reference for tests; the Gaudin layer never builds it.
        """
        out = np.array([[1.0 + 0j]])
        for pos, d in enumerate(self.dims):
            out = np.kron(out, mat if pos == i else np.eye(d, dtype=complex))
        return out

    def restrict_zero(self, mat: np.ndarray) -> np.ndarray:
        return mat[np.ix_(self.zero_indices, self.zero_indices)]


def _root_coords(rs: RootSystemData, weights) -> np.ndarray:
    """Simple-root coordinates of weights (one per row, or a single one):
    the pairings with the fundamental weights, the basis dual to the simple
    roots."""
    return np.asarray(weights, dtype=complex) @ rs.fundamental_weights.T


def module_lowering(module: RepresentedModule) -> list:
    """Per basis index, the simple-root coordinates of lambda - mu for the
    highest weight lambda and the basis weight mu, as a tuple of ints."""
    beta = _root_coords(module.rs, module.highest_weight - module.weights)
    rounded = np.rint(beta.real).astype(int)
    if np.max(np.abs(beta - rounded), initial=0.0) > _BUDGET_TOL:
        raise LieAlgebraError("module weights are not highest weight minus positive roots")
    return [tuple(b) for b in rounded.tolist()]


def root_budget(rs: RootSystemData, weights):
    """Simple-root coordinates of sum(weights) as integers, or None.

    None means the sum is not in the positive root lattice, so no choice
    of site weights lambda_i - beta_i sums to zero.
    """
    total = _root_coords(rs, np.sum(np.asarray(weights, dtype=complex), axis=0))
    rounded = np.rint(total.real).astype(int)
    if np.max(np.abs(total - rounded)) > _BUDGET_TOL or np.any(rounded < 0):
        return None
    return rounded


def min_dual_verma_depth(rs: RootSystemData, weights):
    """Truncation depth a dual Verma site needs, or None if unconstrained.

    With M = ht(sum lambda_i) a site carries height at most M in a
    zero-weight tuple, and the term e_{-a}^(i) e_a^(i) of the transfer
    operator passes through height M + ht(a) on that site, so the
    truncation must reach M + ht(theta).  None when the zero-weight space
    is trivial.
    """
    budget = root_budget(rs, weights)
    if budget is None:
        return None
    return int(budget.sum()) + max(rs.root_heights)
