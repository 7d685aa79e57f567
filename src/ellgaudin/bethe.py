"""Bethe ansatz for the elliptic Gaudin model.

Sites carry dual Verma modules with weights whose sum lies in the
positive root lattice; each Bethe root t_j carries a simple root.  The
module provides the algebraic equations for the roots, a damped Newton
solver over quasi-random seeds, the eigenvector built from ordered
partitions of the roots over the sites, and the closed-form eigenvalue,
together with a residual check that the vector is an eigenvector of the
transfer operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product as _iproduct

import numpy as np

from .elliptic import (
    EllipticError,
    Jet,
    _linear_substitution,
    jet_indices,
    lattice_distance,
    zeta11_coeffs,
)
from .gaudin import GaudinError, GaudinProblem, _kernel_series, check_regular
from .liealg import root_budget


class BetheError(Exception):
    """Raised for invalid Bethe configurations."""


def default_assignment(rs, weights) -> tuple:
    """Simple-root labels for the Bethe roots, in increasing label order.

    The weights must sum into the positive root lattice, as those of a
    ``GaudinProblem`` do.
    """
    out = []
    for s, n in enumerate(root_budget(rs, weights)):
        out.extend([s] * int(n))
    return tuple(out)


def halton_points(count: int, dim: int) -> np.ndarray:
    """The first ``count`` points of the unscrambled Halton sequence.

    Coordinate j of point i is the radical inverse of i in the j-th prime
    base, digits summed from the least significant one.
    """
    bases = []
    candidate = 2
    while len(bases) < dim:
        if all(candidate % p for p in bases):
            bases.append(candidate)
        candidate += 1
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


@dataclass
class BetheSolution:
    t: np.ndarray
    residual: float
    iterations: int


class BetheSystem:
    """Bethe equations and eigenvectors for a dual-Verma Gaudin problem."""

    def __init__(self, problem: GaudinProblem, assignment=None):
        self.problem = problem
        rs = problem.rs
        for k, mod in enumerate(problem.modules, start=1):
            if mod.j_covector is None:
                raise BetheError(
                    "the Bethe construction needs dual_verma site modules; "
                    f"site {k} is {mod.kind}"
                )
        self.weights = [
            np.asarray(mod.highest_weight, dtype=complex)
            for mod in problem.modules
        ]
        if assignment is None:
            assignment = default_assignment(rs, self.weights)
        self.assignment = tuple(int(a) for a in assignment)
        if any(a < 0 or a >= rs.rank for a in self.assignment):
            raise BetheError("assignment entries must be simple-root labels")
        self.M = len(self.assignment)
        self.alphas = [
            np.asarray(rs.simple_roots[a], dtype=complex)
            for a in self.assignment
        ]
        # with the charge balanced, M is the height of the summed weights,
        # so GaudinProblem has already enforced the depth bound M + ht(theta)
        self._check_charge()
        alphas = np.reshape(self.alphas, (self.M, rs.rank))
        # (a_j | lam_i) and (a_j | a_k), fixed per system
        self._site_pairing = (alphas @ np.transpose(self.weights)).tolist()
        self._root_pairing = (alphas @ alphas.T).tolist()
        # the unordered root pairs j < k
        self._pairs = [(j, k) for j in range(self.M) for k in range(j + 1, self.M)]
        # the charges lam_i of the sites, then -a_j of the roots, whose
        # pairings weigh zeta(z_i - u) and zeta(t_j - u) in the eigenvalue
        self._charges = np.concatenate(
            [np.reshape(self.weights, (-1, rs.rank)), -alphas]
        )
        self._simple_roots = np.asarray(rs.simple_roots, dtype=complex)
        # (subset, basis index) at a site -> its chains; see _chains
        self._chain_table: dict = {}

    def _check_charge(self, tol: float = 1e-12):
        total = np.sum(self.weights, axis=0)
        target = (
            np.sum(self.alphas, axis=0)
            if self.alphas
            else np.zeros(self.problem.rs.rank, dtype=complex)
        )
        if np.max(np.abs(total - target)) > tol:
            raise BetheError(
                "charge condition violated: sum of site weights "
                f"{total} does not equal the assigned root sum {target}"
            )

    # -- the algebraic system -------------------------------------------

    def equations(self, t):
        """Residual vector and Jacobian of the Bethe system at t.

        res_j = sum_i (a_j|lam_i) zeta(t_j - z_i)
                - sum_{k != j} (a_j|a_k) zeta(t_j - t_k).

        zeta is odd and zeta' even, so zeta is taken once per unordered
        pair of roots, at whichever of +-(t_j - t_k) comes first in the
        order (Im, Re) from above, which keeps the residual exactly
        covariant under relabelling the roots.  All M N + M (M - 1) / 2
        arguments go to one kernel call; the few terms are then summed as
        Python numbers, which costs less than array operations would.
        """
        roots = np.asarray(t, dtype=complex).tolist()
        M, zs = self.M, self.problem.positions
        diffs = [roots[j] - roots[k] for j, k in self._pairs]
        signs = [-1.0 if (d.imag, d.real) < (0.0, 0.0) else 1.0 for d in diffs]
        args = [tj - z for tj in roots for z in zs]
        args += [s * d for s, d in zip(signs, diffs)]
        ze = zeta11_coeffs(args, self.problem.md, 1).tolist()
        res = [0j] * M
        jac = [[0j] * M for _ in range(M)]
        for j, row in enumerate(self._site_pairing):
            for pair, (value, slope) in zip(row, ze[j * len(zs) : (j + 1) * len(zs)]):
                res[j] += pair * value
                jac[j][j] += pair * slope
        for (j, k), sign, (value, slope) in zip(self._pairs, signs, ze[M * len(zs) :]):
            pair = self._root_pairing[j][k]
            value = pair * (sign * value)
            slope = pair * slope
            res[j] -= value
            res[k] += value
            jac[j][j] -= slope
            jac[k][k] -= slope
            jac[j][k] += slope
            jac[k][j] += slope
        return np.array(res), np.array(jac)

    # -- solver ------------------------------------------------------------

    def _seed_points(self, count: int):
        md = self.problem.md
        seeds = []
        for p in halton_points(count, 2 * self.M):
            t = np.array(
                [
                    p[2 * j] + (0.08 + 0.84 * p[2 * j + 1]) * md.tau
                    for j in range(self.M)
                ],
                dtype=complex,
            )
            seeds.append(t)
        return seeds

    def _too_close(self, t, guard: float) -> bool:
        """Whether a root comes within ``guard`` of a site or of another
        root, modulo the lattice; one distance call for all of them."""
        t = np.asarray(t, dtype=complex)
        j, k = np.triu_indices(self.M, 1)
        gaps = np.concatenate(
            [(t[:, None] - np.asarray(self.problem.positions)).ravel(), t[j] - t[k]]
        )
        return bool(np.any(lattice_distance(gaps, self.problem.md) < guard))

    def _newton(self, t0, tol, max_iter, guard):
        t = np.asarray(t0, dtype=complex)
        try:
            res, jac = self.equations(t)
        except (EllipticError, OverflowError):
            return None
        best = float(np.max(np.abs(res)))
        for it in range(1, max_iter + 1):
            if best < tol:
                return BetheSolution(t, best, it - 1)
            try:
                step = np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                return None
            damp = 1.0
            for _ in range(25):
                cand = t - damp * step
                try:
                    res_c, jac_c = self.equations(cand)
                except EllipticError:
                    damp /= 2
                    continue
                except OverflowError:
                    # theta's quasi-periodicity factor overflowed: the
                    # step diverged, so this seed fails
                    return None
                norm_c = float(np.max(np.abs(res_c)))
                if norm_c < best or best < 1e-9:
                    t, res, jac, best = cand, res_c, jac_c, norm_c
                    break
                damp /= 2
            else:
                return None
        if best < tol and not self._too_close(t, guard):
            return BetheSolution(t, best, max_iter)
        return None

    def _equivalent(self, ta, tb, tol: float = 1e-8) -> bool:
        """Same solution up to integer shifts and group permutations."""
        groups: dict = {}
        for j, a in enumerate(self.assignment):
            groups.setdefault(a, []).append(j)
        for perm_choice in _iproduct(
            *(permutations(idx) for idx in groups.values())
        ):
            mapping = {}
            for orig, permed in zip(groups.values(), perm_choice):
                for x, y in zip(orig, permed):
                    mapping[x] = y
            ok = True
            for j in range(self.M):
                d = ta[j] - tb[mapping[j]]
                if abs(d.imag) > tol or abs(d.real - round(d.real)) > tol:
                    ok = False
                    break
            if ok:
                return True
        return False

    def solve(
        self,
        n_seeds: int = 32,
        tol: float = 1e-12,
        max_iter: int = 200,
        guard: float = 0.05,
        seeds=None,
    ):
        """All distinct Bethe roots reachable from the seed list.

        Seeds default to a low-discrepancy grid over the fundamental cell;
        an explicit list of complex M-vectors overrides it.  The equations
        are invariant under unit shifts t_j -> t_j + 1 and under
        permutations of roots sharing a simple-root label, so solutions
        are deduplicated modulo both.
        """
        if seeds is None:
            seeds = self._seed_points(n_seeds)
        found = []
        for seed in seeds:
            seed = np.asarray(seed, dtype=complex)
            if self._too_close(seed, guard):
                continue
            sol = self._newton(seed, tol, max_iter, guard)
            if sol is None:
                continue
            if any(self._equivalent(sol.t, f.t) for f in found):
                continue
            found.append(sol)
        found.sort(
            key=lambda s: tuple(
                (round(x.real - math.floor(x.real), 9), round(x.imag, 9))
                for x in np.sort_complex(s.t)
            )
        )
        return found

    # -- Bethe vector -------------------------------------------------------

    def _chains(self, a: int, subset, basis_index: int) -> tuple:
        """The orderings sigma of the subset whose raising string at site a
        has a nonzero highest-weight coefficient at the basis index, as
        (coefficient, sigma) pairs.

        In dual coordinates that coefficient is the string of F matrices
        applied to the highest-weight functional, innermost raising factor
        first; it carries the Shapovalov-type factors of the Verma module.
        It depends on neither t nor H, so it is tabled per system.
        """
        key = (a, subset, basis_index)
        if key not in self._chain_table:
            mod = self.problem.modules[a]
            chains = []
            for sigma in permutations(subset):
                vec = np.asarray(mod.j_covector, dtype=complex)
                for j in reversed(sigma):
                    vec = mod.matrix(("F", self.assignment[j])) @ vec
                coeff = complex(vec[basis_index])
                if coeff != 0:
                    chains.append((coeff, sigma))
            self._chain_table[key] = tuple(chains)
        return self._chain_table[key]

    def _chain_kernels(self, a: int, sigma):
        """Kernel keys (P, j, target) of the chain sigma at site a: the
        prefix P of sigma as counts of each simple-root label, the root j
        that closes it, and the next root of sigma or, last, the site
        (index M + a)."""
        counts = [0] * self.problem.rs.rank
        keys = []
        for pos, j in enumerate(sigma):
            counts[self.assignment[j]] += 1
            target = sigma[pos + 1] if pos + 1 < len(sigma) else self.M + a
            keys.append((tuple(counts), j, target))
        return keys

    def _bracket(self, a: int, subset, basis_index: int, kernels: dict, order: int):
        """<I; v; z_a, t> as a jet in xi.

        Sums over the chains of the subset (``_chains``) their coefficient
        times the chain of kernels
        w_{-partial root sum}(t_- - t_next) ... w_{-full sum}(t_last - z_a),
        read from the kernel table of ``vector_jet``.
        """
        l = self.problem.rs.rank
        if not subset:
            mod = self.problem.modules[a]
            return Jet.constant(mod.j_covector[basis_index], l, order)
        acc = Jet(l, order)
        for coeff, sigma in self._chains(a, subset, basis_index):
            jet = Jet.constant(coeff, l, order)
            for key in self._chain_kernels(a, sigma):
                jet = jet * kernels[key]
            acc = acc + jet
        return acc

    def _kernel_table(self, keys, t, H, order: int) -> dict:
        """Kernel key (P, j, target) -> the jet in xi of w_{-P(xi)}(x),
        x = t_j - target, as the series of w_{c0+h}(x) in h = -P(xi - H) at
        c0 = -P(H), substituted into the xi variables.  All kernels come
        from one ``_kernel_series`` call."""
        if not keys:
            return {}
        targets = np.concatenate([t, self.problem.positions])
        prefixes = np.array([key[0] for key in keys], dtype=float) @ self._simple_roots
        c0s = -(prefixes @ H)
        xs = np.array([t[j] - targets[target] for _, j, target in keys])
        series = _kernel_series(c0s, xs, self.problem.md, order)
        return {
            key: _linear_substitution(row, -direction)
            for key, row, direction in zip(keys, series.tolist(), prefixes)
        }

    def vector_jet(self, t, H, order: int = 0) -> Jet:
        """Jet of the Bethe vector over the zero-weight product basis.

        Component at a basis tuple (k_1..k_N): sum over ordered set
        partitions of the Bethe roots across the sites of the product of
        site brackets.  A first pass finds the brackets each component
        multiplies and the kernels their chains need; the kernels are then
        tabled once for this (t, H).
        """
        t = np.asarray(t, dtype=complex)
        H = np.asarray(H, dtype=complex)
        check_regular(self.problem.rs, self.problem.md, H)
        space = self.problem.space
        nsites = len(self.problem.modules)
        l = self.problem.rs.rank

        partitions = []
        for assign in _iproduct(range(nsites), repeat=self.M):
            subsets = [
                tuple(j for j in range(self.M) if assign[j] == a)
                for a in range(nsites)
            ]
            partitions.append(subsets)

        # per basis tuple, the bracket keys of each partition whose
        # brackets all have a chain; a bracket without one ends its term
        terms = []
        brackets: dict = {}
        for tup in space.zero_tuples():
            row = []
            for subsets in partitions:
                keys = []
                for a in range(nsites):
                    key = (a, subsets[a], tup[a])
                    if subsets[a] and not self._chains(*key):
                        break
                    keys.append(key)
                    brackets[key] = None
                else:
                    row.append(keys)
            terms.append(row)

        needed: dict = {}
        for key in brackets:
            for _, sigma in self._chains(*key):
                needed.update(dict.fromkeys(self._chain_kernels(key[0], sigma)))
        kernels = self._kernel_table(list(needed), t, H, order)
        for key in brackets:
            brackets[key] = self._bracket(*key, kernels, order)

        comps = []
        for row in terms:
            acc = Jet(l, order)
            for keys in row:
                term = Jet.constant(1.0, l, order)
                for key in keys:
                    term = term * brackets[key]
                acc = acc + term
            comps.append(acc)

        coeffs = {}
        for m in jet_indices(l, order):
            vec = np.array([c.coeff(m) for c in comps], dtype=complex)
            if np.any(vec):
                coeffs[m] = vec
        return Jet(l, order, coeffs)

    # -- eigenvalue ----------------------------------------------------------

    def _zetas_at(self, t, us: np.ndarray) -> np.ndarray:
        """(zeta, zeta') at z_i - u for the sites, then at t_j - u for the
        roots, for every u of the 1-D array us, shape (len(us), N + M, 2),
        in one kernel call."""
        args = np.concatenate([self.problem.positions, np.asarray(t, dtype=complex)])
        diffs = args[None, :] - us[:, None]
        ze = zeta11_coeffs(diffs.ravel(), self.problem.md, 1)
        return ze.reshape(diffs.shape + (2,))

    def zeta_bar(self, direction, t, u: complex) -> complex:
        """sum_i lam_i(h) zeta(z_i-u) - sum_j a_j(h) zeta(t_j-u) contracted
        with the given coordinate vector."""
        ze = self._zetas_at(t, np.array([u], dtype=complex))[0]
        return complex((self._charges @ np.asarray(direction)) @ ze[:, 0])

    def eigenvalue(self, t, u):
        """tau_Psi(u) = 1/2 sum_r zeta_bar(h_r;u)^2 + d_u zeta_bar(rho;u).

        ``u`` is a spectral parameter, giving a complex number, or a 1-D
        array of them, giving an array of values.  One kernel call serves
        every u, Cartan direction and the rho term; each u's sums are
        their own matrix products, the same whatever the array around it.
        """
        us = np.asarray(u, dtype=complex)
        ze = self._zetas_at(t, us.reshape(-1))
        bars = ze[:, None, :, 0] @ self._charges
        rho = np.asarray(self.problem.rs.rho, dtype=complex)
        # d/du zeta(x - u) = -zeta'(x - u)
        values = (0.5 * (bars @ bars.transpose(0, 2, 1)))[:, 0, 0] - (
            (self._charges @ rho) @ ze[:, :, 1, None]
        )[:, 0]
        return complex(values[0]) if us.ndim == 0 else values

    # -- verification ---------------------------------------------------------

    def verify_eigenvector(self, t, h_points, u_points, tiny: float = 1e-12):
        """Relative residual of (transfer(u) - tau_Psi(u)) Psi over samples.

        The eigenvalues at all ``u_points`` come from one ``eigenvalue``
        call.  Per Cartan point the Bethe vector's jet is built once, and
        one transfer operator batched over all ``u_points`` (a leading
        batch axis on its coefficients) is applied to it in one ``apply``.

        Returns a dict with the largest relative residual, the smallest
        vector norm encountered, and a status flag; when the vector is
        numerically zero everywhere the check is inconclusive.
        """
        max_rel = 0.0
        min_norm = math.inf
        seen_nonzero = False
        us = np.asarray(u_points, dtype=complex).reshape(-1)
        eigs = self.eigenvalue(t, us)
        for H in h_points:
            H = np.asarray(H, dtype=complex)
            # the transfer operator is second order; one jet serves every u
            psi_jet = self.vector_jet(t, H, 2)
            psi = psi_jet.value
            norm = float(np.max(np.abs(psi)))
            min_norm = min(min_norm, norm)
            if norm < tiny or not len(us):
                continue
            seen_nonzero = True
            lhs = self.problem.transfer(us, H).apply(psi_jet)
            rel = np.max(np.abs(lhs - eigs[:, None] * psi), axis=1) / norm
            max_rel = np.maximum(max_rel, np.max(rel))
        status = "ok" if seen_nonzero else "inconclusive"
        return {"max_rel": float(max_rel), "min_norm": min_norm, "status": status}
