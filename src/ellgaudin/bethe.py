"""Bethe ansatz for the elliptic Gaudin model.

Sites carry dual Verma modules with weights whose sum lies in the
positive root lattice; each Bethe root t_j carries a simple root.  The
module provides the algebraic equations for the roots, a damped Newton
solver that runs all its quasi-random seeds in lockstep, the eigenvector,
and the closed-form eigenvalue, together with a residual check that the
vector is an eigenvector of the transfer operator.  Every function takes
its root points as an (S, M) stack, one row per point, and gives each row
what it gets alone, its fault included, so one evaluation serves every
seed of a Newton round.  The eigenvector is computed on array jets: its site
brackets by a Held-Karp recursion over root subsets, for all basis
indices at once, and its components by contracting the brackets site by
site over the root subsets used.
"""

from __future__ import annotations

import math
from itertools import count, product as _iproduct
from typing import NamedTuple

import numpy as np

from .elliptic import (
    POLE,
    Jet,
    _cauchy_table,
    _raise_fault,
    array_jet_product,
    jet_indices,
    lattice_distance,
    linear_substitution_rows,
    zeta11_coeffs,
)
from .gaudin import (GaudinError, GaudinProblem, _kernel_series, check_regular,
                     pass_slices, root_values)
from .liealg import module_lowering, root_budget


# The bytes that the largest arrays of one pass of
# BetheSystem.verify_eigenvector may take, as BetheSystem._entry_bytes
# estimates them; entries beyond that go to further passes.
_PASS_BYTES = 1 << 21


def _product(a, b) -> np.ndarray:
    """a * b over complex arrays, a broadcast to b's shape, as Python
    multiplies complex numbers: (ac - bd) + (ad + bc)i, each product
    rounded on its own; NumPy's complex multiply may fuse them and differ
    in the last bit."""
    out = np.empty(b.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


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
        # digit by digit over all points; a point out of digits adds 0.0
        f, k = 1.0, np.arange(count)
        while k.any():
            f /= b
            pts[:, j] += f * (k % b)
            k //= b
    return pts


def _has_permutation(close) -> bool:
    """Whether the boolean (M, M) matrix close holds a permutation pi, all
    close[j, pi(j)]: a perfect matching, grown along augmenting paths."""
    columns = [[k for k, x in enumerate(row) if x] for row in close.tolist()]
    owner: dict = {}  # column -> the row matched to it

    def augment(j, seen) -> bool:
        for k in columns[j]:
            if k not in seen:
                seen.add(k)
                if k not in owner or augment(owner[k], seen):
                    owner[k] = j
                    return True
        return False

    return all(augment(j, set()) for j in range(len(columns)))


class BetheSolution(NamedTuple):
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
        # the tables of equations.  Its kernel arguments, per row: t_j - z_i
        # at column N j + i, then the unordered root pairs j < k, each with
        # its pairing (a_j|lam_i) or (a_j|a_k)
        N, M = len(problem.positions), self.M
        j, k = np.triu_indices(M, 1)
        self._pair_ends = (j, k)
        self._pairing = np.concatenate(
            [(alphas @ np.transpose(self.weights)).ravel(), (alphas @ alphas.T)[j, k]]
        )[:, None]
        pair = np.zeros((M, M), dtype=int)
        pair[j, k] = pair[k, j] = M * N + np.arange(len(j))
        partner = np.nonzero(~np.eye(M, dtype=bool))[1].reshape(M, max(M - 1, 0))
        # the terms of root m's sums, (terms, M): its sites, then its pairs
        # in increasing partner order, which is the pairs' order; a pair's
        # value counts -1 at the root that comes first, its slope -1 at both
        self._gather = np.concatenate(
            [np.arange(M * N).reshape(M, N), np.take_along_axis(pair, partner, 1)], axis=1
        ).T
        self._signs = np.ones(self._gather.shape + (4,))
        self._signs[N:, :, :2] = np.where(partner.T > np.arange(M), -1.0, 1.0)[..., None]
        self._signs[N:, :, 2:] = -1.0
        # the outputs from the sums (residual m at 2 m, Jacobian diagonal
        # entry at 2 m + 1) and the pairs' slopes (from 2 M on)
        jac = np.where(np.eye(M, dtype=bool), 2 * np.arange(M) + 1, pair + (2 - N) * M)
        self._layout = np.concatenate([2 * np.arange(M), jac.ravel()])
        # the charges lam_i of the sites, then -a_j of the roots, whose
        # pairings weigh zeta(z_i - u) and zeta(t_j - u) in the eigenvalue
        self._charges = np.concatenate(
            [np.reshape(self.weights, (-1, rs.rank)), -alphas]
        )
        self._simple_roots = np.asarray(rs.simple_roots, dtype=complex)
        # the root pairs that share a label, which a relabelling may swap
        self._same_label = np.equal.outer(self.assignment, self.assignment)
        # the index tables of vector_jet, built by its first call
        self._plan = None

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
        """Residual vectors and Jacobians of the Bethe system at the rows of
        the (S, M) stack t, shapes (S, M) and (S, M, M), and each row's
        fault, the highest of its zeta arguments' (``zeta11_coeffs``), or
        0, shape (S,); a row with a fault holds NaN.

        res_j = sum_i (a_j|lam_i) zeta(t_j - z_i)
                - sum_{k != j} (a_j|a_k) zeta(t_j - t_k).

        zeta is odd and zeta' even, so zeta is taken once per unordered
        pair of roots, at whichever of +-(t_j - t_k) comes first in the
        order (Im, Re) from above, which keeps the residual exactly
        covariant under relabelling the roots.  The M N + M (M - 1) / 2
        arguments of every row go to one kernel call, whose rows neither
        depend on the batch around them nor fail with it.  The rest is
        array work over the whole stack that gives each entry the bits of a
        scalar loop: products as Python multiplies complex numbers
        (``_product``), and each residual and Jacobian diagonal entry summed
        in sequence from +0.0, its sites first, then its pairs in increasing
        partner order, with ``np.add.accumulate``, which never adds
        pairwise.  Each off-diagonal entry is +0.0 plus its pair's slope.
        """
        t = np.asarray(t, dtype=complex)
        count, (j, k) = len(t), self._pair_ends
        width, nsite = len(self._pairing), self.M * len(self.problem.positions)
        with np.errstate(invalid="ignore"):  # the kernel names a NaN or inf row's fault
            d = t[:, j] - t[:, k]
            # -1 where (Im, Re) < (0, 0), as a complex factor (s, 0.0)
            sign = np.where(np.where(d.imag == 0, d.real, d.imag) < 0, -1 + 0j, 1 + 0j)
            sites = (t[:, :, None] - np.asarray(self.problem.positions)).reshape(count, nsite)
            args = np.concatenate([sites, _product(sign, d)], axis=1)
        ze, faults = zeta11_coeffs(args.ravel(), self.problem.md, 1)
        ze, fault = ze.reshape(count, width, 2), faults.reshape(count, width).max(axis=1, initial=0)
        ze[:, nsite:, 0] = _product(sign, ze[:, nsite:, 0])
        terms = _product(self._pairing, ze)
        # (count, terms, M, 4): value and slope, real and imaginary parts
        gathered = terms.view(float).take(self._gather, axis=1) * self._signs
        gathered[:, 0] += 0.0  # each sum starts from +0.0, as 0j + x does
        sums = np.add.accumulate(gathered, axis=1)[:, -1].view(complex).reshape(count, -1)
        out = np.concatenate([sums, terms[:, nsite:, 1] + 0.0], axis=1).take(self._layout, axis=1)
        out[fault > 0] = np.nan
        return out[:, : self.M], out[:, self.M :].reshape(count, self.M, self.M), fault

    # -- solver ------------------------------------------------------------

    def _seed_points(self, count: int) -> np.ndarray:
        """The (count, M) stack of seeds over the cell: from the Halton
        point p, t_j = p_2j + (0.08 + 0.84 p_2j+1) tau."""
        p = halton_points(count, 2 * self.M)
        return p[:, 0::2] + (0.08 + 0.84 * p[:, 1::2]) * self.problem.md.tau

    def _too_close(self, t, guard: float) -> np.ndarray:
        """Per row of the (S, M) stack t, whether a root comes within
        ``guard`` of a site or of another root, modulo the lattice, shape
        (S,); one distance call for all of them."""
        t = np.asarray(t, dtype=complex)
        j, k = np.triu_indices(self.M, 1)
        zs = np.asarray(self.problem.positions)
        sites = (t[:, :, None] - zs).reshape(len(t), self.M * len(zs))
        gaps = np.concatenate([sites, t[:, j] - t[:, k]], axis=1)
        return np.any(lattice_distance(gaps, self.problem.md) < guard, axis=1)

    def _lockstep(self, points, tol, max_iter) -> list:
        """Damped Newton from every row of the (S, M) stack points: per
        seed, the BetheSolution it reaches, or None.

        Each seed runs its own iteration.  A step J^-1 res is tried at
        damp = 1, 1/2, 1/4, ... for up to 25 candidates t - damp step; the
        first whose residual norm falls below the best so far is accepted,
        any once that best is under 1e-9, and a candidate near a pole only
        halves damp.  A seed fails when its first evaluation has a fault, a
        candidate any other (the step diverged), its Jacobian is singular,
        its line search runs out or it has taken max_iter steps.  It
        converges once its norm is under tol, after at most max_iter steps.

        The seeds advance in lockstep, the ones that begin a step and the
        ones that search a step each a boolean mask over the seed axis:
        each round evaluates the candidates of every searching seed, in
        seed order, in one ``equations`` call with a fault per row, and the
        seeds that begin a step take it from one stacked solve.  Both give
        every row what it would get alone, so each seed follows its own
        path.
        """
        count = len(points)
        out = [None] * count
        if not count:
            return out
        t = points.copy()
        res, jac, fault = self.equations(t)
        best = np.max(np.abs(res), axis=-1)
        iteration = np.ones(count, dtype=int)
        damp = np.ones(count)
        tries = np.zeros(count, dtype=int)
        step = np.zeros_like(t)
        starting = fault == 0
        searching = np.zeros(count, dtype=bool)
        while starting.any() or searching.any():
            done = starting & (best < tol)
            for i in np.flatnonzero(done):
                out[i] = BetheSolution(t[i].copy(), float(best[i]), int(iteration[i]) - 1)
            stepping = np.flatnonzero(starting & ~done & (iteration <= max_iter))
            if len(stepping):
                # one solve over the J with no zero LU pivot: LAPACK's getrf
                # decides both, so slogdet's sign is 0 where solve finds J singular
                with np.errstate(invalid="ignore"):  # a NaN J, which solve steps to NaN
                    fresh = stepping[np.linalg.slogdet(jac[stepping])[0] != 0]
                step[fresh] = np.linalg.solve(jac[fresh], res[fresh][..., None])[..., 0]
                damp[fresh], tries[fresh], searching[fresh] = 1.0, 0, True
            if not searching.any():
                break
            (live,) = np.nonzero(searching)
            cand = t[live] - damp[live, None] * step[live]
            res_c, jac_c, fault = self.equations(cand)
            norm_c = np.max(np.abs(res_c), axis=-1)
            accepted = (fault == 0) & ((norm_c < best[live]) | (best[live] < 1e-9))
            moved = live[accepted]
            t[moved], res[moved], jac[moved], best[moved] = (
                cand[accepted], res_c[accepted], jac_c[accepted], norm_c[accepted]
            )
            iteration[moved] += 1
            # a candidate near a pole halves damp; any other fault drops the seed
            retry = live[~accepted & ((fault == 0) | (fault == POLE))]
            damp[retry] /= 2
            tries[retry] += 1
            starting[:], searching[:] = False, False
            starting[moved] = True
            searching[retry[tries[retry] < 25]] = True
        return out

    def _equivalent(self, t, others, tol: float = 1e-8) -> bool:
        """Whether t is the same solution as a row of others up to integer
        shifts and permutations of roots sharing a label.

        close[f, j, k]: t_j and root k of row f share a label and agree
        within tol modulo 1.  The rows where every root on both sides has
        a partner go to ``_has_permutation``, which decides exactly, also
        for roots within 2 tol of each other; no relabelling is listed.
        """
        d = np.asarray(t)[:, None] - np.asarray(others)[:, None, :]
        off = (np.abs(d.imag) > tol) | (np.abs(d.real - np.rint(d.real)) > tol)
        close = self._same_label & ~off
        full = (close.any(axis=2) & close.any(axis=1)).all(axis=1)
        return any(_has_permutation(close[f]) for f in np.flatnonzero(full))

    def screened_seeds(self, n_seeds: int = 32, guard: float = 0.05, seeds=None):
        """The (S, M) stack of seeds ``solve`` starts from: ``n_seeds``
        points of a low-discrepancy grid over the cell, or the explicit
        list ``seeds``, less those with a root within ``guard`` of a site
        or of another root."""
        if seeds is None:
            seeds = self._seed_points(n_seeds)
        points = np.asarray(seeds, dtype=complex).reshape(len(seeds), self.M)
        return points[~self._too_close(points, guard)]

    def solve(
        self,
        n_seeds: int = 32,
        tol: float = 1e-12,
        max_iter: int = 200,
        guard: float = 0.05,
        seeds=None,
    ):
        """All distinct Bethe roots reachable from the seed list.

        Newton runs from every seed of ``screened_seeds`` in lockstep
        (``_lockstep``), one kernel call per round for all of them.  The
        equations are invariant under unit shifts t_j -> t_j + 1 and under
        permutations of roots sharing a simple-root label, so each solution
        is kept, in seed order, unless it matches one kept before modulo
        both (``_equivalent``); the kept ones are sorted.
        """
        found = []
        for sol in self._lockstep(self.screened_seeds(n_seeds, guard, seeds), tol, max_iter):
            if sol is None or (found and self._equivalent(sol.t, [f.t for f in found])):
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

    def _vector_plan(self) -> tuple:
        """Index tables of ``vector_jet``, which depend on neither t, H nor
        the jet order; the first call builds them for the system.

        Root subsets are bitmasks.  At site a, a vector of lowering beta
        (weight lam_a - beta) is kept as its coordinates on the basis
        indices of that weight, padded to the widest weight space in use.
        """
        if self._plan is not None:
            return self._plan
        M, l, lab, mods = self.M, self.problem.rs.rank, self.assignment, self.problem.modules
        roots = [[j for j in range(M) if T >> j & 1] for T in range(1 << M)]
        counts = [tuple(sum(lab[j] == r for j in js) for r in range(l)) for js in roots]
        by_counts: dict = {}
        for T, c in enumerate(counts):
            by_counts.setdefault(c, []).append(T)
        lowering = [module_lowering(mod) for mod in mods]
        spaces: list = [{} for _ in mods]  # per site, lowering -> basis indices
        for space, low in zip(spaces, lowering):
            for k, b in enumerate(low):
                space.setdefault(b, []).append(k)
        width = max(len(space.get(c, ())) for space in spaces for c in by_counts)

        # the components site by site from one entry of value 1 (no site,
        # no root): entry (p, U) for a prefix p of a zero-weight tuple and
        # a root subset U sums over the subsets S of U at the last site
        zero = self.problem.space.zero_tuples()
        brackets: dict = {}  # (site, subset) -> id
        entries, levels = {((), 0): 0}, []
        for a in range(len(mods)):
            prev, entries, level = entries, {}, ([], [], [])
            for p in dict.fromkeys(z[: a + 1] for z in zero):
                used = tuple(map(sum, zip(*(lowering[b][k] for b, k in enumerate(p)))))
                for U in by_counts[used]:
                    entries[(p, U)] = len(entries)
                    level[2].append(len(level[0]))
                    for S in by_counts[lowering[a][p[-1]]]:
                        if not S & ~U:
                            b = brackets.setdefault((a, S), len(brackets))
                            level[0].append(prev[(p[:-1], U ^ S)])
                            level[1].append(b * width + spaces[a][counts[S]].index(p[-1]))
            levels.append(tuple(np.array(x, dtype=int) for x in level))

        # Held-Karp rows (a, c, T, j) for the label counts c of the brackets
        # at site a, by subset size; row a, keyed by the empty T and the
        # site, holds the site's highest-weight covector
        rows = {(a, c, 0, M + a): a for a in range(len(mods)) for c in by_counts}
        number = count(len(mods))
        keys: dict = {}  # kernel (prefix label counts..., root, target) -> id
        blocks: dict = {}  # (site, label, source lowering) -> id
        layers: dict = {}  # subset size -> (predecessor rows, kernels, blocks)
        needed = {(a, counts[S]) for a, S in brackets}
        by_size = sorted(range(1, 1 << M), key=lambda T: len(roots[T]))
        for T, (a, c) in _iproduct(by_size, sorted(needed)):
            if any(x > y for x, y in zip(counts[T], c)):
                continue
            layer = layers.setdefault(len(roots[T]), ([], [], []))
            for j in roots[T]:
                rest = T ^ 1 << j
                prefix = tuple(x - y for x, y in zip(c, counts[rest]))
                targets = roots[rest] or [M + a]
                rows[(a, c, T, j)] = next(number)
                layer[0].append([rows[(a, c, rest, k)] for k in targets])
                layer[1].append([keys.setdefault(prefix + (j, k), len(keys)) for k in targets])
                layer[2].append(blocks.setdefault((a, lab[j], counts[rest]), len(blocks)))

        f_blocks = np.zeros((len(blocks), width, width), dtype=complex)
        for (a, r, beta), b in blocks.items():
            src = spaces[a].get(beta, [])
            dst = spaces[a].get(tuple(x + (s == r) for s, x in enumerate(beta)), [])
            # F_r is the root vector of -alpha_r, at n_positive + r
            lower = mods[a].roots[self.problem.rs.n_positive + r]
            f_blocks[b, : len(dst), : len(src)] = lower[np.ix_(dst, src)]
        members = [
            [rows[(a, counts[S], S, j)] for j in roots[S] or [M + a]] for a, S in brackets
        ]
        self._plan = (
            np.array(list(keys), dtype=int).reshape(-1, l + 2),
            [np.asarray(m.j_covector)[spaces[a][(0,) * l][0]] for a, m in enumerate(mods)],
            [tuple(np.array(x, dtype=int) for x in layers[s]) for s in sorted(layers)],
            f_blocks,
            (np.concatenate(members), np.cumsum([0] + [len(m) for m in members[:-1]])),
            levels,
        )
        return self._plan

    def vector_jet(self, t, H, order: int = 0) -> Jet:
        """Jet of the Bethe vector over the zero-weight product basis.

        Entry e pairs the roots t[e] of the (E, M) stack t with the Cartan
        point H[e] of the (E, l) stack H, giving coefficients (n, E, dim0).
        The entry axis rides along every step below, so the whole batch
        takes one call of each, and every entry is computed as it is alone.

        Component at a basis tuple (k_1..k_N): the sum over the splits of
        the roots into subsets S_a at the sites of the product of the site
        brackets <S_a; k_a; z_a, t>.  The work is on array jets, axis 0 in
        ``jet_indices`` order (``_vector_plan`` holds the indices):
        - the kernels w_{-P(xi)}(t_j - target) of every entry take one
          ``_kernel_series`` call and one substitution into xi;
        - G_c(T, j), per site and label counts c the sum over the orderings
          of T that begin with j, is built for all basis indices at once by
          the Held-Karp recursion, one batched product per subset size:
          G_c({j}, j) = F_j w_{-c}(t_j - z_a) j_cov, and
          G_c(T, j) = F_j sum_{k in T - j} w_{-(c - c(T - j))}(t_j - t_k) G_c(T - j, k);
        - the bracket of S is the sum over j of G_{c(S)}(S, j), and the
          components contract the brackets site by site over the root
          subsets used so far, along the prefixes of the zero-weight tuples.
        """
        ts, Hs = (np.asarray(x, dtype=complex) for x in (t, H))
        if len(ts) != len(Hs):
            raise BetheError(
                f"paired roots and Cartan points differ in number: {len(ts)} and {len(Hs)}"
            )
        count = len(ts)
        check_regular(self.problem.rs, self.problem.md, Hs)
        keys, tops, layers, f_blocks, (members, starts), levels = self._vector_plan()
        l = self.problem.rs.rank
        n = len(jet_indices(l, order))
        kernels = np.zeros((n, count, 0), dtype=complex)
        if len(keys):
            prefixes = keys[:, :l] @ self._simple_roots
            zs = self.problem.positions
            ends = np.concatenate([ts, np.broadcast_to(zs, (count, len(zs)))], axis=1)
            xs = ts[:, keys[:, l]] - ends[:, keys[:, l + 1]]
            c0s = -root_values(prefixes, Hs)
            series = _kernel_series(c0s.ravel(), xs.ravel(), self.problem.md, order)
            # one row per key, the entries after its coefficients
            series = series.reshape(count, len(keys), -1).transpose(1, 2, 0)
            kernels = linear_substitution_rows(series, -prefixes).swapaxes(1, 2)
        start = len(tops)
        G = np.zeros(
            (n, count, start + sum(len(b) for *_, b in layers), f_blocks.shape[1]),
            dtype=complex,
        )
        G[0, :, :start, 0] = tops
        for pred, kern, blk in layers:
            # gathered in C order, entry-major, so that numpy sums each
            # entry's terms in the order it does for the entry alone
            factors = np.take(kernels, kern, axis=2)[..., None]
            terms = array_jet_product(factors, np.take(G, pred, axis=2), l, order)
            rows = np.einsum("lij,nelj->neli", f_blocks[blk], terms.sum(axis=3))
            G[:, :, start : start + len(blk)] = rows
            start += len(blk)
        brackets = np.add.reduceat(G[:, :, members], starts, axis=2).reshape(n, count, -1)
        comps = np.zeros((n, count, 1), dtype=complex)
        comps[0] = 1.0
        for prev, slots, firsts in levels:
            products = array_jet_product(comps[:, :, prev], brackets[:, :, slots], l, order)
            comps = np.add.reduceat(products, firsts, axis=2)
        return Jet(l, order, comps)

    # -- eigenvalue ----------------------------------------------------------

    def eigenvalue(self, t, u) -> np.ndarray:
        """tau_Psi(u) = 1/2 sum_r zeta_bar(h_r;u)^2 + d_u zeta_bar(rho;u),
        per solution of the (S, M) stack t at each spectral parameter of its
        row of the (S, U) array u, shape (S, U).

        One kernel call takes (zeta, zeta') at z_i - u for the sites, then
        at t_j - u for the roots, for every solution, u, Cartan direction
        and the rho term, raising the first fault; each u's sums are their
        own matrix products, the same whatever the array around it.
        """
        t, us = (np.asarray(x, dtype=complex) for x in (t, u))
        zs = self.problem.positions
        args = np.concatenate([np.broadcast_to(zs, (len(t), len(zs))), t], axis=1)
        diffs = args[:, None, :] - us[:, :, None]
        ze, faults = zeta11_coeffs(diffs.ravel(), self.problem.md, 1)
        _raise_fault(faults, diffs.ravel(), self.problem.md)
        ze = ze.reshape(diffs.shape + (2,))
        bars = ze[..., None, :, 0] @ self._charges
        rho = np.asarray(self.problem.rs.rho, dtype=complex)
        # d/du zeta(x - u) = -zeta'(x - u)
        return (0.5 * (bars @ np.swapaxes(bars, -1, -2)))[..., 0, 0] - (
            (self._charges @ rho) @ ze[..., 1, None]
        )[..., 0]

    # -- verification ---------------------------------------------------------

    def _entry_bytes(self, spectral: int) -> int:
        """The bytes of the largest arrays one (solution, Cartan point)
        entry of ``verify_eigenvector`` holds in its pass: the widest
        Held-Karp layer of ``vector_jet`` (its two gathered factors and
        their product, one block per term of the jet product) and, per
        spectral parameter, the transfer operator's dense V and first-order
        coefficients."""
        _, _, layers, f_blocks, *_ = self._vector_plan()
        l, dim = self.problem.rs.rank, self.problem.space.dim0
        terms = len(_cauchy_table(l, 2)[0])
        widest = max((pred.size for pred, *_ in layers), default=0) * f_blocks.shape[1]
        return 16 * (3 * terms * widest + spectral * (l + 1) * dim * dim)

    def verify_eigenvector(self, t, h_points, u_points, tiny: float = 1e-12):
        """Relative residual of (transfer(u) - tau_Psi(u)) Psi over samples.

        ``t`` is an (S, M) stack of solutions, each with its own Cartan
        points ``h_points``, shape (S, P, l), and spectral parameters
        ``u_points``, shape (S, U), giving a list of S results.  An entry
        is one (solution, Cartan point):
        - the entries go in passes of ``pass_slices``, all of them in one
          pass unless their arrays outgrow ``_PASS_BYTES``;
        - per pass, one ``eigenvalue`` call gives the eigenvalues of the
          pass's solutions, one ``vector_jet`` call builds the Bethe vector
          of every entry, at the transfer operator's order, since it does
          not depend on u, and one transfer operator, batched over every
          entry's spectral parameters with the entry's Cartan point paired
          in, is applied to the entries' jets in one ``apply``.  Entries
          whose vector is numerically zero are left out of it.
        Every entry's numbers are those it gets alone.

        Each result is a dict with the largest relative residual, the
        smallest vector norm encountered, and a status flag; when the
        vector is numerically zero at every point of a solution, its check
        is inconclusive.
        """
        ts, hs, us = (np.asarray(x, dtype=complex) for x in (t, h_points, u_points))
        count, l = len(ts), self.problem.rs.rank
        points, spectral = hs.shape[1], us.shape[1]
        entries = hs.reshape(count * points, l)
        # per entry e, of solution e // points: norm, residual, whether checked
        norms = np.empty(len(entries))
        rels = np.zeros(len(entries))
        checked = np.zeros(len(entries), dtype=bool)
        for part in pass_slices(len(entries), _PASS_BYTES // self._entry_bytes(spectral)):
            # the pass's solutions' eigenvalues; a row is the same alone
            first, last = part[0] // points, part[-1] // points + 1
            eigs = self.eigenvalue(ts[first:last], us[first:last])
            # the transfer operator is second order
            psi = self.vector_jet(ts[part // points], entries[part], 2)
            sizes = np.max(np.abs(psi.value), axis=-1)
            norms[part] = sizes
            live = np.flatnonzero(~(sizes < tiny)) if spectral else []
            if not len(live):
                continue
            whose = part[live] // points
            lanes = np.repeat(live, spectral)
            # the operator is dropped before the next pass builds its own
            operator = self.problem.transfer(us[whose].reshape(-1), entries[part[lanes]])
            lhs = operator.apply(Jet(l, 2, psi.coeffs[:, lanes]))
            del operator
            lhs = lhs.reshape(len(live), spectral, -1)
            gap = np.abs(lhs - eigs[whose - first][..., None] * psi.value[live][:, None])
            rel = np.max(gap, axis=-1) / sizes[live][:, None]
            rels[part[live]] = np.max(rel, axis=1)
            checked[part[live]] = True
        # per solution; the smallest norm skips NaN, as Python's min from inf does
        norms, rels, checked = (x.reshape(count, points) for x in (norms, rels, checked))
        return [
            {"max_rel": float(np.max(rel[seen], initial=0.0)),
             "min_norm": float(np.fmin.reduce(norm, initial=math.inf)),
             "status": "ok" if seen.any() else "inconclusive"}
            for norm, rel, seen in zip(norms, rels, checked)
        ]
