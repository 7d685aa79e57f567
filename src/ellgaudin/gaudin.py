"""Elliptic Gaudin transfer operator at the critical level.

Sites on an elliptic curve carry modules of a simple Lie algebra; the
transfer operator acts on functions of a Cartan element H = sum xi_r h_r
valued in the zero-weight subspace of the tensor product of dual modules.
It combines a flat connection nabla_r = d_r - sum_i zeta(z_i - u) h_r^(i)
with an elliptic-kernel exchange potential, and the whole family over the
spectral parameter u commutes.  A Weyl-Kac denominator conjugation yields
the equivalent form produced by the underlying conformal field theory.
The denominator is a product of theta values at the roots, and the
heat-type identity behind the conjugation is theta's heat equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .diffop import DiffOperator
from .elliptic import (
    Jet,
    ModularData,
    _BLOCK,
    _pole_check,
    _series_quotient,
    _series_reciprocal,
    array_jet_product,
    jet_indices,
    lattice_distance,
    linear_substitution_rows,
    nearest_lattice_point,
    theta11_coeffs,
    theta11_prime_at_zero,
)
from .liealg import (
    RepresentedModule,
    RootSystemData,
    TensorSpace,
    min_dual_verma_depth,
)


class GaudinError(Exception):
    """Raised for invalid Gaudin-model configurations or domain errors."""


# Rejection-sampling budget of the Cartan and spectral-point samplers.
_MAX_TRIES = 10_000

# The bytes one pass of commutativity_residual may hold, by its estimate;
# entries beyond that go to further passes.
_COMMUTE_PASS_BYTES = 768 << 10


def pass_slices(count: int, step: int):
    """range(count) in consecutive passes of step entries, at least 1, lazily."""
    step = max(1, step)
    for first in range(0, count, step):
        yield np.arange(first, min(first + step, count))


# ---------------------------------------------------------------------------
# series in the increment h = alpha(xi - H) of a linear form
# ---------------------------------------------------------------------------


def _inverse_theta(tc: np.ndarray, md: ModularData) -> np.ndarray:
    """Taylor coefficients in h of theta'(0) / theta(c0 + h), row by row,
    from those of theta(c0 + h) in the rows of tc."""
    return theta11_prime_at_zero(md) * _series_reciprocal(tc)


def _w_coeffs(shifted: np.ndarray, scale: np.ndarray, tx) -> np.ndarray:
    """Taylor coefficients in h of
    w_{c0+h}(x) = -theta'(0) theta(x - c0 - h) / (theta(x) theta(c0 + h)),
    along axis 0.

    ``shifted`` holds theta(x - c0)'s Taylor coefficients along axis 0,
    ``scale`` those of theta'(0) / theta(c0 + h) and ``tx`` is theta(x),
    each broadcast against the other axes.
    """
    # theta(x - c0 - h) in h: the odd coefficients change sign
    flip = (-1.0) ** np.arange(len(shifted))
    flip = flip.reshape((-1,) + (1,) * (shifted.ndim - 1))
    return array_jet_product(shifted * flip, scale, 1, len(shifted) - 1) * (-1.0 / tx)


def _distinct(values: np.ndarray) -> tuple:
    """The distinct values in order of first appearance, and the place of
    each value among them."""
    places: dict = {}
    at = [places.setdefault(v, len(places)) for v in values.tolist()]
    return np.array(list(places), dtype=complex), np.array(at, dtype=int)


def _kernel_series(c0s, xs, md: ModularData, order: int) -> np.ndarray:
    """Taylor coefficients in h of w_{c0+h}(x), one row per pair
    (c0s[i], xs[i]), from theta(x), theta(c0 + h) and theta(x - c0 - h).

    Theta takes one call for the distinct x, one for the distinct c0 and
    one for the differences x - c0; each call's rows are checked by
    ``_pole_check``, x as the z argument of w and c0 as the c argument.
    """
    c0s = np.asarray(c0s, dtype=complex)
    xs = np.asarray(xs, dtype=complex)
    ux, x_at = _distinct(xs)
    uc, c_at = _distinct(c0s)
    tx = _pole_check(theta11_coeffs(ux, md), ux, md, "z")
    tc = _pole_check(theta11_coeffs(uc, md, order), -uc, md, "c")
    shifted = _pole_check(theta11_coeffs(xs - c0s, md, order), xs - c0s, md)
    scale = _inverse_theta(tc, md)[c_at]
    return _w_coeffs(shifted.T, scale.T, tx[x_at, 0]).T


def _times_eye(jet: Jet, dim: int) -> np.ndarray:
    """The coefficients of a scalar jet times the dim x dim identity."""
    return jet.coeffs[:, None, None] * np.eye(dim, dtype=complex)


# ---------------------------------------------------------------------------
# regularity of the Cartan point
# ---------------------------------------------------------------------------


def root_values(directions, H) -> np.ndarray:
    """The pairings of the rows of ``directions`` with each row of a (P, l)
    stack H of Cartan points, shape (P, K): one matrix-vector product per
    point, which a stacked product may round differently in the last bit."""
    directions = np.asarray(directions, dtype=complex)
    H = np.asarray(H, dtype=complex)
    return np.array([directions @ h for h in H]).reshape(len(H), len(directions))


def check_regular(rs: RootSystemData, md: ModularData, H, guard: float = 1e-9):
    """Require alpha(H) to stay away from the period lattice for all roots,
    at every row of a (P, l) stack H of Cartan points, in order; returns
    the (P, |Phi+|) pairings ``root_values`` gave.

    The exchange kernels w_{alpha(H)} and the Weyl-Kac denominator are
    singular when any root takes a lattice value on H.
    """
    cs = root_values(rs.positive_roots, H)
    near = lattice_distance(cs.ravel(), md) < guard
    if near.any():
        k = int(np.argmax(near))
        c = complex(cs.flat[k])
        k %= rs.n_positive
        lam = nearest_lattice_point(c, md)
        raise GaudinError(
            f"Cartan point is singular: root #{k} takes the value "
            f"{c:.6g}, within {abs(c - lam):.2e} of the lattice point "
            f"{lam:.6g}"
        )
    return cs


def _rejection_sample(draw, accept, count: int, failure: str) -> list:
    """``count`` draws that ``accept`` keeps: each round calls ``draw`` once
    per missing draw, within _MAX_TRIES calls in all, and ``accept`` once
    on the round's draws, so the draws and the stream are a one-at-a-time
    loop's; :class:`GaudinError` with ``failure`` once the calls run out."""
    out, tries = [], 0
    while len(out) < count:
        need = min(count - len(out), _MAX_TRIES - tries)
        if need == 0:
            raise GaudinError(failure)
        tries += need
        drawn = [draw() for _ in range(need)]
        out += [d for d, ok in zip(drawn, accept(drawn)) if ok]
    return out


def sample_regular_cartan(
    rs: RootSystemData,
    md: ModularData,
    rng,
    count: int,
    box: float = 0.8,
    guard: float = 0.05,
):
    """Random complex Cartan coordinates in the box avoiding all root-lattice
    walls by guard, one ``lattice_distance`` call per round of draws
    (``_rejection_sample``); :class:`GaudinError` after _MAX_TRIES draws.
    ``rng`` is any source with NumPy's ``Generator.uniform(low, high[, size])``."""
    return _rejection_sample(
        lambda: rng.uniform(-box, box, rs.rank) + 1j * rng.uniform(-box, box, rs.rank),
        lambda hs: ~np.any(lattice_distance(root_values(rs.positive_roots, hs), md) < guard, 1),
        count,
        f"could not sample {count} regular Cartan points with parts in [-{box}, "
        f"{box}] and every root {guard} from the lattice in {_MAX_TRIES} draws",
    )


def sample_spectral_points(
    md: ModularData,
    positions,
    rng,
    count: int,
    guard: float = 0.05,
):
    """Random spectral parameters in the fundamental cell, each at least
    ``guard`` from every point of ``positions`` modulo the lattice, one
    ``lattice_distance`` call per round of draws (``_rejection_sample``).
    Raises :class:`GaudinError` after _MAX_TRIES draws.  ``rng`` is as in
    :func:`sample_regular_cartan`."""
    positions = np.asarray(positions, dtype=complex)
    return _rejection_sample(
        lambda: rng.uniform(0.0, 1.0) + rng.uniform(0.05, 0.95) * md.tau,
        lambda us: ~np.any(lattice_distance(positions - np.array(us)[:, None], md) < guard, 1),
        count,
        f"could not sample {count} spectral points at least {guard} "
        f"from {len(positions)} poles in {_MAX_TRIES} draws",
    )


# ---------------------------------------------------------------------------
# Weyl-Kac denominator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylKacData:
    """Jets in xi of the denominator's theta product, which is Pi up to a
    factor depending on tau alone, of its reciprocal, of d_r log Pi for
    each r, and of d_tau log Pi."""

    product: Jet
    reciprocal: Jet
    d_log: list
    dtau_log: Jet


def weyl_kac_pi(
    rs: RootSystemData,
    md: ModularData,
    H,
    order: int = 0,
) -> WeylKacData:
    """Weyl-Kac denominator Pi(H, tau) as jets in the xi coordinates at H.

    Pi = q^{dim g/24} (q;q)_inf^l  prod_{alpha>0} (e^{pi i a(H)}-e^{-pi i a(H)})
         prod_{alpha} (q e^{2 pi i a(H)}; q)_inf ,  q = e^{2 pi i tau},
    which the Jacobi triple product turns into a product of theta values,
    Pi = (-i)^{|Phi+|} eta^{l - |Phi+|} prod_{alpha>0} theta(alpha(H)).
    So d_r log Pi = sum_{alpha>0} alpha_r zeta(alpha(H)), and theta's heat
    equation d_tau theta = theta'' / (4 pi i), with eta^3 proportional to
    theta'(0), gives
      d_tau log Pi = [sum_{alpha>0} theta''/theta (alpha(H))
                      + (l - |Phi+|)/3 theta'''(0)/theta'(0)] / (4 pi i).
    All of it comes from one theta call at 0 and at every alpha(H), to
    order max(order + 2, 3), and one substitution into xi of the series in
    h = alpha(xi - H) of theta, 1/theta, theta'/theta and theta''/theta.
    The product and its reciprocal multiply the roots' substituted theta
    and 1/theta series, so no multivariate reciprocal is taken.
    """
    H = np.asarray(H, dtype=complex)
    check_regular(rs, md, H[None])
    l = rs.rank
    roots = np.asarray(rs.positive_roots, dtype=complex)
    args = np.concatenate([[0.0], roots @ H])
    th = _pole_check(theta11_coeffs(args, md, max(order + 2, 3)), args, md)
    rows = th[1:, : order + 3]
    k = np.arange(1, order + 3)
    # theta'/theta and theta''/theta at alpha(H) + h
    zetas = _series_quotient(rows[:, 1:-1] * k[:-1], rows)
    heats = _series_quotient(rows[:, 2:] * k[1:] * k[:-1], rows)
    values = rows[:, : order + 1]
    series = np.concatenate([values, _series_reciprocal(values), zetas, heats])
    thetas, inverses, zeta, heat = np.split(
        linear_substitution_rows(series, np.tile(roots, (4, 1))), 4, axis=1
    )
    product = reciprocal = np.ones(1, dtype=complex)
    for f, g in zip(thetas.T, inverses.T):
        product = array_jet_product(product, f, l, order)
        reciprocal = array_jet_product(reciprocal, g, l, order)
    dtau = heat.sum(axis=1)
    # theta'''(0) / theta'(0) = 6 c_3 / c_1 for theta's coefficients c
    dtau[0] += (l - rs.n_positive) * 2.0 * th[0, 3] / th[0, 1]
    return WeylKacData(
        Jet(l, order, product),
        Jet(l, order, reciprocal),
        [Jet(l, order, d) for d in (zeta @ roots).T],
        Jet(l, order, dtau * (1.0 / (4j * np.pi))),
    )


# ---------------------------------------------------------------------------
# the Gaudin problem
# ---------------------------------------------------------------------------


def site_depth(rs: RootSystemData, weights, depths) -> int:
    """The depth M + ht(theta) at which a dual Verma site is exact on the
    zero-weight space (``liealg.min_dual_verma_depth``), for the site
    highest weights and the depths asked for (None at an irreducible
    site).  Raises GaudinError when the summed weights are not in the
    positive root lattice (the charge condition) or a depth is below it.
    """
    need = min_dual_verma_depth(rs, weights)
    if need is None:
        raise GaudinError(
            "charge condition violated: the summed site weights are not in "
            "the positive root lattice, so the zero-weight subspace is "
            "trivial"
        )
    for k, depth in enumerate(depths, start=1):
        if depth is not None and depth < need:
            raise GaudinError(
                f"dual Verma site {k}: depth_{k} = {depth} is below "
                f"M + ht(theta) = {need}; the raising-lowering terms of "
                "the transfer operator would not be exact on the "
                "zero-weight space"
            )
    return need


def _unit(l: int, r: int, times: int = 1) -> tuple:
    """The multi-index times * e_r in l variables."""
    return tuple(times * int(s == r) for s in range(l))


def transfer_operator(zero: Jet, cartan: np.ndarray) -> DiffOperator:
    """(1/2) Delta - sum_r A_r d_r + V as a differential operator, from V's
    jet and the diagonals of A_r, shape (B, dim, l), as
    ``GaudinProblem.transfer_parts`` returns them, or one lane's, as
    ``_lane`` takes it.  The first-order coefficients -A_r are the only
    dense form of A_r."""
    l, total, dim = zero.nvars, zero.total, cartan.shape[-2]
    eye = np.eye(dim, dtype=complex)
    first = -np.moveaxis(cartan, -1, 0)[..., None] * eye
    coeffs = {}
    for r in range(l):
        coeffs[_unit(l, r, 2)] = Jet(l, total, [0.5 * eye])
        coeffs[_unit(l, r)] = Jet(l, total, first[r, None])
    coeffs[(0,) * l] = zero
    return DiffOperator(l, dim, coeffs)


def _lane(parts: tuple, b: int) -> DiffOperator:
    """The transfer operator of lane b of ``transfer_parts``' result, with
    no batch axis, as composition needs it."""
    zero, cartan = parts
    return transfer_operator(Jet(zero.nvars, zero.total, zero.coeffs[:, b]), cartan[b])


class GaudinProblem:
    """Sites, modules, and the associated transfer operator family.

    ``positions`` are the marked points z_i; ``modules`` the site modules.
    All operators act on the zero-weight subspace of the tensor product of
    dual spaces, where the dual pairing turns each module action into its
    transpose.
    """

    def __init__(self, rs: RootSystemData, md: ModularData, positions, modules):
        if len(positions) != len(modules):
            raise GaudinError("one position per module is required")
        if not modules:
            raise GaudinError("at least one site is required")
        for mod in modules:
            if mod.rs is not rs:
                raise GaudinError("all modules must share the root system")
        self.rs = rs
        self.md = md
        self.positions = [complex(z) for z in positions]
        self.modules = list(modules)
        a, b = np.triu_indices(len(self.positions), 1)
        zs = np.array(self.positions)
        near = lattice_distance(zs[a] - zs[b], md) < 1e-9
        if near.any():
            k = int(np.argmax(near))
            raise GaudinError(
                f"sites coincide mod lattice: z_{a[k] + 1} = z_{b[k] + 1}"
            )
        self._units = [_unit(rs.rank, r) for r in range(rs.rank)]
        weights = [mod.highest_weight for mod in modules]
        site_depth(rs, weights, [mod.depth for mod in modules])
        self.space = TensorSpace(modules)
        if self.space.dim0 == 0:
            raise GaudinError("the zero-weight subspace is trivial")
        self._build_site_operators()

    # -- site operators on the zero-weight subspace ---------------------

    def _build_site_operators(self):
        """h_r^(i) and the pair operators on the zero-weight space.

        h_r^(i) is diagonal on the weight basis: ``_site_weights[i, a]`` is
        the weight of site i's factor of the a-th zero-weight tuple, shape
        (N, dim0, l).  ``_pair`` stacks, for the k-th positive root alpha,
        the pair operators of alpha and -alpha that share a kernel product:
        _pair[k, i, j] = P(i, j, alpha) + P(j, i, -alpha), with P(i, j, a) =
        e_{-a}^(j) e_a^(i), shape (|Phi+|, N, N, dim0, dim0).  One pass per
        positive root takes L_i and R_i, the dual matrices of e_alpha and
        e_-alpha, once per site.  Operators on two sites commute, so for
        i != j the entry between tuples a and b is 2 R_j[a_j, b_j]
        L_i[a_i, b_i] where a and b agree off {i, j} (one mask per site
        pair); for i = j it is (R_i L_i + L_i R_i)[a_i, b_i], formed on the
        basis vectors of site i that the tuples use; the tensor product is never formed.
        """
        rs = self.rs
        tuples = self.space.zero_array
        nsites = len(self.modules)
        same = tuples[:, None, :] == tuples[None, :, :]
        agree_off = [
            [np.delete(same, [i, j], -1).all(-1) for j in range(nsites)] for i in range(nsites)
        ]
        used = [np.flatnonzero(np.bincount(column)) for column in tuples.T]
        self._site_weights = np.array([m.weights[c] for m, c in zip(self.modules, tuples.T)])
        self._pair = np.empty((rs.n_positive, nsites, nsites) + same.shape[:2], complex)
        for k in range(rs.n_positive):
            lower = [mod.dual_matrix(rs.root_vectors[k]) for mod in self.modules]
            raise_ = [
                mod.dual_matrix(rs.root_vectors[rs.negative_of(k)])
                for mod in self.modules
            ]
            for i, j in np.ndindex(nsites, nsites):
                if i == j:
                    rows, r, l = used[i], raise_[i], lower[i]
                    at = np.searchsorted(rows, tuples[:, i])
                    mat = (r[rows] @ l[:, rows] + l[rows] @ r[:, rows])[np.ix_(at, at)]
                else:
                    at_i, at_j = (np.ix_(tuples[:, s], tuples[:, s]) for s in (i, j))
                    mat = raise_[j][at_j] * lower[i][at_i]
                    mat = mat + mat  # 2 * mat would turn some -0 parts into +0
                self._pair[k, i, j] = np.where(agree_off[i][j], mat, 0)
            del lower, raise_, r, l  # freed before the next pass builds its own

    # -- coefficient data ------------------------------------------------

    def _cartan_from(self, site_thetas: np.ndarray) -> np.ndarray:
        """The diagonals of A_r(u) = sum_i zeta(z_i - u) h_r^(i) on the
        zero-weight space for a batch of B spectral parameters, from the
        first-order Taylor coefficients of theta(z_i - u), shape
        (B, N, >= 2); A_r(u) is diagonal on the weight basis, and entry
        [b, a, r] is its a-th diagonal entry at u_b, shape (B, dim0, l).
        The sum is elementwise, so each u is summed the same way whatever
        the batch around it."""
        zvals = site_thetas[..., 1] * (1.0 / site_thetas[..., 0])
        return sum(z[:, None, None] * w for z, w in zip(zvals.T, self._site_weights))

    def _site_args(self, us: np.ndarray) -> np.ndarray:
        """x_i = z_i - u for each u of the batch us, shape (B, N)."""
        return np.array(self.positions)[None, :] - us[:, None]

    def _thetas(self, H, us: np.ndarray, order: int) -> np.ndarray:
        """Theta's Taylor coefficients, to order max(order, 1), at every
        argument of the exchange potential for the lanes (us[b], H[b]):
        first the B N sites x_bi = z_i - u_b, then c_bk = alpha_k(H_b) for
        the positive roots, then x_bi - c_bk and x_bi + c_bk, each ordered
        by (b, k, i).  One kernel call takes each distinct x_bi and c_bk
        once, so lanes at one point share their alpha(H) values.  Each H_b
        is checked for regularity, in order, and every argument by
        ``_pole_check``, x_bi and c_bk for a pole.  Theta acts elementwise,
        so every lane's values are those it gets alone."""
        H = np.asarray(H, dtype=complex)
        if len(H) != len(us):
            raise GaudinError(
                f"paired Cartan points and spectral parameters differ in number: "
                f"{len(H)} and {len(us)}"
            )
        cs = check_regular(self.rs, self.md, H)
        xs = self._site_args(us)
        shifted = np.ravel([xs[:, None, :] - cs[:, :, None], xs[:, None, :] + cs[:, :, None]])
        heads = np.concatenate([xs.ravel(), cs.ravel()])
        distinct, at = _distinct(heads)
        args = np.concatenate([distinct, shifted])
        th = _pole_check(theta11_coeffs(args, self.md, max(order, 1)), args, self.md)
        th = np.concatenate([th[at], th[len(distinct) :]])
        _pole_check(th[: xs.size], heads[: xs.size], self.md, "z")
        _pole_check(th[xs.size : len(heads)], -heads[xs.size :], self.md, "c")
        return th

    def _contract(self, jets: np.ndarray) -> np.ndarray:
        """sum_{k,i,j} jets[p, k, b, i, j] _pair[k, i, j] over the positive
        roots k and the site pairs (i, j), shape (n, B, dim0, dim0), C
        contiguous.  Each lane is its own matrix product, summed the same
        way whatever the lanes around it; the jets are copied 64 lanes at a
        time."""
        terms, _, batch = jets.shape[:3]
        dim = self.space.dim0
        pair = self._pair.reshape(-1, dim * dim)
        total = np.empty((terms, batch, dim * dim), dtype=complex)
        for b in range(0, batch, 64):
            chunk = jets[:, :, b : b + 64].transpose(2, 0, 1, 3, 4)
            out = total[:, b : b + 64].swapaxes(0, 1)
            np.matmul(chunk.reshape(len(chunk), terms, -1), pair, out=out)
        return total.reshape(terms, batch, dim, dim)

    def potential_jet(self, H, u, order: int = 0, thetas=None) -> Jet:
        """Jet of the exchange potential
        (1/2) sum_{i,j,alpha} w_{a(H)}(z_i-u) w_{-a(H)}(z_j-u) e_{-a}^(j) e_a^(i).

        Lane b pairs the spectral parameter u[b] of the 1-D array u with the
        Cartan point H[b] of the (B, l) stack H; the jet's coefficients
        carry the lane axis after the monomial one, shape (n, B, dim0, dim0).

        For a positive root alpha, with c = alpha(H), h = alpha(xi - H) and
        x_i = z_i - u, theta's oddness gives
          w_{c+h}(x_i)  = -theta'(0) theta(x_i - c - h) / (theta(x_i) theta(c + h)),
          w_{-c-h}(x_i) =  theta'(0) theta(x_i + c + h) / (theta(x_i) theta(c + h)),
        and the root -alpha pairs the same two kernels with i and j swapped.
        So theta is taken once per site and lane, once per positive root
        and distinct point and once per (lane, site, positive root) and
        sign, all in one kernel call (``_thetas``); ``thetas`` passes in
        that call's result where the caller already has it.  The kernels' coefficients in h
        form arrays lo[a, b, k, i] and up[c, b, k, j] (``_w_coeffs``), for
        all positive roots k at once; their products
        c[m, b, k, i, j] = sum_{a+c=m} lo[a, b, k, i] up[c, b, k, j], added
        one term at a time, a from m down, as array_jet_product adds them to
        order 2, but with no gather of every term held, are substituted into
        the xi variables in one call, and the jets contract with the stacked
        pair operators ``_pair[k, i, j]`` of alpha and -alpha over the roots
        and site pairs in one matrix product per lane (``_contract``).
        """
        us = np.asarray(u, dtype=complex)
        if thetas is None:
            thetas = self._thetas(H, us, order)
        rs, md = self.rs, self.md
        batch, nsites, npos = len(us), len(self.positions), rs.n_positive
        nx, nc = batch * nsites, batch * npos
        th = thetas[:, : order + 1]
        tz = thetas[:nx, 0].reshape(batch, 1, nsites)
        inverse = _inverse_theta(th[nx : nx + nc], md).reshape(batch, npos, -1)
        scales = np.moveaxis(inverse, -1, 0)[..., None]
        # theta(x - c) and theta(x + c), indexed (term, sign, b, k, i)
        shifted = np.moveaxis(th[nx + nc :].reshape(2, batch, npos, nsites, -1), -1, 0)
        # the potential's factor 1/2 rides on lo
        lo = _w_coeffs(shifted[:, 0], scales, tz) * 0.5
        up = array_jet_product(shifted[:, 1], scales, 1, order) * (1.0 / tz)
        pairs = np.zeros(lo.shape + (nsites,), dtype=complex)
        for m in range(order + 1):
            for a in reversed(range(m + 1)):
                pairs[m] += lo[a, ..., :, None] * up[m - a, ..., None, :]
        del lo, up
        jets = linear_substitution_rows(np.moveaxis(pairs, 2, 0), rs.positive_roots)
        del pairs
        return Jet(rs.rank, order, self._contract(jets))

    # -- operators ---------------------------------------------------------

    def transfer_parts(self, u, H, order: int = 0) -> tuple:
        """What the transfer operator varies by, per lane (u[b], H[b]) as in
        ``potential_jet``: the jet at H[b], to the given order, of its
        zero-order coefficient V = potential + (1/2) sum_r A_r(u[b])^2,
        shape (n, B, dim0, dim0), and the diagonals of A_r(u[b]), shape
        (B, dim0, l).  One theta call serves A_r and the potential for
        every lane, and each lane equals the call of it alone.  (1/2) A_r^2
        is added on the diagonal, elementwise.
        """
        us = np.asarray(u, dtype=complex)
        nsites = len(self.positions)
        thetas = self._thetas(H, us, order)
        A = self._cartan_from(thetas[: len(us) * nsites].reshape(len(us), nsites, -1))
        zero = self.potential_jet(H, us, order, thetas).coeffs
        diag = np.arange(self.space.dim0)
        zero[0][..., diag, diag] += (A * A).sum(axis=-1) * 0.5
        return Jet(self.rs.rank, order, zero), A

    def transfer(self, u, H, order: int = 0) -> DiffOperator:
        """The transfer operators (1/2) sum_r nabla_r^2 + potential =
        (1/2) Delta - sum_r A_r(u) d_r + V, Delta = sum_r d_r^2, at the
        lanes of ``transfer_parts``, as one differential operator in xi for
        ``apply``: its coefficient jets at H to the given order carry the
        lane axis after the monomial one, (n, B, dim0, dim0), but for the
        constant 0.5 * identity, (1, dim0, dim0).  ``_lane`` gives one lane
        alone, which composition needs.
        """
        return transfer_operator(*self.transfer_parts(u, H, order))

    def _mult_denominator(self, sign: int, H, order: int) -> DiffOperator:
        """Multiplication by Pi(H)^sign, up to a factor depending on tau
        alone, which cancels in Pi^{-1} o transfer o Pi."""
        l, dim = self.rs.rank, self.space.dim0
        data = weyl_kac_pi(self.rs, self.md, H, order)
        jet = data.product if sign > 0 else data.reciprocal
        return DiffOperator(l, dim, {(0,) * l: Jet(l, order, _times_eye(jet, dim))})

    def tilde_transfer(
        self, u: complex, H, order: int = 0, route: str = "explicit"
    ) -> DiffOperator:
        """Denominator-conjugated transfer operator, its jets at H.

        'conjugation' computes Pi^{-1} o transfer o Pi with generic
        operator composition; 'explicit' adds the log-derivative terms
        sum_r (d_r log Pi) nabla_r + 2 pi i h_vee (d_tau log Pi) directly,
        with -A_r(u) read off the transfer operator's first-order
        coefficients.  Both must agree; the equality encodes theta's heat
        equation.
        """
        if route not in ("conjugation", "explicit"):
            raise GaudinError(f"unknown route {route!r}")
        l, dim = self.rs.rank, self.space.dim0
        transfer = _lane(self.transfer_parts([u], [H], order), 0)
        if route == "conjugation":
            # composing after the second-order transfer operator costs the
            # right factor two jet orders
            left = self._mult_denominator(-1, H, order)
            right = self._mult_denominator(+1, H, order + 2)
            return left.compose(transfer.compose(right))
        data = weyl_kac_pi(self.rs, self.md, H, order)
        zero = (2j * np.pi * self.rs.dual_coxeter) * _times_eye(data.dtau_log, dim)
        coeffs = {}
        for d_log, unit in zip(data.d_log, self._units):
            coeffs[unit] = Jet(l, order, _times_eye(d_log, dim))
            zero = zero + d_log.coeffs[:, None, None] * transfer.coeffs[unit].value
        coeffs[(0,) * l] = Jet(l, order, zero)
        return transfer + DiffOperator(l, dim, coeffs)


# ---------------------------------------------------------------------------
# commutativity diagnostics
# ---------------------------------------------------------------------------


def commutator_values(first: tuple, second: tuple) -> dict:
    """Coefficient values at H of [T1, T2] in closed form, for operators
    T = (1/2) Delta - sum_r A_r d_r + V given as (V's jet, the diagonals of
    A_r), as ``GaudinProblem.transfer_parts`` returns them; V's jets must
    reach second order.

    A_r is constant and diagonal, so the Leibniz rule leaves
      C_0     = (1/2) Delta(V2 - V1) - sum_r A1_r d_r V2 + sum_r A2_r d_r V1
                + V1 V2 - V2 V1,
      C_{e_r} = d_r(V2 - V1) - [A1_r, V2] + [A2_r, V1],
    where a diagonal acts on rows and [A_r, V]_ij = (a_i - a_j) V_ij: two
    matrix products per sample.  The coefficients of order 2 to 4 come from
    the constant parts alone and commute entrywise, so they are
    identically zero and not formed; NaN or inf in A still reaches C_0
    and C_{e_r} through A_r d_r V and [A_r, V], inf - inf included, which
    gives NaN without a warning.  Both have shape ([B,] dim, dim).  Each
    difference pairs like terms of the two operators, so [T, T] is zero to
    the bit.  Each coefficient is summed into one buffer, in the order and
    grouping written: C_0 takes three work buffers of its shape and each
    C_{e_r} one, shared.
    """
    (v1, a1), (v2, a2) = first, second
    l = v1.nvars
    if min(v1.total, v2.total) < 2:
        raise ValueError("the commutator's values need V's jets to second order")
    units = [_unit(l, r) for r in range(l)]
    d1, d2 = ([v.coeff(e) for e in units] for v in (v1, v2))
    m1, m2 = v1.value, v2.value
    shape, dtype = np.broadcast_shapes(m1.shape, m2.shape), np.result_type(m1, m2, a1, a2)
    c0, left, right, term = (np.zeros(shape, dtype) for _ in range(4))

    def rows(a, d, out):
        # sum_r A_r d_r V added to out's zeros, the diagonal acting on rows
        for r in range(l):
            out += np.multiply(a[..., r, None], d[r], out=term)
        return out

    def bracket(a, v, out):
        # a_j goes into out first: NumPy's iterator buffers each broadcast
        # operand, and this leaves one
        out[...] = a[..., None, :]
        np.subtract(a[..., :, None], out, out=out)
        out *= v
        return out

    with np.errstate(invalid="ignore"):
        # (1/2) d_r^2 V at H is V's Taylor coefficient at 2 e_r
        for r in range(l):
            c0 += np.subtract(v2.coeff(_unit(l, r, 2)), v1.coeff(_unit(l, r, 2)), out=term)
        c0 += np.subtract(rows(a2, d1, left), rows(a1, d2, right), out=left)
        c0 += np.subtract(np.matmul(m1, m2, out=left), np.matmul(m2, m1, out=right), out=left)
        out = {(0,) * l: c0}
        del right, term  # freed before the C_{e_r} take their buffers
        for r, e in enumerate(units):
            # C_{e_r} is formed in the buffer of [A1_r, V2]
            ce = bracket(a1[..., r], m2, np.empty(shape, dtype))
            np.subtract(bracket(a2[..., r], m1, left), ce, out=left)
            out[e] = np.add(np.subtract(d2[r], d1[r], out=ce), left, out=ce)
    return out


def _batch_max(x: np.ndarray) -> np.ndarray:
    """Largest entry modulus per entry of the leading batch axis, NaN kept."""
    return np.max(np.abs(x).reshape(len(x), -1), axis=1)


def _coeff_scale(zero: Jet, cartan: np.ndarray) -> np.ndarray:
    """The largest coefficient entry of (1/2) Delta - sum_r A_r d_r + V at H,
    max(1/2, |A_r|, |V(H)|), per batch entry: ``transfer``'s
    ``max_coeff_norm``."""
    return np.maximum(np.maximum(0.5, _batch_max(cartan)), _batch_max(zero.value))


def _commute_pass_bytes(problem: GaudinProblem) -> tuple:
    """(block, rows, entry): by estimate, a commutativity pass of e entries
    peaks at max(block + e rows, e entry) bytes.  Theta holds _BLOCK terms
    at 64 bytes, and 112 bytes per argument, N + |Phi+| (2N + 1) a side.
    Then an entry holds per side theta, V, the pair jets and pair series,
    or both sides' V and max(l, 2) + 6 matrices for the commutator: its
    l + 1 coefficients, one work buffer (three while C_0, the first, is
    formed), one buffer of NumPy's iterator, which copies the broadcast
    A_r, and a measured margin of three for small arrays: the pass's, A_r
    among them, theta's constants cached per batch size, and those that
    earlier passes leave cached, which stay bounded (a2_n3_adjoint at one
    entry a pass: 94, 117 and 83 KB after 100, 500 and 2,000 passes)."""
    l, dim = problem.rs.rank, problem.space.dim0
    n, k = len(problem.positions), problem.rs.n_positive
    terms, args = len(jet_indices(l, 2)), n + k * (2 * n + 1)
    side = terms * dim * dim + (terms + 3) * k * n * n + 4 * args
    entry = max(2 * side, (2 * terms + max(l, 2) + 6) * dim * dim)
    return 64 * _BLOCK, 2 * 112 * args, 16 * entry


def commutativity_residual(problem: GaudinProblem, u1s, u2s, h_points) -> dict:
    """Relative size of [transfer(u1), transfer(u2)] over the pairs of the
    1-D arrays u1s and u2s and the (P, l) stack of Cartan points h_points.

    The (Cartan point, pair) entries go in ``pass_slices`` passes, one
    unless ``_commute_pass_bytes`` puts them over ``_COMMUTE_PASS_BYTES``.
    Per pass, one ``transfer_parts`` call, at the second order that
    ``commutator_values`` needs and with H paired in, serves both sides,
    the u1 lanes and then the u2 lanes, and ``commutator_values`` gives
    every entry's commutator in closed form; each entry's numbers are
    those it gets alone.  A residual is scaled by the product of its
    operators' ``max_coeff_norm``, max(1/2, |A_r|, |V(H)|).  Returns the
    largest relative residual, overall and per pair; every fold keeps NaN.
    """
    u1s, u2s = (np.asarray(u, dtype=complex) for u in (u1s, u2s))
    if u1s.shape != u2s.shape:
        raise GaudinError(
            f"paired spectral parameters differ in number: {len(u1s)} and {len(u2s)}"
        )
    points = np.asarray(h_points, dtype=complex)
    hs = np.repeat(points, len(u1s), axis=0)
    lanes = np.tile(np.stack([u1s, u2s]), len(points))
    block, rows, entry = _commute_pass_bytes(problem)
    step = min((_COMMUTE_PASS_BYTES - block) // rows, _COMMUTE_PASS_BYTES // entry)
    rel = np.zeros(len(hs))
    for part in pass_slices(len(hs), step):
        H = np.tile(hs[part], (2, 1))
        zero, cartan = problem.transfer_parts(lanes[:, part].ravel(), H, 2)
        first, second = ((Jet(zero.nvars, 2, v), a) for v, a in zip(
            np.split(zero.coeffs, 2, axis=1), np.split(cartan, 2)))
        values = commutator_values(first, second)
        scale = _coeff_scale(*first) * _coeff_scale(*second)
        norm = reduce(np.maximum, map(_batch_max, values.values()))
        rel[part] = norm / np.maximum(scale, 1e-300)
        # this pass's arrays go before the next pass builds its own
        del zero, cartan, first, second, values
    per_pair = np.max(rel.reshape(len(points), len(u1s)), axis=0, initial=0.0)
    return {"max_rel": float(np.max(per_pair, initial=0.0)), "per_pair": per_pair}


def composed_residual(problem: GaudinProblem, u1: complex, u2: complex, H) -> float:
    """Relative size of [transfer(u1), transfer(u2)] at one pair and one
    Cartan point by generic composition (``DiffOperator.commutator``),
    scaled as in ``commutativity_residual``.  Its two operators are the
    lanes of one 2-lane ``transfer_parts`` call of its own.

    It shares none of ``commutator_values``' algebra, so a spot check with
    it catches a closed form that loses a term of the commutator.  NaN is
    kept.
    """
    parts = problem.transfer_parts([u1, u2], [H, H], 2)
    first, second = (_lane(parts, b) for b in (0, 1))
    scale = first.max_coeff_norm() * second.max_coeff_norm()
    return float(first.commutator(second).max_coeff_norm() / np.maximum(scale, 1e-300))
