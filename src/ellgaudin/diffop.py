"""Matrix-coefficient differential operators in the Cartan coordinates.

An operator is a finite sum over multi-indices beta of coefficient
functions times partial derivatives d^beta in the coordinates xi_1..xi_l.
Coefficients are closures producing matrix-valued :class:`Jet` expansions
at a requested base point and order, so composition can differentiate them
analytically via the Leibniz rule; nothing is ever sampled on a grid.
"""

from __future__ import annotations

import math
from itertools import product as _iproduct

import numpy as np

from .elliptic import Jet

MAX_TOTAL_ORDER = 4


def _binom_multi(beta, delta) -> int:
    out = 1
    for b, d in zip(beta, delta):
        out *= math.comb(b, d)
    return out


def _sub_indices(beta):
    """All delta <= beta componentwise."""
    return list(_iproduct(*(range(b + 1) for b in beta)))


def _cached_coeff(fn):
    """Memoize a coefficient closure on (base point, order)."""
    memo = {}

    def wrapped(H, order):
        key = (np.asarray(H, dtype=complex).tobytes(), order)
        if key not in memo:
            memo[key] = fn(H, order)
        return memo[key]

    return wrapped


def constant_coeff(mat) -> "CoeffFn":
    mat = np.asarray(mat, dtype=complex)

    def fn(H, order):
        return Jet.constant(mat, (order,) * np.asarray(H).size, order)

    return fn


class DiffOperator:
    """Sum over beta of coeff_beta(xi) * d^beta.

    ``coeffs`` maps the derivative multi-index beta to a closure
    ``fn(H, order) -> Jet`` giving the coefficient's jet at H.  The
    represented operator acts on vector-valued functions of xi; matrix
    coefficients act by left multiplication.
    """

    def __init__(self, nvars: int, dim: int, coeffs: dict, cache: bool = True):
        self.nvars = nvars
        self.dim = dim
        self.coeffs = {
            tuple(m): (_cached_coeff(fn) if cache else fn)
            for m, fn in coeffs.items()
        }
        for m in self.coeffs:
            if len(m) != nvars:
                raise ValueError(f"multi-index {m} does not have {nvars} entries")

    @property
    def order(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.nvars != other.nvars or self.dim != other.dim:
            raise ValueError("operator shape mismatch")
        out = {}
        for m in set(self.coeffs) | set(other.coeffs):
            fa = self.coeffs.get(m)
            fb = other.coeffs.get(m)
            if fa is None:
                out[m] = fb
            elif fb is None:
                out[m] = fa
            else:
                out[m] = (lambda fa, fb: lambda H, order: fa(H, order) + fb(H, order))(
                    fa, fb
                )
        return DiffOperator(self.nvars, self.dim, out, cache=False)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + other * (-1.0)

    def __mul__(self, scalar) -> "DiffOperator":
        s = complex(scalar)
        out = {
            m: (lambda fn: lambda H, order: fn(H, order) * s)(fn)
            for m, fn in self.coeffs.items()
        }
        return DiffOperator(self.nvars, self.dim, out, cache=False)

    __rmul__ = __mul__

    # -- composition -----------------------------------------------------

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator composition self after other (self applied second).

        Leibniz: a d^beta (b d^gamma f) expands over delta <= beta into
        binom(beta,delta) a (d^delta b) d^(beta-delta+gamma) f, so the
        result coefficient at mu collects all splittings; coefficient jets
        of ``other`` are consumed up to the order of ``self``.
        """
        if self.nvars != other.nvars or self.dim != other.dim:
            raise ValueError("operator shape mismatch")
        if self.order + other.order > MAX_TOTAL_ORDER:
            raise ValueError(
                f"composition order {self.order + other.order} exceeds "
                f"{MAX_TOTAL_ORDER}"
            )
        pieces: dict = {}
        for beta, fa in self.coeffs.items():
            for gamma, fb in other.coeffs.items():
                for delta in _sub_indices(beta):
                    mu = tuple(
                        b - d + g for b, d, g in zip(beta, delta, gamma)
                    )
                    w = _binom_multi(beta, delta)
                    pieces.setdefault(mu, []).append((fa, fb, tuple(delta), w))

        def make(mu, terms):
            def fn(H, order):
                acc = None
                for fa, fb, delta, w in terms:
                    a = fa(H, order)
                    b = fb(H, order + sum(delta)).shift(delta)
                    t = (a * b) * w
                    acc = t if acc is None else acc + t
                return acc

            return fn

        out = {mu: make(mu, terms) for mu, terms in pieces.items()}
        return DiffOperator(self.nvars, self.dim, out, cache=False)

    def commutator(self, other: "DiffOperator") -> "DiffOperator":
        return self.compose(other) - other.compose(self)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, H, order: int = 0) -> dict:
        """Coefficient jets (or plain values for order 0) at a point."""
        H = np.asarray(H, dtype=complex)
        if order == 0:
            return {m: fn(H, 0).value for m, fn in self.coeffs.items()}
        return {m: fn(H, order) for m, fn in self.coeffs.items()}

    def apply(self, f, H) -> np.ndarray:
        """Apply to a jet-evaluable vector function.

        ``f(H, order)`` must return a Jet over (order,) * nvars whose
        coefficients are vectors of length ``dim``; the jet order consumed
        equals the operator order.
        """
        H = np.asarray(H, dtype=complex)
        fjet = f(H, self.order)
        out = np.zeros(self.dim, dtype=complex)
        zero = (0,) * self.nvars
        for beta, fn in self.coeffs.items():
            coeff = fn(H, 0).coeffs.get(zero)
            # a missing coefficient is zero
            if coeff is not None and beta in fjet.coeffs:
                out = out + coeff @ fjet.deriv(beta)
        return out

    def max_coeff_norm(self, H) -> float:
        vals = self.evaluate(H, 0)
        return max(float(np.max(np.abs(v))) for v in vals.values())
