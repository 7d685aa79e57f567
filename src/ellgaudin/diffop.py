"""Matrix-coefficient differential operators in the Cartan coordinates.

An operator is a finite sum over multi-indices beta of coefficient
functions times partial derivatives d^beta in the coordinates xi_1..xi_l,
held at one base point H: each coefficient is its matrix-valued
:class:`Jet` at H, one array of shape (n, dim, dim) over the n monomials
of one order k shared by all coefficients, or of length 1 for a constant.
Composition differentiates the coefficients analytically via the Leibniz
rule, each term one derivative gather and one array jet product, and
keeps as many orders as the inputs determine; nothing is ever sampled on
a grid.

For ``apply`` alone, matrix coefficients may carry a batch axis after the
monomial one, shape (n, B, dim, dim): one operator then stands for B
operators at the same point, such as the transfer operators at B spectral
parameters, and so may the function jet; broadcasting gives each entry
its own product.  Composition refuses batched coefficients.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import product as _iproduct
from operator import add, sub

import numpy as np

from .elliptic import Jet, array_jet_product, derivative_table, jet_indices

MAX_TOTAL_ORDER = 4


@lru_cache(maxsize=None)
def _leibniz_splits(beta: tuple) -> tuple:
    """(delta, beta - delta, binom(beta, delta)) for every delta <= beta."""
    out = []
    for delta in _iproduct(*(range(b + 1) for b in beta)):
        binom = 1
        for b, d in zip(beta, delta):
            binom *= math.comb(b, d)
        out.append((delta, tuple(map(sub, beta, delta)), binom))
    return tuple(out)


def _jet_sum(a, b) -> np.ndarray:
    """a + b for coefficient arrays whose stored prefixes may differ in
    length, the shorter one reading as zero beyond its own."""
    if len(a) < len(b):
        a, b = b, a
    if len(a) == len(b):
        return a + b
    out = a + np.zeros_like(b[:1])
    out[: len(b)] += b
    return out


class DiffOperator:
    """Sum over beta of coeff_beta(xi) * d^beta, as jets at one point H.

    ``coeffs`` maps the derivative multi-index beta to the coefficient's
    matrix-valued jet at H in nvars variables to total order k; ``k`` is
    the same for every coefficient.  Matrix coefficients act on
    vector-valued functions of xi by left multiplication.
    """

    def __init__(self, nvars: int, dim: int, coeffs: dict):
        self.nvars = nvars
        self.dim = dim
        self.coeffs = {tuple(m): jet for m, jet in coeffs.items()}
        for m in self.coeffs:
            if len(m) != nvars:
                raise ValueError(f"multi-index {m} does not have {nvars} entries")
        orders = {jet.total for jet in self.coeffs.values()}
        if len(orders) != 1:
            raise ValueError(
                f"need coefficient jets of one order, got orders {orders}"
            )
        self.k = orders.pop()

    @property
    def order(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    def _arrays(self, k: int) -> dict:
        """Every coefficient array truncated to order k: a prefix."""
        n = len(jet_indices(self.nvars, k))
        return {m: jet.coeffs[:n] for m, jet in self.coeffs.items()}

    def _like(self, k: int, arrays: dict) -> "DiffOperator":
        jets = {m: Jet(self.nvars, k, c) for m, c in arrays.items()}
        return DiffOperator(self.nvars, self.dim, jets)

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.nvars != other.nvars or self.dim != other.dim:
            raise ValueError("operator shape mismatch")
        k = min(self.k, other.k)
        out = self._arrays(k)
        for m, c in other._arrays(k).items():
            out[m] = _jet_sum(out[m], c) if m in out else c
        return self._like(k, out)

    # -- composition -----------------------------------------------------

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator composition self after other (self applied second).

        Leibniz: a d^beta (b d^gamma f) expands over delta <= beta into
        binom(beta,delta) a (d^delta b) d^(beta-delta+gamma) f, so the
        result coefficient at mu collects all splittings.  Differentiating
        ``other``'s coefficients costs up to ``self.order`` jet orders, so
        the result carries order k = min(self.k, other.k - self.order).

        Each Leibniz term is one gather and one product: the jet of
        d^delta b to order k is read straight off b at the shifted
        monomials, scaled by falling factorials (``derivative_table``), and
        multiplied with a truncated to order k by ``array_jet_product``
        with ``@``.  The derivative of a constant coefficient vanishes, so
        its term is skipped.  At k = 0 every term is one matrix product.
        Batched coefficients are refused: composition has no batch axis.
        """
        if self.nvars != other.nvars or self.dim != other.dim:
            raise ValueError("operator shape mismatch")
        if any(jet.coeffs.ndim != 3 for op in (self, other) for jet in op.coeffs.values()):
            raise ValueError("composition takes unbatched coefficients, shape (n, dim, dim)")
        if self.order + other.order > MAX_TOTAL_ORDER:
            raise ValueError(
                f"composition order {self.order + other.order} exceeds "
                f"{MAX_TOTAL_ORDER}"
            )
        k = min(self.k, other.k - self.order)
        if k < 0:
            raise ValueError(
                f"coefficient jets of order {other.k} cannot be differentiated "
                f"{self.order} times"
            )
        n = len(jet_indices(self.nvars, k))
        out: dict = {}
        for beta, a in self._arrays(k).items():
            for gamma, b in other.coeffs.items():
                b = b.coeffs
                for delta, rest, binom in _leibniz_splits(beta):
                    if not any(delta):
                        db = b[:n]
                    elif len(b) == 1:
                        continue  # a constant's derivative vanishes
                    else:
                        at, weight = derivative_table(self.nvars, delta, k)
                        db = b[at] * weight[:, None, None]
                    term = array_jet_product(a, db, self.nvars, k, np.matmul) * binom
                    mu = tuple(map(add, rest, gamma))
                    out[mu] = _jet_sum(out[mu], term) if mu in out else term
        return self._like(k, out)

    def commutator(self, other: "DiffOperator") -> "DiffOperator":
        """[self, other] = self o other - other o self.

        Both compositions are truncated to the lower of their orders and
        their coefficient arrays subtracted; negation is exact, so a - b
        equals a + (-b) to the bit.
        """
        out = self.compose(other)
        back = other.compose(self)
        k = min(out.k, back.k)
        diff = out._arrays(k)
        for m, c in back._arrays(k).items():
            diff[m] = _jet_sum(diff[m], -c) if m in diff else -c
        return self._like(k, diff)

    # -- evaluation ------------------------------------------------------

    def evaluate(self) -> dict:
        """Coefficient values at the base point."""
        return {m: jet.value for m, jet in self.coeffs.items()}

    def apply(self, fjet: Jet) -> np.ndarray:
        """Value at the base point of the operator applied to a function.

        ``fjet`` is the function's jet at the same point, in nvars
        variables with vector coefficients of length ``dim``, shape
        (n, dim), or batched like the operator, shape (n, B, dim), one
        function per batch entry; it must carry at least the operator's
        order.  With batched coefficients or a batched jet the value has
        shape (B, dim), one row per batch entry.  Each entry is its own
        matrix-vector product, the same whatever the batch around it.
        """
        if fjet.total < self.order:
            raise ValueError(
                f"a jet of order {fjet.total} cannot feed an operator of "
                f"order {self.order}"
            )
        out = np.zeros(self.dim, dtype=complex)
        for beta, jet in self.coeffs.items():
            out = out + (jet.value @ fjet.deriv(beta)[..., None])[..., 0]
        return out

    def max_coeff_norm(self):
        """Largest entry modulus of any coefficient at the base point, NaN
        kept; with batched coefficients, an array of one value per batch
        entry."""
        norms = (np.max(np.abs(v), axis=(-2, -1)) for v in self.evaluate().values())
        return reduce(np.maximum, norms, 0.0)
