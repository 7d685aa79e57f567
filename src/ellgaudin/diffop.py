"""Matrix-coefficient differential operators in the Cartan coordinates.

An operator is a finite sum over multi-indices beta of coefficient
functions times partial derivatives d^beta in the coordinates xi_1..xi_l,
held at one base point H: each coefficient is its matrix-valued
:class:`Jet` at H, and all jets share one order k.  Composition
differentiates the coefficients analytically via the Leibniz rule and
keeps as many orders as the inputs determine; nothing is ever sampled on
a grid.

Matrix coefficients may carry a leading batch axis, shape (B, dim, dim):
one operator then stands for B operators at the same point, such as the
transfer operators at B spectral parameters.  Products use ``@`` and
``*``, which broadcast, so composition, commutators and ``apply`` act
entry by entry, and an unbatched (dim, dim) coefficient serves every
entry.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import product as _iproduct
from operator import add, sub

import numpy as np

from .elliptic import Jet, _nonzero_items, jet_indices

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


@lru_cache(maxsize=None)
def _derivative_lookup(delta: tuple, room: int) -> tuple:
    """(mm, mm + delta, weight) for every mm of total degree <= room.

    The Taylor coefficient of d^delta b at mm is weight times b's
    coefficient at mm + delta, with the falling factorials
    weight = prod_i (mm_i + delta_i)! / mm_i!.
    """
    out = []
    for mm in jet_indices(len(delta), room):
        m = tuple(map(add, mm, delta))
        weight = 1
        for a, d in zip(m, delta):
            weight *= math.perm(a, d)
        out.append((mm, m, weight))
    return tuple(out)


def _entry_norm(value):
    """Largest entry modulus of a coefficient value, one per batch entry
    when it carries a leading batch axis."""
    a = np.abs(value)
    return np.max(a, axis=(-2, -1)) if a.ndim == 3 else np.max(a)


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

    def _coeff_at(self, m, k: int) -> Jet:
        return self.coeffs[m].truncate(k)

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.nvars != other.nvars or self.dim != other.dim:
            raise ValueError("operator shape mismatch")
        k = min(self.k, other.k)
        out = {}
        for m in set(self.coeffs) | set(other.coeffs):
            if m not in other.coeffs:
                out[m] = self._coeff_at(m, k)
            elif m not in self.coeffs:
                out[m] = other._coeff_at(m, k)
            else:
                out[m] = self._coeff_at(m, k) + other._coeff_at(m, k)
        return DiffOperator(self.nvars, self.dim, out)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + other * (-1.0)

    def __mul__(self, scalar) -> "DiffOperator":
        s = complex(scalar)
        out = {m: jet * s for m, jet in self.coeffs.items()}
        return DiffOperator(self.nvars, self.dim, out)

    __rmul__ = __mul__

    # -- composition -----------------------------------------------------

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """Operator composition self after other (self applied second).

        Leibniz: a d^beta (b d^gamma f) expands over delta <= beta into
        binom(beta,delta) a (d^delta b) d^(beta-delta+gamma) f, so the
        result coefficient at mu collects all splittings.  Differentiating
        ``other``'s coefficients costs up to ``self.order`` jet orders, so
        the result carries order k = min(self.k, other.k - self.order).

        Each Leibniz term is formed coefficient by coefficient: the
        coefficient of d^delta b at mm is read straight off b at
        mm + delta, scaled by falling factorials, and only the products
        a_ma (d^delta b)_mm of total degree |ma + mm| <= k are formed.
        Two array factors multiply with ``@``, as in a jet product, so at
        k = 0 every term is one matrix product.
        """
        if self.nvars != other.nvars or self.dim != other.dim:
            raise ValueError("operator shape mismatch")
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
        out: dict = {}
        for beta, a in self.coeffs.items():
            left = [
                (ma, ca, a_array, k - sum(ma))
                for ma, ca, a_array in _nonzero_items(a.coeffs)
                if sum(ma) <= k
            ]
            for gamma, b in other.coeffs.items():
                for delta, rest, binom in _leibniz_splits(beta):
                    acc = out.setdefault(tuple(map(add, rest, gamma)), {})
                    for ma, ca, a_array, room in left:
                        for mm, m, weight in _derivative_lookup(delta, room):
                            cb = b.coeffs.get(m)
                            b_array = isinstance(cb, np.ndarray)
                            if not b_array and not cb:
                                continue  # missing or a scalar zero
                            prod = ca @ cb if a_array and b_array else ca * cb
                            prod = prod * (binom * weight)
                            idx = tuple(map(add, ma, mm))
                            acc[idx] = acc[idx] + prod if idx in acc else prod
        return DiffOperator(
            self.nvars, self.dim, {mu: Jet(self.nvars, k, c) for mu, c in out.items()}
        )

    def commutator(self, other: "DiffOperator") -> "DiffOperator":
        """[self, other] = self o other - other o self.

        The second composition's coefficients are subtracted from the
        first's in place, with no negated copy and no third coefficient
        dict; negation is exact, so the values are those of
        ``self.compose(other) - other.compose(self)``.
        """
        out = self.compose(other)
        back = other.compose(self)
        k = min(out.k, back.k)
        if out.k > k:
            out = DiffOperator(
                self.nvars, self.dim, {m: jet.truncate(k) for m, jet in out.coeffs.items()}
            )
        for m, jet in back.coeffs.items():
            if jet.total > k:
                jet = jet.truncate(k)
            acc = out.coeffs.setdefault(m, Jet(self.nvars, k)).coeffs
            for mm, c in jet.coeffs.items():
                a = acc.get(mm)
                if a is None:
                    acc[mm] = -c
                elif isinstance(a, np.ndarray) and a.dtype == complex and a.shape == np.shape(c):
                    a -= c
                else:
                    acc[mm] = a - c
        return out

    # -- evaluation ------------------------------------------------------

    def evaluate(self) -> dict:
        """Coefficient values at the base point."""
        return {m: jet.value for m, jet in self.coeffs.items()}

    def apply(self, fjet: Jet) -> np.ndarray:
        """Value at the base point of the operator applied to a function.

        ``fjet`` is the function's jet at the same point, in nvars
        variables with vector coefficients of length ``dim``; it must carry
        at least the operator's order.  With batched coefficients the value
        has shape (B, dim), one row per batch entry.
        """
        if fjet.total < self.order:
            raise ValueError(
                f"a jet of order {fjet.total} cannot feed an operator of "
                f"order {self.order}"
            )
        out = np.zeros(self.dim, dtype=complex)
        zero = (0,) * self.nvars
        for beta, jet in self.coeffs.items():
            coeff = jet.coeffs.get(zero)
            # a missing coefficient is zero
            if coeff is not None and beta in fjet.coeffs:
                out = out + coeff @ fjet.deriv(beta)
        return out

    def max_coeff_norm(self):
        """Largest entry modulus of any coefficient at the base point, NaN
        kept; with batched coefficients, an array of one value per batch
        entry."""
        return reduce(np.maximum, map(_entry_norm, self.evaluate().values()), 0.0)
