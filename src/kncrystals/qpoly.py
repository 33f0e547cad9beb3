"""Generating functions built on charge and energy.

The Macdonald polynomial specialized at t = 0 is the charge-weighted sum of
weight monomials over a tensor product of column crystals; its type A Schur
expansion coefficients are the Kostka-Foulkes polynomials, recovered here as
charge-weighted counts of classically highest elements.  One-dimensional
sums grade highest elements by the energy D instead, so their q-exponents
are <= 0 and in type A they are the Kostka-Foulkes polynomials at 1/q.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import add, lt

from .charge import _FIELD_MASK, _require_sorted, _start, _step, charge
from .core import (
    TensorElement,
    check_budget,
    column_content,
    columns,
    hold_to_budget,
    is_classical_highest,
    iter_tensor_elements,
    weight,
)
from .energy import _ROWS, _chain_sum, combinatorial_r, energy_DL
from .errors import EnergyInconsistent, WeightMismatch


def conjugate(mu):
    """The transposed partition, in O(len(mu) + mu[0]): part j of mu is the
    height of mu[j - 1] - mu[j] columns."""
    mu = tuple(mu)
    if any(a < b for a, b in zip(mu, mu[1:])) or any(p <= 0 for p in mu):
        raise ValueError(f"{mu} is not a partition")
    steps = zip(range(len(mu), 0, -1), reversed(mu), reversed(mu[1:] + (0,)))
    return tuple(itertools.chain.from_iterable(itertools.repeat(j, a - b) for j, a, b in steps))


def shape_heights(ct, mu):
    """Factor heights of B_mu, the conjugate parts tallest first: the one gate
    of a partition.  mu[0] is the factor count, and every route holds its
    factors to the budget through :func:`kncrystals.core.hold_to_budget`, so
    a longer first part raises ``ShapeTooLarge`` before mu' is built.  The
    vertices are not counted here: each route that enumerates them passes
    :func:`kncrystals.core.check_budget` itself, and ``bench`` only samples."""
    mu = tuple(mu)
    if mu:
        hold_to_budget(mu[0], lambda: f"mu[0] = {mu[0]} factors")
    heights = conjugate(mu)
    if heights and heights[0] > ct.max_height:
        raise ValueError(
            f"column height {heights[0]} of mu' exceeds {ct.max_height} for {ct}"
        )
    return heights


@dataclass(frozen=True)
class _Sparse:
    """Sparse integer coefficients by key; a subclass prints a key with ``_term``."""

    coeffs: tuple  # of (key, coefficient), sorted by key, no zero coefficient

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(sorted((k, c) for k, c in d.items() if c)))

    def as_dict(self):
        return dict(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{self._term(k)}" for k, c in self.coeffs)


class QPolynomial(_Sparse):
    """A sparse integer polynomial in q (negative exponents permitted)."""

    @staticmethod
    def _term(a):
        return f"q^{a}"

    def substitute_inverse(self):
        """The polynomial with q replaced by 1/q."""
        return QPolynomial.from_dict({-a: c for a, c in self.coeffs})


class QXPolynomial(_Sparse):
    """A sparse polynomial in q and weight monomials x^content, keyed by (exponent, content)."""

    @staticmethod
    def _term(key):
        return f"q^{key[0]}*x^({','.join(map(str, key[1]))})"

    def total(self):
        return sum(c for _, c in self.coeffs)

    def is_symmetric(self):
        """Invariance of the coefficients under permuting the content vector."""
        d = self.as_dict()
        for (a, content), c in self.coeffs:
            for perm in set(itertools.permutations(content)):
                if d.get((a, perm), 0) != c:
                    return False
        return True


def sort_via_rmatrix(elem):
    """Reorder the factors to weakly decreasing heights by adjacent swaps.

    Each swap applies the combinatorial R-matrix, so the energy D is
    unchanged; this is checked, raising ``EnergyInconsistent``.
    """
    ct = elem.cartan
    before = energy_DL(elem)
    cols = list(elem.factors)
    changed = True
    while changed:
        changed = False
        for p in range(len(cols) - 1):
            if len(cols[p]) < len(cols[p + 1]):
                cols[p], cols[p + 1] = combinatorial_r(ct, cols[p], cols[p + 1])
                changed = True
    out = TensorElement(ct, tuple(cols))
    if energy_DL(out) != before:
        raise EnergyInconsistent(f"the R-matrix changed D = {before} of {elem}")
    return out


class _PrefixScan:
    """The state of one prefix-sharing scan; see :func:`_prefix_scan`.

    A class and not nested functions: a recursive closure refers to itself
    through its cell, and that cycle would keep the scan's state alive until
    a full garbage collection.
    """

    def __init__(self, ct, heights, energy):
        _require_sorted(heights)
        self.ct = ct
        self.pools = [
            [(col, column_content(ct, col)) for col in columns(ct, h)] for h in heights
        ]
        # the D^L rows, fetched once; node p runs the chain that starts at p
        self.rows = _ROWS[ct, -1] if energy else None
        self.factors = [None] * len(heights)
        self.last = len(heights) - 1

    def walk(self, p, state, counts, total, dl, wt):
        """The vertices below the node that holds factors 0 to p - 1."""
        ct, factors, rows, starts = self.ct, self.factors, self.rows, (p,) if p else ()
        for col, content in self.pools[p]:
            try:
                nxt, inc, read = state[col]
            except KeyError:
                nxt, inc, read = _step(ct, state, col)
            factors[p] = col
            d = dl + _chain_sum(rows, factors, starts) if rows is not None else None
            w = tuple(map(add, wt, content))
            s = counts + inc
            t = total + (s >> read & _FIELD_MASK)
            if p < self.last:
                yield from self.walk(p + 1, nxt, s, t, d, w)
            else:
                yield tuple(factors), t, d, w


def _prefix_scan(ct, heights, _energy=True):
    """Every vertex of the product with its charge, D^L and weight.

    A depth-first walk over ``columns(ct, h_1) x ... x columns(ct, h_N)``
    that adds one factor at a time, so the work on a prefix is shared by
    every vertex below it.  A node carries charge's state (the last key
    column produced by the circular reordering), the packed prefix counts
    and the charge, D^L and the weight of the prefix.  Adding factor p
    reads the state's transition for the column, updates the counts as
    ``charge`` does, and adds the one D^L chain that starts at p (none at
    p = 0), read from energy's rows of its type, which the scan fetches
    once.  Charge and D^L stay the independent routes of ``charge`` and
    ``energy_DL``.

    Returns an iterator of ``(factors, charge, D^L, weight)`` in product
    order; with ``_energy`` false no D^L chain runs and D^L reads None.
    """
    scan = _PrefixScan(ct, tuple(heights), _energy)
    return scan.walk(0, _start(ct), 0, 0, 0 if _energy else None, (0,) * ct.n)


def macdonald_p_q0(ct, mu):
    """P_mu(x; q, 0) as the charge generating function over B_mu."""
    heights = shape_heights(ct, mu)
    check_budget(ct, heights, ct.n)  # an n-entry weight at every scan node
    return QXPolynomial.from_dict(
        Counter((c, wt) for _, c, _, wt in _prefix_scan(ct, heights, _energy=False))
    )


def highest_weight_elements(ct, heights):
    """The classically highest elements of the product, lazily, budget-checked now."""
    check_budget(ct, heights, ct.n)
    return filter(is_classical_highest, iter_tensor_elements(ct, heights))


def _grading(ct, heights, statistic):
    """weight -> Counter of ``statistic`` over the highest elements of that weight."""
    graded = {}
    for b in highest_weight_elements(ct, heights):
        graded.setdefault(weight(b), Counter())[statistic(b)] += 1
    return graded


def _graded_highest(ct, heights, lam, statistic):
    """The highest elements of weight ``lam``, graded by ``statistic``."""
    lam = tuple(lam)
    if len(lam) > ct.n or any(map(lt, lam, lam[1:])) or lam and lam[-1] < 0:
        raise ValueError(f"lambda = {lam} is not a partition of at most n = {ct.n} parts")
    graded = _grading(ct, heights, statistic)  # budget-checked before the n-entry target
    return QPolynomial.from_dict(graded.get(lam + (0,) * (ct.n - len(lam)), {}))


def kostka_foulkes(ct, lam, mu):
    """K_{lambda' mu'}(q): charge over highest elements of B_mu of weight lambda."""
    if ct.family != "A":
        raise ValueError("Kostka-Foulkes polynomials are computed in type A")
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise WeightMismatch(f"|{lam}| != |{mu}|")
    return _graded_highest(ct, shape_heights(ct, mu), lam, charge)


def one_dim_sum_X(ct, lam, heights):
    """X_{lambda,B}(q): energy over highest elements of weight lambda.

    Exponents are <= 0 under the normalization D = 0 at the generators.
    """
    return _graded_highest(ct, tuple(heights), lam, energy_DL)


def dominant_contents(ct, heights):
    """Sorted weights of all classically highest elements of the product."""
    return sorted({weight(b) for b in highest_weight_elements(ct, heights)}, reverse=True)


def schur_content_multiplicities(n, lam):
    """Weight multiplicities of the type A Schur polynomial s_lambda.

    Computed by direct enumeration of semistandard tableaux of shape lam
    with entries in [n]: columns strictly increase downward, rows weakly
    increase to the right.  Charge plays no role here, so this serves as an
    independent oracle for the Kostka-Foulkes reconstruction.
    """
    lam = tuple(lam)
    heights = conjugate(lam) if lam else ()
    if heights and heights[0] > n:
        return {}
    out = {}

    def fill(j, prev, content):
        if j == len(heights):
            key = tuple(content)
            out[key] = out.get(key, 0) + 1
            return
        h = heights[j]
        for col in itertools.combinations(range(1, n + 1), h):
            if prev is not None and any(col[i] < prev[i] for i in range(h)):
                continue
            for x in col:
                content[x - 1] += 1
            fill(j + 1, col, content)
            for x in col:
                content[x - 1] -= 1

    fill(0, None, [0] * n)
    return out


def schur_expansion_reconstruction(ct, mu):
    """Assemble sum_lambda K_{lambda' mu'}(q) s_lambda as a QXPolynomial."""
    if ct.family != "A":
        raise ValueError("the Schur reconstruction is a type A identity")
    acc = Counter()
    # every K_{lambda' mu'} from one charge grading of B_mu's highest elements
    for lam_content, kf in _grading(ct, shape_heights(ct, mu), charge).items():
        schur = schur_content_multiplicities(ct.n, tuple(p for p in lam_content if p > 0))
        for a, c in kf.items():
            for content, m in schur.items():
                acc[a, content] += c * m
    return QXPolynomial.from_dict(acc)
