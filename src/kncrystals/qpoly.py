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
from operator import add

from .charge import _coded_plan, _halve, _require_sorted, _step_miss, charge
from .core import (
    VERTEX_BUDGET,
    TensorElement,
    _check_rank_work,
    check_budget,
    column_content,
    columns,
    is_classical_highest,
    iter_tensor_elements,
    weight,
)
from .energy import _chain_sum, _transport_plan, combinatorial_r, energy_DL
from .errors import EnergyInconsistent, ShapeTooLarge, WeightMismatch


def conjugate(mu):
    """The transposed partition."""
    mu = tuple(mu)
    if any(a < b for a, b in zip(mu, mu[1:])) or any(p <= 0 for p in mu):
        raise ValueError(f"{mu} is not a partition")
    return tuple(sum(1 for p in mu if p >= i) for i in range(1, (mu[0] if mu else 0) + 1))


def shape_heights(ct, mu):
    """Factor heights of B_mu: the conjugate parts, tallest first."""
    heights = conjugate(mu)
    if heights and heights[0] > ct.max_height:
        raise ValueError(
            f"column height {heights[0]} of mu' exceeds {ct.max_height} for {ct}"
        )
    return heights


def _budgeted_heights(ct, mu, budget=None):
    """``shape_heights`` for a route that enumerates B_mu, budget-checked.

    B_mu has mu[0] factors of at least two columns each, so at least
    2^mu[0] vertices: a huge first part is refused before mu' is built.
    """
    mu = tuple(mu)
    cap = VERTEX_BUDGET if budget is None else budget
    if mu and mu[0] >= cap.bit_length():
        raise ShapeTooLarge(f"mu[0] = {mu[0]}: at least 2^{mu[0]} vertices, over the budget {cap}")
    heights = shape_heights(ct, mu)
    check_budget(ct, heights, budget)
    return heights


@dataclass(frozen=True)
class QPolynomial:
    """A sparse integer polynomial in q (negative exponents permitted)."""

    coeffs: tuple  # of (exponent, coefficient), sorted by exponent

    @staticmethod
    def from_dict(d):
        return QPolynomial(tuple(sorted((a, c) for a, c in d.items() if c)))

    def as_dict(self):
        return dict(self.coeffs)

    def substitute_inverse(self):
        """The polynomial with q replaced by 1/q."""
        return QPolynomial.from_dict({-a: c for a, c in self.coeffs})

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*q^{a}" for a, c in self.coeffs)


@dataclass(frozen=True)
class QXPolynomial:
    """A sparse polynomial in q and weight monomials x^content."""

    coeffs: tuple  # of ((exponent, content), coefficient), sorted

    @staticmethod
    def from_dict(d):
        return QXPolynomial(tuple(sorted((k, c) for k, c in d.items() if c)))

    def as_dict(self):
        return dict(self.coeffs)

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

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (a, content), c in self.coeffs:
            xs = ",".join(str(m) for m in content)
            parts.append(f"{c}*q^{a}*x^({xs})")
        return " + ".join(parts)


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
        self.halves = 2 if ct.family == "C" else 1
        # charge's step tables, for the whole scan: the budget was checked
        self.plan = _coded_plan(ct, heights)
        self.spill = {}
        # the D^L chains, fetched once; node p runs the one that starts at p
        self.chains = _transport_plan[ct, heights][0] if energy else None
        self.factors = [None] * len(heights)
        self.last = len(heights) - 1

    def walk(self, p, code, arms, dl, wt):
        """The vertices below the node that holds factors 0 to p - 1."""
        ct, factors, halves, chains = self.ct, self.factors, self.halves, self.chains
        rec = self.plan[p]
        _, n, table, shift, mask, sums, _, _ = rec
        keys = self.plan[p - 1][6] if p else None
        base = (code + 1) * n
        for c, (col, content) in enumerate(self.pools[p]):
            entry = table[base + c] if base + c < len(table) else -1
            if entry < 0:
                entry = _step_miss(ct, rec, keys, code, col, self.spill)
            factors[p] = col
            d = dl + _chain_sum(chains[p - 1:p], factors) if chains is not None else None
            w = tuple(map(add, wt, content))
            a = arms + sums[entry & mask]
            if p < self.last:
                yield from self.walk(p + 1, entry >> shift, a, d, w)
            else:
                yield tuple(factors), _halve(a, halves, factors), d, w


def _prefix_scan(ct, heights, _energy=True):
    """Every vertex of the product with its charge, D^L and weight.

    A depth-first walk over ``columns(ct, h_1) x ... x columns(ct, h_N)``
    that adds one factor at a time, so the work on a prefix is shared by
    every vertex below it.  A node carries the code of the last key column
    produced by the circular reordering, the descent arm sum, D^L and the
    weight of the prefix.  Adding factor p reads charge's step table (the
    one ``charge`` reads, keyed by that code and the column's position in
    its pool) and adds the one D^L chain that starts at p, read from the
    shape's transport plan, which the scan fetches once.  Charge and D^L
    stay the independent routes of ``charge`` and ``energy_DL``.

    Returns an iterator of ``(factors, charge, D^L, weight)`` in product
    order; with ``_energy`` false no D^L chain runs and D^L reads None.
    """
    scan = _PrefixScan(ct, tuple(heights), _energy)
    return scan.walk(0, -1, 0, 0 if _energy else None, (0,) * ct.n)


def macdonald_p_q0(ct, mu, budget=None):
    """P_mu(x; q, 0) as the charge generating function over B_mu."""
    heights = _budgeted_heights(ct, mu, budget)
    _check_rank_work(ct, heights, budget)  # an n-entry weight at every scan node
    return QXPolynomial.from_dict(
        Counter((c, wt) for _, c, _, wt in _prefix_scan(ct, heights, _energy=False))
    )


def highest_weight_elements(ct, heights, budget=None):
    """The classically highest elements of the product, lazily, budget-checked now."""
    _check_rank_work(ct, heights, budget)
    return filter(is_classical_highest, iter_tensor_elements(ct, heights))


def _graded_highest(ct, heights, lam, statistic):
    """The highest elements of weight ``lam``, graded by ``statistic``."""
    highest = highest_weight_elements(ct, heights)  # before the n-entry target
    target = tuple(lam) + (0,) * (ct.n - len(lam))
    return QPolynomial.from_dict(
        Counter(statistic(b) for b in highest if weight(b) == target)
    )


def kostka_foulkes(ct, lam, mu):
    """K_{lambda' mu'}(q): charge over highest elements of B_mu of weight lambda."""
    if ct.family != "A":
        raise ValueError("Kostka-Foulkes polynomials are computed in type A")
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise WeightMismatch(f"|{lam}| != |{mu}|")
    if len(lam) > ct.n:
        raise ValueError(f"lambda = {lam} has more than n = {ct.n} parts")
    return _graded_highest(ct, _budgeted_heights(ct, mu), lam, charge)


def one_dim_sum_X(ct, lam, heights):
    """X_{lambda,B}(q): energy over highest elements of weight lambda.

    Exponents are <= 0 under the normalization D = 0 at the generators.
    """
    return _graded_highest(ct, tuple(heights), lam, energy_DL)


def dominant_contents(ct, heights):
    """Sorted weights of all classically highest elements of the product."""
    seen = set()
    for b in highest_weight_elements(ct, heights):
        seen.add(weight(b))
    return sorted(seen, reverse=True)


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
    heights = _budgeted_heights(ct, mu)
    acc = {}
    for lam_content in dominant_contents(ct, heights):
        lam = tuple(p for p in lam_content if p > 0)
        kf = kostka_foulkes(ct, lam, mu)
        schur = schur_content_multiplicities(ct.n, lam)
        for a, c in kf.coeffs:
            for content, m in schur.items():
                key = (a, content)
                acc[key] = acc.get(key, 0) + c * m
    return QXPolynomial.from_dict(acc)
