"""Ground states and Demazure walks for the path model with a level-1 anchor.

A ground state of B^{r_N,1} (x) ... (x) B^{r_1,1} is an element u such that
u (x) u_{Lambda_0} is highest weight; :func:`.energy.is_ground_state` is the
one definition of that test.  :mod:`.energy` imports this module, not the
other way round: :func:`.energy.demazure_grading` searches from the states
listed here.  The states are built factor by factor from the right: b_1
ranges over the elements with eps(b_1) = Lambda_0, and each next factor
over those with eps(b_{k+1}) = phi(b_k).  Type A crystals are perfect, so
the chain is forced and there is a single ground state; in type C every
step may branch and the construction yields a tree of states.  The weight
of a state is phi(b_N), always a single fundamental weight.

From each type C ground state an explicit sequence of Demazure arrows leads
to an element with no barred letters, each 0-arrow held to
:func:`is_demazure_arrow`: the shape sequence grows by one
horizontal domino per step, wrapping completed height-n columns, and the
lowering word F_j is read off the current shape.  The same element is
produced directly by the cut construction, which lays out one column of
factor indices per unbarred letter and one per barred letter, cuts them at
multiples of n, and reads the rows as factor memberships.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    TensorElement,
    _require_factors,
    check_budget,
    column_eps_phi,
    columns,
    eps,
    f,
    hold_to_budget,
    phi,
)
from .errors import BarredResidue, NonDemazureArrow, NotFundamental


#: Single columns are level-bounded by 1; 0-arrows are Demazure iff eps_0 >= this.
DEMAZURE_LEVEL = 1


def is_demazure_arrow(elem, i):
    """Whether f_i is a Demazure arrow at this element (level bound 1)."""
    if phi(elem, i) == 0:
        return False
    return i != 0 or eps(elem, 0) >= DEMAZURE_LEVEL


@dataclass(frozen=True)
class GroundState:
    """A ground state element together with its fundamental weight index."""

    element: TensorElement
    weight_index: int


@lru_cache(maxsize=None)
def _columns_by_eps(ct, height):
    """eps weight -> the ``(column, phi weight)`` of every height-h column with it."""
    # every column gets two (n + 1)-entry weights, so columns x n is budgeted
    check_budget(ct, (height,), ct.n)
    table = {}
    for col in columns(ct, height):
        eps_weight, phi_weight = zip(*(column_eps_phi(ct, i, col) for i in ct.index_set))
        table.setdefault(eps_weight, []).append((col, phi_weight))
    return table


def _fundamental_index(ct, coeffs):
    if sum(coeffs) != 1:
        return None
    return coeffs.index(1)


def ground_states(ct, heights):
    """All ground states of the tensor product with the given heights.

    ``heights`` lists the factors left to right, so the chain starts at the
    last entry.  States are returned sorted by their factor serialization.
    States x factors pass :func:`kncrystals.core.hold_to_budget` as each
    state is listed, and the factors alone before the chain walk, so more
    factors than the budget are refused before any column table is built.
    """
    heights = tuple(heights)
    _require_factors(heights)
    hold_to_budget(len(heights), lambda: f"{len(heights)} factors")
    # the column tables, budget-checked, come before any weight vector
    by_eps = [_columns_by_eps(ct, h) for h in reversed(heights)]
    out = []
    # chains b_1, b_2, ... on a stack, so no recursion limit bounds the depth;
    # a chain is a (b_k, chain of b_1 .. b_{k-1}) cell, so chains share their
    # prefixes and each step costs the same at any depth and any rank
    stack = [(0, None, ct.fundamental(0))]
    while stack:
        k, chain, want = stack.pop()
        if k < len(heights):
            for col, phi_weight in by_eps[k].get(want, ()):
                stack.append((k + 1, (col, chain), phi_weight))
            continue
        h = _fundamental_index(ct, want)
        if h is None:
            raise NotFundamental(f"ground state weight {want} is not fundamental")
        factors = []  # b_N .. b_1, left to right
        while chain is not None:
            col, chain = chain
            factors.append(col)
        out.append(GroundState(TensorElement(ct, tuple(factors)), h))
        hold_to_budget(len(out) * len(heights),
                       lambda: f"{len(out)} states x {len(heights)} factors")
    out.sort(key=lambda g: g.element.sort_key())
    return out


@dataclass(frozen=True)
class ShapeState:
    """A partition with k full columns of height n and two extras h2 >= h1."""

    k: int
    h2: int
    h1: int

    def grow(self, n):
        return normalize_shape(ShapeState(self.k, self.h2 + 1, self.h1 + 1), n)

    def cells(self, n):
        return self.k * n + self.h2 + self.h1


def normalize_shape(state, n):
    """Fold completed height-n columns into the full-column count."""
    k, h2, h1 = state.k, state.h2, state.h1
    if h2 == n and h1 == n:
        k, h2, h1 = k + 2, 0, 0
    elif h2 == n:
        k, h2, h1 = k + 1, h1, 0
    if not (n > h2 >= h1 >= 0):
        raise ValueError(f"bad shape state {state} for n = {n}")
    return ShapeState(k, h2, h1)


def f_word(state, ct):
    """The lowering word of one walk step, in application order.

    For the shape (k, h2, h1) the word applies, from high to low index,
    f_n k times, f_i 2k times for h2 < i < n, 2k+1 times for h1 < i <= h2,
    2k+2 times for 1 <= i <= h1, and finally f_0 k+1 times.
    """
    n = ct.n
    k, h2, h1 = state.k, state.h2, state.h1

    def exponent(i):
        if i == 0:
            return k + 1
        if i == n:
            return k
        if i <= h1:
            return 2 * k + 2
        if i <= h2:
            return 2 * k + 1
        return 2 * k

    word = []
    for i in range(n, -1, -1):
        word.extend([i] * exponent(i))
    return tuple(word)


@dataclass(frozen=True)
class WalkResult:
    ground_state: GroundState
    final: TensorElement
    steps: tuple  # of (ShapeState, word) for each applied F_j


def demazure_walk(gs):
    """Iterate v -> F_j(v) until the word fails, checking every 0-arrow.

    The attempt of a word rolls back on the first undefined operator; only
    fully applied words advance the walk.  Raises if an applied f_0 is not a
    Demazure arrow or if the final element still contains a barred letter.
    """
    elem = gs.element
    ct = elem.cartan
    if ct.family != "C":
        raise ValueError("the Demazure walk is defined for type C only")
    state = normalize_shape(ShapeState(0, gs.weight_index, 0), ct.n)
    steps = []
    cell_cap = sum(elem.heights)
    while state.cells(ct.n) <= cell_cap:
        word = f_word(state, ct)
        cur = elem
        ok = True
        bad_zero = None
        for i in word:
            if i == 0 and not is_demazure_arrow(cur, 0) and f(cur, 0) is not None:
                bad_zero = cur
            nxt = f(cur, i)
            if nxt is None:
                ok = False
                break
            cur = nxt
        if not ok:
            break
        if bad_zero is not None:
            raise NonDemazureArrow(f"f_0 applied at {bad_zero} with eps_0 = 0")
        steps.append((state, word))
        elem = cur
        state = state.grow(ct.n)
    if any(x < 0 for col in elem.factors for x in col):
        raise BarredResidue(f"walk ended at {elem} with barred letters")
    return WalkResult(gs, elem, tuple(steps))


def cut_construction(gs):
    """The direct construction of the walk's final element.

    Factor i contributes a cell labelled i to the first tower per unbarred
    letter and to the second tower per barred letter; the towers are cut at
    multiples of n and the pieces aligned at the bottom, so the cell at
    position pos of a tower gives factor i of the result the letter pos % n + 1.
    """
    elem = gs.element
    ct = elem.cartan
    if ct.family != "C":
        raise ValueError("the cut construction is defined for type C only")
    laid = [0, 0]  # the cells laid so far in the first and the second tower
    cols = []
    for col in reversed(elem.factors):  # factor 1, 2, ... from the right
        rows = []
        for x in col:
            rows.append(laid[x < 0] % ct.n + 1)
            laid[x < 0] += 1
        cols.append(tuple(sorted(rows)))
    return TensorElement(ct, tuple(reversed(cols)))
