"""Combinatorial R-matrix, local energy, and the global energy functions.

The R-matrix for an ordered pair of single-column crystals is computed by
classical-highest matching: raise the element, match the unique classical
highest element of the swapped product with the same weight (the two-column
decomposition is multiplicity free in both types), and lower by the mirrored
word.  That walk visits the pair one classical component at a time, in
lockstep with the image.  The local energy H is constant on each classical
component, so it is read off the component's highest pair x (x) generator:
H is minus the number of letters of x outside 1..h_left (the barred letters
and those above the left height), which is 0 at the tensor product of the
two generator columns.  In type A this is the two-column local energy of
Nakayashiki and Yamada; in type C it is measured, on every pair of heights
of C2-C5.  The ``rmatrix`` suite of :mod:`.verify` holds every table to the
affine recursion it stands for: along each f_0 edge H rises by 1 where f_0
acts on the left factor both before and after the R-matrix (LL), falls by 1
where it acts on the right in both (RR), and stays put otherwise.

The walk runs over integer codes.  A column's code is its position in
``columns(ct, h)``, so the generator is 0, and a pair of columns has the
code ``l * |B_right| + r``.  Per (type, height, index) the column data are
flat tuples by code, each column's read off the one derivation of the
crystal operators' entries in :mod:`.core`: eps, phi, and the codes of the
f and e targets, -1 where the operator is undefined.  A
:class:`LocalEnergyTable` keeps three flat arrays by pair code, the codes of
the two columns of sigma's image and H, and its ``sigma`` and ``h`` are
read-only mappings over them.  Each pass over a view iterates the product of
the two column tuples, in pair-code order, and keeps nothing.

Only the tables with left height >= right height are walked, the ones a
weakly decreasing shape meets; the others are their mirrors.  The R-matrix
of B_b (x) B_a is the inverse of that of B_a (x) B_b, and H is R-invariant,
H(sigma(b)) = H(b), so the image of each swapped pair q maps back to q with
q's H; a slot not hit exactly once raises ``NoMatchingComponent``.

Both tables are memoized per (cartan type, left height, right height) and are
immutable once built, so concurrent readers are safe; rebuilding a table is
idempotent.

Global energies follow the pair-transport sums; factor 1 is the rightmost
tensor factor.  D := D^L, so the main identity reads D(b) = -charge(b) and
all D values on a product of generators vanish.  One loop sums both: it
reads rows shared per (type, direction), one lookup per chain and one per
step, and keeps nothing per shape, so a step costs the same at any length.
A D^L and a D^R step differ only in the strides that order the pair code
and in which half of sigma's image the moving factor keeps.  The moving
factor travels as its code, so no pair of columns is built.

The affine grading checks D^R with neither charge nor the R-matrix: the
fewest e_0 steps m from b to its ground state u_b equal D^R(b) - D^R(u_b).
:func:`demazure_grading` grades a whole shape in one search, backwards from
all ground states (:mod:`.kyoto` lists them, beside the walks' Demazure-arrow
test); :func:`demazure_grading_oracle` searches forwards from one element
and is its independent second route.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import kyoto
from .core import (
    TensorElement,
    _Lazy,
    _column_index,
    _entry,
    check_budget,
    column_content,
    column_involution,
    columns,
    e,
    eps,
    f,
    hold_to_budget,
    is_classical_highest,
    iter_tensor_elements,
    lusztig_involution,
)
from .errors import ComponentCorrupt, NoMatchingComponent, TargetUnreachable


# On a pair the signature rule collapses to the textbook comparison: f acts
# on the left factor iff eps(left) >= phi(right), e acts on the left iff
# eps(left) > phi(right); an undefined action on the chosen side kills the
# result.  The table builders walk tens of thousands of pairs, so per-column
# data is flattened into tuples by code once per (type, height, index).

@lru_cache(maxsize=None)
def _column_codes(ct, h, i):
    """(eps, phi, f, e) of every height-h column under index i, indexed by code.

    These are the columns' entries of the operator tables (``core._entry``),
    with f and e as the code of the target column, or -1 where undefined.
    """
    code = _column_index(ct, h).get
    # each entry is derived here and not kept: kept in the operator tables,
    # the entries of every C3, C4 and C5 column held 0.37 MB even with the
    # columns' own tuples as targets (0.57 MB with copies)
    entries = (_entry(ct, i, c) for c in columns(ct, h))
    return tuple(zip(*((ep, ph, code(down, -1), code(up, -1)) for ep, ph, down, up in entries)))


class _PairView(Mapping):
    """Read-only (left, right) -> ``value(pair code)``, iterated in code order."""

    def __init__(self, ct, h_left, h_right, value):
        self._cols, self._value = (columns(ct, h_left), columns(ct, h_right)), value
        self._left, self._right = _column_index(ct, h_left), _column_index(ct, h_right)

    def __len__(self):
        return len(self._left) * len(self._right)

    def __iter__(self):
        return product(*self._cols)

    def __getitem__(self, pair):
        try:
            left, right = pair
            p = self._left[left] * len(self._right) + self._right[right]
        except (KeyError, TypeError, ValueError):
            raise KeyError(pair) from None
        return self._value(p)


@dataclass(frozen=True)
class LocalEnergyTable:
    """Memoized sigma and H for one ordered pair of column crystals."""

    # by pair code l * n_right + r: sigma's image (l', r') in the swapped
    # product, as the code of l' (right height) and of r' (left height)
    image_left: array
    image_right: array
    energies: array  # by pair code: H
    sigma: Mapping  # (left, right) -> (left', right') in the swapped product
    h: Mapping  # (left, right) -> int


def _highest_codes(ct, h, h_other):
    """Codes of the columns x with x (x) generator(h_other) classically highest.

    These are the x with eps_i(x) <= phi_i(generator) = [i == h_other] for
    every classical i; they are listed by code, with their weights.
    """
    gen_content = column_content(ct, columns(ct, h_other)[0])
    eps_by_index = [
        (_column_codes(ct, h, i)[0], int(i == h_other)) for i in ct.classical_indices
    ]
    out = []
    for x, col in enumerate(columns(ct, h)):
        if all(eps_l[x] <= bound for eps_l, bound in eps_by_index):
            wt = tuple(a + b for a, b in zip(column_content(ct, col), gen_content))
            out.append((x, wt))
    return out


def _build_sigma(ct, h_left, h_right):
    """sigma by code, walked one classical component at a time.

    Returns ``(highest, label, image)``: the left code x of each component's
    highest pair x (x) generator, the component of every pair code, and the
    image code of every pair code.  The image lives in the swapped
    product, so its code is ``l' * |B_left| + r'``.  Each component is walked
    in lockstep with its image from the matching highest elements; a
    classical f edge must land inside the component, on the image it maps
    to there.
    """
    n_left, n_right = len(columns(ct, h_left)), len(columns(ct, h_right))
    swapped_candidates = {}
    for x, wt in _highest_codes(ct, h_right, h_left):
        swapped_candidates.setdefault(wt, []).append(x * n_left)

    def key(p):  # the pair of columns with code p, for an error message
        l, r = divmod(p, n_right)
        return columns(ct, h_left)[l], columns(ct, h_right)[r]

    image = [-1] * (n_left * n_right)
    label = [-1] * len(image)
    highest, covered = [], 0
    # per classical index: the maps of the left height, then of the right
    # height; the image's factors have the heights reversed
    plan = [
        (i,) + _column_codes(ct, h_left, i)[:3] + _column_codes(ct, h_right, i)[:3]
        for i in ct.classical_indices
    ]
    for x, wt in _highest_codes(ct, h_left, h_right):
        matches = swapped_candidates.get(wt, [])
        if len(matches) != 1:
            raise NoMatchingComponent(
                f"{len(matches)} highest elements of weight {wt} in the swap of "
                f"({h_left},{h_right}) over {ct}"
            )
        c, start = len(highest), x * n_right
        if label[start] >= 0:
            raise NoMatchingComponent(f"the highest pair {key(start)} is walked twice")
        image[start], label[start] = matches[0], c
        queue = [start]
        for p in queue:
            al, ar = divmod(p, n_right)
            bl, br = divmod(image[p], n_left)
            for i, eps_l, phi_l, f_l, eps_r, phi_r, f_r in plan:
                if eps_l[al] >= phi_r[ar]:
                    t = f_l[al]
                    fa = -1 if t < 0 else t * n_right + ar
                else:
                    t = f_r[ar]
                    fa = -1 if t < 0 else al * n_right + t
                if eps_r[bl] >= phi_l[br]:
                    t = f_r[bl]
                    fb = -1 if t < 0 else t * n_left + br
                else:
                    t = f_l[br]
                    fb = -1 if t < 0 else bl * n_left + t
                if (fa < 0) != (fb < 0):
                    raise NoMatchingComponent(f"component walk out of step at {key(p)}")
                if fa < 0:
                    continue
                if label[fa] < 0:
                    image[fa], label[fa] = fb, c
                    queue.append(fa)
                elif label[fa] != c or image[fa] != fb:
                    raise NoMatchingComponent(
                        f"f_{i} at {key(p)} leaves the component walk"
                    )
        highest.append(x)
        covered += len(queue)
    if covered != len(image):
        raise NoMatchingComponent(
            f"sigma table covers {covered} of {len(image)} elements for "
            f"({h_left},{h_right}) over {ct}"
        )
    return highest, label, image


@lru_cache(maxsize=None)
def local_table(ct, h_left, h_right):
    # the column codes and the sigma walk do rank-n work on every pair
    check_budget(ct, (h_left, h_right), ct.n)
    if h_left < h_right:
        # the mirror of the module docstring: the swap's sigma, inverted;
        # a pair code of the swap is an image code here
        src, n_right = local_table(ct, h_right, h_left), len(columns(ct, h_right))
        image = [-1] * len(src.energies)
        for q, (l, r) in enumerate(zip(src.image_left, src.image_right)):
            image[l * n_right + r] = q
        # as many writes as slots: a slot hit twice leaves another at -1
        if -1 in image:
            raise NoMatchingComponent(
                f"sigma of ({h_right},{h_left}) over {ct} is not a bijection"
            )
        hv = map(src.energies.__getitem__, image)
    else:
        highest, label, image = _build_sigma(ct, h_left, h_right)
        # H of the component of x (x) generator, by the module docstring's rule
        cols = columns(ct, h_left)
        h_of = [-sum(v < 0 or v > h_left for v in cols[x]) for x in highest]
        hv = map(h_of.__getitem__, label)
    hv = array("h", hv)  # "h" raises OverflowError

    cols_right, cols_left = columns(ct, h_right), columns(ct, h_left)
    # the image's code is l' * n_left + r'; a byte a code where the columns allow
    n_left, wide = len(cols_left), "B" if max(len(cols_left), len(cols_right)) <= 256 else "I"
    image_left = array(wide, [c // n_left for c in image])
    image_right = array(wide, [c % n_left for c in image])

    def sigma(p):
        return cols_right[image_left[p]], cols_left[image_right[p]]

    return LocalEnergyTable(
        image_left, image_right, hv,
        _PairView(ct, h_left, h_right, sigma), _PairView(ct, h_left, h_right, hv.__getitem__),
    )


def combinatorial_r(ct, left, right):
    """sigma applied to left (x) right; returns the swapped pair of columns."""
    table = local_table(ct, len(left), len(right))
    return table.sigma[(left, right)]


def local_energy(ct, left, right):
    """H of the two-column element left (x) right, normalized at the generators."""
    table = local_table(ct, len(left), len(right))
    return table.h[(left, right)]


def commutor(ct, left, right):
    """The crystal commutor S(S(right) (x) S(left)) on a pair of columns.

    An independent construction of the R-matrix; the two must agree pointwise.
    Per pair, through ``lusztig_involution``; the ``rmatrix`` suite reads ``involution_map``.
    """
    swapped = (column_involution(ct, right), column_involution(ct, left))
    return lusztig_involution(TensorElement(ct, swapped)).factors


def tau(elem):
    """Reverse the factors and apply the Lusztig involution to each."""
    ct = elem.cartan
    return TensorElement(ct, tuple(column_involution(ct, c) for c in reversed(elem.factors)))


# ``_ROWS[ct, step]``: ``(ct, step, movers)``, the rows of the D^L (``step``
# -1) or D^R (``step`` +1) transports of a type.  ``movers`` maps a moving
# column to its code and its height's row, and a row maps a met column to
# ``(met offset, energies, moved, moving stride)``: the pair code is ``met
# offset + moving * moving stride``, and ``moved`` holds, by pair code, the
# code of the moving factor after sigma.  Both are plain dicts, filled a
# whole height at a time on a miss, ``movers`` in :func:`_chain_sum` and a
# row by :func:`_fill`, each behind :func:`_checked_index`.
_ROWS = _Lazy(lambda key: key + ({},))


def _checked_index(ct, col, h):
    """The column index of ``col``'s height, after the rank work of the pair
    of heights ``h`` and ``len(col)`` passes :func:`kncrystals.core.check_budget`;
    ``KeyError`` if ``col`` is not among its columns.  Energy's rows pass
    this gate before anything of theirs goes in."""
    check_budget(ct, (h, len(col)), ct.n)  # before any column index is built
    index = _column_index(ct, len(col))
    if col not in index:
        raise KeyError(col)
    return index


def _fill(ct, step, h, row, col):
    """``row[col]`` of a moving height-``h`` factor, after putting in every
    column of ``col``'s height from ``local_table``; called on a miss only,
    so a factor that is not a column fills nothing and no height fills twice.
    The pair's rank work passes :func:`_checked_index` first."""
    index = _checked_index(ct, col, h)
    # sigma's image is (l', r'): D^L meets on the left and moves on as l',
    # D^R meets on the right and moves on as r'
    if step < 0:
        t, n = local_table(ct, len(col), h), len(columns(ct, h))
        row.update((c, (k * n, t.energies, t.image_left, 1)) for c, k in index.items())
    else:
        t = local_table(ct, h, len(col))
        row.update((c, (k, t.energies, t.image_right, len(index))) for c, k in index.items())
    return row[col]


def _chain_sum(rows, factors, starts, terms=None):
    """The summed local energies of the chains of ``starts`` in one direction.

    ``rows`` is ``_ROWS[ct, step]``.  Factors are indexed left to right from
    0.  The D^L chain of factor ``q`` (``step`` -1, ``q >= 1``) transports it
    leftward by the R-matrix past ``factors[q - 1], ..., factors[0]``, so it
    reads only ``factors[: q + 1]``; the D^R chain (``step`` +1) transports
    it rightward past ``factors[q + 1], ..., factors[-1]``.  The local
    energy of each pair a chain meets is added, nearest first, and appended
    to ``terms`` when given.  The moving factor travels as its code.
    """
    ct, step, movers = rows
    total = 0
    for q in starts:
        col = factors[q]
        try:
            moving, row = movers[col]
        except KeyError:
            # gated on the chain's first pair, which _fill gates next; a
            # loop, as a generator here would close over row and make it a
            # cell, slower to read in the transport loop below
            row = {}
            for c, k in _checked_index(ct, col, len(factors[q + step])).items():
                movers[c] = k, row
            moving = movers[col][0]
        for col in factors[q + step::step]:
            try:
                offset, energies, moved, stride = row[col]
            except KeyError:
                offset, energies, moved, stride = _fill(ct, step, len(factors[q]), row, col)
            p = offset + moving * stride
            h = energies[p]
            total += h
            if terms is not None:
                terms.append(h)
            moving = moved[p]
    return total


def energy_DL(elem):
    """Left energy: transport each factor leftward and sum local energies."""
    factors = elem.factors
    return _chain_sum(_ROWS[elem.cartan, -1], factors, range(1, len(factors)))


def energy_DR(elem):
    """Right energy: transport each factor rightward and sum local energies."""
    factors = elem.factors
    return _chain_sum(_ROWS[elem.cartan, 1], factors, range(len(factors) - 1))


@dataclass(frozen=True)
class EnergyReport:
    """D values together with the individual pair contributions.

    Contribution keys are (j, i) in the right-to-left factor numbering, so
    H^L_{j,i} pairs factor j with factor i transported next to it.
    """

    element: TensorElement
    d_left: int
    d_right: int
    left_terms: dict
    right_terms: dict


def energy_report(elem):
    factors = elem.factors
    ct, n = elem.cartan, len(factors)
    left_h, right_h = [], []
    d_left = _chain_sum(_ROWS[ct, -1], factors, range(1, n), left_h)
    d_right = _chain_sum(_ROWS[ct, 1], factors, range(n - 1), right_h)
    # the terms come chain by chain, each nearest first
    left_keys = ((n - q, n - q0) for q0 in range(1, n) for q in range(q0 - 1, -1, -1))
    right_keys = ((n - q0, n - q) for q0 in range(n - 1) for q in range(q0 + 1, n))
    return EnergyReport(
        elem, d_left, d_right, dict(zip(left_keys, left_h)), dict(zip(right_keys, right_h))
    )


def is_ground_state(elem):
    """Whether elem (x) u_{Lambda_0} is highest weight: the ground-state test.

    This is the one definition of a ground state; the anchor absorbs one
    unit of eps_0, so eps_0 may be 1.
    """
    return is_classical_highest(elem) and eps(elem, 0) <= 1


def demazure_grading_oracle(elem):
    """Minimal number of e_0 steps to the highest element over the Kyoto anchor.

    Moves are the e_i available inside B (x) B(Lambda_0): every classical e_i,
    and e_0 only while eps_0 >= 2 (one unit of eps_0 is absorbed by the anchor;
    this availability rule is derived from the tensor rule).  Targets are the
    ground states (:func:`is_ground_state`).  Zero-one BFS: e_0 edges cost 1,
    classical edges cost 0.  The reached target u_b is the
    anchored component's highest element and min_e0 is its affine degree, which
    equals the right-energy difference D^R(b) - D^R(u_b).  (The left energy
    does not satisfy this identity: on the three-box type A_1 product, the
    all-ones element needs two e_0 steps while its D^L differs from the
    target's by one.)

    This searches from one element; :func:`demazure_grading` grades a whole
    shape in one search and must agree with it at every vertex.  Each visited
    vertex tries every e_i, so visited vertices x rank pass
    :func:`kncrystals.core.hold_to_budget` as the set grows.
    """
    ct = elem.cartan
    dist = {elem: 0}
    queue = deque([elem])
    while queue:
        cur = queue.popleft()
        d = dist[cur]
        if is_ground_state(cur):
            return cur, d
        for i in ct.index_set:
            if i == 0:
                if eps(cur, 0) < 2:
                    continue
                nxt = e(cur, 0)
                cost = 1
            else:
                nxt = e(cur, i)
                cost = 0
            if nxt is None:
                continue
            nd = d + cost
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                hold_to_budget(len(dist) * ct.n, lambda: f"{len(dist)} vertices x rank "
                               f"{ct.n} visited by the search from {elem}")
                if cost == 0:
                    queue.appendleft(nxt)
                else:
                    queue.append(nxt)
    raise TargetUnreachable(f"no Kyoto-highest element reachable from {elem}")


def demazure_grading(ct, heights):
    """``{b: (u_b, m)}`` for every vertex b of the shape, in one search.

    The moves of :func:`demazure_grading_oracle`, reversed and run from all
    ground states at once, as :func:`kncrystals.kyoto.ground_states` lists
    them: a classical f_i costs 0, and f_0 costs 1 and is taken only where
    eps_0 >= 2 at its image, where the oracle may take e_0 back.  The search
    runs layer by layer, m = 0, 1, ...: each layer is closed under the
    classical f_i before its f_0 steps open the next, so every vertex is
    reached first at its least m and takes its source as u_b.  Each move
    stays in the component of b (x) u_{Lambda_0}, whose highest element is
    unique, so a vertex reached from two ground states raises
    ``ComponentCorrupt``, and one never reached raises ``TargetUnreachable``.
    """
    heights = tuple(heights)
    # every f_i runs on every vertex
    size = check_budget(ct, heights, ct.n)
    grading = {g.element: (g.element, 0) for g in kyoto.ground_states(ct, heights)}
    classical = ct.classical_indices

    def reach(b, label):
        """Label b unless it is labelled; True when it is new."""
        old = grading.get(b)
        if old is None:
            grading[b] = label
            return True
        if old[0] is not label[0]:
            raise ComponentCorrupt(
                f"{b} is reached from the ground states {old[0]} and {label[0]}"
            )
        return False

    layer = list(grading.items())
    while layer:
        # the layer grows while it is walked: classical moves keep m
        for b, label in layer:
            for i in classical:
                fb = f(b, i)
                if fb is not None and reach(fb, label):
                    layer.append((fb, label))
        following = []
        for b, (u, m) in layer:
            fb, label = f(b, 0), (u, m + 1)
            if fb is not None and eps(fb, 0) >= 2 and reach(fb, label):
                following.append((fb, label))
        layer = following
    if len(grading) != size:
        missed = next(b for b in iter_tensor_elements(ct, heights) if b not in grading)
        raise TargetUnreachable(f"no Kyoto-highest element reaches {missed}")
    return grading
