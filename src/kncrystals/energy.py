"""Combinatorial R-matrix, local energy, and the global energy functions.

The R-matrix for an ordered pair of single-column crystals is computed by
classical-highest matching: raise the element, match the unique classical
highest element of the swapped product with the same weight (the two-column
decomposition is multiplicity free in both types), and lower by the mirrored
word.  The local energy H is produced by a breadth-first walk of the affine
crystal graph of the pair: it changes by -1 across an e_0 edge acting on the
left factor both before and after the R-matrix (LL), by +1 when acting on the
right in both (RR), and is constant otherwise, normalized to 0 at the tensor
product of the two generator columns.

Both tables are memoized per (cartan type, left height, right height) and are
immutable once built, so concurrent readers are safe; rebuilding a table is
idempotent.

Global energies follow the pair-transport sums; factor 1 is the rightmost
tensor factor.  D := D^L, so the main identity reads D(b) = -charge(b) and
all D values on a product of generators vanish.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    DEMAZURE_LEVEL,
    TensorElement,
    column_content,
    column_e,
    column_eps_phi,
    column_f,
    columns,
    e,
    eps,
    lusztig_involution,
    phi,
)
from .errors import EnergyInconsistent, NoMatchingComponent, TargetUnreachable


def _generator(k):
    return tuple(range(1, k + 1))


def _pair(ct, left, right):
    return TensorElement(ct, (left, right))


# On a pair the signature rule collapses to the textbook comparison: f acts
# on the left factor iff eps(left) >= phi(right), e acts on the left iff
# eps(left) > phi(right); an undefined action on the chosen side kills the
# result.  The table builders walk tens of thousands of pairs, so per-column
# data is flattened into plain dicts once per (type, height, index).

@lru_cache(maxsize=None)
def _column_maps(ct, h, i):
    """(eps, phi, f, e) of every height-h column under index i, as dicts."""
    eps_m = {}
    phi_m = {}
    f_m = {}
    e_m = {}
    for c in columns(ct, h):
        eps_m[c], phi_m[c] = column_eps_phi(ct, i, c)
        f_m[c] = column_f(ct, i, c)
        e_m[c] = column_e(ct, i, c)
    return eps_m, phi_m, f_m, e_m


def _highest_pairs(ct, h_left, h_right):
    """Classical highest elements of B^{h_left,1} (x) B^{h_right,1}.

    These are exactly x (x) v where v is the generator of the right factor
    and eps_i(x) <= phi_i(v) = [i == h_right] for all classical i.
    """
    v = _generator(h_right)
    out = []
    for x in columns(ct, h_left):
        ok = True
        for i in ct.classical_indices:
            if column_eps_phi(ct, i, x)[0] > (1 if i == h_right else 0):
                ok = False
                break
        if ok:
            out.append(_pair(ct, x, v))
    return out


@dataclass(frozen=True)
class LocalEnergyTable:
    """Memoized sigma and H for one ordered pair of column crystals."""

    cartan: object
    h_left: int
    h_right: int
    sigma: dict  # (left, right) -> (left', right') in the swapped product
    h: dict  # (left, right) -> int


def _build_sigma(ct, h_left, h_right):
    gen_left = _generator(h_left)
    want_eps = {i: (1 if i == h_left else 0) for i in ct.classical_indices}
    swapped_candidates = {}
    for x in columns(ct, h_right):
        if all(column_eps_phi(ct, i, x)[0] <= want_eps[i] for i in ct.classical_indices):
            key = tuple(
                a + b for a, b in zip(column_content(ct, x), column_content(ct, gen_left))
            )
            swapped_candidates.setdefault(key, []).append(x)

    sigma = {}
    # per classical index: maps for the pair's factors and for the image's
    # (the image lives in the swapped product, so its heights are reversed)
    plan = [
        (
            _column_maps(ct, h_left, i),
            _column_maps(ct, h_right, i),
            _column_maps(ct, h_right, i),
            _column_maps(ct, h_left, i),
        )
        for i in ct.classical_indices
    ]
    for u in _highest_pairs(ct, h_left, h_right):
        wt = tuple(
            a + b
            for a, b in zip(
                column_content(ct, u.factors[0]), column_content(ct, u.factors[1])
            )
        )
        matches = swapped_candidates.get(wt, [])
        if len(matches) != 1:
            raise NoMatchingComponent(
                f"{len(matches)} highest elements of weight {wt} in the swap of "
                f"({h_left},{h_right}) over {ct}"
            )
        # walk the component in lockstep
        pair = u.factors
        image = (matches[0], gen_left)
        sigma[pair] = image
        queue = deque([(pair, image)])
        while queue:
            (al, ar), (bl, br) = queue.popleft()
            for left_maps, right_maps, img_left, img_right in plan:
                if left_maps[0][al] >= right_maps[1][ar]:
                    new = left_maps[2][al]
                    fa = None if new is None else (new, ar)
                else:
                    new = right_maps[2][ar]
                    fa = None if new is None else (al, new)
                if img_left[0][bl] >= img_right[1][br]:
                    new = img_left[2][bl]
                    fb = None if new is None else (new, br)
                else:
                    new = img_right[2][br]
                    fb = None if new is None else (bl, new)
                if (fa is None) != (fb is None):
                    raise NoMatchingComponent(
                        f"component walk out of step at {(al, ar)}"
                    )
                if fa is not None and fa not in sigma:
                    sigma[fa] = fb
                    queue.append((fa, fb))
    expected = len(columns(ct, h_left)) * len(columns(ct, h_right))
    if len(sigma) != expected:
        raise NoMatchingComponent(
            f"sigma table covers {len(sigma)} of {expected} elements for "
            f"({h_left},{h_right}) over {ct}"
        )
    return sigma


def _build_h(ct, h_left, h_right, sigma):
    """Affine BFS from the generator pair, applying the LL/RR recursion."""
    eps0_l, phi0_l, f0_l, e0_l = _column_maps(ct, h_left, 0)
    eps0_r, phi0_r, f0_r, e0_r = _column_maps(ct, h_right, 0)

    def e0_side(left, right):
        """(raised pair, acting side) or (None, None); heights inferred."""
        eps_l = eps0_l[left] if len(left) == h_left else eps0_r[left]
        phi_r = phi0_r[right] if len(right) == h_right else phi0_l[right]
        if eps_l > phi_r:
            new = (e0_l if len(left) == h_left else e0_r)[left]
            return (None, None) if new is None else ((new, right), 0)
        new = (e0_r if len(right) == h_right else e0_l)[right]
        return (None, None) if new is None else ((left, new), 1)

    def e0_delta(pair):
        up, side = e0_side(*pair)
        if up is None:
            return None, None
        s_up, s_side = e0_side(*sigma[pair])
        if s_up is None:
            raise NoMatchingComponent(f"e_0 undefined on the sigma image of {pair}")
        if side == 0 and s_side == 0:
            return up, -1
        if side == 1 and s_side == 1:
            return up, 1
        return up, 0

    plan = [
        (_column_maps(ct, h_left, i), _column_maps(ct, h_right, i))
        for i in ct.classical_indices
    ]
    start = (_generator(h_left), _generator(h_right))
    h = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        wl, wr = w
        hw = h[w]
        up, delta = e0_delta(w)
        if up is not None:
            val = hw + delta
            if up not in h:
                h[up] = val
                queue.append(up)
            elif h[up] != val:
                raise EnergyInconsistent(f"H differs at {up}: {h[up]} != {val}")
        if eps0_l[wl] >= phi0_r[wr]:
            new = f0_l[wl]
            down = None if new is None else (new, wr)
        else:
            new = f0_r[wr]
            down = None if new is None else (wl, new)
        if down is not None:
            _, delta_down = e0_delta(down)
            val = hw - delta_down
            if down not in h:
                h[down] = val
                queue.append(down)
            elif h[down] != val:
                raise EnergyInconsistent(f"H differs at {down}: {h[down]} != {val}")
        for left_maps, right_maps in plan:
            eps_l = left_maps[0][wl]
            phi_r = right_maps[1][wr]
            if eps_l >= phi_r:
                new = left_maps[2][wl]
                nxt = None if new is None else (new, wr)
            else:
                new = right_maps[2][wr]
                nxt = None if new is None else (wl, new)
            if nxt is not None:
                if nxt not in h:
                    h[nxt] = hw
                    queue.append(nxt)
                elif h[nxt] != hw:
                    raise EnergyInconsistent(f"H differs at {nxt}: {h[nxt]} != {hw}")
            if eps_l > phi_r:
                new = left_maps[3][wl]
                nxt = None if new is None else (new, wr)
            else:
                new = right_maps[3][wr]
                nxt = None if new is None else (wl, new)
            if nxt is not None:
                if nxt not in h:
                    h[nxt] = hw
                    queue.append(nxt)
                elif h[nxt] != hw:
                    raise EnergyInconsistent(f"H differs at {nxt}: {h[nxt]} != {hw}")
    if len(h) != len(sigma):
        raise NoMatchingComponent(
            f"affine graph of ({h_left},{h_right}) over {ct} is not connected"
        )
    return h


@lru_cache(maxsize=None)
def local_table(ct, h_left, h_right):
    sigma = _build_sigma(ct, h_left, h_right)
    h = _build_h(ct, h_left, h_right, sigma)
    return LocalEnergyTable(ct, h_left, h_right, sigma, h)


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
    """
    s_left = lusztig_involution(TensorElement(ct, (left,))).factors[0]
    s_right = lusztig_involution(TensorElement(ct, (right,))).factors[0]
    swapped = TensorElement(ct, (s_right, s_left))
    return lusztig_involution(swapped).factors


def tau(elem):
    """Reverse the factors and apply the Lusztig involution to each."""
    ct = elem.cartan
    out = []
    for c in reversed(elem.factors):
        out.append(lusztig_involution(TensorElement(ct, (c,))).factors[0])
    return TensorElement(ct, tuple(out))


def _left_chain(ct, factors, q0, terms=None):
    """The summed local energies of the D^L chain that starts at factor ``q0``.

    Factors are indexed left to right from 0.  Factor ``q0`` is transported
    leftward by the R-matrix past ``factors[q0 - 1], ..., factors[1]``, and
    the local energy of each pair it meets is added, nearest first, and
    appended to ``terms`` when given.  The chain reads only
    ``factors[: q0 + 1]``.
    """
    q = q0
    moving = factors[q]
    total = 0
    while q:
        q -= 1
        left = factors[q]
        table = local_table(ct, len(left), len(moving))
        pair = (left, moving)
        h = table.h[pair]
        total += h
        if terms is not None:
            terms.append(h)
        if q:
            moving = table.sigma[pair][0]
    return total


def energy_DL(elem):
    """Left energy: transport each factor leftward and sum local energies."""
    ct, factors = elem.cartan, elem.factors
    total = 0
    for q0 in range(1, len(factors)):
        total += _left_chain(ct, factors, q0)
    return total


def _right_chain(ct, factors, q0, terms=None):
    """The summed local energies of the D^R chain that starts at factor ``q0``.

    The mirror of :func:`_left_chain`: factor ``q0`` is transported
    rightward by the R-matrix past ``factors[q0 + 1], ..., factors[-2]``,
    and the local energy of each pair it meets is added, nearest first, and
    appended to ``terms`` when given.  The chain reads only
    ``factors[q0:]``.
    """
    last = len(factors) - 1
    q = q0
    moving = factors[q]
    total = 0
    while q < last:
        q += 1
        right = factors[q]
        table = local_table(ct, len(moving), len(right))
        pair = (moving, right)
        h = table.h[pair]
        total += h
        if terms is not None:
            terms.append(h)
        if q < last:
            moving = table.sigma[pair][1]
    return total


def energy_DR(elem):
    """Right energy: transport each factor rightward and sum local energies."""
    ct, factors = elem.cartan, elem.factors
    total = 0
    for q0 in range(len(factors) - 1):
        total += _right_chain(ct, factors, q0)
    return total


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
    ct = elem.cartan
    n_fac = len(elem.factors)
    left_terms = {}
    for q0 in range(1, n_fac):
        terms = []
        _left_chain(ct, elem.factors, q0, terms)
        for q, h in zip(range(q0, 0, -1), terms):
            left_terms[(n_fac - q + 1, n_fac - q0)] = h
    right_terms = {}
    for q0 in range(n_fac - 1):
        terms = []
        _right_chain(ct, elem.factors, q0, terms)
        for q, h in zip(range(q0 + 1, n_fac), terms):
            right_terms[(n_fac - q0, n_fac - q)] = h
    return EnergyReport(
        elem,
        sum(left_terms.values()),
        sum(right_terms.values()),
        left_terms,
        right_terms,
    )


def is_demazure_arrow(elem, i):
    """Whether f_i is a Demazure arrow at this element (level bound 1)."""
    if phi(elem, i) == 0:
        return False
    return i != 0 or eps(elem, 0) >= DEMAZURE_LEVEL


def demazure_grading_oracle(elem):
    """Minimal number of e_0 steps to the highest element over the Kyoto anchor.

    Moves are the e_i available inside B (x) B(Lambda_0): every classical e_i,
    and e_0 only while eps_0 >= 2 (one unit of eps_0 is absorbed by the anchor;
    this availability rule is derived from the tensor rule).  Targets are the
    elements u with eps_i(u) = 0 for i != 0 and eps_0(u) <= 1.  Zero-one BFS:
    e_0 edges cost 1, classical edges cost 0.  The reached target u_b is the
    anchored component's highest element and min_e0 is its affine degree, which
    equals the right-energy difference D^R(b) - D^R(u_b).  (The left energy
    does not satisfy this identity: on the three-box type A_1 product, the
    all-ones element needs two e_0 steps while its D^L differs from the
    target's by one.)
    """
    ct = elem.cartan

    def is_target(x):
        if any(eps(x, i) > 0 for i in ct.classical_indices):
            return False
        return eps(x, 0) <= 1

    dist = {elem: 0}
    queue = deque([elem])
    while queue:
        cur = queue.popleft()
        d = dist[cur]
        if is_target(cur):
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
                if cost == 0:
                    queue.appendleft(nxt)
                else:
                    queue.append(nxt)
    raise TargetUnreachable(f"no Kyoto-highest element reachable from {elem}")
