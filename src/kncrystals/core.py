"""Alphabets, Kashiwara-Nakashima columns, and crystal operators.

Letters are encoded as signed integers: ``z`` is the unbarred letter z and
``-z`` the barred letter z-bar.  The total order is

    1 < 2 < ... < n < n-bar < ... < 1-bar

which for type A degenerates to 1 < ... < n (no barred letters).  A column
is a tuple of letters, strictly increasing in this order.  A tensor element
stores its factors left to right; the energy-function convention that
"factor 1" is the rightmost factor is kept internal to :mod:`.energy`.

Crystal operators follow the tensor rule

    f_i(b1 (x) b2) = f_i(b1) (x) b2   if eps_i(b1) >= phi_i(b2),
                     b1 (x) f_i(b2)   otherwise,

equivalently the signature rule: concatenate '+'^phi '-'^eps per factor left
to right, cancel adjacent "-+" pairs, then f_i acts on the factor owning the
rightmost surviving '+' and e_i on the one owning the leftmost surviving '-'.

A single column of height k acts as the tensor of its k letters read bottom
to top, i.e. b(k) (x) ... (x) b(1).  The reading direction is a convention
choice; this one is validated by the closure test in the test suite (the set
of admissible columns of each height must be closed under all classical
operators and form a single connected component).
"""

from __future__ import annotations

import itertools
import math
from itertools import repeat
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    AdmissibilityViolation,
    ComponentCorrupt,
    NotIncreasing,
    ShapeTooLarge,
    SplitImpossible,
)

#: Default cap on exhaustive tensor-product enumeration.
VERTEX_BUDGET = 5_000_000

#: Single columns are level-bounded by 1; 0-arrows are Demazure iff eps_0 >= this.
DEMAZURE_LEVEL = 1


@dataclass(frozen=True)
class CartanType:
    """Affine family ('A' for A_{n-1}^(1), 'C' for C_n^(1)) plus the alphabet size n."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in ("A", "C"):
            raise ValueError(f"unsupported family {self.family!r}")
        if self.n < 2:
            raise ValueError("rank parameter n must be at least 2")
        # every cache lookup hashes the type, so the hash is computed once;
        # from ints only, so it is the same in every interpreter (str hashes
        # are salted per process) and a pickled copy hashes like a fresh one
        object.__setattr__(self, "_hash", hash((self.n, self.family == "C")))

    def __hash__(self):
        return self._hash

    @property
    def classical_indices(self):
        top = self.n if self.family == "C" else self.n - 1
        return range(1, top + 1)

    @property
    def index_set(self):
        top = self.n if self.family == "C" else self.n - 1
        return range(0, top + 1)

    @property
    def alphabet_size(self):
        return 2 * self.n if self.family == "C" else self.n

    @property
    def max_height(self):
        return self.n if self.family == "C" else self.n - 1

    def alphabet(self):
        """All letters in increasing total order."""
        if self.family == "A":
            return tuple(range(1, self.n + 1))
        return tuple(range(1, self.n + 1)) + tuple(range(-self.n, 0))

    def is_letter(self, x):
        if self.family == "A":
            return 1 <= x <= self.n
        return x != 0 and -self.n <= x <= self.n

    def key(self, letter):
        """Position of a letter in the total order, 1-based."""
        if letter > 0:
            return letter
        return 2 * self.n + 1 + letter

    def istar(self, i):
        """The Lusztig dual index: n - i in type A, i in type C."""
        return self.n - i if self.family == "A" else i

    def fundamental(self, h):
        """Lambda_h as a coefficient tuple over the affine index set."""
        w = [0] * len(self.index_set)
        w[h] = 1
        return tuple(w)

    def __str__(self):
        return f"{self.family}{self.n}"


# ---------------------------------------------------------------------------
# single boxes

def _box_f(ct, i, x):
    n = ct.n
    if ct.family == "A":
        return x + 1 if x == i else None
    if i < n:
        if x == i:
            return i + 1
        if x == -(i + 1):
            return -i
        return None
    return -n if x == n else None


def _box_e(ct, i, x):
    n = ct.n
    if ct.family == "A":
        return x - 1 if x == i + 1 else None
    if i < n:
        if x == i + 1:
            return i
        if x == -i:
            return -(i + 1)
        return None
    return n if x == -n else None


def _signature(pairs):
    """Reduce the +/- word of (eps, phi) pairs listed left to right.

    Returns (eps, phi, f_index, e_index) where the indices say which entry
    of ``pairs`` the lowering/raising operator acts on (None if undefined).
    Only counts are kept: an entry's '+'s first cancel the surviving '-'s,
    the rightmost surviving '+' belongs to the last entry left with one,
    and the leftmost surviving '-' to the entry that last pushed '-'s onto
    an empty stack.
    """
    eps = phi = 0
    f_idx = e_idx = None
    for idx, (e, p) in enumerate(pairs):
        if p > eps:
            phi += p - eps
            f_idx = idx
            eps = 0
        else:
            eps -= p
        if e:
            if not eps:
                e_idx = idx
            eps += e
    return eps, phi, f_idx, e_idx if eps else None


def _box_signature(ct, i, col):
    """The boxes of a column read bottom to top, and their reduced signature."""
    boxes = tuple(reversed(col))
    pairs = [
        (int(_box_e(ct, i, x) is not None), int(_box_f(ct, i, x) is not None))
        for x in boxes
    ]
    return boxes, _signature(pairs)


# ---------------------------------------------------------------------------
# columns

def sort_letters(ct, letters):
    return tuple(sorted(letters, key=ct.key))


def _pair_violation(letters):
    """The first (z, gap) with z and z-bar at distance gap <= k - z, or None.

    Only the letters are scanned, so the check does not grow with the rank.
    """
    k = len(letters)
    pos = {x: p for p, x in enumerate(letters, start=1)}
    for z, p in pos.items():
        if z > 0 and -z in pos and pos[-z] - p <= k - z:
            return z, pos[-z] - p
    return None


def validate_column(ct, letters):
    """Return the column as a canonical tuple or raise.

    In type C both the direct pair condition and splittability are checked;
    the two verdicts are proved equivalent, so a disagreement is a bug.
    """
    letters = tuple(letters)
    for x in letters:
        if not ct.is_letter(x):
            raise AdmissibilityViolation(f"{x} is not a letter of {ct}")
    keys = [ct.key(x) for x in letters]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise NotIncreasing(f"letters {letters} not strictly increasing for {ct}")
    k = len(letters)
    if k == 0:
        raise AdmissibilityViolation("empty column")
    if k > ct.max_height:
        raise AdmissibilityViolation(
            f"height {k} exceeds the maximum {ct.max_height} for {ct}"
        )
    if ct.family == "C":
        if (violation := _pair_violation(letters)) is not None:
            z, gap = violation
            raise AdmissibilityViolation(
                f"pair ({z}, {z}-bar) at distance {gap} <= {k - z} = k - z",
                z=z, gap=gap, bound=k - z,
            )
        if _split_sets(ct, letters) is None:
            raise SplitImpossible(
                f"column {letters} passes the pair condition but cannot be split"
            )
    return letters


def _split_sets(ct, col):
    """The greedy replacement set J for the duplicated letters I, or None."""
    present = {abs(x) for x in col}
    dup = sorted((z for z in present if z in col and -z in col), reverse=True)
    out = []
    prev = ct.n + 1
    for z in dup:
        t = min(prev, z) - 1
        while t >= 1 and t in present:
            t -= 1
        if t < 1:
            return None
        out.append(t)
        prev = t
    return dup, out


def split_column(ct, col):
    """Split a type C column into the pair (left, right) of Definition-style halves.

    Each duplicated letter z (both z and z-bar present) is traded for a fresh
    smaller letter t: the right column replaces z-bar by t-bar, the left one
    replaces z by t.  A column without duplicated letters splits into two
    copies of itself.
    """
    if ct.family != "C":
        raise ValueError("only type C columns split")
    sets = _split_sets(ct, col)
    if sets is None:
        raise SplitImpossible(f"no replacement set exists for {col}")
    dup, repl = sets
    if not dup:
        return col, col
    to_left = dict(zip(dup, repl))
    to_right = {-z: -t for z, t in zip(dup, repl)}
    left = sort_letters(ct, (to_left.get(x, x) for x in col))
    right = sort_letters(ct, (to_right.get(x, x) for x in col))
    return left, right


@lru_cache(maxsize=None)
def columns(ct, k):
    """All admissible columns of height k, sorted.

    The alphabet is in increasing order, so its k-subsets come out increasing
    and in key order.
    """
    check_budget(ct, (k,))
    return tuple(
        c for c in itertools.combinations(ct.alphabet(), k) if _pair_violation(c) is None
    )


@lru_cache(maxsize=None)
def _column_index(ct, h):
    """The code of every height-h column: its position in ``columns(ct, h)``."""
    return {c: k for k, c in enumerate(columns(ct, h))}


#: A per-shape plan of more factors than this is built per lookup and not
#: kept, so a long element leaves no per-shape state behind.
PLAN_CACHE_FACTORS = 64


class _PerShape(dict):
    """``plans[ct, heights]`` is ``build(ct, heights)``, kept per shape of at
    most ``PLAN_CACHE_FACTORS`` factors.  A dict and not a wrapped
    ``lru_cache``: a hit runs no Python frame.
    """

    def __init__(self, build):
        self.build = build

    def __missing__(self, shape):
        plan = self.build(*shape)
        if len(shape[1]) <= PLAN_CACHE_FACTORS:
            self[shape] = plan
        return plan


def column_content(ct, col):
    m = [0] * ct.n
    for x in col:
        m[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(m)


@lru_cache(maxsize=None)
def column_eps_phi(ct, i, col):
    """(eps_i, phi_i) of a single column."""
    if i == 0:
        if ct.family == "A":
            eps = int(1 in col and ct.n not in col)
            phi = int(ct.n in col and 1 not in col)
        else:
            eps = int(1 in col)
            phi = int(-1 in col)
        return eps, phi
    return _box_signature(ct, i, col)[1][:2]


@lru_cache(maxsize=None)
def column_f(ct, i, col):
    if i == 0:
        if ct.family == "A":
            if ct.n in col and 1 not in col:
                return sort_letters(ct, [x for x in col if x != ct.n] + [1])
            return None
        if -1 in col:
            return sort_letters(ct, [x if x != -1 else 1 for x in col])
        return None
    boxes, (_, _, f_idx, _) = _box_signature(ct, i, col)
    if f_idx is None:
        return None
    new = list(boxes)
    new[f_idx] = _box_f(ct, i, new[f_idx])
    return sort_letters(ct, new)


@lru_cache(maxsize=None)
def column_e(ct, i, col):
    if i == 0:
        if ct.family == "A":
            if 1 in col and ct.n not in col:
                return sort_letters(ct, [x for x in col if x != 1] + [ct.n])
            return None
        if 1 in col:
            return sort_letters(ct, [x if x != 1 else -1 for x in col])
        return None
    boxes, (_, _, _, e_idx) = _box_signature(ct, i, col)
    if e_idx is None:
        return None
    new = list(boxes)
    new[e_idx] = _box_e(ct, i, new[e_idx])
    return sort_letters(ct, new)


def column_eps_weight(ct, col):
    return tuple(column_eps_phi(ct, i, col)[0] for i in ct.index_set)


def column_phi_weight(ct, col):
    return tuple(column_eps_phi(ct, i, col)[1] for i in ct.index_set)


# ---------------------------------------------------------------------------
# tensor elements

@dataclass(frozen=True, slots=True)
class TensorElement:
    """A vertex of a tensor product of single-column crystals.

    Factors are stored left to right as canonically sorted letter tuples.
    Slotted, so an instance carries no attribute dict: exhaustive scans
    and query samples hold many of them.
    """

    cartan: CartanType
    factors: tuple

    @property
    def heights(self):
        return tuple(map(len, self.factors))

    def factor_from_right(self, j):
        """The j-th factor counted from the right, 1-based."""
        return self.factors[len(self.factors) - j]

    def sort_key(self):
        ct = self.cartan
        return tuple(tuple(ct.key(x) for x in c) for c in self.factors)

    def __str__(self):
        from .serialize import serialize_filling

        return serialize_filling(self)


def element(ct, cols):
    """Validate every column and build a TensorElement."""
    cols = tuple(validate_column(ct, c) for c in cols)
    if not cols:
        raise ValueError("a tensor element needs at least one factor")
    return TensorElement(ct, cols)


def _element_signature(elem, i):
    """(eps_i, phi_i, f_i factor, e_i factor) by the tensor rule on the columns."""
    return _signature(map(column_eps_phi, repeat(elem.cartan), repeat(i), elem.factors))


def eps(elem, i):
    return _element_signature(elem, i)[0]


def phi(elem, i):
    return _element_signature(elem, i)[1]


def _act(elem, i, idx, column_op):
    """Apply a column operator to factor ``idx``; None when ``idx`` is None."""
    if idx is None:
        return None
    ct, facs = elem.cartan, elem.factors
    new_col = column_op(ct, i, facs[idx])
    return TensorElement(ct, facs[:idx] + (new_col,) + facs[idx + 1 :])


def f(elem, i):
    """Apply f_i; None where it is undefined."""
    return _act(elem, i, _element_signature(elem, i)[2], column_f)


def e(elem, i):
    """Apply e_i; None where it is undefined."""
    return _act(elem, i, _element_signature(elem, i)[3], column_e)


def weight(elem):
    """Classical content vector: m_z = (#z) - (#z-bar)."""
    m = [0] * elem.cartan.n
    for c in elem.factors:
        for x in c:
            m[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(m)


def is_classical_highest(elem):
    return all(eps(elem, i) == 0 for i in elem.cartan.classical_indices)


def _classical_extreme(elem, op):
    """Apply the classical operator ``op`` (e or f) until none applies.

    Returns (end, path) where path lists the applied indices in order.
    """
    path = []
    cur = elem
    while True:
        for i in cur.cartan.classical_indices:
            nxt = op(cur, i)
            if nxt is not None:
                cur = nxt
                path.append(i)
                break
        else:
            return cur, tuple(path)


def classical_highest(elem):
    """(highest, path): lowering by f along reversed(path) recovers elem."""
    return _classical_extreme(elem, e)


def classical_lowest(elem):
    return _classical_extreme(elem, f)


def lusztig_involution(elem):
    """The involution S on the classical component of the element.

    Mirrors the raising word: if b = f_{i_1}...f_{i_m}(highest), then
    S(b) = e_{i_1*}...e_{i_m*}(lowest).
    """
    ct = elem.cartan
    high, path = classical_highest(elem)
    low, _ = classical_lowest(high)
    cur = low
    for i in reversed(path):
        cur = e(cur, ct.istar(i))
        if cur is None:
            raise ComponentCorrupt(
                f"e_{ct.istar(i)} undefined while mirroring the word of {elem}"
            )
    return cur


def column_involution(ct, col):
    """S on a single column, in closed form: ``lusztig_involution`` of it.

    The column is reversed and each letter x sent to n + 1 - x in type A
    and to x-bar in type C; both maps reverse the total order, so the
    result is increasing.
    """
    if ct.family == "A":
        return tuple(ct.n + 1 - x for x in reversed(col))
    return tuple(-x for x in reversed(col))


# ---------------------------------------------------------------------------
# enumeration and the crystal graph

def _column_count(ct, k, cap):
    """The number of columns of height k, or a number above ``cap`` past it.

    There are C(m, k) columns of height k in type A and C(m, k) - C(m, k - 2)
    Kashiwara-Nakashima columns in type C, over an alphabet of m letters.
    C(m, t) is built up t by t, and it grows with t up to m / 2, so past
    the cap the count stops: the cost is about log2(cap) steps however
    large the rank.  In type C, with k <= n = m / 2, C(m, k - 2) is at most
    1 - 2 / (n + 2) of C(m, k), so a C(m, k) above cap * (n + 2) leaves more
    than ``cap`` columns.
    """
    m = ct.alphabet_size
    if ct.family == "C":
        cap *= ct.n + 2
    c = 1
    for t in range(min(k, m - k)):
        c = c * (m - t) // (t + 1)
        if c > cap:
            break
    if ct.family == "A":
        return c
    return c - c * k * (k - 1) // ((m - k + 2) * (m - k + 1))


def _require_factors(heights):
    if not heights:
        raise ValueError("a shape needs at least one factor")


def _capped_size(ct, heights, cap):
    """The vertex count, or a number above ``cap`` as soon as the count passes it."""
    _require_factors(heights)
    for k in heights:
        if not 1 <= k <= ct.max_height:
            raise ValueError(f"no columns of height {k} in {ct}")
    size = 1
    for k in heights:
        size *= _column_count(ct, k, cap)
        if size > cap:
            break
    return size


def crystal_size(ct, heights):
    """The number of vertices, counted in closed form before any column is built."""
    return _capped_size(ct, heights, math.inf)


def check_budget(ct, heights, budget=None):
    """The vertex count of the shape; raises ``ShapeTooLarge`` above the budget.

    The count stops as soon as it passes the budget, so the check is cheap
    for any rank and any number of factors.
    """
    cap = VERTEX_BUDGET if budget is None else budget
    size = _capped_size(ct, heights, cap)
    if size > cap:
        shown = ", ".join(map(str, heights[:8])) + (", ..." if len(heights) > 8 else "")
        raise ShapeTooLarge(
            f"{len(heights)} factors of heights ({shown}) of {ct} have more than "
            f"{cap} vertices (the budget)"
        )
    return size


def _check_rank_work(ct, heights, budget=None):
    """``check_budget`` for a route that does n-entry work on every vertex.

    Such a route costs vertices x n, so that product is held to the budget.
    Returns the vertex count.
    """
    cap = VERTEX_BUDGET if budget is None else budget
    size = check_budget(ct, heights, budget)
    if size * ct.n > cap:
        raise ShapeTooLarge(
            f"{size} vertices x rank {ct.n} of per-vertex work exceed the budget {cap}"
        )
    return size


def tensor_elements(ct, heights, budget=None):
    """All vertices of the shape, in sort-key order (the columns are sorted)."""
    check_budget(ct, heights, budget)
    return list(iter_tensor_elements(ct, heights))


def iter_tensor_elements(ct, heights):
    pools = [columns(ct, h) for h in heights]
    for facs in itertools.product(*pools):
        yield TensorElement(ct, facs)


@dataclass(frozen=True)
class CrystalGraph:
    cartan: CartanType
    heights: tuple
    include_zero: bool
    vertices: tuple
    edges: tuple  # triples (source, i, target) with target = f_i(source)


def crystal_graph(ct, heights, include_zero=True, budget=None):
    heights = tuple(heights)
    # every f_i runs on every vertex
    _check_rank_work(ct, heights, budget)
    verts = list(iter_tensor_elements(ct, heights))
    indices = list(ct.index_set) if include_zero else list(ct.classical_indices)
    edges = []
    for v in verts:
        for i in indices:
            w = f(v, i)
            if w is not None:
                edges.append((v, i, w))
    return CrystalGraph(ct, heights, include_zero, tuple(verts), tuple(edges))

