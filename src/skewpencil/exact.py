"""Exact rank computation over the Gaussian rationals.

Rank decisions for the miniversality check are discontinuous, so the
default verification backend avoids floating point entirely.  It is one
call, :func:`_tangent_ranks`, and this module owns all of it: the scaling
to Gaussian integers (:func:`pair_to_gaussian_ints`), the sparse tangent
columns, the peel and both ranks.  :func:`_peel` takes off the columns
with a single nonzero entry: each adds one to the rank and removes its
coordinate from the other columns, the opening step of structured Gaussian
elimination (LaMacchia and Odlyzko, CRYPTO '90).
:func:`gaussian_columns_rank` ranks the columns it is given: it realifies
them when an imaginary part is present (doubling the rank) and runs one
sparse fraction-free elimination over the integers.
"""

from __future__ import annotations

from math import gcd, lcm

import numpy as np

from .core import SkewPair


def sparse_int_rank(rows: list[dict[int, int]]) -> int:
    """Rank of a sparse integer matrix given as row dictionaries.

    Exact: the rows, in the given order and without their zero entries,
    are inserted into an echelon basis that maps each basis row's leading
    (smallest) column to that row.  While an incoming row's leading column
    already leads a basis row, integer cross-multiplication by the two
    gcd-reduced leading values cancels it, so the leading column strictly
    increases and the loop ends.  A nonzero remainder joins the basis under
    its own leading column.  Distinct leading columns make the basis rows
    independent, so the rank is the size of the basis.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = row
                break
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, w in pivot.items():
                v = row.get(c, 0) - b * w
                if v:
                    row[c] = v
                else:
                    row.pop(c, None)
    return len(basis)


def _peel(columns: list[dict[int, tuple[int, int]]]) -> tuple[set[int], list[dict[int, tuple[int, int]]]]:
    """(K, rest): the keys of the unit columns, peeled round by round, and what remains.

    A unit column, one key k with a nonzero entry, spans e_k.  Let K be
    the keys of the unit columns and V the span of all columns over Q(i).
    Then E_K = span{e_k : k in K} lies in V and has dimension |K|.  The
    projection that deletes the coordinates in K has kernel E_K on V, so
    rank V = |K| + rank of the columns with the K coordinates deleted.
    The unit columns delete to zero and are dropped, as is any column left
    empty.  Only a column that lost a key can have become a unit column,
    so each further round classifies just those, and it deletes its new
    keys from the rest; the peel stops when a round finds no new key.  A
    column whose other entries are explicit zeros is not peeled, which
    leaves the rank as it is.  No column of ``rest`` holds a key of K, and
    the caller's columns are read, never changed: a column that loses a
    key is a new dict.
    """
    peeled: set[int] = set()
    rest: list[dict[int, tuple[int, int]]] = []
    todo = columns
    while True:
        new: set[int] = set()
        for col in todo:
            if len(col) > 1:
                rest.append(col)
            else:
                for k, (re, im) in col.items():
                    if re or im:
                        new.add(k)
        if not new:
            return peeled, rest
        peeled |= new
        # the columns holding a new key, rebuilt without every peeled key, are classified again
        kept, todo = [], []
        for col in rest:
            if new.isdisjoint(col):
                kept.append(col)
            else:
                todo.append({k: v for k, v in col.items() if k not in peeled})
        rest = kept


def gaussian_columns_rank(columns: list[dict[int, tuple[int, int]]]) -> int:
    """Rank over the complex field of Gaussian-integer columns.

    Each column maps a coordinate to an (re, im) integer pair, a tuple or
    a list; an entry is zero when both parts are 0.  The caller's columns
    are read, never changed, and ranked as given: no peel runs here.  Real
    inputs are ranked directly; otherwise each column v contributes the
    real vectors v and i*v on doubled coordinates, and the real rank is
    twice the complex rank.  :func:`sparse_int_rank` runs exactly once per
    call.
    """
    has_imag = any(im for col in columns for (_, im) in col.values())
    if not has_imag:
        return sparse_int_rank([{c: re for c, (re, _) in col.items()} for col in columns])
    rows = []
    for col in columns:
        r1: dict[int, int] = {}
        r2: dict[int, int] = {}
        for c, (re, im) in col.items():
            if re:
                r1[2 * c] = re
                r2[2 * c + 1] = re
            if im:
                r1[2 * c + 1] = im
                r2[2 * c] = -im
        if r1:
            rows.append(r1)
        if r2:
            rows.append(r2)
    r = sparse_int_rank(rows)
    if r % 2:
        raise AssertionError("realified rank must be even")
    return r // 2


def pair_to_gaussian_ints(pair: SkewPair) -> tuple[tuple[np.ndarray, ...], list[tuple[int, int]]]:
    """(index, ints): ``np.nonzero`` of the pair's (2, n, n) array and its entries as Gaussian integers.

    ``ints[k]`` is the (re, im) of listed entry k times one common positive
    denominator, the least common multiple of the entries' denominators.
    Every finite binary float is a ratio of integers, so this is exact; each
    distinct value is converted once.  ``-0.0`` is not listed.  Scaling a
    pair scales its tangent map and leaves every rank unchanged.
    """
    index = np.nonzero(pair._AB)
    values = pair._AB[index].tolist()
    ratios = {z: (z.real.as_integer_ratio(), z.imag.as_integer_ratio()) for z in set(values)}
    denom = lcm(*(d for ri in ratios.values() for _, d in ri))
    ints = {z: (a * (denom // da), b * (denom // db)) for z, ((a, da), (b, db)) in ratios.items()}
    return index, [ints[z] for z in values]


def _exact_tangent_columns(pair: SkewPair) -> list[dict[int, tuple[int, int]]]:
    """Nonzero tangent columns over the Gaussian integers of :func:`pair_to_gaussian_ints`.

    Columns come in the order of their elementary matrices E_ij (index
    i*n + j).  Row (w, i, j), i < j, of matrix w (0 = A, 1 = B) is keyed by
    its flat index (w*n + i)*n + j in a (2, n, n) array, so the keys sort
    as the tangent rows do.  The image of E_ij holds M[i, q] at (j, q) and
    M[p, i] at (p, j), so each nonzero M[r, c] is written once per column
    it reaches: to (j, c) of E_rj for j < c, and to (r, j) of E_cj for
    j > r.  No two entries reach the same row of one column.
    """
    n = pair.n
    index, ints = pair_to_gaussian_ints(pair)
    cols: list[dict[int, tuple[int, int]]] = [{} for _ in range(n * n)]
    for w, r, c, v in zip(*(x.tolist() for x in index), ints):
        key = w * n * n + c
        for j, col in enumerate(cols[r * n:r * n + c]):
            col[key + j * n] = v
        key = (w * n + r) * n
        for j, col in enumerate(cols[c * n + r + 1:c * n + n], r + 1):
            col[key + j] = v
    return [col for col in cols if col]


def _tangent_ranks(pair: SkewPair, stars: np.ndarray) -> tuple[int, int]:
    """(rank T, rank T_off) of a pair's tangent map T, T_off being T without the rows of the (2, n, n) ``stars``.

    The unit columns of T are peeled once (:func:`_peel`), which gives
    rank T = |K| + rank R, with E_K in span T and R the other columns with
    the K rows deleted.  Deleting the star rows S maps span T onto span
    T_off and E_K onto E_{K - S}, so the same lemma gives rank T_off =
    |K - S| + rank of R with the S rows deleted as well.  This is the only
    peel: :func:`gaussian_columns_rank` ranks R and R without S as they are.
    """
    peeled, rest = _peel(_exact_tangent_columns(pair))
    rank_t = len(peeled) + gaussian_columns_rank(rest)
    # the star rows by their flat index in the mask, which keys the columns; the
    # mirrors below the diagonal key no tangent row and drop nothing
    keys = set(np.flatnonzero(stars).tolist())
    rank_off = len(peeled - keys) + gaussian_columns_rank(
        [col if keys.isdisjoint(col) else {k: v for k, v in col.items() if k not in keys} for col in rest])
    return rank_t, rank_off
