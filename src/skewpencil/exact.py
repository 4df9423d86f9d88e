"""Exact rank computation over the Gaussian rationals.

Rank decisions for the miniversality check are discontinuous, so the
default verification backend avoids floating point entirely.  Matrices
with Gaussian-rational entries are scaled to Gaussian integers (scaling
does not change rank).  :func:`_peel` takes off the columns with a single
nonzero entry: each adds one to the rank and removes its coordinate from
the other columns, which is the opening step of structured Gaussian
elimination (LaMacchia and Odlyzko, CRYPTO '90).  On a canonical tangent
most columns go this way, and the direct-sum check peels once for both of
its ranks.  :func:`gaussian_columns_rank` ranks the columns it is given:
it realifies them when an imaginary part is present (doubling the rank)
and runs one sparse fraction-free elimination over the integers.
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


def _gaussian_ints(values: list[complex]) -> dict[complex, tuple[int, int]]:
    """Each distinct value times one common positive denominator, as an exact (re, im) integer pair.

    The values must be finite; every binary float is a ratio of integers,
    so the scaled values are exact.  Each distinct value is converted once,
    by ``as_integer_ratio``, and the denominator is the least common
    multiple of all their denominators.
    """
    ratios = {z: (z.real.as_integer_ratio(), z.imag.as_integer_ratio()) for z in set(values)}
    denom = lcm(*(d for ri in ratios.values() for _, d in ri))
    return {z: (a * (denom // da), b * (denom // db)) for z, ((a, da), (b, db)) in ratios.items()}


def pair_to_gaussian_ints(pair: SkewPair) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scale a pair with (binary-exact) rational entries to Gaussian integers.

    Returns object arrays of python ints (Are, Aim, Bre, Bim) equal to the
    original entries times the common denominator of :func:`_gaussian_ints`.
    Scaling a pair scales its tangent map, leaving every rank unchanged.
    Zeros stay the int 0.
    """
    index = np.nonzero(pair._AB)
    values = pair._AB[index].tolist()
    ints = _gaussian_ints(values)
    out = np.zeros((2, 2, pair.n, pair.n), dtype=object)
    for w, i, j, z in zip(*(x.tolist() for x in index), values):
        out[w, :, i, j] = ints[z]
    return out[0, 0], out[0, 1], out[1, 0], out[1, 1]
