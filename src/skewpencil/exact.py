"""Exact rank computation over the Gaussian rationals.

Rank decisions for the miniversality check are discontinuous, so the
default verification backend avoids floating point entirely.  Matrices
with Gaussian-rational entries are scaled to Gaussian integers (scaling
does not change rank), complex columns are realified when an imaginary
part is present (doubling the rank), and the rank is computed by sparse
fraction-free elimination over the integers.
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


def gaussian_columns_rank(columns: list[dict[int, tuple[int, int]]]) -> int:
    """Rank over the complex field of Gaussian-integer columns.

    Each column maps a coordinate to an (re, im) integer pair.  Real inputs
    are ranked directly; otherwise each column v contributes the real
    vectors v and i*v on doubled coordinates, and the real rank is twice
    the complex rank.
    """
    has_imag = any(im for col in columns for (_, im) in col.values())
    if not has_imag:
        rows = [{c: re for c, (re, _) in col.items()} for col in columns]
        return sparse_int_rank(rows)
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
