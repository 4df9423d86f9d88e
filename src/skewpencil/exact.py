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


def pair_to_gaussian_ints(pair: SkewPair) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scale a pair with (binary-exact) rational entries to Gaussian integers.

    Returns object arrays of python ints (Are, Aim, Bre, Bim) equal to the
    original entries times a common positive denominator.  Scaling a pair
    scales its tangent map, leaving every rank unchanged.  Only the nonzero
    entries are converted, each to its exact ratio of integers; zeros stay
    the int 0.
    """
    parts = []
    denom = 1
    for M in (pair.A, pair.B):
        rows, cols = np.nonzero(M)
        ratios = [(z.real.as_integer_ratio(), z.imag.as_integer_ratio()) for z in M[rows, cols].tolist()]
        denom = lcm(denom, *(d for ri in ratios for _, d in ri))
        parts.append((rows.tolist(), cols.tolist(), ratios))
    out = []
    for rows, cols, ratios in parts:
        re = np.zeros((pair.n, pair.n), dtype=object)
        im = np.zeros((pair.n, pair.n), dtype=object)
        for i, j, ((a, da), (b, db)) in zip(rows, cols, ratios):
            re[i, j] = a * (denom // da)
            im[i, j] = b * (denom // db)
        out += [re, im]
    return out[0], out[1], out[2], out[3]
