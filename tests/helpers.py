"""Shared test oracles, kept independent of the library's internals.

The tangent matrix here is built by brute force (explicit elementary
matrices and full products), ranks come straight from numpy's SVD or from
plain Gaussian elimination over the rationals, the structure counter
is a plain partition-style DP, and the codimension count is a closed form
in the block sizes that renders no mask.  The minimum-norm projection and
Newton correction are dense least-squares solves on the brute-force tangent
matrix, the schedule constant is read off its dense pseudo-inverse, and
the direct-sum intersection is rank_T + p - rank[T | D], with D one unit
column per star; none of them share code with the package paths they
check.  Three exceptions are references for a shortcut alone: the
pairwise loop is ``verify_pairwise`` without its reuse of equal
substructures, and the pattern renderer is ``assemble`` without its reuse
of equal blocks and block pairs; both call the library's per-block
builders.  The exact column rank without its unit-column peel realifies
every column and calls the library's integer elimination.
"""

from fractions import Fraction

import numpy as np

from skewpencil import (
    CanonicalStructure,
    PairwiseReport,
    SkewPair,
    assemble,
    diag_block,
    make_structure_pair,
    offdiag_block,
    verify_direct_sum,
)
from skewpencil.exact import sparse_int_rank


def brute_tangent_matrix(pair: SkewPair) -> np.ndarray:
    """Matrix of C -> (C^T A + A C, C^T B + B C), columns E_ij, brute force.

    Every elementary matrix E_ij (row i*n + j of ``E``) goes through full
    matrix products, all of them in one batched product.
    """
    n = pair.n
    iu, ju = np.triu_indices(n, 1)
    E = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    Et = E.transpose(0, 2, 1)
    dA = Et @ pair.A + pair.A @ E
    dB = Et @ pair.B + pair.B @ E
    return np.concatenate([dA[:, iu, ju], dB[:, iu, ju]], axis=1).T


def _off_rows(pattern) -> np.ndarray:
    """Boolean mask of the non-star strictly-upper coordinates, A part first."""
    iu = np.triu_indices(pattern.n, 1)
    return np.concatenate([~pattern.mask_a[iu], ~pattern.mask_b[iu]])


def dense_min_norm_projection(base: SkewPair, pattern, C: SkewPair) -> np.ndarray:
    """Minimum-norm X zeroing C + X^T base + base X off the stars.

    Dense lstsq on the brute-force tangent matrix of ``base``, restricted
    to the strictly-upper positions that neither star mask marks.
    """
    n = base.n
    iu = np.triu_indices(n, 1)
    off = _off_rows(pattern)
    c = np.concatenate([C.A[iu], C.B[iu]])[off]
    s, *_ = np.linalg.lstsq(brute_tangent_matrix(base)[off], -c, rcond=None)
    return s.reshape(n, n)


def dense_min_norm_correction(base: SkewPair, current: SkewPair, pattern) -> np.ndarray:
    """Minimum-norm X zeroing (current - base) + X^T current + current X off the stars."""
    return dense_min_norm_projection(current, pattern, current - base)


def dense_pinv_schedule_m(base: SkewPair, pattern) -> int:
    """Schedule constant m from the dense pseudo-inverse of the off-pattern tangent rows.

    c = 2 * (sum of the column norms of pinv(T_off)); m is the smallest
    integer >= 3 strictly above c, c(a+1)(2+c), c(b+1)(2+c), c^2(a+1) and
    c^2(b+1), with a and b the Frobenius norms of the base matrices.
    """
    T_off = brute_tangent_matrix(base)[_off_rows(pattern)]
    c = 2.0 * float(np.linalg.norm(np.linalg.pinv(T_off), axis=0).sum()) if T_off.size else 0.0
    a, b = float(np.linalg.norm(base.A)), float(np.linalg.norm(base.B))
    bounds = [c, c * (a + 1) * (2 + c), c * (b + 1) * (2 + c), c * c * (a + 1), c * c * (b + 1)]
    return max(3, int(np.floor(max(bounds))) + 1)


def svd_rank(M: np.ndarray, rtol: float = 1e-9) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def dense_fraction_rank(M: list[list[Fraction]]) -> int:
    """Plain Gaussian elimination over the rationals (cross-check oracle)."""
    M = [list(row) for row in M]
    if not M:
        return 0
    nrows, ncols = len(M), len(M[0])
    rank, prow = 0, 0
    for c in range(ncols):
        piv = None
        for r in range(prow, nrows):
            if M[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        M[prow], M[piv] = M[piv], M[prow]
        pv = M[prow][c]
        for r in range(prow + 1, nrows):
            if M[r][c] != 0:
                f = M[r][c] / pv
                for k in range(c, ncols):
                    M[r][k] -= f * M[prow][k]
        rank += 1
        prow += 1
        if prow == nrows:
            break
    return rank


def unpeeled_columns_rank(columns) -> int:
    """Complex rank of Gaussian-integer columns with nothing peeled: the integer rank
    of the realified columns, v and i*v on doubled coordinates, halved."""
    rows = []
    for col in columns:
        rows.append({2 * c + d: x for c, (re, im) in col.items() for d, x in enumerate((re, im))})
        rows.append({2 * c + d: x for c, (re, im) in col.items() for d, x in enumerate((-im, re))})
    r = sparse_int_rank(rows)
    assert r % 2 == 0
    return r // 2


def star_column_rank(pair, stars_a, stars_b) -> int:
    """rank[T | D]: the brute-force tangent matrix with one unit column per upper star position."""
    n = pair.n
    ups = [(i, j) for i in range(n) for j in range(i + 1, n)]
    uidx = {c: k for k, c in enumerate(ups)}
    m = len(ups)
    cols = []
    for (i, j) in sorted(stars_a):
        v = np.zeros(2 * m, dtype=complex)
        v[uidx[(i, j)]] = 1.0
        cols.append(v)
    for (i, j) in sorted(stars_b):
        v = np.zeros(2 * m, dtype=complex)
        v[m + uidx[(i, j)]] = 1.0
        cols.append(v)
    D = np.array(cols).T if cols else np.zeros((2 * m, 0), dtype=complex)
    return svd_rank(np.hstack([brute_tangent_matrix(pair), D]))


def brute_direct_sum_check(pair, stars_a, stars_b):
    """(rank_T, p, ambient, ok) for explicit upper star position sets."""
    ambient = pair.n * (pair.n - 1)
    rank_t = svd_rank(brute_tangent_matrix(pair))
    p = len(stars_a) + len(stars_b)
    ok = rank_t + p == ambient and star_column_rank(pair, stars_a, stars_b) == rank_t + p
    return rank_t, p, ambient, ok


def pairwise_reports_unmemoised(structure, backend="exact"):
    """verify_pairwise without reuse: one direct-sum check per (i, j)."""
    blocks = structure.blocks
    index = [(i, i) for i in range(len(blocks))]
    index += [(i, j) for i in range(len(blocks)) for j in range(i + 1, len(blocks))]
    out = []
    for i, j in index:
        sub = CanonicalStructure((blocks[i],) if i == j else (blocks[i], blocks[j]))
        rep = verify_direct_sum(make_structure_pair(sub), assemble(sub), backend)
        out.append(PairwiseReport(i, j, rep))
    return out


def masks_unmemoised(structure) -> tuple[np.ndarray, np.ndarray]:
    """The masks of ``assemble(structure)``, rendering every block and every block pair anew."""
    n = structure.dim
    mask_a = np.zeros((n, n), dtype=bool)
    mask_b = np.zeros((n, n), dtype=bool)
    offs = structure.block_offsets()
    blocks = structure.blocks
    for k, b in enumerate(blocks):
        o, d = offs[k], b.dim
        mask_a[o:o + d, o:o + d], mask_b[o:o + d, o:o + d] = diag_block(b)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            rows = slice(offs[i], offs[i] + blocks[i].dim)
            cols = slice(offs[j], offs[j] + blocks[j].dim)
            oa, ob = offdiag_block(blocks[i], blocks[j])
            mask_a[rows, cols], mask_b[rows, cols] = oa, ob
            mask_a[cols, rows], mask_b[cols, rows] = oa.T, ob.T
    return mask_a, mask_b


def upper_stars(mask) -> set:
    """Strictly-upper starred positions of a boolean mask."""
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(mask, 1)))}


def random_skew_pair(rng, n: int, scale: float | None = None) -> SkewPair:
    """Random complex skew pair, optionally normalised to a given pair norm."""
    def sk():
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (M - M.T) / 2
    A, B = sk(), sk()
    if scale is not None:
        nrm = np.sqrt(np.linalg.norm(A) ** 2 + np.linalg.norm(B) ** 2)
        if nrm > 0:
            A, B = A * (scale / nrm), B * (scale / nrm)
    return SkewPair(A, B)


def codimension_count(structure) -> int:
    """Closed-form orbit codimension of a canonical structure, read off its block sizes.

    For each eigenvalue (K blocks count as infinity), with H or K sizes
    q1 >= q2 >= ...: q1 + 5 q2 + 9 q3 + ...; for each pair of L blocks
    L_a, L_b: a + b + 2 + max(0, |a - b| - 1); plus the total dimension of
    the H and K blocks times the number of L blocks.  Eigenvalues are
    compared exactly, as the structure has already snapped them.
    """
    sizes, ls = {}, []
    for b in structure.blocks:
        if b.kind == "L":
            ls.append(b.n)
        else:
            sizes.setdefault(b.lam if b.kind == "H" else "inf", []).append(b.n)
    total = 0
    for qs in sizes.values():
        total += sum((4 * k + 1) * q for k, q in enumerate(sorted(qs, reverse=True)))
    for i, a in enumerate(ls):
        for b in ls[i + 1:]:
            total += a + b + 2 + max(0, abs(a - b) - 1)
    return total + 2 * sum(map(sum, sizes.values())) * len(ls)


def count_structures_dp(max_dim: int, n_eigenvalues: int = 4) -> int:
    """Independent multiset counter for the enumeration corpus.

    Distinct block types: for each even dimension 2k <= max_dim there are
    n_eigenvalues + 1 types (the eigenvalue flavours plus one), for each
    odd dimension one type.  Multisets are counted by the usual one item
    at a time knapsack recurrence.
    """
    ways = [0] * (max_dim + 1)
    ways[0] = 1
    items = []
    for d in range(2, max_dim + 1, 2):
        items.extend([d] * (n_eigenvalues + 1))
    for d in range(1, max_dim + 1, 2):
        items.append(d)
    for d in items:
        for v in range(d, max_dim + 1):
            ways[v] += ways[v - d]
    return sum(ways[1:])
