"""Shared test oracles, kept independent of the library's internals.

The tangent matrix here is built by brute force (explicit elementary
matrices and full products), ranks come straight from numpy's SVD, and the
structure counter is a plain partition-style DP, and the Newton correction
is a dense least-squares solve on that matrix; none of them share code with
the package paths they check.  The one exception is the pairwise loop,
which is ``verify_pairwise`` without its reuse of equal substructures and
so the reference for that reuse alone.
"""

import numpy as np

from skewpencil import (
    CanonicalStructure,
    PairwiseReport,
    SkewPair,
    assemble,
    make_structure_pair,
    verify_direct_sum,
)


def brute_tangent_matrix(pair: SkewPair) -> np.ndarray:
    """Matrix of C -> (C^T A + A C, C^T B + B C), columns E_ij, brute force."""
    n = pair.n
    iu = np.triu_indices(n, 1)
    cols = []
    for i in range(n):
        for j in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            dA = E.T @ pair.A + pair.A @ E
            dB = E.T @ pair.B + pair.B @ E
            cols.append(np.concatenate([dA[iu], dB[iu]]))
    return np.array(cols).T


def dense_min_norm_correction(base: SkewPair, current: SkewPair, pattern) -> np.ndarray:
    """Minimum-norm X zeroing (current - base) + X^T current + current X off the stars.

    Dense lstsq on the brute-force tangent matrix of ``current``, restricted
    to the strictly-upper positions that neither star mask marks.
    """
    n = base.n
    iu = np.triu_indices(n, 1)
    off = np.concatenate([~pattern.mask_a[iu], ~pattern.mask_b[iu]])
    delta = current - base
    c = np.concatenate([delta.A[iu], delta.B[iu]])[off]
    s, *_ = np.linalg.lstsq(brute_tangent_matrix(current)[off], -c, rcond=None)
    return s.reshape(n, n)


def svd_rank(M: np.ndarray, rtol: float = 1e-9) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def brute_direct_sum_check(pair, stars_a, stars_b):
    """(rank_T, p, ambient, ok) for explicit upper star position sets."""
    n = pair.n
    ups = [(i, j) for i in range(n) for j in range(i + 1, n)]
    uidx = {c: k for k, c in enumerate(ups)}
    m = len(ups)
    T = brute_tangent_matrix(pair)
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
    rank_t = svd_rank(T)
    p = len(stars_a) + len(stars_b)
    rank_td = svd_rank(np.hstack([T, D]))
    ok = rank_t + p == 2 * m and rank_td == rank_t + p
    return rank_t, p, 2 * m, ok


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
