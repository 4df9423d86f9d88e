"""Star patterns: the sparsest admissible deformation masks of a canonical pair.

A pattern is a pair of n-by-n boolean masks (True = star = free parameter)
marking where a perturbation of the canonical pair cannot be removed by
congruence.  Star positions are symmetric about the diagonal and never on
it; the (j, i) mirror of a star carries the negated value of its (i, j)
partner, so the number of independent parameters is half the star count.
That count equals the codimension of the congruence orbit.

Block placement rules are verified against the exact tangent-space rank
oracle in the test suite; where several star placements are admissible the
library fixes one deterministic variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CanonicalBlock, CanonicalStructure

#: two H blocks are treated as sharing an eigenvalue below this distance
LAMBDA_TOL = 1e-10

SHAPE_TAGS = (
    "corner_nw",
    "corner_ne",
    "corner_se",
    "corner_sw",
    "bottom_right_star",
    "right_half_cap",
    "q",
    "q_transpose",
)


def render_shape(tag: str, rows: int, cols: int) -> np.ndarray:
    """Render one star-placement shape as a rows-by-cols boolean mask.

    Corner shapes put stars along the shortest full edge touching the named
    corner (rotating the north-west shape clockwise by 90/180/270 degrees
    gives NE/SE/SW).  On square masks the tie is fixed: NW uses column 1,
    and the rotations move that choice to row 1 / column n / row n.

    ``q`` with rows < cols stars row ``rows`` at columns rows..cols-1
    (cols - rows stars) and is all zero otherwise; ``q_transpose`` is its
    transpose at transposed dimensions.  ``right_half_cap`` stars all of
    row 1 and all of the last column.
    """
    if rows < 0 or cols < 0:
        raise ValueError("mask dimensions must be >= 0")
    mask = np.zeros((rows, cols), dtype=bool)
    if rows == 0 or cols == 0:
        if tag not in SHAPE_TAGS:
            raise ValueError(f"unknown shape tag {tag!r}")
        return mask
    if tag == "corner_nw":
        if rows <= cols:
            mask[:, 0] = True
        else:
            mask[0, :] = True
    elif tag == "corner_ne":
        if rows < cols:
            mask[:, cols - 1] = True
        else:
            mask[0, :] = True
    elif tag == "corner_se":
        if rows <= cols:
            mask[:, cols - 1] = True
        else:
            mask[rows - 1, :] = True
    elif tag == "corner_sw":
        if rows >= cols:
            mask[rows - 1, :] = True
        else:
            mask[:, 0] = True
    elif tag == "bottom_right_star":
        mask[rows - 1, cols - 1] = True
    elif tag == "right_half_cap":
        mask[0, :] = True
        mask[:, cols - 1] = True
    elif tag == "q":
        if rows < cols:
            mask[rows - 1, rows - 1:cols - 1] = True
    elif tag == "q_transpose":
        mask = render_shape("q", cols, rows).T.copy()
    else:
        raise ValueError(f"unknown shape tag {tag!r}")
    return mask


def diag_block(block: CanonicalBlock) -> tuple[np.ndarray, np.ndarray]:
    """Star masks of the deformation restricted to one diagonal block.

    H blocks star only the B part, K blocks only the A part, L blocks
    nothing.  The starred half is [[0, C], [C^T, 0]] where C is the n-by-n
    south-west corner shape (bottom row); mirroring keeps the full mask
    position-symmetric.
    """
    d = block.dim
    mask_a = np.zeros((d, d), dtype=bool)
    mask_b = np.zeros((d, d), dtype=bool)
    if block.kind == "L":
        return mask_a, mask_b
    n = block.n
    corner = render_shape("corner_sw", n, n)
    target = mask_b if block.kind == "H" else mask_a
    target[:n, n:] = corner
    target[n:, :n] = corner.T
    return mask_a, mask_b


def _same_eigenvalue(bi: CanonicalBlock, bj: CanonicalBlock, lambda_tol: float) -> bool:
    if lambda_tol == 0:
        return bi.lam == bj.lam
    return abs(bi.lam - bj.lam) <= lambda_tol


def offdiag_block(
    bi: CanonicalBlock,
    bj: CanonicalBlock,
    lambda_tol: float = LAMBDA_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Star masks of the (i, j) off-diagonal block, bi before bj canonically.

    Only the block above the diagonal is produced; the (j, i) block is its
    forced mirror and carries no independent parameters.
    """
    if bi.sort_key() > bj.sort_key():
        raise ValueError("blocks must be passed in canonical order")
    di, dj = bi.dim, bj.dim
    mask_a = np.zeros((di, dj), dtype=bool)
    mask_b = np.zeros((di, dj), dtype=bool)
    kinds = (bi.kind, bj.kind)
    n, m = bi.n, bj.n

    if kinds == ("H", "H") or kinds == ("K", "K"):
        if kinds[0] == "H" and not _same_eigenvalue(bi, bj, lambda_tol):
            return mask_a, mask_b
        target = mask_b if kinds[0] == "H" else mask_a
        target[:n, :m] = render_shape("corner_se", n, m)
        target[:n, m:] = render_shape("corner_sw", n, m)
        target[n:, :m] = render_shape("corner_ne", n, m)
        target[n:, m:] = render_shape("corner_nw", n, m)
    elif kinds == ("L", "L"):
        # A gets the single bottom-right star of its lower-right block; B
        # gets the two hook blocks plus the right-half cap.
        mask_a[n:, m:] = render_shape("bottom_right_star", n + 1, m + 1)
        mask_b[:n, m:] = render_shape("q_transpose", n, m + 1)
        mask_b[n:, :m] = render_shape("q", n + 1, m)
        mask_b[n:, m:] = render_shape("right_half_cap", n + 1, m + 1)
    elif kinds == ("H", "K"):
        pass
    elif kinds == ("H", "L"):
        # stars in the first column of the right di x (m+1) half of B
        mask_b[:, m] = True
    elif kinds == ("K", "L"):
        # stars in the last column of the right half of A
        mask_a[:, 2 * m] = True
    else:
        raise ValueError(f"unsupported block kinds {kinds}")
    return mask_a, mask_b


@dataclass(frozen=True)
class StarPattern:
    """Assembled deformation masks for a whole canonical structure."""

    n: int
    mask_a: np.ndarray
    mask_b: np.ndarray

    def __post_init__(self):
        # read-only bool copies: the caller's arrays stay theirs and writable
        for name in ("mask_a", "mask_b"):
            mask = np.array(getattr(self, name), dtype=bool)
            if mask.shape != (self.n, self.n):
                raise ValueError("mask shape must be n x n")
            mask.setflags(write=False)
            object.__setattr__(self, name, mask)

    @property
    def params(self) -> int:
        """Number of independent parameters: half the total star count."""
        total = int(self.mask_a.sum()) + int(self.mask_b.sum())
        return total // 2

    def independent_stars(self) -> list[tuple[int, int, int]]:
        """Strictly-upper star positions as (matrix, i, j), matrix 0 = A."""
        out = []
        for which, mask in ((0, self.mask_a), (1, self.mask_b)):
            rows, cols = np.nonzero(mask)
            out += [(which, i, j) for i, j in zip(rows.tolist(), cols.tolist()) if i < j]
        return out

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "maskA": self.mask_a.astype(int).tolist(),
            "maskB": self.mask_b.astype(int).tolist(),
            "params": self.params,
        }


def snap_eigenvalues(structure: CanonicalStructure, lambda_tol: float = LAMBDA_TOL) -> CanonicalStructure:
    """Give H eigenvalues that ``assemble`` would merge one common value.

    The distinct H eigenvalues are clustered by single linkage: two share a
    cluster when a chain of steps of at most ``lambda_tol`` joins them.
    Each cluster is set to its first member in canonical order.  Eigenvalues
    of distinct clusters then lie more than ``lambda_tol`` apart, so the
    pattern merges exactly the equal ones and matches the pair built from
    the same structure.  ``lambda_tol=0`` returns the structure unchanged.
    """
    lams: list[complex] = []
    for b in structure.blocks:
        if b.kind == "H" and b.lam not in lams:
            lams.append(b.lam)
    root = list(range(len(lams)))

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a

    for a in range(len(lams)):
        for b in range(a):
            if abs(lams[a] - lams[b]) <= lambda_tol:
                ra, rb = find(a), find(b)
                root[max(ra, rb)] = min(ra, rb)
    snapped = {lam: lams[find(a)] for a, lam in enumerate(lams)}
    return CanonicalStructure(tuple(
        b if b.kind != "H" or snapped[b.lam] == b.lam else CanonicalBlock("H", b.n, snapped[b.lam])
        for b in structure.blocks))


def assemble(structure: CanonicalStructure, lambda_tol: float = LAMBDA_TOL) -> StarPattern:
    """Build the full deformation pattern of a canonical structure.

    Diagonal blocks are placed as-is; each off-diagonal block (i < j) is
    rendered once and mirrored by transposition below the diagonal.
    """
    n = structure.dim
    mask_a = np.zeros((n, n), dtype=bool)
    mask_b = np.zeros((n, n), dtype=bool)
    offs = structure.block_offsets()
    blocks = structure.blocks
    for k, b in enumerate(blocks):
        o, d = offs[k], b.dim
        da, db = diag_block(b)
        mask_a[o:o + d, o:o + d] = da
        mask_b[o:o + d, o:o + d] = db
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            oi, oj = offs[i], offs[j]
            di, dj = blocks[i].dim, blocks[j].dim
            oa, ob = offdiag_block(blocks[i], blocks[j], lambda_tol)
            mask_a[oi:oi + di, oj:oj + dj] = oa
            mask_b[oi:oi + di, oj:oj + dj] = ob
            mask_a[oj:oj + dj, oi:oi + di] = oa.T
            mask_b[oj:oj + dj, oi:oi + di] = ob.T
    return StarPattern(n, mask_a, mask_b)


def codimension(structure: CanonicalStructure, lambda_tol: float = LAMBDA_TOL) -> int:
    """Codimension of the congruence orbit: the independent star count."""
    return assemble(structure, lambda_tol).params
