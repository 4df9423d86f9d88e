"""Star patterns: the sparsest admissible deformation masks of a canonical pair.

A pattern is a pair of n-by-n boolean masks (True = star = free parameter)
marking where a perturbation of the canonical pair cannot be removed by
congruence.  Star positions are symmetric about the diagonal and never on
it; the (j, i) mirror of a star carries the negated value of its (i, j)
partner, so the number of independent parameters is half the star count.
That count equals the codimension of the congruence orbit.

A :class:`StarPattern` holds one read-only (2, n, n) bool array
[mask_a, mask_b].  Its public constructor checks the masks; the patterns
that :func:`assemble` renders are symmetric with no diagonal stars by
construction and are not checked a second time.

Block placement rules are verified against the exact tangent-space rank
oracle in the test suite; where several star placements are admissible the
library fixes one deterministic variant.
"""

from __future__ import annotations

import numpy as np

from .core import CanonicalBlock, CanonicalStructure, _index, _on_diagonal

#: corner tag -> (its row, its column, whether a square mask stars the column)
_CORNERS = {"corner_nw": (0, 0, True), "corner_ne": (0, -1, False),
            "corner_se": (-1, -1, True), "corner_sw": (-1, 0, False)}
SHAPE_TAGS = (*_CORNERS, "bottom_right_star", "right_half_cap", "q", "q_transpose")


def render_shape(tag: str, rows: int, cols: int) -> np.ndarray:
    """Render one star-placement shape as a rows-by-cols boolean mask.

    Corner shapes put stars along the shortest full edge touching the named
    corner: a mask with fewer rows than columns stars the corner's column,
    one with more rows stars its row.  NE/SE/SW are the north-west shape
    turned clockwise by 90/180/270 degrees, so on square masks NW stars
    column 1, and the rotations move that choice to row 1 / column n / row n.

    ``q`` with rows < cols stars row ``rows`` at columns rows..cols-1
    (cols - rows stars) and is all zero otherwise; ``q_transpose`` is its
    transpose at transposed dimensions.  ``right_half_cap`` stars all of
    row 1 and all of the last column.
    """
    if rows < 0 or cols < 0:
        raise ValueError("mask dimensions must be >= 0")
    if tag not in SHAPE_TAGS:
        raise ValueError(f"unknown shape tag {tag!r}")
    mask = np.zeros((rows, cols), dtype=bool)
    if rows == 0 or cols == 0:
        return mask
    if tag in _CORNERS:
        row, col, square_stars_col = _CORNERS[tag]
        if rows < cols or (rows == cols and square_stars_col):
            mask[:, col] = True
        else:
            mask[row, :] = True
    elif tag == "bottom_right_star":
        mask[rows - 1, cols - 1] = True
    elif tag == "right_half_cap":
        mask[0, :] = True
        mask[:, cols - 1] = True
    elif tag == "q":
        if rows < cols:
            mask[rows - 1, rows - 1:cols - 1] = True
    elif tag == "q_transpose":
        if cols < rows:
            mask[cols - 1:rows - 1, cols - 1] = True
    return mask


def diag_block(block: CanonicalBlock) -> tuple[np.ndarray, np.ndarray]:
    """Star masks of the deformation restricted to one diagonal block.

    H blocks star only the B part, K blocks only the A part, L blocks
    nothing.  The starred half is [[0, C], [C^T, 0]] where C is the n-by-n
    mask whose bottom row is starred (the south-west corner shape); its
    mirror C^T keeps the full mask position-symmetric.
    """
    d = block.dim
    mask_a = np.zeros((d, d), dtype=bool)
    mask_b = np.zeros((d, d), dtype=bool)
    if block.kind == "L":
        return mask_a, mask_b
    n = block.n
    target = mask_b if block.kind == "H" else mask_a
    target[n - 1, n:] = True
    target[n:, n - 1] = True
    return mask_a, mask_b


def offdiag_block(bi: CanonicalBlock, bj: CanonicalBlock) -> tuple[np.ndarray, np.ndarray]:
    """Star masks of the (i, j) off-diagonal block, bi before bj canonically.

    Only the block above the diagonal is produced; the (j, i) block is its
    forced mirror and carries no independent parameters.  Two H blocks
    share their stars only when their eigenvalues are exactly equal: a
    :class:`~skewpencil.core.CanonicalStructure` has already merged the
    eigenvalues within ``LAMBDA_TOL`` of each other.  An H and a K block
    share no stars.
    """
    if bi.sort_key() > bj.sort_key():
        raise ValueError("blocks must be passed in canonical order")
    di, dj = bi.dim, bj.dim
    mask_a = np.zeros((di, dj), dtype=bool)
    mask_b = np.zeros((di, dj), dtype=bool)
    kinds = (bi.kind, bj.kind)
    n, m = bi.n, bj.n

    if kinds == ("H", "H") or kinds == ("K", "K"):
        if bi.lam != bj.lam:
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
    elif kinds == ("H", "L"):
        # stars in the first column of the right di x (m+1) half of B
        mask_b[:, m] = True
    elif kinds == ("K", "L"):
        # stars in the last column of the right half of A
        mask_a[:, 2 * m] = True
    return mask_a, mask_b


class StarPattern:
    """Deformation masks of a whole structure: integer n, symmetric, no diagonal stars (else ValueError).

    The pattern holds one read-only (2, n, n) bool array, ``_masks`` =
    [mask_a, mask_b], copied from the arguments and checked once;
    ``mask_a`` and ``mask_b`` are views of it, made on each access.
    """

    __slots__ = ("_masks",)

    def __init__(self, n: int, mask_a, mask_b):
        n = _index(n, "n")
        masks = []
        for name, mask in (("mask_a", mask_a), ("mask_b", mask_b)):
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (n, n):
                raise ValueError("mask shape must be n x n")
            # one byte per entry, so the bytes compare entries; entry (i, i) is byte i*(n+1)
            entries = mask.tobytes()
            if entries != mask.T.tobytes():
                raise ValueError(f"{name} must be symmetric: each star (i, j) needs its mirror (j, i)")
            if 1 in entries[::n + 1]:
                raise ValueError(f"{name} must not star the diagonal")
            masks.append(mask)
        # np.array copies, so the caller's arrays stay theirs and writable
        self._masks = np.array(masks)
        self._masks.setflags(write=False)

    @classmethod
    def _trusted(cls, masks: np.ndarray) -> "StarPattern":
        """The pattern [mask_a, mask_b] = masks, made read-only and not checked.

        Only for a new (2, n, n) bool array that no one else holds, as
        :func:`_pattern` renders it: each diagonal block is symmetric with no
        star on its diagonal (:func:`diag_block`), and each off-diagonal
        block lies off the diagonal and is mirrored by transposition, so
        the masks are symmetric with no diagonal stars.
        """
        masks.setflags(write=False)
        pattern = cls.__new__(cls)
        pattern._masks = masks
        return pattern

    @property
    def mask_a(self) -> np.ndarray:
        return self._masks[0]

    @property
    def mask_b(self) -> np.ndarray:
        return self._masks[1]

    @property
    def n(self) -> int:
        return self._masks.shape[1]

    def __repr__(self) -> str:
        return f"StarPattern(n={self.n}, mask_a={self.mask_a!r}, mask_b={self.mask_b!r})"

    @property
    def params(self) -> int:
        """Number of independent parameters: the strictly-upper stars, half the total."""
        return int(np.count_nonzero(self._masks)) // 2

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "maskA": self.mask_a.astype(int).tolist(),
            "maskB": self.mask_b.astype(int).tolist(),
            "params": self.params,
        }


def _diagonal_masks(blocks) -> dict[CanonicalBlock, np.ndarray]:
    """The (2, d, d) stack [mask_a, mask_b] of :func:`diag_block`, once per distinct block."""
    return {b: np.array(diag_block(b)) for b in dict.fromkeys(blocks)}


def _pattern(blocks: tuple[CanonicalBlock, ...], diag: dict[CanonicalBlock, np.ndarray]) -> StarPattern:
    """The pattern of the direct sum of ``blocks``, given in canonical order.

    ``diag`` holds each block's diagonal masks (:func:`_diagonal_masks`).
    Each distinct block pair (bi, bj), i < j, is rendered once and placed
    at every (i, j) it occupies, and mirrored by transposition below the
    diagonal.
    """
    masks = _on_diagonal([diag[b] for b in blocks], bool)
    offs = [0]
    for b in blocks:
        offs.append(offs[-1] + b.dim)
    rendered: dict[tuple[CanonicalBlock, CanonicalBlock], np.ndarray] = {}
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            key = (blocks[i], blocks[j])
            off = rendered.get(key)
            if off is None:
                off = rendered[key] = np.array(offdiag_block(*key))
            rows, cols = slice(offs[i], offs[i + 1]), slice(offs[j], offs[j + 1])
            masks[:, rows, cols] = off
            masks[:, cols, rows] = off.swapaxes(1, 2)
    return StarPattern._trusted(masks)


def assemble(structure: CanonicalStructure) -> StarPattern:
    """Build the full deformation pattern of a canonical structure.

    Diagonal blocks are placed as-is; each off-diagonal block (i < j) is
    mirrored by transposition below the diagonal.  Each distinct block and
    each distinct block pair is rendered once per call: 8H_2(0) + 8L_1
    renders 2 diagonal and 3 off-diagonal blocks, not 16 and 120.  H
    blocks share stars exactly when the structure gives them one
    eigenvalue, so the pattern matches ``make_structure_pair`` of the same
    structure.
    """
    return _pattern(structure.blocks, _diagonal_masks(structure.blocks))


def codimension(structure: CanonicalStructure) -> int:
    """Codimension of the congruence orbit: the independent star count."""
    return assemble(structure).params
