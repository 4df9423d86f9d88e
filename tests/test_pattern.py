import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from skewpencil import (
    LAMBDA_TOL,
    PALETTE,
    CanonicalBlock,
    CanonicalStructure,
    StarPattern,
    assemble,
    codimension,
    diag_block,
    enumerate_structures,
    make_structure_pair,
    offdiag_block,
    project_to_pattern,
    render_shape,
)

from helpers import brute_direct_sum_check, codimension_count, masks_unmemoised, random_skew_pair, upper_stars
from skewpencil import pattern as pattern_module


def rot90cw(positions, rows):
    """Independent clockwise position rotation: (i, j) -> (j, rows-1-i)."""
    return {(j, rows - 1 - i) for (i, j) in positions}


def mask_positions(mask):
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}


def test_corner_nw_1x1():
    assert render_shape("corner_nw", 1, 1).tolist() == [[True]]


def test_q_1x3():
    assert render_shape("q", 1, 3).tolist() == [[True, True, False]]


def test_q_zero_when_rows_ge_cols():
    assert not render_shape("q", 3, 3).any()
    assert not render_shape("q", 4, 2).any()


def test_q_star_count():
    # rows < cols leaves cols - rows stars on the last row
    for r, c in [(1, 4), (2, 5), (3, 4)]:
        mask = render_shape("q", r, c)
        assert mask.sum() == c - r
        assert set(np.nonzero(mask)[0]) == {r - 1}


def test_q_transpose_matches_q():
    for rows in range(7):
        for cols in range(7):
            assert np.array_equal(render_shape("q_transpose", rows, cols), render_shape("q", cols, rows).T)


def test_corner_sw_3x2_by_rotation():
    # rotate the explicit 2x3 north-west star set clockwise three times
    nw = mask_positions(render_shape("corner_nw", 2, 3))
    assert nw == {(0, 0), (1, 0)}
    expected = rot90cw(rot90cw(rot90cw(nw, 2), 3), 2)
    got = mask_positions(render_shape("corner_sw", 3, 2))
    assert got == expected == {(2, 0), (2, 1)}


@pytest.mark.parametrize("rows,cols", [(r, c) for r in range(1, 7) for c in range(1, 7)])
def test_corner_rotation_consistency(rows, cols):
    # NW stars its column unless it has more rows than columns; NE, SE and SW
    # are NW turned clockwise once, twice and three times
    nw = mask_positions(render_shape("corner_nw", rows, cols))
    assert nw == ({(i, 0) for i in range(rows)} if rows <= cols else {(0, j) for j in range(cols)})
    nw_t = mask_positions(render_shape("corner_nw", cols, rows))
    assert mask_positions(render_shape("corner_ne", rows, cols)) == rot90cw(nw_t, cols)
    assert mask_positions(render_shape("corner_se", rows, cols)) == rot90cw(rot90cw(nw, rows), cols)
    sw = rot90cw(rot90cw(rot90cw(nw_t, cols), rows), cols)
    assert mask_positions(render_shape("corner_sw", rows, cols)) == sw


@pytest.mark.parametrize("tag", ["corner_nw", "corner_ne", "corner_se", "corner_sw"])
@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 4), (4, 2), (3, 5)])
def test_corner_star_count(tag, rows, cols):
    assert render_shape(tag, rows, cols).sum() == min(rows, cols)


def test_edges_and_cap():
    assert mask_positions(render_shape("bottom_right_star", 2, 3)) == {(1, 2)}
    cap = mask_positions(render_shape("right_half_cap", 3, 3))
    assert cap == {(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)}


def test_render_shape_empty_dims():
    for tag in ("corner_nw", "q", "right_half_cap"):
        assert render_shape(tag, 0, 3).shape == (0, 3)
        assert render_shape(tag, 2, 0).shape == (2, 0)


def test_render_shape_unknown_tag():
    with pytest.raises(ValueError):
        render_shape("corner_n", 2, 2)
    with pytest.raises(ValueError):
        render_shape("corner_nw", -1, 2)


def test_diag_L3_zero():
    da, db = diag_block(CanonicalBlock("L", 3))
    assert da.shape == (7, 7) and not da.any()
    assert not db.any()


def test_diag_H1():
    da, db = diag_block(CanonicalBlock("H", 1, 1.5))
    assert not da.any()
    assert db.tolist() == [[False, True], [True, False]]


def test_diag_H_K_role_swap():
    ha, hb = diag_block(CanonicalBlock("H", 2, 0.0))
    ka, kb = diag_block(CanonicalBlock("K", 2))
    assert not ha.any() and not kb.any()
    assert np.array_equal(hb, ka)
    assert np.array_equal(hb, hb.T)  # position-symmetric


def test_diag_H2_is_admissible():
    # the starred half must make the tangent direct sum work (rank oracle)
    block = CanonicalBlock("H", 2, 0.0)
    pair = make_structure_pair(CanonicalStructure((block,)))
    _, db = diag_block(block)
    rank_t, p, ambient, ok = brute_direct_sum_check(pair, set(), upper_stars(db))
    assert (rank_t, p, ambient, ok) == (10, 2, 12, True)


def test_diag_K2_is_admissible():
    block = CanonicalBlock("K", 2)
    pair = make_structure_pair(CanonicalStructure((block,)))
    da, _ = diag_block(block)
    rank_t, p, ambient, ok = brute_direct_sum_check(pair, upper_stars(da), set())
    assert (rank_t, p, ambient, ok) == (10, 2, 12, True)


def test_offdiag_distinct_eigenvalues_zero():
    oa, ob = offdiag_block(CanonicalBlock("H", 2, 1.0), CanonicalBlock("H", 3, 2.0))
    assert oa.shape == (4, 6)
    assert not oa.any() and not ob.any()


def test_offdiag_H_K_zero():
    oa, ob = offdiag_block(CanonicalBlock("H", 1, 0.5), CanonicalBlock("K", 1))
    assert not oa.any() and not ob.any()


def test_offdiag_L0_L0():
    oa, ob = offdiag_block(CanonicalBlock("L", 0), CanonicalBlock("L", 0))
    assert oa.tolist() == [[True]]
    assert ob.tolist() == [[True]]


def test_offdiag_same_eigenvalue_corners():
    oa, ob = offdiag_block(CanonicalBlock("H", 2, 1.0), CanonicalBlock("H", 1, 1.0))
    assert not oa.any()
    assert ob.sum() == 4  # one star per corner block of the 4x2 layout


def test_close_eigenvalues_share_stars_through_the_structure():
    # offdiag_block compares eigenvalues exactly; the structure merges 1e-12 into 0
    b1 = CanonicalBlock("H", 1, 0.0)
    near = CanonicalBlock("H", 1, 1e-12)
    _, ob = offdiag_block(b1, near)
    assert not ob.any()
    _, ob = offdiag_block(b1, CanonicalBlock("H", 1, 1e-6))
    assert not ob.any()
    st = CanonicalStructure((b1, near))
    assert st.blocks == (b1, b1)
    assert codimension(st) == codimension(CanonicalStructure((b1, b1))) == 6
    assert codimension(CanonicalStructure((b1, CanonicalBlock("H", 1, 1e-6)))) == 2


def test_offdiag_requires_canonical_order():
    with pytest.raises(ValueError):
        offdiag_block(CanonicalBlock("L", 1), CanonicalBlock("H", 1, 0.0))
    with pytest.raises(ValueError):
        offdiag_block(CanonicalBlock("K", 1), CanonicalBlock("H", 1, 0.0))


def test_assemble_single_L3():
    pat = assemble(CanonicalStructure((CanonicalBlock("L", 3),)))
    assert pat.n == 7
    assert not pat.mask_a.any() and not pat.mask_b.any()
    assert pat.params == 0


def test_assemble_H1_K1():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0), CanonicalBlock("K", 1)))
    pat = assemble(st)
    assert pat.params == 2
    # stars live inside the two diagonal blocks only
    assert mask_positions(pat.mask_b) == {(0, 1), (1, 0)}
    assert mask_positions(pat.mask_a) == {(2, 3), (3, 2)}


def test_assemble_L0_L0():
    st = CanonicalStructure((CanonicalBlock("L", 0), CanonicalBlock("L", 0)))
    pat = assemble(st)
    assert pat.params == 2
    assert mask_positions(pat.mask_a) == {(0, 1), (1, 0)}
    assert mask_positions(pat.mask_b) == {(0, 1), (1, 0)}


def test_assemble_deterministic_and_symmetric():
    st = CanonicalStructure((
        CanonicalBlock("H", 2, 1j),
        CanonicalBlock("H", 1, 1j),
        CanonicalBlock("K", 1),
        CanonicalBlock("L", 1),
    ))
    p1, p2 = assemble(st), assemble(st)
    assert np.array_equal(p1.mask_a, p2.mask_a) and np.array_equal(p1.mask_b, p2.mask_b)
    for mask in (p1.mask_a, p1.mask_b):
        assert np.array_equal(mask, mask.T)
        assert not np.diag(mask).any()
    assert 2 * p1.params == int(p1.mask_a.sum()) + int(p1.mask_b.sum())


def test_assemble_equals_the_unmemoised_renderer():
    structures = enumerate_structures(10)
    assert len(structures) == 1978
    for st in structures:
        pat = assemble(st)
        mask_a, mask_b = masks_unmemoised(st)
        assert pat.mask_a.tobytes() == mask_a.tobytes() and pat.mask_b.tobytes() == mask_b.tobytes(), st
        # assemble skips the checks of StarPattern, which accepts its masks unchanged
        assert StarPattern(pat.n, pat.mask_a, pat.mask_b)._masks.tobytes() == pat._masks.tobytes(), st


def test_assemble_renders_each_distinct_block_and_block_pair_once(monkeypatch):
    rendered = []
    for name in ("diag_block", "offdiag_block"):
        render = getattr(pattern_module, name)
        monkeypatch.setattr(pattern_module, name,
                            lambda *blocks, _name=name, _render=render: rendered.append(_name) or _render(*blocks))
    # 8 H_2(0) + 8 L_1: blocks H_2 and L_1, block pairs H_2 H_2, H_2 L_1 and L_1 L_1
    st = CanonicalStructure((CanonicalBlock("H", 2, 0.0),) * 8 + (CanonicalBlock("L", 1),) * 8)
    pat = assemble(st)
    assert sorted(rendered) == ["diag_block"] * 2 + ["offdiag_block"] * 3
    monkeypatch.undo()
    mask_a, mask_b = masks_unmemoised(st)
    assert np.array_equal(pat.mask_a, mask_a) and np.array_equal(pat.mask_b, mask_b)


def test_pattern_accessors():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0),))
    pat = assemble(st)
    assert not pat.mask_a.any()
    assert np.argwhere(np.triu(pat.mask_b)).tolist() == [[0, 1]]
    js = pat.to_json()
    assert js["params"] == 1 and js["maskB"][0][1] == 1


def test_pattern_rejects_asymmetric_and_diagonal_stars():
    # params counts the strictly-upper stars, so a star needs its mirror and no
    # star may sit on the diagonal; n is an integer, as a block size is
    zero = np.zeros((2, 2), dtype=bool)
    lone = np.array([[False, True], [False, False]])
    for mask_a, mask_b in ((zero, lone), (lone.T, zero), (zero, np.eye(2, dtype=bool))):
        with pytest.raises(ValueError):
            StarPattern(2, mask_a, mask_b)
    for n, mask in ((2.0, zero), (True, np.zeros((1, 1), dtype=bool))):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            StarPattern(n, mask, mask)
    assert StarPattern(2, zero, lone | lone.T).params == 1
    assert StarPattern(np.int64(2), zero, lone | lone.T).n == 2


def test_pattern_copies_the_callers_masks():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0), CanonicalBlock("L", 1)))
    ref = assemble(st)
    a, b = ref.mask_a.astype(int), ref.mask_b.astype(int)
    pat = StarPattern(st.dim, a, b)
    assert a.flags.writeable and b.flags.writeable
    assert not pat.mask_a.flags.writeable and pat.mask_a.dtype == bool
    # one read-only (2, n, n) stack, whether checked or rendered by assemble
    for p in (pat, ref):
        assert p._masks.shape == (2, st.dim, st.dim) and not p._masks.flags.writeable
        assert np.shares_memory(p.mask_a, p._masks) and np.shares_memory(p.mask_b, p._masks)
    a[:] = 0  # the pattern keeps its own copy
    assert pat.params == ref.params == 3
    assert pat.to_json() == ref.to_json()
    pair = make_structure_pair(st)
    C = random_skew_pair(np.random.default_rng(5), st.dim, scale=1.0)
    D, S = project_to_pattern(pair, pat, C)
    D_ref, S_ref = project_to_pattern(pair, ref, C)
    assert np.array_equal(D.A, D_ref.A) and np.array_equal(D.B, D_ref.B)
    assert np.array_equal(S, S_ref)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_codim_L_blocks(m):
    assert codimension(CanonicalStructure((CanonicalBlock("L", m),))) == 0


def test_codim_H1():
    assert codimension(CanonicalStructure((CanonicalBlock("H", 1, 0.0),))) == 1


def test_codim_K1_K1():
    # computed by the rank oracle: ambient 12, tangent rank 6
    st = CanonicalStructure((CanonicalBlock("K", 1), CanonicalBlock("K", 1)))
    pair = make_structure_pair(st)
    pat = assemble(st)
    rank_t, p, ambient, ok = brute_direct_sum_check(
        pair, upper_stars(pat.mask_a), upper_stars(pat.mask_b))
    assert ok and (rank_t, ambient) == (6, 12)
    assert codimension(st) == ambient - rank_t == 6


def test_codimension_equals_the_closed_form_count_on_the_corpus():
    structures = enumerate_structures(10)
    assert len(structures) == 1978
    assert [codimension(st) for st in structures] == [codimension_count(st) for st in structures]


# H eigenvalues from the palette, or within or just past LAMBDA_TOL of it
_BLOCK = hs.one_of(
    hs.builds(lambda n, lam, shift: CanonicalBlock("H", n, lam + shift), hs.integers(1, 5),
              hs.sampled_from(PALETTE), hs.sampled_from((0.0, 0.4e-10, 0.9e-10, 1.5e-10, 1e-3))),
    hs.builds(lambda n: CanonicalBlock("K", n), hs.integers(1, 5)),
    hs.builds(lambda n: CanonicalBlock("L", n), hs.integers(0, 5)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hs.lists(_BLOCK, min_size=1, max_size=8))
def test_codimension_equals_the_closed_form_count_beyond_the_corpus(blocks):
    # the count reads the blocks as the structure has snapped them
    st = CanonicalStructure(tuple(blocks))
    assert codimension(st) == codimension_count(st)


def test_rank_plus_params_small_corpus():
    from skewpencil import enumerate_structures

    for st in enumerate_structures(5):
        pair = make_structure_pair(st)
        pat = assemble(st)
        rank_t, p, ambient, ok = brute_direct_sum_check(
            pair, upper_stars(pat.mask_a), upper_stars(pat.mask_b))
        assert ok, st
        assert rank_t + pat.params == st.dim * (st.dim - 1)


def test_snap_eigenvalues():
    def h(lam, n=1):
        return CanonicalBlock("H", n, lam)

    tail = (CanonicalBlock("K", 1), CanonicalBlock("L", 0))
    st = CanonicalStructure((h(1.2e-10), h(0.0, 2), h(0.6e-10), h(1j), h(1j + 5e-11), h(1.0)) + tail)
    # the chain 0, 0.6e-10, 1.2e-10 is one cluster, set to its first member 0;
    # i and i + 5e-11 snap to i, which comes first in canonical order
    assert st.blocks == (h(0.0, 2), h(0.0), h(0.0), h(1j), h(1j), h(1.0)) + tail
    assert CanonicalStructure(st.blocks) == st
    # eigenvalues 1.01e-10 apart stay apart, and a K block is never given an H eigenvalue
    apart = (h(-1.01e-10), h(0.0)) + tail
    assert CanonicalStructure(apart).blocks == apart
    assert CanonicalStructure((h(0.0), h(-1e-11)) + tail).blocks == (h(-1e-11), h(-1e-11)) + tail
    # after snapping, distinct eigenvalues are farther apart than the tolerance
    lams = {b.lam for b in st.blocks if b.kind == "H"}
    assert all(abs(a - b) > LAMBDA_TOL for a in lams for b in lams if a != b)


def test_codimension_of_an_eigenvalue_chain():
    # 0 and 1.2e-10 are farther apart than LAMBDA_TOL, but the chain through
    # 0.6e-10 joins them: the codimension is that of 3 x H_1(0)
    chain = CanonicalStructure(tuple(CanonicalBlock("H", 1, lam) for lam in (0.0, 0.6e-10, 1.2e-10)))
    assert codimension(chain) == codimension(CanonicalStructure((CanonicalBlock("H", 1, 0.0),) * 3)) == 15
