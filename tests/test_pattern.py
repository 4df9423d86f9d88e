import numpy as np
import pytest

from skewpencil import (
    CanonicalBlock,
    CanonicalStructure,
    StarPattern,
    assemble,
    codimension,
    diag_block,
    make_structure_pair,
    offdiag_block,
    project_to_pattern,
    render_shape,
    snap_eigenvalues,
)

from helpers import brute_direct_sum_check, random_skew_pair, upper_stars


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
    assert np.array_equal(render_shape("q_transpose", 5, 2), render_shape("q", 2, 5).T)


def test_corner_sw_3x2_by_rotation():
    # rotate the explicit 2x3 north-west star set clockwise three times
    nw = mask_positions(render_shape("corner_nw", 2, 3))
    assert nw == {(0, 0), (1, 0)}
    expected = rot90cw(rot90cw(rot90cw(nw, 2), 3), 2)
    got = mask_positions(render_shape("corner_sw", 3, 2))
    assert got == expected == {(2, 0), (2, 1)}


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (3, 2), (3, 3), (1, 5), (5, 1)])
def test_corner_rotation_consistency(rows, cols):
    # each corner shape is the clockwise rotation of the one before it
    nw = mask_positions(render_shape("corner_nw", cols, rows))
    assert rot90cw(nw, cols) == mask_positions(render_shape("corner_ne", rows, cols))
    se = mask_positions(render_shape("corner_se", rows, cols))
    assert se == rot90cw(rot90cw(mask_positions(render_shape("corner_nw", rows, cols)), rows), cols)


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


def test_offdiag_eigenvalue_tolerance_knob():
    b1 = CanonicalBlock("H", 1, 0.0)
    near = CanonicalBlock("H", 1, 1e-12)
    far = CanonicalBlock("H", 1, 1e-6)
    _, ob = offdiag_block(b1, near)
    assert ob.any()  # within default tolerance: treated as equal
    _, ob = offdiag_block(b1, far)
    assert not ob.any()
    _, ob = offdiag_block(b1, near, lambda_tol=0.0)
    assert not ob.any()  # exact comparison


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


def test_pattern_accessors():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0),))
    pat = assemble(st)
    assert pat.independent_stars() == [(1, 0, 1)]
    js = pat.to_json()
    assert js["params"] == 1 and js["maskB"][0][1] == 1


def test_pattern_copies_the_callers_masks():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0), CanonicalBlock("L", 1)))
    ref = assemble(st)
    a, b = ref.mask_a.astype(int), ref.mask_b.astype(int)
    pat = StarPattern(st.dim, a, b)
    assert a.flags.writeable and b.flags.writeable
    assert not pat.mask_a.flags.writeable and pat.mask_a.dtype == bool
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

    st = CanonicalStructure((h(1.2e-10), h(0.0, 2), h(0.6e-10), h(1j), h(1j + 5e-11), h(1.0),
                             CanonicalBlock("K", 1), CanonicalBlock("L", 0)))
    snapped = snap_eigenvalues(st, 1e-10)
    # the chain 0, 0.6e-10, 1.2e-10 is one cluster, set to its first member 0;
    # i and i + 5e-11 snap to i, which comes first in canonical order
    assert snapped == CanonicalStructure((h(0.0, 2), h(0.0), h(0.0), h(1j), h(1j), h(1.0),
                                          CanonicalBlock("K", 1), CanonicalBlock("L", 0)))
    assert snap_eigenvalues(snapped, 1e-10) == snapped
    assert snap_eigenvalues(st, 0) == st
    assert snap_eigenvalues(st, 1e-11) == st
    # after snapping, distinct eigenvalues are farther apart than the tolerance
    lams = {b.lam for b in snapped.blocks if b.kind == "H"}
    assert all(abs(a - b) > 1e-10 for a in lams for b in lams if a != b)
