import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from skewpencil import (
    CanonicalBlock,
    CanonicalStructure,
    DirectSumError,
    SkewPair,
    StarPattern,
    assemble,
    congruence,
    enumerate_structures,
    float_rank,
    global_from_pairwise,
    make_block,
    make_structure_pair,
    project_to_pattern,
    tangent_map,
    verify_direct_sum,
    verify_pairwise,
)

from skewpencil import tangent as tangent_module
from skewpencil.tangent import OffPatternSolver, _chart, _exact_tangent_columns

from helpers import (
    brute_tangent_matrix,
    dense_min_norm_projection,
    pairwise_reports_unmemoised,
    random_skew_pair,
    svd_rank,
)


def empty_pattern(n):
    return StarPattern(n, np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool))


def test_tangent_zero_pair():
    pair = SkewPair(np.zeros((3, 3)), np.zeros((3, 3)))
    tm = tangent_map(pair)
    assert tm.matrix.shape == (6, 9)
    assert not tm.matrix.any()
    assert float_rank(tm.matrix) == 0


def test_tangent_H1summand_columns():
    # for ([[0,1],[-1,0]], 0) the E_12 column vanishes; E_11 moves the A part
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    tm = tangent_map(pair).matrix
    col_e12 = tm[:, 0 * 2 + 1]
    assert not col_e12.any()
    col_e11 = tm[:, 0]
    assert col_e11.tolist() == [1, 0]
    assert float_rank(tm) == 1


@pytest.mark.parametrize("blocks", [
    (CanonicalBlock("H", 2, 1j),),
    (CanonicalBlock("K", 2),),
    (CanonicalBlock("L", 1), CanonicalBlock("L", 0)),
    (CanonicalBlock("H", 1, -1.0), CanonicalBlock("K", 1), CanonicalBlock("L", 1)),
])
def test_tangent_matches_brute_oracle(blocks):
    pair = make_structure_pair(CanonicalStructure(blocks))
    assert np.array_equal(tangent_map(pair).matrix, brute_tangent_matrix(pair))


@pytest.mark.parametrize("n", [2, 5])
def test_tangent_matches_brute_oracle_dense(n):
    pair = random_skew_pair(np.random.default_rng(40 + n), n)
    assert np.array_equal(tangent_map(pair).matrix, brute_tangent_matrix(pair))


def test_tangent_rank_congruence_invariant():
    rng = np.random.default_rng(41)
    st = CanonicalStructure((CanonicalBlock("H", 1, 1.0), CanonicalBlock("L", 1)))
    pair = make_structure_pair(st)
    base_rank = svd_rank(brute_tangent_matrix(pair))
    for _ in range(5):
        n = pair.n
        S = np.eye(n) + 0.25 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        moved = congruence(pair, S)
        assert svd_rank(brute_tangent_matrix(moved)) == base_rank


def test_verify_L3():
    st = CanonicalStructure((CanonicalBlock("L", 3),))
    rep = verify_direct_sum(make_structure_pair(st), assemble(st))
    assert rep.rank_t == 42 and rep.params_p == 0 and rep.ambient == 42
    assert rep.intersection_dim == 0 and rep.direct_sum_ok


def test_verify_H1():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0),))
    rep = verify_direct_sum(make_structure_pair(st), assemble(st))
    assert (rep.rank_t, rep.params_p, rep.ambient) == (1, 1, 2)
    assert rep.direct_sum_ok


def test_verify_H1_empty_pattern_fails():
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    rep = verify_direct_sum(pair, empty_pattern(2))
    assert not rep.direct_sum_ok
    assert rep.rank_t == 1 and rep.params_p == 0 and rep.ambient == 2


def test_verify_overfull_pattern_reports_intersection():
    # starring a direction already inside the tangent space
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    mask_a = np.array([[False, True], [True, False]])
    pat = StarPattern(2, mask_a, np.zeros((2, 2), dtype=bool))
    rep = verify_direct_sum(pair, pat)
    assert rep.intersection_dim == 1
    assert not rep.direct_sum_ok


def test_verify_backends_agree():
    for st in enumerate_structures(4):
        pair = make_structure_pair(st)
        pat = assemble(st)
        exact = verify_direct_sum(pair, pat, backend="exact")
        flt = verify_direct_sum(pair, pat, backend="float")
        assert exact == flt
        assert exact.direct_sum_ok


def test_verify_backends_agree_off_canonical():
    # non-canonical Gaussian-integer pairs of varying sparsity, so that the
    # tangent rank and the intersection both vary
    rng = np.random.default_rng(42)

    def skew(n, density):
        M = rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))
        M = np.triu(M * (rng.random((n, n)) < density), 1)
        return M - M.T

    seen = set()
    for n in range(3, 7):
        structures = [st for st in enumerate_structures(n) if st.dim == n]
        for density in (0.3, 0.6, 0.9) * 2:
            pair = SkewPair(skew(n, density), skew(n, density))
            pat = assemble(structures[rng.integers(len(structures))])
            exact = verify_direct_sum(pair, pat, backend="exact")
            flt = verify_direct_sum(pair, pat, backend="float")
            assert (exact.rank_t, exact.intersection_dim) == (flt.rank_t, flt.intersection_dim)
            seen.add((exact.rank_t < exact.ambient, exact.intersection_dim > 0))
    assert len(seen) == 4


def test_verify_exact_at_n60():
    # repeated block pairs and an imaginary eigenvalue, so the exact ranks
    # run on realified rows at a size far beyond the corpus
    st = CanonicalStructure((CanonicalBlock("H", 2, 0.0),) * 8 + (CanonicalBlock("L", 1),) * 8
                            + (CanonicalBlock("H", 1, 1j),) * 2)
    pair, pat = make_structure_pair(st), assemble(st)
    assert pair.n == 60 and np.any(pair.B.imag)
    rep = verify_direct_sum(pair, pat)
    assert rep.direct_sum_ok
    assert rep.rank_t == 60 * 59 - pat.params


def test_verify_dimension_mismatch():
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    with pytest.raises(ValueError):
        verify_direct_sum(pair, empty_pattern(3))
    with pytest.raises(ValueError):
        verify_direct_sum(pair, empty_pattern(2), backend="symbolic")


def test_project_zero():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0),))
    base, pat = make_structure_pair(st), assemble(st)
    D, S = project_to_pattern(base, pat, SkewPair(np.zeros((2, 2)), np.zeros((2, 2))))
    assert D.norm() == 0 and np.linalg.norm(S) == 0


def test_project_pattern_form_is_fixed():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0), CanonicalBlock("L", 1)))
    base, pat = make_structure_pair(st), assemble(st)
    # put values on the stars only
    stars = pat.independent_stars()
    assert stars
    A = np.zeros((pat.n, pat.n), dtype=complex)
    B = np.zeros((pat.n, pat.n), dtype=complex)
    for k, (w, i, j) in enumerate(stars, start=1):
        M = A if w == 0 else B
        M[i, j] = k
        M[j, i] = -k
    C = SkewPair(A, B)
    D, S = project_to_pattern(base, pat, C)
    assert (D - C).norm() < 1e-12
    assert np.linalg.norm(S) < 1e-12  # minimum-norm witness of the trivial move


def test_project_tangent_element_vanishes():
    rng = np.random.default_rng(8)
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0), CanonicalBlock("H", 1, 0.0)))
    base, pat = make_structure_pair(st), assemble(st)
    n = base.n
    for _ in range(10):
        S0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        C = SkewPair(S0.T @ base.A + base.A @ S0, S0.T @ base.B + base.B @ S0)
        D, _ = project_to_pattern(base, pat, C)
        assert D.norm() < 1e-10


def test_project_idempotent_and_linear():
    rng = np.random.default_rng(9)
    st = CanonicalStructure((CanonicalBlock("K", 1), CanonicalBlock("L", 1)))
    base, pat = make_structure_pair(st), assemble(st)
    C1 = random_skew_pair(rng, base.n, scale=1.0)
    C2 = random_skew_pair(rng, base.n, scale=1.0)
    D1, _ = project_to_pattern(base, pat, C1)
    D2, _ = project_to_pattern(base, pat, C2)
    Dagain, _ = project_to_pattern(base, pat, D1)
    assert (Dagain - D1).norm() < 1e-9
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    combo = SkewPair(a * C1.A + b * C2.A, a * C1.B + b * C2.B)
    Dc, _ = project_to_pattern(base, pat, combo)
    expected = SkewPair(a * D1.A + b * D2.A, a * D1.B + b * D2.B)
    assert (Dc - expected).norm() < 1e-9


def test_project_raises_without_direct_sum():
    # empty pattern cannot absorb the off-orbit direction of this pair
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    C = SkewPair(np.zeros((2, 2)), np.array([[0, 1], [-1, 0]], dtype=complex))
    with pytest.raises(DirectSumError) as err:
        project_to_pattern(pair, empty_pattern(2), C)
    assert err.value.report is not None
    assert not err.value.report.direct_sum_ok


def test_pairwise_H1_L0():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0), CanonicalBlock("L", 0)))
    reports = verify_pairwise(st)
    assert [(r.i, r.j) for r in reports] == [(0, 0), (1, 1), (0, 1)]
    assert all(r.report.direct_sum_ok for r in reports)


def test_pairwise_L2_L1():
    st = CanonicalStructure((CanonicalBlock("L", 1), CanonicalBlock("L", 2)))
    # canonical order puts L_2 first
    assert [b.n for b in st.blocks] == [2, 1]
    reports = verify_pairwise(st)
    assert all(r.report.direct_sum_ok for r in reports)
    pairwise = [r for r in reports if r.i != r.j][0].report
    # off-diagonal contribution: 1 star in A, 4 in B (hook plus cap)
    assert pairwise.params_p == 5
    assert assemble(st).params == 5


def test_pairwise_single_block():
    st = CanonicalStructure((CanonicalBlock("K", 2),))
    reports = verify_pairwise(st)
    assert len(reports) == 1 and reports[0].i == reports[0].j == 0
    assert reports[0].report.direct_sum_ok


# the benchmark's verify ladder as (kind, size, eigenvalue, multiplicity),
# plus one structure of dimension 210
LADDER = {
    "n10": (("H", 1, 0, 1), ("H", 1, 1, 1), ("K", 1, 0, 1), ("L", 1, 0, 1), ("L", 0, 0, 1)),
    "n21": (("H", 2, 0, 1), ("H", 1, 0, 1), ("H", 1, 1, 1), ("K", 2, 0, 1), ("K", 1, 0, 2),
            ("L", 1, 0, 1), ("L", 0, 0, 2)),
    "n35": (("H", 2, 0, 3), ("H", 2, 1, 1), ("H", 1, 1, 2), ("K", 1, 0, 2), ("L", 1, 0, 3),
            ("L", 0, 0, 2)),
    "n45i": (("H", 2, 0, 3), ("H", 2, 1, 2), ("H", 1, 1j, 2), ("K", 2, 0, 2), ("K", 1, 0, 1),
             ("L", 1, 0, 3), ("L", 0, 0, 2)),
    "n56": (("H", 2, 0, 8), ("L", 1, 0, 8)),
    "n210": (("H", 2, 0, 20), ("L", 1, 0, 20), ("H", 1, 1j, 10), ("K", 2, 0, 10), ("L", 0, 0, 10)),
}


def ladder_structure(name):
    return CanonicalStructure(tuple(
        CanonicalBlock(kind, n, lam) for kind, n, lam, mult in LADDER[name] for _ in range(mult)))


def test_global_from_pairwise_on_corpus():
    for st in enumerate_structures(8):
        pair, pat = make_structure_pair(st), assemble(st)
        backends = ("exact", "float") if st.dim <= 6 else ("exact",)
        for backend in backends:
            derived = global_from_pairwise(st.dim, verify_pairwise(st, backend))
            assert derived == verify_direct_sum(pair, pat, backend), (st, backend)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_global_from_pairwise_on_ladder(name):
    st = ladder_structure(name)
    assert st.dim == int(name[1:].rstrip("i"))
    derived = global_from_pairwise(st.dim, verify_pairwise(st))
    assert derived == verify_direct_sum(make_structure_pair(st), assemble(st))
    assert derived.direct_sum_ok


def test_pairwise_checks_each_distinct_substructure_once(monkeypatch):
    st = ladder_structure("n56")
    calls = []

    def counting(pair, pattern, backend="exact"):
        calls.append(pair.n)
        return verify_direct_sum(pair, pattern, backend)

    monkeypatch.setattr(tangent_module, "verify_direct_sum", counting)
    reports = verify_pairwise(st)
    # H_2(0), L_1, and the pairs H_2 H_2, H_2 L_1, L_1 L_1
    assert sorted(calls) == [3, 4, 6, 7, 8]
    monkeypatch.undo()
    assert reports == pairwise_reports_unmemoised(st)


@pytest.mark.parametrize("n", range(7))
def test_exact_tangent_columns_match_brute_oracle(n):
    rng = np.random.default_rng(60 + n)

    def skew():
        M = np.triu(rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n)), 1)
        return M - M.T

    pair = SkewPair(skew(), skew())
    T = brute_tangent_matrix(pair)
    expected = [{int(k): (int(T[k, c].real), int(T[k, c].imag)) for k in np.flatnonzero(T[:, c])}
                for c in range(n * n) if T[:, c].any()]
    assert _exact_tangent_columns(pair) == expected


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
CORPUS_6 = enumerate_structures(6)


@PROPERTY
@given(hs.data())
def test_exact_report_permutation_invariant_and_equal_to_float(data):
    # a simultaneous permutation of the pair and the pattern spreads each
    # block over non-contiguous rows and columns
    st = data.draw(hs.sampled_from(CORPUS_6))
    pair, pat = make_structure_pair(st), assemble(st)
    perm = data.draw(hs.permutations(range(st.dim)))
    ix = np.ix_(perm, perm)
    moved = SkewPair(pair.A[ix], pair.B[ix])
    moved_pat = StarPattern(st.dim, pat.mask_a[ix], pat.mask_b[ix])
    exact = verify_direct_sum(pair, pat)
    assert verify_direct_sum(moved, moved_pat) == exact
    assert verify_direct_sum(pair, pat, backend="float") == exact
    assert verify_direct_sum(moved, moved_pat, backend="float") == exact


@PROPERTY
@given(hs.sampled_from(CORPUS_6), hs.integers(0, 2 ** 32 - 1),
       hs.lists(hs.floats(0.5, 2.0), min_size=6, max_size=6))
def test_tangent_rank_invariant_under_random_congruence(st, seed, singular_values):
    # S = U diag(sigma) V with unitary U, V and sigma in [0.5, 2], so cond(S) <= 4
    rng = np.random.default_rng(seed)
    n = st.dim

    def unitary():
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return Q

    S = unitary() @ np.diag(singular_values[:n]) @ unitary()
    moved = congruence(make_structure_pair(st), S)
    assert float_rank(tangent_map(moved).matrix) == n * (n - 1) - assemble(st).params


@PROPERTY
@given(hs.sampled_from(CORPUS_6), hs.booleans(), hs.integers(0, 2 ** 32 - 1))
def test_projection_equals_dense_min_norm_witness(st, moved, seed):
    # the base chart's X = T^H G^-1 (-c) is the dense minimum-norm lstsq solution, at the
    # canonical base and at a congruence-moved base, whose nonzero graph is one piece
    rng = np.random.default_rng(seed)
    n = st.dim
    base, pat = make_structure_pair(st), assemble(st)
    if moved:
        base = congruence(base, np.eye(n) + 0.2 * (rng.standard_normal((n, n))
                                                   + 1j * rng.standard_normal((n, n))))
    C = random_skew_pair(rng, n, scale=1.0 if n > 1 else None)
    D, S = project_to_pattern(base, pat, C)
    S_ref = dense_min_norm_projection(base, pat, C)
    assert np.linalg.norm(S - S_ref) <= 1e-12 * max(1.0, np.linalg.norm(S_ref))
    assert np.linalg.norm(D.A[~pat.mask_a]) + np.linalg.norm(D.B[~pat.mask_b]) <= 1e-12


def test_chart_memo_follows_content():
    rng = np.random.default_rng(51)
    st1 = CanonicalStructure((CanonicalBlock("H", 2, 0.0), CanonicalBlock("L", 1)))
    st2 = CanonicalStructure((CanonicalBlock("K", 2), CanonicalBlock("H", 1, 1.0), CanonicalBlock("L", 0)))
    b1, p1 = make_structure_pair(st1), assemble(st1)
    b2, p2 = make_structure_pair(st2), assemble(st2)
    # a second pattern on b1: one more star pair, so fewer off rows
    i, j = next((i, j) for i, j in zip(*np.nonzero(~p1.mask_a)) if i < j)
    extra = p1.mask_a.copy()
    extra[i, j] = extra[j, i] = True
    p1x = StarPattern(p1.n, extra, p1.mask_b.copy())
    cases = [(b1, p1), (b2, p2), (b1, p1x)]
    inputs = [random_skew_pair(rng, b.n, scale=1.0) for b, _ in cases]
    fresh = [OffPatternSolver(b, p).project(C) for (b, p), C in zip(cases, inputs)]
    for _ in range(2):  # alternating bases and patterns rebuilds the one slot each time
        for (b, p), C, X in zip(cases, inputs, fresh):
            assert np.array_equal(project_to_pattern(b, p, C)[1], X)
    chart = _chart(b1, p1)
    # equal content in new objects reuses the chart
    again = _chart(SkewPair(b1.A.copy(), b1.B.copy()), StarPattern(p1.n, p1.mask_a.copy(), p1.mask_b.copy()))
    assert again is chart
    assert _chart(b1, p1x) is not chart
    assert _chart(b1, p1) is not chart  # one slot: p1x replaced it
