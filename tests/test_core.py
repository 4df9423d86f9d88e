import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from skewpencil import (
    CanonicalBlock,
    CanonicalStructure,
    SkewPair,
    assemble,
    congruence,
    direct_sum,
    enumerate_structures,
    global_from_pairwise,
    make_F,
    make_G,
    make_block,
    make_jordan,
    make_structure_pair,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    pair_to_json,
    reduce_pair,
    structure_from_json,
    structure_to_json,
    verify_pairwise,
)
from skewpencil import core as core_module
from skewpencil.cli import main
from skewpencil.core import SKEW_RTOL, _components, dump_json

from helpers import random_skew_pair


def test_jordan_1x1():
    assert np.array_equal(make_jordan(1, 5), np.array([[5.0 + 0j]]))


def test_jordan_2x2_nilpotent():
    assert np.array_equal(make_jordan(2, 0), np.array([[0, 1], [0, 0]], dtype=complex))


def test_jordan_3x3_shape():
    J = make_jordan(3, 2)
    assert J[1, 2] == 1
    assert J[2, 0] == 0
    assert np.all(np.diag(J) == 2)


def test_jordan_rejects_zero_size():
    with pytest.raises(ValueError):
        make_jordan(0, 1.0)


def test_F_G_degenerate():
    assert make_F(0).shape == (0, 1)
    assert make_G(0).shape == (0, 1)


def test_F_G_small():
    assert np.array_equal(make_F(1), np.array([[1, 0]], dtype=complex))
    assert np.array_equal(make_G(1), np.array([[0, 1]], dtype=complex))
    F2, G2 = make_F(2), make_G(2)
    assert F2[0, 0] == 1 and F2[1, 1] == 1 and F2.sum() == 2
    assert G2[0, 1] == 1 and G2[1, 2] == 1 and G2.sum() == 2


def test_block_H1():
    lam = 2.5 - 1.5j
    pair = make_block(CanonicalBlock("H", 1, lam))
    assert np.array_equal(pair.A, np.array([[0, 1], [-1, 0]], dtype=complex))
    assert np.array_equal(pair.B, np.array([[0, lam], [-lam, 0]], dtype=complex))


def test_block_L0():
    pair = make_block(CanonicalBlock("L", 0))
    assert pair.n == 1
    assert pair.A[0, 0] == 0 and pair.B[0, 0] == 0


def test_block_K1():
    pair = make_block(CanonicalBlock("K", 1))
    assert np.array_equal(pair.A, np.zeros((2, 2), dtype=complex))
    assert np.array_equal(pair.B, np.array([[0, 1], [-1, 0]], dtype=complex))


@pytest.mark.parametrize("block", [
    CanonicalBlock("H", 3, 1j),
    CanonicalBlock("K", 2),
    CanonicalBlock("L", 2),
])
def test_blocks_exactly_skew(block):
    pair = make_block(block)
    assert np.array_equal(pair.A, -pair.A.T)
    assert np.array_equal(pair.B, -pair.B.T)
    assert pair.n == block.dim


def test_block_validation():
    with pytest.raises(ValueError):
        CanonicalBlock("H", 0, 1.0)
    with pytest.raises(ValueError):
        CanonicalBlock("K", 0)
    with pytest.raises(ValueError):
        CanonicalBlock("L", -1)
    with pytest.raises(ValueError):
        CanonicalBlock("X", 1)
    with pytest.raises(ValueError):
        CanonicalBlock("K", 1, 2.0)
    for n in (2.0, 1.5, True, "2"):
        with pytest.raises(ValueError, match="block size n must be an integer"):
            CanonicalBlock("H", n)
    for lam in (complex("nan"), complex(0, float("inf"))):
        with pytest.raises(ValueError):
            CanonicalBlock("H", 1, lam)


def test_direct_sum_empty():
    pair = direct_sum([])
    assert pair.n == 0


def test_direct_sum_two_blocks():
    h = make_block(CanonicalBlock("H", 1, 0.0))
    pair = direct_sum([h, h])
    assert pair.n == 4
    assert np.array_equal(pair.A[:2, :2], h.A)
    assert np.array_equal(pair.A[2:, 2:], h.A)
    assert np.all(pair.A[:2, 2:] == 0)


def test_direct_sum_zero_blocks():
    l0 = make_block(CanonicalBlock("L", 0))
    pair = direct_sum([l0, l0])
    assert pair.n == 2
    assert np.all(pair.A == 0) and np.all(pair.B == 0)


def test_congruence_identity():
    pair = make_block(CanonicalBlock("H", 2, 1.0))
    out = congruence(pair, np.eye(4))
    assert np.allclose(out.A, pair.A) and np.allclose(out.B, pair.B)


def test_congruence_diagonal():
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    out = congruence(pair, np.diag([2.0, 1.0]))
    assert np.allclose(out.A, [[0, 2], [-2, 0]])
    assert np.allclose(out.B, np.zeros((2, 2)))


def test_congruence_round_trip():
    rng = np.random.default_rng(3)
    pair = make_block(CanonicalBlock("K", 2))
    S = np.eye(4) + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    back = congruence(congruence(pair, S), np.linalg.inv(S))
    assert np.linalg.norm(back.A - pair.A) < 1e-10
    assert np.linalg.norm(back.B - pair.B) < 1e-10


def test_congruence_dim_mismatch():
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    with pytest.raises(ValueError):
        congruence(pair, np.eye(3))


def test_congruence_singular_warns():
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    with pytest.warns(UserWarning):
        congruence(pair, np.zeros((2, 2)))
    # cond(S) = 1e13 is finite but above 1e12; ||S - I||_F is about 1, so it is computed
    with pytest.warns(UserWarning, match="ill-conditioned"):
        congruence(pair, np.diag([1.0, 1e-13]))


def test_congruence_near_identity_skips_condition_number(monkeypatch):
    # ||S - I||_F <= 1/2 bounds cond(S) by 3, so no SVD is taken and nothing warns
    pair = make_block(CanonicalBlock("H", 1, 0.0))

    def no_cond(S):
        raise AssertionError("np.linalg.cond called")

    monkeypatch.setattr(np.linalg, "cond", no_cond)
    S = np.eye(2) + np.array([[0.2, 0.2j], [-0.2, 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moved = congruence(pair, S)
    assert np.allclose(moved.A, S.T @ pair.A @ S)
    with pytest.raises(AssertionError, match="np.linalg.cond called"):
        congruence(pair, 2 * np.eye(2))


def test_skew_pair_rejects_non_skew():
    with pytest.raises(ValueError):
        SkewPair(np.eye(2), np.zeros((2, 2)))


def test_skew_pair_refuses_malformed_shapes():
    Z = np.zeros((2, 2))
    with pytest.raises(ValueError, match="A must be square"):
        SkewPair(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="A must be square"):
        SkewPair(np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="same shape"):
        SkewPair(Z, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="same shape"):
        SkewPair(Z, np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(np.nan, 0)])
def test_skew_pair_refuses_non_finite_entries(bad):
    M = np.zeros((3, 3), dtype=complex)
    M[0, 2], M[2, 0] = bad, -bad
    for A, B in ((M, np.zeros((3, 3))), (np.zeros((3, 3)), M)):
        with pytest.raises(ValueError, match="entries must be finite"):
            SkewPair(A, B)


@pytest.mark.parametrize("which", [0, 1])
def test_skew_pair_skew_tolerance_is_relative_per_matrix(which):
    # M = K + t Y with K skew of norm 5 and Y symmetric with ||Y + Y^T|| = 1, so
    # ||M + M^T|| = t against the bound SKEW_RTOL * max(1, ||M||), about 5e-12;
    # the other matrix, of norm 100, must not widen M's bound
    rng = np.random.default_rng(17)
    K = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    K = K - K.T
    K *= 5 / np.linalg.norm(K)
    Y = rng.standard_normal((4, 4))
    Y = Y + Y.T
    Y /= np.linalg.norm(Y + Y.T)
    bound = SKEW_RTOL * np.linalg.norm(K)
    other = 100 * K / 5
    for t, ok in ((0.99 * bound, True), (1.01 * bound, False)):
        M = K + t * Y
        args = (M, other) if which == 0 else (other, M)
        if ok:
            SkewPair(*args)
        else:
            with pytest.raises(ValueError, match="not skew-symmetric"):
                SkewPair(*args)


def test_skew_pair_is_read_only_and_leaves_the_callers_arrays_alone():
    A = np.array([[0, 1 + 2j], [-1 - 2j, 0]])
    B = np.array([[0, 3], [-3, 0]])  # integer input is converted
    pair = SkewPair(A, B)
    for M in (pair.A, pair.B):
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 1] = 7
    with pytest.raises(AttributeError):
        pair.A = A
    with pytest.raises(AttributeError):
        pair.B = B
    # the pair holds a copy: the caller's arrays stay writable and unaliased
    assert A.flags.writeable and B.flags.writeable
    assert not np.shares_memory(pair.A, A) and not np.shares_memory(pair.B, B)
    A[0, 1], A[1, 0] = 5, -5
    assert pair.A[0, 1] == 1 + 2j
    assert pair.n == 2 and pair.B.dtype == complex


@pytest.mark.parametrize("n", [0, 1, 3, 8, 21])
def test_congruence_matches_the_per_matrix_formula_bit_for_bit(n):
    rng = np.random.default_rng(100 + n)

    def skew():
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return M - M.T

    A, B = skew(), skew()
    S = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    moved = congruence(SkewPair(A, B), S)
    for got, X in ((moved.A, A), (moved.B, B)):
        M = S.T @ X @ S
        assert got.tobytes() == (0.5 * (M - M.T)).tobytes()
    total, diff = SkewPair(A, B) + moved, SkewPair(A, B) - moved
    assert total.A.tobytes() == (A + moved.A).tobytes() and total.B.tobytes() == (B + moved.B).tobytes()
    assert diff.A.tobytes() == (A - moved.A).tobytes() and diff.B.tobytes() == (B - moved.B).tobytes()


def test_structure_canonical_order():
    blocks = (
        CanonicalBlock("L", 0),
        CanonicalBlock("K", 2),
        CanonicalBlock("H", 1, 1.0),
        CanonicalBlock("H", 2, 1.0),
        CanonicalBlock("H", 1, -1.0),
        CanonicalBlock("L", 1),
        CanonicalBlock("K", 1),
    )
    st = CanonicalStructure(blocks)
    kinds = [(b.kind, b.n, b.lam) for b in st.blocks]
    assert kinds == [
        ("H", 1, -1 + 0j),
        ("H", 2, 1 + 0j),
        ("H", 1, 1 + 0j),
        ("K", 2, 0j),
        ("K", 1, 0j),
        ("L", 1, 0j),
        ("L", 0, 0j),
    ]
    assert st.dim == 2 + 4 + 2 + 4 + 2 + 3 + 1
    assert st.block_offsets() == [0, 2, 6, 8, 12, 14, 17]


def _breadth_first_labels(adj: np.ndarray) -> list[int]:
    """Component labels by breadth-first search from each unlabelled vertex in index order."""
    label = [-1] * len(adj)
    count = 0
    for s in range(len(adj)):
        if label[s] < 0:
            label[s] = count
            queue = [s]
            for v in queue:
                for u in np.flatnonzero(adj[v]).tolist():
                    if label[u] < 0:
                        label[u] = count
                        queue.append(u)
            count += 1
    return label


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hs.integers(0, 30), hs.floats(0, 0.3), hs.booleans(), hs.integers(0, 2 ** 32 - 1))
def test_components_match_breadth_first_search(n, density, diagonal, seed):
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
    adj = upper | upper.T
    np.fill_diagonal(adj, diagonal)
    # components are numbered 0, 1, ... by smallest member, as the search finds them
    assert _components(adj).tolist() == _breadth_first_labels(adj)


def test_structure_without_close_eigenvalues_runs_no_clustering(monkeypatch):
    # eigenvalues more than LAMBDA_TOL apart take only the pairwise scan
    monkeypatch.setattr(core_module, "_components", None)
    for st in enumerate_structures(6):
        assert CanonicalStructure(st.blocks[::-1]) == st


def test_structure_pair_dim():
    st = CanonicalStructure((CanonicalBlock("L", 1), CanonicalBlock("H", 1, 1j)))
    pair = make_structure_pair(st)
    assert pair.n == st.dim == 5


def test_matrix_json_round_trip():
    M = np.array([[1 + 2j, 0], [-3j, 4]], dtype=complex)
    out = matrix_from_json(json.loads(json.dumps(matrix_to_json(M))))
    assert np.array_equal(out, M)


def test_pair_json_round_trip():
    pair = make_block(CanonicalBlock("H", 2, 1j))
    out = pair_from_json(pair_to_json(pair))
    assert np.array_equal(out.A, pair.A) and np.array_equal(out.B, pair.B)


def test_pair_json_reads_n():
    good = pair_to_json(make_block(CanonicalBlock("H", 1, 0.0)))
    assert pair_from_json(dict(good, n=np.int64(2))).n == 2
    with pytest.raises(ValueError, match="pair size n is 7, but A and B are 2x2"):
        pair_from_json(dict(good, n=7))
    for n in ("2", 2.0, True, None):
        with pytest.raises(ValueError, match="pair size n must be an integer"):
            pair_from_json(dict(good, n=n))
    with pytest.raises(ValueError, match="pair is missing key 'n'"):
        pair_from_json({"A": good["A"], "B": good["B"]})


def test_structure_json_round_trip():
    st = CanonicalStructure((
        CanonicalBlock("H", 2, -1j),
        CanonicalBlock("K", 1),
        CanonicalBlock("L", 0),
        CanonicalBlock("L", np.int64(2)),
    ))
    obj = structure_to_json(st)
    assert {"kind": "L", "n": 0} in obj["blocks"]
    assert structure_from_json(obj) == st
    assert structure_from_json(json.loads(dump_json(obj))) == st
    assert all(type(b.n) is int for b in st.blocks)


def test_matrix_json_bad_entry_count():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[0.0, 0.0]]})


def test_json_refuses_negative_sizes_and_non_h_eigenvalues():
    with pytest.raises(ValueError, match="rows and cols must be >= 0"):
        matrix_from_json({"rows": -1, "cols": -1, "entries": [[0.0, 0.0]]})
    for kind in ("K", "L"):
        with pytest.raises(ValueError, match="only meaningful for H"):
            structure_from_json({"blocks": [{"kind": kind, "n": 1, "lambda": [5, 0]}]})


def test_matrix_json_keeps_signed_zeros():
    M = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [1e-300 + 3j, complex(-0.0, -2.5)]])
    out = matrix_to_json(M)
    assert json.dumps(out) == json.dumps(
        {"rows": 2, "cols": 2, "entries": [[float(z.real), float(z.imag)] for z in M.ravel()]})
    assert matrix_from_json(json.loads(json.dumps(out))).tobytes() == M.tobytes()


@pytest.mark.parametrize("lam", [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                                 complex(2.5, -0.0), complex(-0.0, -1.0)])
def test_equal_eigenvalues_with_signed_zeros_build_equal_bytes(lam):
    # a block is equal to, and hashes as, the block with +0.0 in place of -0.0,
    # so every builder gives the two the same bytes
    plus = CanonicalBlock("H", 2, complex(lam.real + 0.0, lam.imag + 0.0))
    block = CanonicalBlock("H", 2, lam)
    assert block == plus and hash(block) == hash(plus)
    assert make_block(block)._AB.tobytes() == make_block(plus)._AB.tobytes()
    sums = [CanonicalStructure((b, CanonicalBlock("H", 1, 0.0), CanonicalBlock("L", 1))) for b in (block, plus)]
    assert make_structure_pair(sums[0])._AB.tobytes() == make_structure_pair(sums[1])._AB.tobytes()
    assert assemble(sums[0])._masks.tobytes() == assemble(sums[1])._masks.tobytes()
    assert dump_json(structure_to_json(sums[0])) == dump_json(structure_to_json(sums[1]))
    assert "-0.0" not in dump_json(structure_to_json(sums[0]))


def test_cli_documents_render_as_plain_sorted_json(tmp_path, capsys):
    structure = CanonicalStructure((CanonicalBlock("H", 2, 0.0), CanonicalBlock("H", 1, 1j),
                                    CanonicalBlock("K", 1), CanonicalBlock("L", 1)))
    base = make_structure_pair(structure)
    perturbed = base + random_skew_pair(np.random.default_rng(7), base.n, scale=1e-3)
    trace = reduce_pair(base, perturbed, assemble(structure))
    pairwise = verify_pairwise(structure)
    report = {"n": structure.dim, "global": global_from_pairwise(structure.dim, pairwise).to_json(),
              "pairwise": [e.to_json() for e in pairwise], "all_ok": True}
    for obj in (trace.to_json(), report):
        assert dump_json(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    # verify prints, with either backend, the document built row by row from the library reports;
    # 8 H_2(0) + 8 L_1 repeats its block pairs, 2 H_1(i) + H_2(0) + 2 L_1 also realifies
    for blocks in ((CanonicalBlock("H", 2, 0.0),) * 8 + (CanonicalBlock("L", 1),) * 8,
                   (CanonicalBlock("H", 1, 1j),) * 2 + (CanonicalBlock("H", 2, 0.0),) + (CanonicalBlock("L", 1),) * 2):
        structure = CanonicalStructure(blocks)
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(structure_to_json(structure)))
        for backend in ("exact", "float"):
            pairwise = verify_pairwise(structure, backend=backend)
            glob = global_from_pairwise(structure.dim, pairwise)
            report = {"n": structure.dim, "global": glob.to_json(), "pairwise": [e.to_json() for e in pairwise],
                      "all_ok": glob.direct_sum_ok and all(e.report.direct_sum_ok for e in pairwise)}
            assert main(["verify", str(path), "--backend", backend]) == 0
            assert capsys.readouterr() == (dump_json(report) + "\n", "")
    # the float view gives the entries of a stacked (re, im) copy, for any memory layout
    S = trace.S.copy()
    S[0, 1] = complex(-0.0, -0.0)
    for M in (S, S.T, S[::2, 1:], np.asfortranarray(S), S.real, S.imag.astype(np.float32)):
        Z = np.asarray(M, dtype=complex)
        entries = np.stack((Z.real, Z.imag), -1).reshape(-1, 2).tolist()
        assert json.dumps(matrix_to_json(M)) == json.dumps({"rows": Z.shape[0], "cols": Z.shape[1],
                                                            "entries": entries})


@pytest.mark.parametrize("entry", [[True, 0], ["1", 0], [1, None], [1], [1, 2, 3], [[1], 2], 1, "ab", None])
def test_matrix_json_rejects_non_number_entries(entry):
    with pytest.raises(ValueError, match="pair of numbers"):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [[0.0, 1.0], entry]})


def test_matrix_json_entry_too_large():
    with pytest.raises(ValueError, match="too large"):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [[10 ** 400, 0]]})
