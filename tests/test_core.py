import json
import warnings

import numpy as np
import pytest

from skewpencil import (
    CanonicalBlock,
    CanonicalStructure,
    SkewPair,
    congruence,
    direct_sum,
    frobenius_off_pattern,
    make_F,
    make_G,
    make_block,
    make_jordan,
    make_structure_pair,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    pair_to_json,
    structure_from_json,
    structure_to_json,
)


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


def test_off_pattern_norm():
    mask = np.array([[False, True], [True, False]])
    M = np.array([[0, 7], [-7, 0]], dtype=complex)
    assert frobenius_off_pattern(M, mask) == 0
    assert frobenius_off_pattern(M, np.zeros((2, 2), dtype=bool)) == pytest.approx(np.sqrt(98))
    with pytest.raises(ValueError):
        frobenius_off_pattern(M, np.zeros((3, 3), dtype=bool))


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


def test_structure_json_round_trip():
    st = CanonicalStructure((
        CanonicalBlock("H", 2, -1j),
        CanonicalBlock("K", 1),
        CanonicalBlock("L", 0),
    ))
    obj = structure_to_json(st)
    assert {"kind": "L", "n": 0} in obj["blocks"]
    assert structure_from_json(obj) == st


def test_matrix_json_bad_entry_count():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": [[0.0, 0.0]]})


def test_matrix_json_keeps_signed_zeros():
    M = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [1e-300 + 3j, complex(-0.0, -2.5)]])
    out = matrix_to_json(M)
    assert json.dumps(out) == json.dumps(
        {"rows": 2, "cols": 2, "entries": [[float(z.real), float(z.imag)] for z in M.ravel()]})
    assert matrix_from_json(json.loads(json.dumps(out))).tobytes() == M.tobytes()


@pytest.mark.parametrize("entry", [[True, 0], ["1", 0], [1, None], [1], [1, 2, 3], [[1], 2], 1, "ab", None])
def test_matrix_json_rejects_non_number_entries(entry):
    with pytest.raises(ValueError, match="pair of numbers"):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [[0.0, 1.0], entry]})


def test_matrix_json_entry_too_large():
    with pytest.raises(ValueError, match="too large"):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [[10 ** 400, 0]]})
