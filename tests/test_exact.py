import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from skewpencil import (CanonicalBlock, CanonicalStructure, SkewPair, assemble, make_block, make_structure_pair,
                        verify_direct_sum)
from skewpencil import exact as exact_module
from skewpencil.exact import _peel, gaussian_columns_rank, pair_to_gaussian_ints, sparse_int_rank

from helpers import dense_fraction_rank, svd_rank, unpeeled_columns_rank


def rows_from_dense(M):
    return [{j: int(v) for j, v in enumerate(row) if v} for row in M]


def test_sparse_rank_trivial():
    assert sparse_int_rank([]) == 0
    assert sparse_int_rank([{}, {}]) == 0
    assert sparse_int_rank([{0: 1}]) == 1
    assert sparse_int_rank([{0: 2, 1: 4}, {0: 1, 1: 2}]) == 1
    # rows made only of explicit zeros are zero rows
    assert sparse_int_rank([{0: 0}]) == 0
    assert sparse_int_rank([{0: 0, 1: 0}]) == 0


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def draw_low_rank(data, min_size, max_size, parts):
    """U @ V with U m-by-r and V r-by-n, for a drawn rank bound r <= min(m, n).

    ``parts`` are the unit multipliers summed into each factor: (1,) for
    integer matrices, (1, 1j) for Gaussian-integer ones.
    """
    m = data.draw(st.integers(min_size, max_size))
    n = data.draw(st.integers(min_size, max_size))
    r = data.draw(st.integers(0, min(m, n)))

    def factor(shape):
        return sum(data.draw(arrays(np.int64, shape, elements=st.integers(-4, 4))) * k
                   for k in parts)

    return factor((m, r)) @ factor((r, n))


@PROPERTY
@given(st.data())
def test_sparse_rank_vs_dense_fraction(data):
    M = draw_low_rank(data, 1, 8, (1,))
    expected = dense_fraction_rank([[Fraction(int(v)) for v in row] for row in M])
    rows = rows_from_dense(M)
    assert sparse_int_rank(rows) == expected
    assert rows == rows_from_dense(M)  # the input rows are left as they were
    # the rank ignores row order, a repeated row and an integer multiple of a row
    assert sparse_int_rank(data.draw(st.permutations(rows))) == expected
    k = data.draw(st.integers(0, len(rows) - 1))
    assert sparse_int_rank(rows + [rows[k]]) == expected
    f = data.draw(st.integers(-5, 5))
    assert sparse_int_rank(rows + [{c: f * v for c, v in rows[k].items()}]) == expected


def test_sparse_rank_vs_svd():
    rng = np.random.default_rng(17)
    for _ in range(20):
        M = rng.integers(-3, 4, size=(7, 9))
        assert sparse_int_rank(rows_from_dense(M)) == svd_rank(M.astype(complex))


def test_gaussian_columns_rank_real():
    cols = [{0: (1, 0), 1: (2, 0)}, {0: (2, 0), 1: (4, 0)}, {2: (1, 0)}]
    assert gaussian_columns_rank(cols) == 2


def test_gaussian_columns_rank_complex():
    # [1, i] and [i, -1] are parallel over C, independent over R
    cols = [{0: (1, 0), 1: (0, 1)}, {0: (0, 1), 1: (-1, 0)}]
    assert gaussian_columns_rank(cols) == 1
    cols.append({0: (1, 0), 1: (0, -1)})
    assert gaussian_columns_rank(cols) == 2


@PROPERTY
@given(st.data())
def test_gaussian_columns_rank_vs_svd(data):
    M = draw_low_rank(data, 2, 6, (1, 1j))
    cols = []
    for j in range(M.shape[1]):
        col = {}
        for i in range(M.shape[0]):
            v = M[i, j]
            if v != 0:
                col[i] = (int(v.real), int(v.imag))
        cols.append(col)
    expected = svd_rank(M)
    assert gaussian_columns_rank(cols) == expected
    assert gaussian_columns_rank(data.draw(st.permutations(cols))) == expected


def draw_peel_columns(data, real):
    """(m, columns) on keys 0..m-1, rich in what the unit-column peel handles.

    Unit columns, some repeated on one key; a chain {k0}, {k0, k1},
    {k1, k2}, ..., which peels one key per round; sparse columns with
    explicit zero entries; and zero unit columns.  Entries are tuples or
    lists, real when ``real`` is set.
    """
    m = data.draw(st.integers(1, 8))
    key = st.integers(0, m - 1)
    part = st.integers(-3, 3)
    pair = st.tuples(part, st.just(0) if real else part)
    entry = st.one_of(pair, pair.map(list))
    nonzero = entry.filter(lambda v: v[0] or v[1])
    zero = st.sampled_from([(0, 0), [0, 0]])
    cols = []
    for k in data.draw(st.lists(key, max_size=5)):
        cols += [{k: data.draw(nonzero)} for _ in range(data.draw(st.integers(1, 2)))]
    chain = data.draw(st.permutations(range(m)))[:data.draw(st.integers(0, m))]
    cols += [{chain[0]: data.draw(nonzero)}] if chain else []
    cols += [{a: data.draw(nonzero), b: data.draw(nonzero)} for a, b in zip(chain, chain[1:])]
    cols += data.draw(st.lists(st.dictionaries(key, st.one_of(entry, zero), min_size=1, max_size=3),
                               max_size=6))
    cols += [{k: data.draw(zero)} for k in data.draw(st.lists(key, max_size=2))]
    return m, data.draw(st.permutations(cols))


def without(keys, cols):
    return [{k: v for k, v in col.items() if k not in keys} for col in cols]


@PROPERTY
@given(st.data(), st.booleans())
def test_peeled_rank_equals_the_unpeeled_reference(data, real):
    m, cols = draw_peel_columns(data, real)
    # star keys S, with a unit column on a star key and, when there is room, a column
    # that becomes a unit column only once its star key is deleted
    stars = data.draw(st.sets(st.integers(0, m - 1)))
    nonzero = st.tuples(st.integers(1, 3), st.just(0) if real else st.integers(-3, 3))
    if stars:
        cols = cols + [{min(stars): data.draw(nonzero)}]
        free = sorted(set(range(m)) - stars)
        if len(stars) > 1 and free:
            cols.append({max(stars): data.draw(nonzero), free[0]: data.draw(nonzero)})
    before = copy.deepcopy(cols)
    rank = gaussian_columns_rank(cols)
    assert cols == before  # the caller's columns and entries are left as they were
    assert rank == unpeeled_columns_rank(cols)
    if real:
        M = [[Fraction(col.get(k, (0, 0))[0]) for col in cols] for k in range(m)]
        assert rank == dense_fraction_rank(M)
    # one peel serves the rank of the columns and that of the columns without S
    peeled, rest = _peel(cols)
    assert cols == before
    assert all(peeled.isdisjoint(col) for col in rest)
    assert len(peeled) + gaussian_columns_rank(rest) == rank
    assert len(peeled - stars) + gaussian_columns_rank(without(stars, rest)) == \
        unpeeled_columns_rank(without(stars, cols))
    assert cols == before


def test_gaussian_columns_rank_gives_every_row_to_one_elimination(monkeypatch):
    calls = []
    monkeypatch.setattr(exact_module, "sparse_int_rank", lambda rows: calls.append(rows) or sparse_int_rank(rows))
    # nothing is peeled: an imaginary part realifies each column v into the rows v and i*v,
    # an entry at key c going to keys 2c and 2c + 1; the zero column {3: (0, 0)} gives none
    chain = [{0: (2, 0)}, {0: (1, 0), 1: (0, 3)}, {1: [1, 1], 2: (5, 0)}, {3: (0, 0)},
             {2: (1, 0), 3: (1, 0), 4: (-1, 0)}]
    assert gaussian_columns_rank(chain) == 4
    assert calls == [[{0: 2}, {1: 2}, {0: 1, 3: 3}, {1: 1, 2: -3}, {2: 1, 3: 1, 4: 5},
                      {3: 1, 2: -1, 5: 5}, {4: 1, 6: 1, 8: -1}, {5: 1, 7: 1, 9: -1}]]
    calls.clear()
    assert gaussian_columns_rank([{0: (0, 1)}, {0: (1, 0), 1: (0, 1)}, {1: [0, 0]}]) == 2
    assert calls == [[{1: 1}, {0: -1}, {0: 1, 3: 1}, {1: 1, 2: -1}]]


def test_the_direct_sum_check_alone_peels(monkeypatch):
    # exact verify_direct_sum peels once per check, and no row that reaches the
    # elimination holds a peeled key (a realified key c stands for c // 2)
    peels, realified, rows = [], [], []

    def peel(columns):
        peels.append(out := _peel(columns))
        return out

    def rank(columns):
        realified.append(any(im for col in columns for (_, im) in col.values()))
        return gaussian_columns_rank(columns)

    monkeypatch.setattr(exact_module, "_peel", peel)
    monkeypatch.setattr(exact_module, "gaussian_columns_rank", rank)
    monkeypatch.setattr(exact_module, "sparse_int_rank", lambda r: rows.append(r) or sparse_int_rank(r))
    structures = [(CanonicalBlock("H", 2, 1j), CanonicalBlock("K", 2), CanonicalBlock("L", 1)),
                  (CanonicalBlock("H", 1, 1j), CanonicalBlock("H", 1, 1j), CanonicalBlock("L", 1))]
    for k, blocks in enumerate(structures, start=1):
        st = CanonicalStructure(blocks)
        assert verify_direct_sum(make_structure_pair(st), assemble(st)).direct_sum_ok
        assert len(peels) == k and len(realified) == len(rows) == 2 * k
    assert any(realified)
    for (peeled, _), real, rank_rows in zip([p for p in peels for _ in range(2)], realified, rows):
        assert peeled
        assert not any((c // 2 if real else c) in peeled for row in rank_rows for c in row)


def test_pair_to_gaussian_ints_lists_the_nonzero_index():
    st = CanonicalStructure((CanonicalBlock("H", 2, 1j), CanonicalBlock("K", 2), CanonicalBlock("L", 1)))
    pair = make_structure_pair(st)
    index, ints = pair_to_gaussian_ints(pair)
    expected = np.nonzero(pair._AB)
    assert len(index) == 3 and all(np.array_equal(a, b) for a, b in zip(index, expected))
    # integer entries: the common denominator is 1
    assert ints == [(int(z.real), int(z.imag)) for z in pair._AB[expected]]


def test_pair_to_gaussian_ints_scales_by_the_least_common_denominator():
    # H_1(0.1): A holds +-1 and B holds +-0.1 = +-3602879701896397 * 2**-55, so the
    # least common denominator is 2**55 and each entry is scaled exactly by it
    pair = make_block(CanonicalBlock("H", 1, 0.1))
    index, ints = pair_to_gaussian_ints(pair)
    assert 0.1 == Fraction(3602879701896397, 2 ** 55)
    assert pair._AB[index].tolist() == [1, -1, 0.1, -0.1]
    assert ints == [(2 ** 55, 0), (-(2 ** 55), 0), (3602879701896397, 0), (-3602879701896397, 0)]


def test_pair_to_gaussian_ints_does_not_list_negative_zeros():
    A = np.array([[0.0, -0.0, 2.0], [0.0, 0.0, -0.0], [-2.0, 0.0, 0.0]])
    B = np.array([[0.0, 0.5j, complex(-0.0, -0.0)], [-0.5j, 0.0, 0.0], [0.0, 0.0, 0.0]])
    pair = SkewPair(A, B)
    assert (np.signbit(pair._AB.real) & (pair._AB == 0)).sum() == 3  # the pair holds three -0.0 entries
    index, ints = pair_to_gaussian_ints(pair)
    assert [tuple(x.tolist()) for x in index] == [(0, 0, 1, 1), (0, 2, 0, 1), (2, 0, 1, 0)]
    # the least common denominator of 2 and 0.5i is 2
    assert ints == [(4, 0), (-4, 0), (0, 1), (0, -1)]


def test_dense_fraction_rank_basic():
    M = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert dense_fraction_rank(M) == 1
    assert dense_fraction_rank([]) == 0
