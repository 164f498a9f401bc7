import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mat_det, mat_mul
from weylrep.intmat import (
    hermite_row_basis,
    mat_inv,
    prepare_mod,
    smith_normal_form,
    solve_mod,
)

small_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=c, max_size=c),
            min_size=r, max_size=r)))


@given(small_matrix)
@settings(max_examples=300, deadline=None)
def test_snf_diagonalizes_with_unimodular_transforms(m):
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(mat_det(u)) == 1
    assert abs(mat_det(v)) == 1
    diag = [d[i][i] for i in range(min(len(m), len(m[0])))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


@given(small_matrix, st.sampled_from([2, 3, 4, 5, 6, 12]),
       st.integers(min_value=0, max_value=10 ** 6), st.booleans())
@settings(max_examples=300, deadline=None)
def test_solve_mod_agrees_with_brute_force(per_row_solve_mod, m, n, seed, tuple_rows):
    rows, cols = len(m), len(m[0])
    b = [(seed // (n ** i)) % n for i in range(rows)]
    if tuple_rows:  # the shape cocharacter lattices hold their pairing in
        m = tuple(map(tuple, m))
    snf = smith_normal_form(m)
    x = solve_mod(prepare_mod(m, snf, n), b)
    assert x == per_row_solve_mod(m, snf, b, n)
    if cols <= 3 and n <= 6:
        brute = None
        for cand in itertools.product(range(n), repeat=cols):
            if all(sum(m[i][j] * cand[j] for j in range(cols)) % n == b[i] % n
                   for i in range(rows)):
                brute = cand
                break
        assert (x is None) == (brute is None)
    if x is not None:
        for i in range(rows):
            assert sum(m[i][j] * x[j] for j in range(cols)) % n == b[i] % n


SHAPE_M = [[1, 0], [0, 1]]


def test_solve_mod_rejects_a_long_right_hand_side():
    """An extra entry of b has no row to check it against."""
    with pytest.raises(ValueError, match="3 entries for 2 rows"):
        solve_mod(prepare_mod(SHAPE_M, smith_normal_form(SHAPE_M), 7), [1, 1, 5])


def test_solve_mod_rejects_a_short_right_hand_side():
    with pytest.raises(ValueError, match="1 entries for 2 rows"):
        solve_mod(prepare_mod(SHAPE_M, smith_normal_form(SHAPE_M), 7), [1])


@pytest.mark.parametrize("n", [0, -3])
def test_solve_mod_rejects_a_modulus_below_one(n):
    with pytest.raises(ValueError, match="not positive"):
        prepare_mod(SHAPE_M, smith_normal_form(SHAPE_M), n)


def test_prepare_mod_folds_the_unit_rows_and_keeps_the_others():
    """d = diag(1, 2, 0): mod 12 the first row folds, and the rows with
    g = 2 and g = 12 (d_i = 0) are kept with their inverses."""
    m = [[1, 0, 0], [0, 2, 0], [0, 0, 0]]
    prepared = prepare_mod(m, smith_normal_form(m), 12)
    _, n, fold, kept = prepared
    assert n == 12
    assert fold == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert kept == (((0, 1, 0), 2, 1, (0, 1, 0)), ((0, 0, 1), 12, 0, (0, 0, 1)))
    assert solve_mod(prepared, [5, 6, 0]) == (5, 3, 0)
    assert solve_mod(prepared, [5, 5, 0]) is None  # 2 y = 5 (mod 12)
    assert solve_mod(prepared, [5, 6, 1]) is None  # 0 = 1 (mod 12)


def test_planted_fault_in_a_folded_entry_trips_the_witness_check():
    """m is unimodular, so every solve is unique mod n and any wrong x
    fails some row: one folded entry off by one moves x[0] by b[0]."""
    m = [[2, 1], [1, 1]]
    prepared = prepare_mod(m, smith_normal_form(m), 7)
    b = [3, 5]
    assert solve_mod(prepared, b) is not None
    _, n, fold, kept = prepared
    assert kept == ()  # d = diag(1, 1): both rows fold
    bad = [list(row) for row in fold]
    bad[0][0] += 1
    with pytest.raises(AssertionError, match="bad witness"):
        solve_mod((m, n, tuple(map(tuple, bad)), kept), b)


def test_hermite_row_basis_canonicalizes():
    assert hermite_row_basis([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]
    assert hermite_row_basis([[0, 0]]) == []
    # basis of the same lattice regardless of generator order
    a = hermite_row_basis([[3, 1], [1, 2]])
    b = hermite_row_basis([[1, 2], [3, 1], [4, 3]])
    assert a == b
    # reduced in pivot order: reducing the first row by the second (pivot
    # 2) after the third (pivot 4) would move its last entry to -1
    assert hermite_row_basis([[1, 2, 0], [0, 2, 1], [0, 0, 4]]) == \
        hermite_row_basis([[1, 0, 3], [0, 2, 1], [0, 0, 4]]) == \
        [[1, 0, 3], [0, 2, 1], [0, 0, 4]]


@st.composite
def generators_and_a_mix(draw):
    """Integer rows, and the same lattice's rows after a random sequence
    of unimodular row operations: adding a multiple of one row to
    another, swapping two rows, negating one."""
    cols = draw(st.integers(min_value=2, max_value=5))
    rows = draw(st.lists(st.lists(st.integers(min_value=-12, max_value=12),
                                  min_size=cols, max_size=cols),
                         min_size=1, max_size=cols + 2))
    mixed = [list(r) for r in rows]
    n = len(mixed)
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            f = draw(st.integers(min_value=-3, max_value=3))
            mixed[i] = [x + f * y for x, y in zip(mixed[i], mixed[j])]
        elif op == "swap":
            mixed[i], mixed[j] = mixed[j], mixed[i]
        elif op == "negate":
            mixed[i] = [-x for x in mixed[i]]
    return rows, mixed


@given(generators_and_a_mix())
@settings(max_examples=500, deadline=None)
def test_hermite_row_basis_is_canonical(case):
    """Two generating sets of one lattice give the same basis: positive
    pivots in echelon form, and every entry above a pivot in [0, pivot)."""
    rows, mixed = case
    basis = hermite_row_basis(rows)
    assert hermite_row_basis(mixed) == basis
    pivots = [next(j for j, x in enumerate(r) if x) for r in basis]
    assert pivots == sorted(set(pivots))
    for i, (row, pc) in enumerate(zip(basis, pivots)):
        assert row[pc] > 0
        assert all(0 <= basis[k][pc] < row[pc] for k in range(i))
    # the basis spans the rows: appending them changes nothing
    assert hermite_row_basis(basis + rows) == basis



@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_inverse_round_trip(m):
    if mat_det(m) == 0:
        return
    inv = mat_inv(m)
    prod = mat_mul(m, inv)
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == (1 if i == j else 0)
