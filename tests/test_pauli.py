"""Pauli algebra against the dense-matrix oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ref import as_phased, pauli_matrix, pauli_product, pauli_product_many
from paulisq.pauli import (
    DimensionMismatch,
    PauliOperator,
    commutes,
    gf2_echelon,
    gf2_reduce,
)


def random_pauli(rng, n):
    return PauliOperator(
        n,
        1 if rng.integers(0, 2) == 0 else -1,
        int(rng.integers(0, 1 << n)),
        int(rng.integers(0, 1 << n)),
    )


def test_product_involution():
    x = PauliOperator.from_string("X")
    out = pauli_product(x, x)
    assert out.phase == 1
    assert out.x == 0 and out.z == 0


def test_product_xz_is_minus_i_y():
    out = pauli_product(PauliOperator.from_string("X"), PauliOperator.from_string("Z"))
    assert out.phase == -1j
    assert (out.x, out.z) == (1, 1)
    assert not out.is_real_signed
    with pytest.raises(ValueError):
        out.to_operator()


def test_product_disjoint_supports():
    out = pauli_product(PauliOperator.from_string("ZI"), PauliOperator.from_string("IZ"))
    assert out.to_operator() == PauliOperator.from_string("ZZ")


def test_product_matches_dense_exhaustive_n1():
    for a_x in range(2):
        for a_z in range(2):
            for b_x in range(2):
                for b_z in range(2):
                    for sa in (1, -1):
                        for sb in (1, -1):
                            a = PauliOperator(1, sa, a_x, a_z)
                            b = PauliOperator(1, sb, b_x, b_z)
                            got = pauli_matrix(pauli_product(a, b))
                            want = pauli_matrix(a) @ pauli_matrix(b)
                            assert np.allclose(got, want)


@pytest.mark.parametrize("n", [2, 3])
def test_product_matches_dense_random(n):
    rng = np.random.default_rng(11 * n)
    for _ in range(200):
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        assert np.allclose(pauli_matrix(pauli_product(a, b)), pauli_matrix(a) @ pauli_matrix(b))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutes_matches_dense(n):
    rng = np.random.default_rng(5 * n)
    for _ in range(150):
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        ma, mb = pauli_matrix(a), pauli_matrix(b)
        assert commutes(a, b) == np.allclose(ma @ mb, mb @ ma)


def test_anticommuting_pair():
    assert not commutes(PauliOperator.from_string("X"), PauliOperator.from_string("Z"))


def test_commuting_pair_xx_zz():
    assert commutes(PauliOperator.from_string("XX"), PauliOperator.from_string("ZZ"))


def test_self_commutation():
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = random_pauli(rng, 4)
        assert commutes(p, p)


def test_product_associative_and_phase_consistent():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        a, b, c = (random_pauli(rng, n) for _ in range(3))
        left = pauli_product(pauli_product(a, b), c)
        right = pauli_product(a, pauli_product(b, c))
        assert left == right
        assert pauli_product_many([a, b, c]) == left


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        pauli_product(PauliOperator.from_string("X"), PauliOperator.from_string("XX"))
    with pytest.raises(DimensionMismatch):
        commutes(PauliOperator.from_string("X"), PauliOperator.from_string("XX"))


@given(
    sign=st.sampled_from(["", "+", "-"]),
    letters=st.text(alphabet="IXYZ", min_size=1, max_size=8),
)
@settings(max_examples=200)
def test_string_round_trip(sign, letters):
    text = sign + letters
    p = PauliOperator.from_string(text)
    assert PauliOperator.from_string(str(p)) == p
    assert str(p)[0] in "+-"
    assert str(p)[1:] == letters


def test_unicode_minus_accepted():
    assert PauliOperator.from_string("−XYZYZ") == PauliOperator.from_string("-XYZYZ")


def test_paper_style_example_string():
    p = PauliOperator.from_string("-XYZYZ")
    assert p.n == 5
    assert p.sign == -1
    assert str(p) == "-XYZYZ"


def test_rejects_bad_strings():
    with pytest.raises(ValueError):
        PauliOperator.from_string("XQ")
    with pytest.raises(ValueError):
        PauliOperator.from_string("-")


def test_phased_repr_and_realness():
    p = as_phased(PauliOperator.from_string("-YY"))
    assert p.is_real_signed
    assert p.to_operator() == PauliOperator.from_string("-YY")


def test_one_budget_exceeded_class():
    from paulisq import learners, pauli, stabilizer, statdim

    assert stabilizer.BudgetExceeded is pauli.BudgetExceeded
    assert statdim.BudgetExceeded is pauli.BudgetExceeded
    assert learners.BudgetExceeded is pauli.BudgetExceeded


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=16))
def test_gf2_echelon_is_the_reduced_form_of_the_row_space(values):
    pivots, zeros = gf2_echelon((v, 1 << i) for i, v in enumerate(values))

    def named_sum(tag):
        total = 0
        for i, v in enumerate(values):
            if tag >> i & 1:
                total ^= v
        return total

    assert list(pivots) == sorted(pivots)
    for col, (bits, tag) in pivots.items():
        assert bits & -bits == 1 << col  # pivot on the lowest set bit
        assert all(other >> col & 1 == 0 for c, (other, _) in pivots.items() if c != col)
        assert named_sum(tag) == bits
    assert len(pivots) + len(zeros) == len(values)
    assert all(tag and named_sum(tag) == 0 for tag in zeros)
    # every input row lies in the span of the pivot rows
    assert all(gf2_reduce(v, 0, pivots)[0] == 0 for v in values)
    # the form depends only on the row space, not on the order of the rows
    reordered, _ = gf2_echelon((v, 0) for v in reversed(values))
    assert [bits for bits, _ in reordered.values()] == [bits for bits, _ in pivots.values()]


def test_gf2_echelon_stops_just_after_the_row_that_reaches_the_rank():
    rows = [(0b011, 1), (0b011, 2), (0b110, 4), (0b101, 8), (0b100, 16)]
    it = iter(rows)
    # the second row is dependent, so the third brings the rank to 2
    assert gf2_echelon(it, stop=2) == ({0: (0b101, 5), 1: (0b110, 4)}, [3])
    assert list(it) == rows[3:]
    # with no stop, or one above the rank, every row is read
    for stop in (None, 4):
        it = iter(rows)
        assert gf2_echelon(it, stop=stop) == gf2_echelon(rows)
        assert next(it, None) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, (1 << 8) - 1), max_size=16), st.integers(1, 8))
def test_gf2_echelon_with_a_stop_is_the_form_of_the_rows_read(values, stop):
    rows = [(v, 1 << i) for i, v in enumerate(values)]
    it = iter(rows)
    out = gf2_echelon(it, stop=stop)
    read = len(rows) - len(list(it))
    assert out == gf2_echelon(rows[:read])
    # it stopped at the first row that brought the rank to `stop`, or read them all
    assert len(out[0]) == stop or read == len(rows)
    assert read == 0 or len(gf2_echelon(rows[:read - 1])[0]) < stop
