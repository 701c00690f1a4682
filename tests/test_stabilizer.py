"""Stabilizer tableaux: canonicalization, membership, traces, enumeration."""

import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ref import (
    bitwise_sign_form,
    dense_acceptance,
    dense_stabilizer_state_census,
    element_intersection_counts,
    group_elements,
    group_state_matrix,
    lower_rank_groups,
    matrix_key,
    pauli_matrix,
    pauli_product,
    pauli_product_many,
    random_subgroup,
    state_matrix,
)
from paulisq.pauli import DimensionMismatch, PauliMeasurement, PauliOperator, commutes, gf2_echelon
from paulisq.pconcept import (
    MaximallyMixed,
    _z_subgroup,
    StabilizerState,
    UniformPauli,
    acceptance_probability,
    inner_product,
    squared_loss,
)
from paulisq.stabilizer import (
    BudgetExceeded,
    Membership,
    StabilizerGroup,
    _isotropic_subspaces,
    _product,
    _swapped,
    canonical_rows,
    enumerate_stabilizer_groups,
    random_stabilizer_group,
    signed_intersection_counts,
)
from paulisq.streams import substream

KET0 = ["+Z"]
KET1 = ["-Z"]


def test_contains_generator():
    s = StabilizerGroup.from_strings(KET0)
    assert s.contains(PauliOperator.from_string("Z")) is Membership.PLUS
    assert s.contains(PauliOperator.from_string("-Z")) is Membership.MINUS
    assert s.contains(PauliOperator.from_string("X")) is Membership.ABSENT


def test_trace_pauli_values():
    s = StabilizerGroup.from_strings(KET0)
    assert s.trace_pauli(PauliOperator.from_string("Z")) == 1
    assert s.trace_pauli(PauliOperator.from_string("X")) == 0
    assert StabilizerGroup.from_strings(KET1).trace_pauli(PauliOperator.from_string("Z")) == -1


def test_acceptance_probability_values():
    s = StabilizerState(StabilizerGroup.from_strings(KET0))
    for text, want in [("Z", Fraction(1)), ("X", Fraction(1, 2)), ("-Z", Fraction(0))]:
        e = PauliMeasurement(PauliOperator.from_string(text))
        got = acceptance_probability(s, e)
        assert isinstance(got, Fraction) and got == want


def test_rejects_anticommuting_generators():
    with pytest.raises(ValueError):
        StabilizerGroup.from_strings(["+X", "+Z"])


def test_anticommuting_generators_are_named_by_the_first_pair():
    # XII/ZII and IXI/IZI anticommute; pairs are read with the first row outermost
    with pytest.raises(ValueError, match=re.escape("generators +XII and +ZII anticommute")):
        StabilizerGroup.from_strings(["XII", "IXI", "IZI", "ZII"])
    with pytest.raises(ValueError, match=re.escape("generators +IXI and -IYZ anticommute")):
        StabilizerGroup.from_strings(["ZII", "IXI", "IIX", "-IYZ"])


def test_rejects_dependent_generators():
    with pytest.raises(ValueError):
        StabilizerGroup.from_strings(["+ZI", "+IZ", "+ZZ"])


def test_rejects_minus_identity_products():
    # XX * YY * ZZ = -III...: Bell-style triple that multiplies to -I
    with pytest.raises(ValueError):
        StabilizerGroup.from_strings(["+XX", "+YY", "+ZZ"])


def test_canonicalization_idempotent_and_basis_independent():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        g = random_stabilizer_group(n, rng)
        again = StabilizerGroup.from_generators(g.generators)
        assert again == g
        # regenerate from a scrambled generating set: products of generators
        scrambled = []
        for i in range(n):
            row = g.generators[i]
            if i + 1 < n and rng.integers(0, 2):
                row = pauli_product(row, g.generators[i + 1]).to_operator()
            scrambled.append(row)
        assert StabilizerGroup.from_generators(scrambled) == g


def reference_product(generators, tag):
    """The same product through PhasedPauli objects, one pauli_product per factor."""
    named = [g for i, g in enumerate(generators) if tag >> i & 1]
    return pauli_product_many([PauliOperator.identity(generators[0].n), *named]).to_operator()


def assert_products_match(generators, tags):
    for tag in tags:
        got, want = _product(generators[0].n, generators, tag), reference_product(generators, tag)
        assert (got.sign, got.x, got.z) == (want.sign, want.x, want.z), tag


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_matches_reference_on_every_small_group_and_tag(n):
    groups = enumerate_stabilizer_groups(n)
    assert len(groups) == {1: 6, 2: 60, 3: 1080}[n]
    for g in groups:
        assert_products_match(g.generators, range(1 << n))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_product_matches_reference_at_large_n(n, seed):
    g = random_stabilizer_group(n, np.random.default_rng(seed))
    rnd = random.Random(seed)
    assert_products_match(g.generators, [rnd.getrandbits(n) for _ in range(8)] + [(1 << n) - 1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_paulis_matches_contains_on_every_small_group_and_string(n):
    strings = [(x, z) for x in range(1 << n) for z in range(1 << n)]
    x = np.array([a for a, _ in strings], dtype=np.uint64)
    z = np.array([b for _, b in strings], dtype=np.uint64)
    groups = enumerate_stabilizer_groups(n)
    assert len(groups) == {1: 6, 2: 60, 3: 1080}[n]
    for g in groups + lower_rank_groups(n, substream(41, "ranks", n)):
        want = [g.contains(PauliOperator(n, 1, a, b)).value for a, b in strings]
        assert g.trace_paulis(x, z).tolist() == want


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 64), r=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_trace_paulis_matches_contains_at_large_n(n, r, seed):
    """Members of a rank-r subgroup, their negations, members with one bit
    flipped (inside or outside the rows' support) and uniform strings."""
    rng = np.random.default_rng(seed)
    g = random_subgroup(random_stabilizer_group(n, rng), min(r, n), rng)
    ops = [m for m in group_elements(g)][:64]
    ops += [m.negated() for m in ops[:8]]
    for m in ops[:32]:
        bit = 1 << int(rng.integers(0, n))
        ops += [PauliOperator(n, m.sign, m.x ^ bit, m.z), PauliOperator(n, m.sign, m.x, m.z ^ bit)]
    words = rng.integers(0, 1 << min(n, 63), size=(32, 2), dtype=np.uint64)
    ops += [PauliOperator(n, 1, int(x), int(z)) for x, z in words]
    x = np.array([p.x for p in ops], dtype=np.uint64)
    z = np.array([p.z for p in ops], dtype=np.uint64)
    signs = np.array([p.sign for p in ops])
    assert (signs * g.trace_paulis(x, z)).tolist() == [g.contains(p).value for p in ops]


def _assert_bitwise_sign_form(g):
    (cols, form), (want_cols, want_form) = g._sign_form, bitwise_sign_form(g)
    assert (cols.dtype, form.dtype, form.shape) == (want_cols.dtype, want_form.dtype, want_form.shape)
    assert cols.tobytes() == want_cols.tobytes() and form.tobytes() == want_form.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sign_form_is_the_bitwise_build_on_every_small_group(n):
    groups = enumerate_stabilizer_groups(n)
    for g in groups + lower_rank_groups(n, substream(42, "form", n)):
        _assert_bitwise_sign_form(g)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), r=st.integers(0, 64), seed=st.integers(0, 2**32 - 1))
def test_sign_form_is_the_bitwise_build_at_large_n(n, r, seed):
    """On a rank-r subgroup.  The same group given by the products g_i g_{i+1}
    of its rows reduces to the same canonical rows, and the raw constructor
    given those products is refused on first use."""
    rng = np.random.default_rng(seed)
    g = random_stabilizer_group(n, rng)
    g = random_subgroup(g, r, rng) if r < n else g
    _assert_bitwise_sign_form(g)
    rows = g.generators
    mixed = tuple(pauli_product_many([a, b]).to_operator() for a, b in zip(rows, rows[1:])) + rows[-1:]
    if len(rows) >= 2:
        assert canonical_rows(mixed) == rows
        with pytest.raises(ValueError, match="not canonical"):
            StabilizerGroup(n, mixed)._sign_form


def test_trace_paulis_of_no_strings_is_empty():
    g = StabilizerGroup.from_strings(["XX", "ZZ"])
    assert g.trace_paulis(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64)).tolist() == []


@pytest.mark.parametrize("pair", [("X", "Z"), ("Z", "X"), ("-Y", "X"), ("XI", "ZZ"), ("IZY", "-XZZ")])
def test_product_of_anticommuting_pair_raises_on_both_paths(pair):
    generators = [PauliOperator.from_string(t) for t in pair]
    with pytest.raises(ValueError, match="imaginary"):
        _product(generators[0].n, generators, 0b11)
    with pytest.raises(ValueError, match="imaginary"):
        reference_product(generators, 0b11)


def test_signed_intersections_self():
    s = StabilizerGroup.from_strings(KET0)
    assert signed_intersection_counts(s, s) == (2, 0)


def test_signed_intersections_tight_pair():
    s00 = StabilizerGroup.from_strings(["+ZI", "+IZ"])
    s0p = StabilizerGroup.from_strings(["+ZI", "+IX"])
    assert signed_intersection_counts(s00, s0p) == (2, 0)


def test_signed_intersections_orthogonal_pair():
    a = StabilizerGroup.from_strings(KET0)
    b = StabilizerGroup.from_strings(KET1)
    assert signed_intersection_counts(a, b) == (1, 1)


@pytest.mark.parametrize("n,count", [(1, 6), (2, 60), (3, 1080)])
def test_enumeration_counts(n, count):
    assert len(enumerate_stabilizer_groups(n)) == count


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_stabilizer_groups(4)


def test_enumeration_unique_and_canonical():
    groups = enumerate_stabilizer_groups(2)
    assert len(set(groups)) == len(groups)
    for g in groups:
        assert StabilizerGroup.from_generators(g.generators) == g
    assert groups == enumerate_stabilizer_groups(2)  # deterministic order


def test_n1_enumeration_is_the_six_axis_states():
    got = {str(g) for g in enumerate_stabilizer_groups(1)}
    assert got == {"+Z", "-Z", "+X", "-X", "+Y", "-Y"}


@pytest.mark.parametrize("n", [1, 2])
def test_enumeration_matches_dense_census(n):
    census = dense_stabilizer_state_census(n)
    groups = enumerate_stabilizer_groups(n)
    reconstructed = {matrix_key(group_state_matrix(g)) for g in groups}
    assert reconstructed == census
    assert len(reconstructed) == len(groups)


@pytest.mark.parametrize("n", [1, 2])
def test_acceptance_probability_matches_dense_exhaustive(n):
    groups = enumerate_stabilizer_groups(n)
    for g in groups:
        state = StabilizerState(g)
        for sign in (1, -1):
            for x in range(1 << n):
                for z in range(1 << n):
                    e = PauliMeasurement(PauliOperator(n, sign, x, z))
                    assert float(acceptance_probability(state, e)) == pytest.approx(
                        dense_acceptance(state, e), abs=1e-12
                    )


def test_intersection_bound_exhaustive_small_n():
    for n in (1, 2):
        groups = enumerate_stabilizer_groups(n)
        for i, s in enumerate(groups):
            for t in groups[i + 1 :]:
                plus, minus = signed_intersection_counts(s, t)
                assert plus + minus <= 2**n
                assert plus <= 2 ** (n - 1)


def test_group_elements_are_closed_and_real():
    rng = np.random.default_rng(19)
    g = random_stabilizer_group(3, rng)
    elements = list(group_elements(g))
    assert len(elements) == 8
    assert len(set(elements)) == 8
    dense = [pauli_matrix(e) for e in elements]
    rho = sum(dense) / 8
    assert np.allclose(rho @ rho, rho)  # projector onto the stabilized line
    assert np.isclose(np.trace(rho).real, 1.0)


def test_basis_state_groups():
    g = StabilizerGroup.basis_state(0b101, 3)
    assert g.trace_pauli(PauliOperator.single(3, 0, "Z")) == -1
    assert g.trace_pauli(PauliOperator.single(3, 1, "Z")) == 1
    assert g.trace_pauli(PauliOperator.single(3, 2, "Z")) == -1


def test_tableau_text_round_trip():
    g = StabilizerGroup.from_strings(["+XX", "+ZZ"])
    again = StabilizerGroup.from_strings(str(g).splitlines())
    assert again == g


def test_random_groups_are_valid():
    rng = np.random.default_rng(99)
    for _ in range(25):
        g = random_stabilizer_group(2, rng)
        assert g in set(enumerate_stabilizer_groups(2))


# chi-square critical values at p = 1e-6 for 5 and 59 degrees of freedom
CHI2_CRITICAL = {1: 35.89, 2: 125.66}


@pytest.mark.parametrize("n", [1, 2])
def test_random_groups_are_uniform(n):
    groups = enumerate_stabilizer_groups(n)
    per_group = 100
    rng = substream(5, "uniformity", n)
    counts = Counter(random_stabilizer_group(n, rng) for _ in range(per_group * len(groups)))
    assert set(counts) == set(groups)
    chi2 = sum((counts[g] - per_group) ** 2 / per_group for g in groups)
    assert chi2 < CHI2_CRITICAL[n]


@pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 135)])
def test_isotropic_subspaces_are_distinct_rref_row_sets(n, count):
    row_sets = [tuple(rows) for rows in _isotropic_subspaces(n)]
    assert len(row_sets) == len(set(row_sets)) == count
    for rows in row_sets:
        assert len(rows) == n
        assert all(not (u & _swapped(v, n)).bit_count() & 1 for u in rows for v in rows)
        pivots, dependent = gf2_echelon((r, 0) for r in rows)
        assert not dependent and sorted(rows) == sorted(r for r, _ in pivots.values())


def sign_flipped(group: StabilizerGroup, i: int) -> StabilizerGroup:
    gens = list(group.generators)
    gens[i] = gens[i].negated()
    return StabilizerGroup.from_generators(gens)


@pytest.mark.parametrize("n", [1, 2])
def test_intersection_counts_match_elements_on_all_ordered_pairs(n):
    groups = enumerate_stabilizer_groups(n) + lower_rank_groups(n, substream(43, "ranks", n))
    for s in groups:
        for t in groups:
            assert signed_intersection_counts(s, t) == element_intersection_counts(s, t)


def test_intersection_counts_match_elements_at_n3():
    groups = enumerate_stabilizer_groups(3)
    lower = lower_rank_groups(3, substream(43, "ranks", 3))
    for s in groups[::27] + lower:
        for t in groups + lower:
            assert signed_intersection_counts(s, t) == element_intersection_counts(s, t)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_maximally_mixed_state_is_the_identity_over_2_to_the_n(n):
    state = MaximallyMixed(n)
    assert state.group.generators == ()
    assert np.allclose(state_matrix(state), np.eye(2**n) / 2**n, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 64), r=st.integers(0, 10), seed=st.integers(0, 2**32 - 1), kind=st.integers(0, 2))
def test_intersection_counts_of_rank_r_subgroups_match_their_members(n, r, seed, kind):
    """S is a rank-r subgroup of a random group G; T is G itself, another
    subgroup of G with one sign flipped, or an independent random group."""
    rng = np.random.default_rng(seed)
    g = random_stabilizer_group(n, rng)
    s = random_subgroup(g, min(r, n), rng)
    if kind == 0:
        t = g
    elif kind == 1:
        t = random_subgroup(sign_flipped(g, int(rng.integers(0, n))), int(rng.integers(0, n + 1)), rng)
    else:
        t = random_stabilizer_group(n, rng)
    members = list(group_elements(s))
    assert len(members) == 2 ** len(s.generators)
    x = np.array([m.x for m in members], dtype=np.uint64)
    z = np.array([m.z for m in members], dtype=np.uint64)
    traces = np.array([m.sign for m in members]) * t.trace_paulis(x, z)
    assert signed_intersection_counts(s, t) == (int((traces == 1).sum()), int((traces == -1).sum()))


@pytest.mark.parametrize("n", range(4, 11))
def test_intersection_counts_match_elements_on_random_pairs(n):
    rng = substream(31, "pairs", n)
    for _ in range(3):
        s, t = random_stabilizer_group(n, rng), random_stabilizer_group(n, rng)
        neighbours = [sign_flipped(s, int(rng.integers(0, n))), sign_flipped(t, int(rng.integers(0, n)))]
        for a, b in [(s, t), (t, s), (s, neighbours[0]), (t, neighbours[1])]:
            assert signed_intersection_counts(a, b) == element_intersection_counts(a, b)


# ---------------------------------------------------------------------------
# large n


@settings(max_examples=8, deadline=None)
@given(n=st.integers(64, 128), seed=st.integers(0, 2**32 - 1))
def test_random_groups_at_large_n(n, seed):
    g = random_stabilizer_group(n, np.random.default_rng(seed))
    assert StabilizerGroup.from_generators(g.generators) == g
    assert all(g.contains(p) is Membership.PLUS for p in g.generators)


# Pairs with a large, known intersection come from random symplectic
# transvections of one group: independent uniform groups almost never share
# more than a few generators.


def transvected(group: StabilizerGroup, rnd: random.Random, steps: int) -> StabilizerGroup:
    """Apply `steps` random transvections v -> v + <v, h> h to the group's
    (x|z) rows and draw fresh signs: the rows stay independent and commuting."""
    n = group.n
    mask = (1 << n) - 1
    rows = [g.x | g.z << n for g in group.generators]
    for _ in range(steps):
        h = rnd.getrandbits(2 * n)
        swapped = h >> n | (h & mask) << n
        rows = [r ^ h if (r & swapped).bit_count() & 1 else r for r in rows]
    return StabilizerGroup.from_generators(
        PauliOperator(n, rnd.choice((1, -1)), r & mask, r >> n) for r in rows
    )


LARGE = dict(n=st.integers(64, 256), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=8, deadline=None)
@given(**LARGE, steps=st.integers(1, 3))
def test_intersection_counts_structure_at_large_n(n, seed, steps):
    rnd = random.Random(seed)
    s = transvected(StabilizerGroup.basis_state(0, n), rnd, 6)
    t = transvected(s, rnd, steps)
    plus, minus = signed_intersection_counts(s, t)
    assert signed_intersection_counts(s, s) == (2**n, 0)
    assert signed_intersection_counts(t, s) == (plus, minus)
    assert minus in (0, plus)
    total = plus + minus
    assert total & (total - 1) == 0 and 2 ** (n - steps) <= total <= 2**n
    i = rnd.randrange(n)
    assert signed_intersection_counts(s, sign_flipped(s, i)) == (2 ** (n - 1), 2 ** (n - 1))
    d = UniformPauli(n)
    state = StabilizerState(s)
    assert inner_product(state, state, d) - squared_loss(state, MaximallyMixed(n), d) == Fraction(1, 4**n)


@settings(max_examples=8, deadline=None)
@given(**LARGE)
def test_contains_on_products_of_generators_at_large_n(n, seed):
    rnd = random.Random(seed)
    s = transvected(StabilizerGroup.basis_state(0, n), rnd, 6)
    subset = [g for g in s.generators if rnd.random() < 0.5] or [s.generators[0]]
    member = pauli_product_many(subset).to_operator()
    assert s.contains(member) is Membership.PLUS
    assert s.contains(member.negated()) is Membership.MINUS
    bit = 1 << rnd.randrange(n)
    for other in (PauliOperator(n, 1, member.x ^ bit, member.z), PauliOperator(n, 1, member.x, member.z ^ bit)):
        inside = all(commutes(other, g) for g in s.generators)
        assert (s.contains(other) is not Membership.ABSENT) == inside


def test_exact_inner_products_at_128_qubits():
    rnd = random.Random(128)
    s = transvected(StabilizerGroup.basis_state(0, 128), rnd, 6)
    a, b = StabilizerState(s), StabilizerState(transvected(s, rnd, 2))
    d = UniformPauli(128)
    assert inner_product(a, a, d) == Fraction(1, 2**128)
    assert inner_product(a, b, d) in {0} | {Fraction(2**k, 4**128) for k in range(129)}


def _assert_pivots_are_the_echelons(g):
    pivots = gf2_echelon([(p.x | p.z << g.n, 1 << i) for i, p in enumerate(g.generators)])[0]
    assert list(g._pivots.items()) == list(pivots.items())


def test_pivots_read_off_the_rows_are_the_echelons_on_every_small_group():
    groups = enumerate_stabilizer_groups(3)
    assert len(groups) == 1080
    for g in groups:
        _assert_pivots_are_the_echelons(g)
        _assert_pivots_are_the_echelons(_z_subgroup(g))
    _assert_pivots_are_the_echelons(StabilizerGroup(3, ()))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 64), bits=st.integers(0, 2**64 - 1), seed=st.integers(0, 2**32 - 1))
def test_pivots_read_off_the_rows_are_the_echelons_at_large_n(n, bits, seed):
    """On a group from scrambled generators (the products of consecutive rows
    of a random group), on its Z-type subgroup, and on a basis state."""
    rows = random_stabilizer_group(n, np.random.default_rng(seed)).generators
    scrambled = [pauli_product_many([a, b]).to_operator() for a, b in zip(rows, rows[1:])] + [rows[-1]]
    g = StabilizerGroup.from_generators(scrambled)
    assert g == StabilizerGroup.from_generators(rows)
    for group in (g, _z_subgroup(g), StabilizerGroup.basis_state(bits & ((1 << n) - 1), n)):
        _assert_pivots_are_the_echelons(group)


@pytest.mark.parametrize("n, texts, counts", [(2, ["+ZZZ"], [3]), (3, ["+ZI"], [2]), (2, ["+ZI", "+IZZ"], [2, 3])])
def test_raw_constructor_refuses_a_generator_on_another_qubit_count(n, texts, counts):
    # StabilizerGroup(2, (+ZZZ,)) once built and answered contains(+IZ) with ABSENT
    rows = tuple(PauliOperator.from_string(t) for t in texts)
    with pytest.raises(DimensionMismatch, match=re.escape(f"generators must act on {n} qubits, got {counts}")):
        StabilizerGroup(n, rows)


@pytest.mark.parametrize("texts", [["ZI", "ZZ"], ["IZ", "ZI"], ["ZZ", "IZ"], ["II"]])
def test_raw_constructor_refuses_rows_that_are_not_canonical(texts):
    """A repeated pivot, falling pivots, a row set at another row's pivot and
    an identity row: membership and traces raise rather than answer from rows
    they cannot read.  The canonical rows of the same group are read."""
    g = StabilizerGroup(2, tuple(PauliOperator.from_string(t) for t in texts))
    z2 = PauliOperator.from_string("IZ")
    with pytest.raises(ValueError, match="not canonical"):
        g.contains(z2)
    with pytest.raises(ValueError, match="not canonical"):
        g.trace_paulis(np.zeros(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64))
    assert StabilizerGroup(2, canonical_rows([PauliOperator.from_string("ZZ"), z2])).contains(z2) is Membership.PLUS
