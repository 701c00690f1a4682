"""Batch draws: `distribution.draw(rng, m)` and the batch's f(state) against
scalar `sample` and `f_value`, measurement by measurement."""

from fractions import Fraction
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ref import pauli_batch, pauli_product_many
from paulisq.pauli import PauliMeasurement, PauliOperator
from paulisq.pconcept import (
    BlochVector,
    FiniteWeighted,
    HaarSingleQubitProduct,
    IndexBatch,
    MaximallyMixed,
    PauliBatch,
    ProductState,
    SingleQubitProjector,
    StabilizerState,
    UniformParity,
    UniformPauli,
    f_value,
    haar_directions,
    parity_measurement,
)
from paulisq.stabilizer import StabilizerGroup, enumerate_stabilizer_groups, random_stabilizer_group
from paulisq.streams import substream


def scalar_f(state, batch) -> list:
    return [float(f_value(state, e)) for e in batch]


def states_of(n: int) -> list:
    product = ProductState(tuple(BlochVector(0.3 - 0.2 * i, -0.5, 0.6) for i in range(n)))
    return [StabilizerState(g) for g in enumerate_stabilizer_groups(n)] + [product, MaximallyMixed(n)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batch_f_matches_f_value_on_every_pauli_and_parity(n):
    every_pauli = pauli_batch(n, (e.pauli for e, _ in UniformPauli(n).support()))
    every_parity = pauli_batch(n, (e.pauli for e, _ in UniformParity(n).support()))
    finite = FiniteWeighted((
        (PauliMeasurement(PauliOperator.from_string("Y" * n)), Fraction(1, 3)),
        (SingleQubitProjector(n, n - 1, BlochVector(0.6, 0.0, -0.8)), 0.25),
        (PauliMeasurement(PauliOperator.identity(n, -1)), Fraction(5, 12)),
    ))
    batches = [
        every_pauli,
        every_parity,
        IndexBatch(tuple(e for e, _ in finite.items), np.arange(3)),
        finite.draw(substream(5, "finite", n), 50),
        HaarSingleQubitProduct(n).draw(substream(5, "haar", n), 50),
    ]
    for state in states_of(n):
        for batch in batches:
            assert batch.f(state).tolist() == scalar_f(state, batch)


def test_draws_are_uniform_pauli_and_parity_effects():
    rng = substream(6, "draws")
    paulis = list(UniformPauli(2).draw(rng, 4000))
    assert {str(e) for e in paulis} == {str(e) for e, _ in UniformPauli(2).support()}
    parities = list(UniformParity(3).draw(rng, 400))
    assert {str(e) for e in parities} == {str(e) for e, _ in UniformParity(3).support()}


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_stabilizer_membership_batch_up_to_64_qubits(n, seed):
    rng = substream(seed, "membership")
    group = random_stabilizer_group(n, rng)
    top = 1 << (n - 1)
    # members of S and of -S: random products of generators, then a generator
    # acting on the top qubit (bit 63 at n = 64), with both signs
    planted = []
    for k in range(6):
        named = [g for g, t in zip(group.generators, rng.integers(0, 2, size=n)) if t]
        member = pauli_product_many([PauliOperator.identity(n), *named]).to_operator()
        planted.append(member if k % 2 else member.negated())
    g_top = next(g for g in group.generators if (g.x | g.z) & top)
    planted += [g_top, g_top.negated(), PauliOperator(n, -1, top, 0)]
    drawn = UniformPauli(n).draw(rng, 64)
    batch = PauliBatch(
        n,
        np.concatenate([drawn.signs, [p.sign for p in planted]]),
        np.concatenate([drawn.x, np.array([p.x for p in planted], dtype=np.uint64)]),
        np.concatenate([drawn.z, np.array([p.z for p in planted], dtype=np.uint64)]),
    )
    blochs = haar_directions(rng, n) * rng.uniform(0, 1, size=(n, 1))
    product = ProductState(tuple(BlochVector(*b) for b in blochs))
    for state in (StabilizerState(group), product, MaximallyMixed(n)):
        assert batch.f(state).tolist() == scalar_f(state, batch)
    f = batch.f(StabilizerState(group))
    assert sorted(f[-9:-1]) == [-1.0] * 4 + [1.0] * 4
    if n == 64:
        assert (batch.x | batch.z).max() >> np.uint64(63) == 1


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_stabilizer_batch_of_members_only_up_to_64_qubits(n, seed):
    rng = substream(seed, "members")
    group = random_stabilizer_group(n, rng)
    top = 1 << (n - 1)
    # 100 products of random generator subsets, the first acting on the top
    # qubit (bit 63 at n = 64); then 200 draws of them with random signs, so
    # strings repeat with both signs
    products = [next(g for g in group.generators if (g.x | g.z) & top)] + [
        pauli_product_many([PauliOperator.identity(n), *compress(group.generators, rng.integers(0, 2, size=n))])
        .to_operator()
        for _ in range(99)
    ]
    picks = np.concatenate([[0], rng.integers(0, len(products), size=199)])
    negated = rng.integers(0, 2, size=200)
    batch = pauli_batch(n, (products[i].negated() if neg else products[i] for i, neg in zip(picks, negated)))
    state = StabilizerState(group)
    f = batch.f(state)
    assert f.tolist() == [-1.0 if neg else 1.0 for neg in negated]
    assert f.tolist() == scalar_f(state, batch)
    if n == 64:
        assert (batch.x | batch.z).max() >> np.uint64(63) == 1


def test_stabilizer_batch_needs_no_bitwise_count(monkeypatch):
    """pyproject allows numpy 1.24, and np.bitwise_count came with numpy 2.0."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    rng = substream(8, "numpy-floor")
    cases = [
        (StabilizerState(random_stabilizer_group(3, rng)), UniformPauli(3).draw(rng, 400)),
        (StabilizerState(random_stabilizer_group(64, rng)), UniformPauli(64).draw(rng, 50)),
        (StabilizerState(StabilizerGroup.basis_state(0b1011, 16)), UniformParity(16).draw(rng, 400)),
    ]
    for state, batch in cases:
        assert batch.f(state).tolist() == scalar_f(state, batch)
    state, batch = cases[0]
    assert set(batch.f(state).tolist()) == {-1.0, 0.0, 1.0}


def test_haar_draw_is_qubits_then_haar_directions():
    m = 200
    a, b = substream(7, "twin"), substream(7, "twin")
    batch = HaarSingleQubitProduct(5).draw(a, m)
    assert np.array_equal(batch.qubits, b.integers(0, 5, size=m))
    assert np.array_equal(batch.directions, haar_directions(b, m))
    assert a.random() == b.random()


@pytest.mark.parametrize(
    "weights",
    [(0.1, 0.2, 0.7), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), (0.5, Fraction(1, 4), 0.25)],
    ids=["floats", "thirds", "mixed"],
)
def test_finite_draw_is_scalar_samples(weights):
    items = tuple(
        (PauliMeasurement(PauliOperator.from_string(text)), w) for text, w in zip(("+X", "-Z", "+Y"), weights)
    )
    d = FiniteWeighted(items)
    m = 2000
    a, b = substream(8, "twin"), substream(8, "twin")
    assert list(d.draw(a, m)) == [d.sample(b) for _ in range(m)]
    assert a.random() == b.random()


class Thresholds:
    """A stand-in generator whose uniform draws are the given values, in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        drawn, self.values = self.values[:size], self.values[size:]
        return np.array(drawn)


def test_finite_draw_ties_and_overflow_follow_sample():
    # ten weights of 0.1 run to 0.9999999999999999 < 1: a threshold equal to a
    # running sum belongs to the next item, one past the total to the last
    d = FiniteWeighted(tuple((parity_measurement(x, 4), 0.1) for x in range(10)))
    ends = np.cumsum([0.1] * 10)
    assert ends[-1] < 1.0
    thresholds = [0.0, *ends[:-1], ends[-1], 1.0 - 2.0**-53, 0.05]
    scalar = Thresholds(thresholds)
    assert list(d.draw(Thresholds(thresholds), len(thresholds))) == [d.sample(scalar) for _ in thresholds]
