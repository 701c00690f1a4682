"""Batch draws: `distribution.draw(rng, m)` and the batch's f(state) against
the scalar draws of `dense_ref` (`finite_sample`, `uniform_pauli_sample`,
`uniform_parity_sample`) and `f_value`,
measurement by measurement, and Monte Carlo estimates against the
per-sample loop."""

from fractions import Fraction
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ref import (
    finite_sample,
    lower_rank_groups,
    pauli_batch,
    pauli_product_many,
    per_sample_f,
    random_subgroup,
    uniform_parity_sample,
    uniform_pauli_sample,
)
from paulisq.pauli import PauliMeasurement, PauliOperator
from paulisq.pconcept import (
    ITER_BLOCK,
    BlochVector,
    FiniteWeighted,
    HaarSingleQubitProduct,
    IndexBatch,
    MaximallyMixed,
    MonteCarlo,
    PauliBatch,
    ProductState,
    ProjectorBatch,
    SingleQubitProjector,
    StabilizerState,
    UniformParity,
    UniformPauli,
    _mc_estimate,
    _mc_f_arrays,
    _sampled_pauli_batch,
    f_value,
    haar_directions,
    inner_product,
    parity_measurement,
    random_bits,
    squared_loss,
)
from paulisq.stabilizer import StabilizerGroup, enumerate_stabilizer_groups, random_stabilizer_group
from paulisq.streams import substream


def scalar_f(state, batch) -> list:
    return [float(f_value(state, e)) for e in batch]


def same_bytes(a: np.ndarray, b) -> bool:
    """Equal as float64 bytes: 0.0 and -0.0 differ, where == takes them as one."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def zero_product(n: int) -> ProductState:
    """A product state whose every qubit has a zero and a signed-zero Bloch coordinate."""
    return ProductState(tuple(
        BlochVector(0.0, -0.0, 0.6) if i % 2 == 0 else BlochVector(-0.0, -0.8, 0.0) for i in range(n)
    ))


def states_of(n: int) -> list:
    product = ProductState(tuple(BlochVector(0.3 - 0.2 * i, -0.5, 0.6) for i in range(n)))
    return [StabilizerState(g) for g in enumerate_stabilizer_groups(n)] + [product, zero_product(n), MaximallyMixed(n)]


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
            assert same_bytes(batch.f(state), scalar_f(state, batch))


def test_draws_are_uniform_pauli_and_parity_effects():
    rng = substream(6, "draws")
    paulis = list(UniformPauli(2).draw(rng, 4000))
    assert {str(e) for e in paulis} == {str(e) for e, _ in UniformPauli(2).support()}
    parities = list(UniformParity(3).draw(rng, 400))
    assert {str(e) for e in parities} == {str(e) for e, _ in UniformParity(3).support()}


@pytest.mark.parametrize("m", [0, 1, ITER_BLOCK, 2 * ITER_BLOCK + 5])
def test_batch_iteration_makes_the_measurements_from_python_scalars(m):
    # across block ends, with each object holding Python ints, not numpy scalars
    rng = substream(8, "iterate", m)
    for n, batch in ((64, UniformPauli(64).draw(rng, m)), (40, UniformParity(40).draw(rng, m))):
        got = list(batch)
        want = [PauliOperator(n, int(s), int(x), int(z)) for s, x, z in zip(batch.signs, batch.x, batch.z)]
        assert [e.pauli for e in got] == want and all(type(e) is PauliMeasurement for e in got)
        assert all(type(v) is int for e in got for v in (e.pauli.sign, e.pauli.x, e.pauli.z))
    batch = HaarSingleQubitProduct(7).draw(rng, m)
    got = list(batch)
    want = [SingleQubitProjector(7, int(q), BlochVector(*u)) for q, u in zip(batch.qubits, batch.directions)]
    assert got == want and all(type(e.qubit) is int for e in got)


def test_batch_iteration_refuses_what_the_constructors_refuse():
    # the row after a full block holds bits beyond n, a sign of 0, a qubit n
    def bad_at(array, value):
        array = array.copy()
        array[ITER_BLOCK] = value
        return array

    drawn = UniformPauli(3).draw(substream(9, "refuse"), ITER_BLOCK + 2)
    for batch, message in (
        (PauliBatch(3, drawn.signs, bad_at(drawn.x, 8), drawn.z), "x/z bits exceed qubit count"),
        (PauliBatch(3, bad_at(drawn.signs, 0), drawn.x, drawn.z), "sign must be"),
    ):
        made = iter(batch)
        assert len([next(made) for _ in range(ITER_BLOCK)]) == ITER_BLOCK
        with pytest.raises(ValueError, match=message):
            next(made)
    haar = HaarSingleQubitProduct(3).draw(substream(9, "refuse"), ITER_BLOCK + 2)
    for batch, message in (
        (ProjectorBatch(3, bad_at(haar.qubits, 3), haar.directions), "qubit 3 out of range for n=3"),
        (ProjectorBatch(3, haar.qubits, bad_at(haar.directions, 0.5)), "unit length"),
    ):
        with pytest.raises(ValueError, match=message):
            list(batch)


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
    assert list(d.draw(a, m)) == [finite_sample(d, b) for _ in range(m)]
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
    assert list(d.draw(Thresholds(thresholds), len(thresholds))) == [finite_sample(d, scalar) for _ in thresholds]


REPLAYS = {
    "parity": (UniformParity, UniformParity.draw, uniform_parity_sample),
    "pauli": (UniformPauli, _sampled_pauli_batch, uniform_pauli_sample),
}


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
@pytest.mark.parametrize("kind", sorted(REPLAYS))
def test_uniform_batches_replay_the_scalar_samples(kind, seed):
    """UniformParity.draw and the Monte Carlo uniform Pauli batch take the
    stream of m scalar samples, value for value and dtype for dtype, at
    every n up to 64, and leave the generator where the samples do."""
    make, batched, sample = REPLAYS[kind]
    for n in range(1, 65):
        d = make(n)
        for m in (1, 2, 7, 500):
            a = np.random.default_rng(np.random.SeedSequence(seed))
            b = np.random.default_rng(np.random.SeedSequence(seed))
            got = batched(d, a, m)
            want = pauli_batch(n, [sample(d, b).pauli for _ in range(m)])
            for name in ("signs", "x", "z"):
                assert getattr(got, name).dtype == getattr(want, name).dtype, (n, m, name)
                assert np.array_equal(getattr(got, name), getattr(want, name)), (n, m, name)
            assert a.random() == b.random()


# ---------------------------------------------------------------------------
# Monte Carlo estimates: each state's f on one batch of the seeded draws,
# against the per-sample f_value loop, bit for bit


def estimate_hex(estimate) -> tuple:
    return estimate.value.hex(), estimate.std_error.hex(), estimate.samples


def mc_states(n: int, rng) -> list:
    """A random, a basis, a rank-0 and a lower-rank stabilizer state, a product
    state with zero and signed-zero coordinates, and a random product state."""
    group = random_stabilizer_group(n, rng)
    blochs = haar_directions(rng, n) * rng.uniform(0, 1, size=(n, 1))
    return [
        StabilizerState(group),
        StabilizerState(StabilizerGroup.basis_state(random_bits(rng, n), n)),
        MaximallyMixed(n),
        StabilizerState(random_subgroup(group, int(rng.integers(1, n)) if n > 1 else 0, rng)),
        zero_product(n),
        ProductState(tuple(BlochVector(*b) for b in blochs)),
    ]


def mc_distributions(n: int, rng) -> list:
    """Uniform Pauli, uniform parity, and finite distributions over Pauli
    effects and over single-qubit projectors."""
    paulis = FiniteWeighted((
        (PauliMeasurement(PauliOperator.from_string("Y" * n)), Fraction(1, 3)),
        (PauliMeasurement(PauliOperator.identity(n, -1)), Fraction(1, 6)),
        (parity_measurement(1, n), Fraction(1, 4)),
        (uniform_pauli_sample(UniformPauli(n), rng), Fraction(1, 4)),
    ))
    axes = ((0.6, 0.0, -0.8), (-0.0, 1.0, 0.0), (0.0, 0.0, -1.0))
    projectors = FiniteWeighted(tuple(
        (SingleQubitProjector(n, (k * 7) % n, BlochVector(*u)), w) for k, (u, w) in enumerate(zip(axes, (0.5, 0.3, 0.2)))
    ))
    return [UniformPauli(n), UniformParity(n), paulis, projectors]


def check_estimates(d, mode, states, pairs):
    """Each state's f at the draws, as bytes, and inner_product and
    squared_loss of every pair, as hex, against the per-sample loop."""
    reference = {}
    for state in states:
        reference[id(state)] = per_sample_f(state, d, mode)
        assert same_bytes(_mc_f_arrays(state, state, d, mode)[0], reference[id(state)])
    for rho, sigma in pairs:
        fr, fs = reference[id(rho)], reference[id(sigma)]
        assert estimate_hex(inner_product(rho, sigma, d, mode)) == estimate_hex(_mc_estimate(fr * fs))
        assert estimate_hex(squared_loss(rho, sigma, d, mode)) == estimate_hex(_mc_estimate((fr - fs) ** 2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mc_estimates_match_the_per_sample_loop_exhaustively(n):
    rng = substream(21, "mc-exhaustive", n)
    kinds = mc_states(n, rng)
    every = [StabilizerState(g) for g in enumerate_stabilizer_groups(n) + lower_rank_groups(n, rng)]
    # f of every stabilizer state of every rank, and the estimates of every
    # pair of the kinds
    for d in mc_distributions(n, rng):
        check_estimates(d, MonteCarlo(16, 17 + n), kinds + every, [(a, b) for a in kinds for b in kinds])


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_mc_estimates_match_the_per_sample_loop_up_to_64_qubits(n, seed):
    rng = substream(seed, "mc-wide")
    states = mc_states(n, rng)
    # each state with itself and with the next one of another kind
    pairs = [(a, b) for k, a in enumerate(states) for b in (a, states[(k + 1) % len(states)])]
    for d in mc_distributions(n, rng):
        check_estimates(d, MonteCarlo(24, seed), states, pairs)
