"""Queries with an array form answer on a projector batch (an atom table or a
drawn sample) exactly as the same query does when it is evaluated pair by
pair through the scalar adapter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulisq.learners import _AxisSignQuery
from paulisq.oracle import (
    BoundedChannelNoise,
    ClassificationCorrectedOracle,
    ClassificationNoise,
    DepolarizingNoise,
    EmpiricalFromSamples,
    ExactPolicy,
    MaliciousNoise,
    NoNoise,
    OracleConfig,
    SQQuery,
    StatisticalQueryOracle,
    UnboundedQuery,
)
from paulisq.pauli import PauliMeasurement, PauliOperator
from paulisq.pconcept import (
    BlochVector,
    FiniteWeighted,
    HaarSingleQubitProduct,
    ProductState,
    ProjectorBatch,
    SingleQubitProjector,
    StabilizerState,
    f_value,
)
from paulisq.stabilizer import StabilizerGroup, random_stabilizer_group
from paulisq.streams import substream


def _unit(v) -> BlochVector:
    return BlochVector(*(v / np.linalg.norm(v)))


def _product_state(n: int, seed: int) -> ProductState:
    rng = substream(seed, "array-state")
    return ProductState(tuple(BlochVector(*(v / np.linalg.norm(v) * 0.8)) for v in rng.normal(size=(n, 3))))


def _projector_distribution(n: int) -> FiniteWeighted:
    rng = substream(n, "array-projectors")
    items = [(SingleQubitProjector(n, q % n, _unit(rng.normal(size=3))), 0.125) for q in range(8)]
    return FiniteWeighted(tuple(items))


NOISES = {
    "none": lambda n: NoNoise(),
    "classification": lambda n: ClassificationNoise(0.2),
    "depolarizing": lambda n: DepolarizingNoise(0.3),
    "bounded": lambda n: BoundedChannelNoise(0.02, DepolarizingNoise(0.01)),
    "malicious": lambda n: MaliciousNoise(0.25),
    "malicious-projector": lambda n: MaliciousNoise(
        0.25,
        (((SingleQubitProjector(n, n - 1, BlochVector(0.6, 0.0, -0.8)), -1), 0.7),
         ((SingleQubitProjector(n, 0, BlochVector(0.0, 1.0, 0.0)), 1), 0.3)),
    ),
    "malicious-pauli": lambda n: MaliciousNoise(
        0.25, (((PauliMeasurement(PauliOperator.from_string("Z" * n)), 1), 1.0),)
    ),
}

DISTRIBUTIONS = {"haar": HaarSingleQubitProduct, "finite-projectors": _projector_distribution}


def _answers(state, distribution, noise, phi, policy=ExactPolicy()) -> tuple:
    """The answer to phi under the noise, and the answer through the wrapper a
    learner queries, each from a fresh oracle."""
    def fresh():
        return StatisticalQueryOracle(state, distribution, OracleConfig(policy, noise))

    return fresh().query(SQQuery(phi, 0.5)), noise.learner_oracle(fresh()).query(SQQuery(phi, 0.5))


def _assert_native_matches_adapter(n, qubit, axis, distribution, noise, seed, policy=ExactPolicy()):
    state = _product_state(n, seed)
    q = _AxisSignQuery(qubit, axis)
    native = _answers(state, distribution, noise, q, policy)
    adapted = _answers(state, distribution, noise, lambda e, y: q(e, y), policy)
    assert native == adapted  # bit for bit: == on floats, no tolerance


@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
@pytest.mark.parametrize("noise", list(NOISES), ids=list(NOISES))
def test_native_query_answers_like_the_adapter(distribution, noise):
    for n in (1, 2, 3):
        for qubit in range(n):
            for axis in range(3):
                _assert_native_matches_adapter(
                    n, qubit, axis, DISTRIBUTIONS[distribution](n), NOISES[noise](n), seed=10 * n + qubit
                )


@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
@pytest.mark.parametrize("noise", list(NOISES), ids=list(NOISES))
def test_native_query_answers_like_the_adapter_on_drawn_examples(distribution, noise):
    # the empirical policy draws one batch per answer; on Haar draws the array
    # form answers, and its values at the drawn labels sum as the adapter's do
    for n in (1, 2, 3):
        for qubit in range(n):
            for axis in range(3):
                _assert_native_matches_adapter(
                    n, qubit, axis, DISTRIBUTIONS[distribution](n), NOISES[noise](n), seed=10 * n + qubit,
                    policy=EmpiricalFromSamples(samples=300, seed=n + axis),
                )


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 64),
    data=st.data(),
    noise=st.sampled_from(sorted(NOISES)),
    seed=st.integers(0, 2**16),
)
def test_native_query_answers_like_the_adapter_up_to_64_qubits(n, data, noise, seed):
    qubit = data.draw(st.integers(0, n - 1))
    axis = data.draw(st.integers(0, 2))
    _assert_native_matches_adapter(n, qubit, axis, HaarSingleQubitProduct(n), NOISES[noise](n), seed)


class _ArrayOnly:
    """A query that can only be answered through its array form."""

    def __init__(self, on_projectors):
        self.on_projectors = on_projectors

    def __call__(self, e, y):
        raise AssertionError("the per-pair adapter was used")


@pytest.mark.parametrize("noise", ["none", "classification", "depolarizing", "malicious"])
def test_array_form_is_used_on_a_haar_table(noise):
    n = 3
    state, distribution = _product_state(n, 7), HaarSingleQubitProduct(n)
    for qubit in range(n):
        for axis in range(3):
            q = _AxisSignQuery(qubit, axis)
            got = _answers(state, distribution, NOISES[noise](n), _ArrayOnly(q.on_projectors))
            assert got == _answers(state, distribution, NOISES[noise](n), lambda e, y: q(e, y))


@pytest.mark.parametrize("noise", ["none", "classification", "malicious", "malicious-projector"])
def test_array_form_is_used_on_haar_draws(noise):
    n = 3
    state, distribution = _product_state(n, 8), HaarSingleQubitProduct(n)
    policy = EmpiricalFromSamples(samples=500, seed=9)
    for qubit in range(n):
        q = _AxisSignQuery(qubit, 2)
        got = _answers(state, distribution, NOISES[noise](n), _ArrayOnly(q.on_projectors), policy)
        assert got == _answers(state, distribution, NOISES[noise](n), lambda e, y: q(e, y), policy)


def _spike(value):
    """An array form inside [-1, 1] except at the table's last atom on y = -1."""
    def on_projectors(qubits, directions):
        minus = np.zeros(len(qubits))
        minus[-1] = value
        return np.zeros(len(qubits)), minus

    return _ArrayOnly(on_projectors)


@pytest.mark.parametrize("value", [5.0, math.nan], ids=["five", "nan"])
def test_native_query_outside_the_bound_is_rejected(value):
    oracle = StatisticalQueryOracle(_product_state(2, 3), HaarSingleQubitProduct(2))
    with pytest.raises(UnboundedQuery):
        oracle.query(SQQuery(_spike(value), 0.1))
    assert oracle.query_count == 0 and oracle.transcript == []
    wrapped = ClassificationCorrectedOracle(
        StatisticalQueryOracle(_product_state(2, 3), HaarSingleQubitProduct(2),
                               OracleConfig(ExactPolicy(), ClassificationNoise(0.1))),
        0.1,
    )
    with pytest.raises(UnboundedQuery):
        wrapped.query(SQQuery(_spike(value), 0.1))
    assert wrapped.inner.query_count == 0 and wrapped.transcript == []


def test_classification_correction_checks_the_query_itself():
    # phi = 1.5 on y = +1 and 0.5 on y = -1 leaves [-1, 1], but its label-free
    # part (1.0) and label-odd part (0.5 y) do not
    ket0 = StabilizerState(StabilizerGroup.from_strings(["+Z"]))
    point_mass_z = FiniteWeighted(((PauliMeasurement(PauliOperator.from_string("Z")), 1.0),))
    scalar = (ket0, point_mass_z, lambda e, y: 1.5 if y == 1 else 0.5)
    array_form = _ArrayOnly(lambda qubits, u: (np.full(len(qubits), 1.5), np.full(len(qubits), 0.5)))
    for state, distribution, phi in (scalar, (_product_state(2, 5), HaarSingleQubitProduct(2), array_form)):
        inner = StatisticalQueryOracle(state, distribution, OracleConfig(ExactPolicy(), ClassificationNoise(0.1)))
        wrapped = ClassificationCorrectedOracle(inner, 0.1)
        with pytest.raises(UnboundedQuery):
            wrapped.query(SQQuery(phi, 0.1))
        assert (inner.query_count, inner.transcript, wrapped.query_count) == (0, [], 0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_projector_batch_f_is_f_value_bit_for_bit(n, seed):
    # Haar directions and the six axes (signed zeros included), on product
    # states and on stabilizer states with integer Bloch vectors
    rng = substream(seed, "projector-f", n)
    drawn = HaarSingleQubitProduct(n).draw(rng, 64)
    axes = np.array([[1.0, 0.0, 0.0], [-1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [0.0, -1.0, 0.0], [-0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    batch = ProjectorBatch(
        n,
        np.concatenate([drawn.qubits, rng.integers(0, n, size=len(axes))]),
        np.concatenate([drawn.directions, axes]),
    )
    for state in (_product_state(n, seed), StabilizerState(random_stabilizer_group(n, rng))):
        want = np.array([float(f_value(state, e)) for e in batch])
        assert batch.f(state).tobytes() == want.tobytes()
