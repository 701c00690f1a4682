"""The exact-answer kernel on projector tables against its reference.

A table finds each qubit's atoms through its batch's cached runs, checks an
array form's two label arrays in one pass, and the learners' axis queries
take their sign in one ufunc.  tests/dense_ref.py keeps the kernel as it
read before (its `_values`, `_evaluate` and per-table `_qubit_views`, and
the axis queries' two-comparison array form); every answer here must match
it bit for bit, or fail with the same message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ref import (
    axis_sign_on_projectors,
    check_bound,
    reference_evaluate,
    reference_qubit_views,
    reference_table_answer,
    reference_values,
)
from paulisq.learners import _AxisSignQuery, _axis_queries
from paulisq.oracle import (
    ClassificationNoise,
    MaliciousNoise,
    NoNoise,
    UnboundedQuery,
    _check_bound,
    _LabelPart,
    _mixed_table,
    _qubit_views,
    _Table,
    _table,
    _values,
)
from paulisq.pconcept import (
    BlochVector,
    FiniteWeighted,
    HaarSingleQubitProduct,
    ProductState,
    ProjectorBatch,
    SingleQubitProjector,
    draw_outcomes,
)
from paulisq.streams import substream
from test_qubit_views import NOISES, _Family

# values a query may return on either label: signed zeros, the bound itself,
# the bound's slack and just past it, and NaN
EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 1.0 + 1e-9, -(1.0 + 2e-9), 1.0 + 2e-9, math.nan]


def _unit(v) -> BlochVector:
    return BlochVector(*(v / np.linalg.norm(v)))


def _product_state(n: int, seed: int) -> ProductState:
    rng = substream(seed, "kernel-state")
    return ProductState(tuple(BlochVector(*(v / np.linalg.norm(v) * 0.8)) for v in rng.normal(size=(n, 3))))


def _projectors(n: int, qubits, seed: int = 0) -> FiniteWeighted:
    """Projectors on the given qubits, in that order, with equal weights; one
    in four lies in a coordinate plane, so some components are +-0.0."""
    rng = substream(seed, "kernel-projectors", n, len(qubits))
    items = []
    for k, q in enumerate(qubits):
        v = rng.normal(size=3)
        if k % 4 == 3:
            v[k % 3] = -0.0 if k % 8 == 7 else 0.0
        items.append((SingleQubitProjector(n, q, _unit(v)), 1 / len(qubits)))
    return FiniteWeighted(tuple(items))


DISTRIBUTIONS = {
    "haar": HaarSingleQubitProduct,
    # the qubits interleave, so no qubit's atoms are contiguous past n = 1
    "finite-projectors": lambda n: _projectors(n, [q % n for q in range(8)]),
    # every atom on qubit 0: the other qubits have none
    "finite-one-qubit": lambda n: _projectors(n, [0, 0, 0]),
}


class _OldAxis:
    """An axis query with its two-comparison array form from dense_ref,
    declared as the one member of a family on its qubit."""

    def __init__(self, q: _AxisSignQuery):
        self._q = q
        _Family(q.qubit, [self])

    def __call__(self, e, y):
        return self._q(e, y)

    def on_projectors(self, qubits, directions):
        return axis_sign_on_projectors(self._q.qubit, self._q.axis, qubits, directions)


class _Valued:
    """A query that declares a family on `qubit`, of itself alone: on a
    projector of that qubit it returns values[0] for y = 1 and values[1]
    for y = -1 where component `axis` is positive, and values[2], values[3]
    where it is not; on any other measurement `off` for both labels."""

    def __init__(self, qubit: int, axis: int, values, off: float = 0.0):
        self.qubit, self.axis, self.values, self.off = qubit, axis, tuple(values), off
        _Family(qubit, [self])

    def __call__(self, e, y):
        if isinstance(e, SingleQubitProjector) and e.qubit == self.qubit:
            positive = e.axis.as_tuple()[self.axis] > 0
            return self.values[(0 if positive else 2) + (0 if y == 1 else 1)]
        return self.off

    def on_projectors(self, qubits, directions):
        positive = directions[:, self.axis] > 0
        on = qubits == self.qubit
        v = self.values
        plus = np.where(on, np.where(positive, v[0], v[2]), self.off)
        minus = np.where(on, np.where(positive, v[1], v[3]), self.off)
        return plus, minus


def _outcome(call):
    """A call's result as hex, or the message of the UnboundedQuery it raised."""
    try:
        value = call()
    except UnboundedQuery as exc:
        return "raised: " + str(exc)
    if isinstance(value, tuple):
        return tuple(v.tobytes() for v in value)
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return value.hex()


def _forms(phi) -> list:
    return [phi, _LabelPart(phi, odd=False), _LabelPart(phi, odd=True)]


def _tables(state, d, noise) -> list:
    return [_table.__wrapped__(state, d, noise), _mixed_table.__wrapped__(d)]


def _assert_table_matches_reference(table: _Table, phi):
    fast = _outcome(lambda: table.answer(phi))
    assert fast == _outcome(lambda: reference_table_answer(table.weights, phi))
    # a declared query reads like the whole table, or fails with the same message
    assert fast == _outcome(lambda: reference_evaluate(table.weights, phi))


def test_axis_sign_array_form_is_the_two_comparison_form_on_finite_components():
    components = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.3, -0.7, 1e300, -1e300]
    n = 3
    rows = [(q, c) for q in range(n) for c in components]
    qubits = np.array([q for q, _ in rows])
    for axis in range(3):
        directions = np.full((len(rows), 3), 0.5)
        directions[:, axis] = [c for _, c in rows]
        for qubit in range(n):
            new = _AxisSignQuery(qubit, axis).on_projectors(qubits, directions)
            old = axis_sign_on_projectors(qubit, axis, qubits, directions)
            assert [a.tobytes() for a in new] == [a.tobytes() for a in old]


def test_axis_sign_array_form_is_the_scalar_form():
    n = 2
    d = _projectors(n, [0, 1, 0, 1, 1, 0, 0, 1], seed=4)
    batch = d.atoms()[0]
    for axes in _axis_queries(n):
        for q in axes:
            plus, minus = q.on_projectors(batch.qubits, batch.directions)
            scalar = [(q(e, 1), q(e, -1)) for e in batch]
            assert [(a.hex(), b.hex()) for a, b in zip(plus.tolist(), minus.tolist())] == [
                (a.hex(), b.hex()) for a, b in scalar
            ]


def test_a_nan_direction_component_now_fails_the_bound_check():
    # no package-made batch holds a NaN: this pins what an axis query does on
    # one.  np.sign gives NaN there, which the bound check refuses; the
    # two-comparison form scored it 0.0, as the scalar form still does
    n = 2
    directions = np.array([[0.6, 0.0, 0.8], [math.nan, 0.6, 0.8], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    batch = ProjectorBatch(n, np.array([0, 1, 1, 0]), directions)
    weights = (batch, np.full(4, 0.125), np.full(4, 0.125))
    plus, minus = _AxisSignQuery(1, 0).on_projectors(batch.qubits, batch.directions)
    assert math.isnan(plus[1]) and math.isnan(minus[1])
    old = axis_sign_on_projectors(1, 0, batch.qubits, batch.directions)
    assert old[0][1] == 0.0 and old[1][1] == 0.0
    for phi in _forms(_AxisSignQuery(1, 0)):
        with pytest.raises(UnboundedQuery, match="query returned nan"):
            _Table(weights).answer(phi)
    assert reference_evaluate(weights, _OldAxis(_AxisSignQuery(1, 0))) == 0.0
    # the NaN row is off qubit 0 and off axes 1 and 2: those queries are as before
    for q in (_AxisSignQuery(0, 0), _AxisSignQuery(1, 1), _AxisSignQuery(1, 2)):
        assert _Table(weights).answer(q).hex() == reference_table_answer(weights, _OldAxis(q)).hex()


@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
@pytest.mark.parametrize("noise", list(NOISES), ids=list(NOISES))
def test_axis_queries_match_the_reference_kernel(distribution, noise):
    for n in (1, 2, 3):
        d = DISTRIBUTIONS[distribution](n)
        for seed in range(2):
            for table in _tables(_product_state(n, 10 * n + seed), d, NOISES[noise](n)):
                for axes in _axis_queries(n):
                    for q in axes:
                        for fast, old in zip(_forms(q), _forms(_OldAxis(q))):
                            assert table.answer(fast).hex() == reference_table_answer(table.weights, old).hex()
                            _assert_table_matches_reference(table, fast)


@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
@pytest.mark.parametrize("noise", list(NOISES), ids=list(NOISES))
def test_edge_valued_queries_match_the_reference_kernel(distribution, noise):
    rng = substream(7, "kernel-edge-values", distribution, noise)
    for n in (1, 2, 3):
        d = DISTRIBUTIONS[distribution](n)
        tables = _tables(_product_state(n, n), d, NOISES[noise](n))
        for qubit in range(n):
            for _ in range(6):
                values = [EDGE_VALUES[i] for i in rng.integers(0, len(EDGE_VALUES), size=4)]
                phi = _Valued(qubit, int(rng.integers(0, 3)), values, off=float(rng.choice([0.0, -0.0])))
                for table in tables:
                    for form in _forms(phi):
                        _assert_table_matches_reference(table, form)


@pytest.mark.parametrize("value", EDGE_VALUES, ids=[repr(v) for v in EDGE_VALUES])
@pytest.mark.parametrize("label", ["plus", "minus"])
def test_each_edge_value_on_either_label_reads_as_before(value, label):
    n = 3
    d = HaarSingleQubitProduct(n)
    for qubit in range(n):
        values = [0.5, 0.5, 0.5, 0.5]
        values[0 if label == "plus" else 1] = value
        phi = _Valued(qubit, 2, values)
        for table in _tables(_product_state(n, 5), d, ClassificationNoise(0.1)):
            for form in _forms(phi):
                _assert_table_matches_reference(table, form)
        outcome = _outcome(lambda: _table.__wrapped__(_product_state(n, 5), d, NoNoise()).answer(phi))
        assert outcome.startswith("raised") == (not abs(value) <= 1.0 + 1e-9)


def test_the_first_value_past_the_bound_is_reported_as_two_checks_would():
    # phi(E, 1) is checked before phi(E, -1), whichever atom comes first
    n = 2
    batch = HaarSingleQubitProduct(n).atoms()[0]
    for values, reported in (
        ((0.5, math.nan, 0.5, 1.5), "nan"),
        ((0.5, math.nan, -3.0, 0.5), "-3.0"),
        ((2.0, math.nan, -3.0, 0.5), "2.0"),
    ):
        phi = _Valued(1, 2, values)
        for call in (lambda: _values(phi, batch), lambda: reference_values(phi, batch)):
            with pytest.raises(UnboundedQuery, match=f"query returned {reported},"):
                call()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 16),
    data=st.data(),
    noise=st.sampled_from(sorted(NOISES)),
    distribution=st.sampled_from(["haar", "finite"]),
    seed=st.integers(0, 2**16),
)
def test_the_kernel_matches_the_reference_up_to_16_qubits(n, data, noise, distribution, seed):
    if distribution == "haar":
        d = HaarSingleQubitProduct(n)
    else:
        d = _projectors(n, data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=24)), seed)
    qubit, axis = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))
    values = data.draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=4, max_size=4))
    queries = [_AxisSignQuery(qubit, axis), _Valued(qubit, axis, values, off=data.draw(st.sampled_from([0.0, -0.0])))]
    for table in _tables(_product_state(n, seed), d, NOISES[noise](n)):
        for q in queries:
            for form in _forms(q):
                _assert_table_matches_reference(table, form)
        for fast, old in zip(_forms(queries[0]), _forms(_OldAxis(queries[0]))):
            assert table.answer(fast).hex() == reference_table_answer(table.weights, old).hex()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 16),
    m=st.integers(1, 64),
    data=st.data(),
    seed=st.integers(0, 2**16),
)
def test_drawn_values_match_the_reference(n, m, data, seed):
    rng = substream(seed, "kernel-draw")
    batch = HaarSingleQubitProduct(n).draw(rng, m)
    labels = draw_outcomes(np.zeros(m), rng)
    values = data.draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=4, max_size=4))
    phi = _Valued(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2)), values)
    for form in _forms(phi):
        assert _outcome(lambda: _values(form, batch, labels)) == _outcome(lambda: reference_values(form, batch, labels))
        assert _outcome(lambda: _values(form, batch)) == _outcome(lambda: reference_values(form, batch))


def test_the_bound_check_matches_the_reference():
    rng = substream(3, "kernel-bound")
    for _ in range(200):
        values = np.array([EDGE_VALUES[i] for i in rng.integers(0, len(EDGE_VALUES), size=int(rng.integers(1, 6)))])
        assert _outcome(lambda: _check_bound(values)) == _outcome(lambda: check_bound(values))
    for values in (np.array([math.inf]), np.array([-math.inf, math.nan]), np.zeros((2, 3))):
        assert _outcome(lambda: _check_bound(values)) == _outcome(lambda: check_bound(values))


@pytest.mark.parametrize("noise", list(NOISES), ids=list(NOISES))
@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
def test_views_are_the_reference_views(noise, distribution):
    for n in (1, 2, 3):
        weights = _table.__wrapped__(_product_state(n, 2), DISTRIBUTIONS[distribution](n), NOISES[noise](n)).weights
        if not isinstance(weights[0], ProjectorBatch):
            continue
        for view, old in zip(_qubit_views(weights), reference_qubit_views(weights)):
            if old is weights:
                assert view is weights
                continue
            assert [a.tobytes() for a in (view[0].qubits, view[0].directions, view[1], view[2])] == [
                a.tobytes() for a in (old[0].qubits, old[0].directions, old[1], old[2])
            ]
            # a slice exactly where the reference took one
            for a, b, whole in ((view[0].directions, old[0].directions, weights[0].directions), (view[1], old[1], weights[1])):
                assert np.shares_memory(a, whole) == np.shares_memory(b, whole)


def test_tables_over_one_haar_distribution_share_the_view_batches():
    n = 4
    d = HaarSingleQubitProduct(n)
    first = _table.__wrapped__(_product_state(n, 1), d, NoNoise())
    second = _table.__wrapped__(_product_state(n, 2), d, ClassificationNoise(0.2))
    mixed = _mixed_table.__wrapped__(d)
    assert first.weights[0] is second.weights[0] is mixed.weights[0]
    for axes in _axis_queries(n):
        q = axes[0]
        views = [table._view(q._family.qubit) for table in (first, second, mixed)]
        assert views[0][0] is views[1][0] is views[2][0]
        # each table's weights are its own, sliced from its arrays
        assert views[0][1].tobytes() != views[1][1].tobytes()
        assert np.shares_memory(views[1][1], second.weights[1])
    assert first.weights[0]._qubit_runs is second.weights[0]._qubit_runs
    # a malicious table's concatenated batch finds runs of its own
    malicious = _table.__wrapped__(_product_state(n, 1), d, MaliciousNoise(0.1))
    assert malicious._view(0)[0] is not first._view(0)[0]
