"""A query that declares a family on one qubit is answered on that qubit's
atoms of a projector table only, and the answer is the full-table answer bit
for bit: every atom it drops adds a term of +-0.0 to the running sum."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulisq.oracle as oracle_module
from paulisq.learners import _AxisSignQuery, _axis_queries, learn_product_state
from paulisq.oracle import (
    BoundedChannelNoise,
    ClassificationCorrectedOracle,
    ClassificationNoise,
    DepolarizingCorrectedOracle,
    DepolarizingNoise,
    ExactPolicy,
    MaliciousNoise,
    NoNoise,
    OracleConfig,
    SQQuery,
    StatisticalQueryOracle,
    UnboundedQuery,
    _atoms,
    _evaluate,
    _label_family,
    _LabelPart,
    _mixed_table,
    _qubit_views,
    _Table,
    _table,
)
from paulisq.pauli import PauliMeasurement, PauliOperator
from paulisq.pconcept import (
    BlochVector,
    FiniteWeighted,
    HaarSingleQubitProduct,
    IndexBatch,
    ProductState,
    SingleQubitProjector,
)
from paulisq.streams import substream

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


def _unit(v) -> BlochVector:
    return BlochVector(*(v / np.linalg.norm(v)))


def _product_state(n: int, seed: int) -> ProductState:
    rng = substream(seed, "view-state")
    return ProductState(tuple(BlochVector(*(v / np.linalg.norm(v) * 0.8)) for v in rng.normal(size=(n, 3))))


def _projectors(n: int, qubits) -> FiniteWeighted:
    """Projectors on the given qubits, in that order, with equal weights."""
    rng = substream(n, "view-projectors", len(qubits))
    return FiniteWeighted(tuple((SingleQubitProjector(n, q, _unit(rng.normal(size=3))), 1 / len(qubits)) for q in qubits))


DISTRIBUTIONS = {
    "haar": HaarSingleQubitProduct,
    # the qubits interleave, so no qubit's atoms are contiguous past n = 1
    "finite-projectors": lambda n: _projectors(n, [q % n for q in range(8)]),
    # every atom on qubit 0: the other qubits have none
    "finite-one-qubit": lambda n: _projectors(n, [0, 0, 0]),
}


class _Family:
    """A family of `members` on `qubit`, its array form their array forms
    stacked as rows; each member declares it in its `_family`."""

    def __init__(self, qubit, members):
        self.qubit, self.members = qubit, tuple(members)
        for member in self.members:
            member._family = self

    def on_projectors(self, qubits, directions):
        rows = [member.on_projectors(qubits, directions) for member in self.members]
        return np.stack([plus for plus, _ in rows]), np.stack([minus for _, minus in rows])


class _Undeclared:
    """phi with its array form and its scalar form, but no declared family."""

    def __init__(self, phi):
        self.phi = phi
        self.on_projectors = phi.on_projectors

    def __call__(self, e, y):
        return self.phi(e, y)


def _forms(q) -> list:
    return [q, _LabelPart(q, odd=False), _LabelPart(q, odd=True)]


def _assert_declared_reads_like_full(table: _Table, n: int):
    for axes in _axis_queries(n):
        for q in axes:
            for phi in _forms(q):
                assert table.answer(phi).hex() == _evaluate(table.weights, phi).hex()


@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
@pytest.mark.parametrize("noise", list(NOISES), ids=list(NOISES))
def test_declared_answer_is_the_full_table_answer(distribution, noise):
    for n in (1, 2, 3):
        d = DISTRIBUTIONS[distribution](n)
        for seed in range(3):
            state = _product_state(n, 10 * n + seed)
            _assert_declared_reads_like_full(_table.__wrapped__(state, d, NOISES[noise](n)), n)
        _assert_declared_reads_like_full(_mixed_table.__wrapped__(d), n)


@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
@pytest.mark.parametrize("wrapper", ["classification", "depolarizing"])
def test_declared_answer_through_the_correction_wrappers(distribution, wrapper):
    for n in (1, 2, 3):
        d = DISTRIBUTIONS[distribution](n)
        noise = NOISES[wrapper](n)
        state = _product_state(n, n)
        for axes in _axis_queries(n):
            for q in axes:
                answers = []
                for phi in (q, _Undeclared(q), lambda e, y, q=q: q(e, y)):
                    inner = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), noise))
                    answers.append(noise.learner_oracle(inner).query(SQQuery(phi, 0.5)).hex())
                assert answers[0] == answers[1] == answers[2]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 64),
    data=st.data(),
    noise=st.sampled_from(sorted(NOISES)),
    seed=st.integers(0, 2**16),
)
def test_declared_answer_is_the_full_table_answer_up_to_64_qubits(n, data, noise, seed):
    q = _AxisSignQuery(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2)))
    d = HaarSingleQubitProduct(n)
    for table in (_table.__wrapped__(_product_state(n, seed), d, NOISES[noise](n)), _mixed_table.__wrapped__(d)):
        for phi in _forms(q):
            assert table.answer(phi).hex() == _evaluate(table.weights, phi).hex()


def test_learner_hypothesis_is_unchanged_by_the_views(monkeypatch):
    n = 5
    state = _product_state(n, 3)
    config = OracleConfig(ExactPolicy(), ClassificationNoise(0.2))
    d = HaarSingleQubitProduct(n)

    def learned():
        oracle = StatisticalQueryOracle(state, d, config)
        return learn_product_state(ClassificationCorrectedOracle(oracle, 0.2), 0.01).state

    fast = learned()
    _table.cache_clear()
    monkeypatch.setattr(_Table, "_view", lambda self, qubit: self.weights)
    assert learned() == fast
    _table.cache_clear()


def test_views_are_each_qubits_atoms_in_table_order():
    n = 3
    state, d = _product_state(n, 1), HaarSingleQubitProduct(n)
    for noise in ("none", "malicious", "malicious-projector"):
        weights = NOISES[noise](n).label_weights(_atoms(state, d))
        batch, accept, reject = weights
        for qubit, (view, view_accept, view_reject) in enumerate(_qubit_views(weights)):
            mask = batch.qubits == qubit
            assert view.qubits.tolist() == batch.qubits[mask].tolist()
            assert view.directions.tobytes() == batch.directions[mask].tobytes()
            assert view_accept.tobytes() == accept[mask].tobytes()
            assert view_reject.tobytes() == reject[mask].tobytes()
            # a view is a slice of the table's arrays exactly where the qubit's
            # atoms are contiguous: all of the qubit-major Haar atoms, none of the
            # default corruption's concatenation, and in the projector corruption's
            # all but qubit 0's (qubit 2's corrupted atom follows its Haar atoms)
            contiguous = bool(np.all(np.diff(np.flatnonzero(mask)) == 1))
            assert np.shares_memory(view.directions, batch.directions) == contiguous
            assert contiguous == {"none": True, "malicious": False, "malicious-projector": qubit > 0}[noise]


def test_a_qubit_without_atoms_reads_the_whole_table():
    n = 3
    weights = NoNoise().label_weights(_atoms(_product_state(n, 2), DISTRIBUTIONS["finite-one-qubit"](n)))
    views = _qubit_views(weights)
    assert len(views[0][0]) == 3 and views[1] is weights and views[2] is weights


class _Counting:
    """An axis query, declared as the one member of a family on its qubit,
    that records how many atoms each call reads."""

    def __init__(self, qubit: int, axis: int, seen: list):
        self._q, self._seen = _AxisSignQuery(qubit, axis), seen
        _Family(qubit, [self])

    def __call__(self, e, y):
        self._seen.append(1)
        return self._q(e, y)

    def on_projectors(self, qubits, directions):
        self._seen.append(len(qubits))
        return self._q.on_projectors(qubits, directions)


def test_a_declared_query_reads_its_qubits_atoms_only():
    n = 4
    d = HaarSingleQubitProduct(n)
    per_qubit = len(d.atoms()[1]) // n
    seen = []
    table = _table.__wrapped__(_product_state(n, 4), d, NoNoise())
    table.answer(_Counting(2, 0, seen))
    assert seen == [per_qubit]
    # a Pauli corruption leaves an IndexBatch, which is read pair by pair in full
    seen.clear()
    table = _table.__wrapped__(_product_state(n, 4), d, NOISES["malicious-pauli"](n))
    assert isinstance(table.weights[0], IndexBatch)
    table.answer(_Counting(2, 0, seen))
    assert len(seen) == 2 * len(table.weights[0])


@pytest.mark.parametrize("qubit", [-1, 4, 2.0, None])
def test_an_out_of_range_or_non_int_declaration_reads_the_whole_table(qubit):
    n = 4
    table = _table.__wrapped__(_product_state(n, 5), HaarSingleQubitProduct(n), NoNoise())
    seen = []
    q = _Counting(1, 2, seen)
    q._family.qubit = qubit
    assert table._view(qubit) is table.weights
    # the family and the family of its label parts both read every atom
    for phi in _forms(q):
        assert phi._family.qubit is qubit
        seen.clear()
        assert table.answer(phi).hex() == _evaluate(table.weights, phi).hex()
        assert seen[0] == len(table.weights[0])
    assert table._views is None


class _NamesAQubit:
    """A query with an int `qubit` field that reads every qubit, and does not
    declare that it reads one."""

    qubit = 0

    def __call__(self, e, y):
        return 0.5 * y * e.axis.as_tuple()[2]

    def on_projectors(self, qubits, directions):
        return 0.5 * directions[:, 2], -0.5 * directions[:, 2]


@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
def test_a_qubit_field_without_the_declaration_reads_the_whole_table(distribution):
    n = 3
    d = DISTRIBUTIONS[distribution](n)
    table = _table.__wrapped__(_product_state(n, 8), d, ClassificationNoise(0.2))
    for phi in (_NamesAQubit(), _LabelPart(_NamesAQubit(), odd=False), _LabelPart(_NamesAQubit(), odd=True)):
        assert getattr(phi, "_family", None) is None
        assert table.answer(phi).hex() == _evaluate(table.weights, phi).hex()
    assert table._views is None
    assert table.answer(_NamesAQubit()) != 0.0


def test_a_table_builds_each_qubits_view_once(monkeypatch):
    calls = []

    def counting(weights):
        calls.append(weights)
        return _qubit_views(weights)

    monkeypatch.setattr(oracle_module, "_qubit_views", counting)
    n = 3
    table = _table.__wrapped__(_product_state(n, 6), HaarSingleQubitProduct(n), NoNoise())
    views = []
    for _ in range(2):
        for axes in _axis_queries(n):
            for q in axes:
                for phi in (_Undeclared(q), *_forms(q)):
                    table.answer(phi)
        views.append(table._views)
    assert len(calls) == 1 and views[0] is views[1]
    for qubit in range(n):
        assert table._view(qubit) is views[0][qubit]


def _declared_spike(qubit: int, value: float):
    """Declares a family on `qubit`; inside [-1, 1] except at that qubit's last atom on y = -1."""
    class Spike(_Counting):
        def on_projectors(self, qubits, directions):
            plus = np.zeros(len(qubits))
            minus = np.zeros(len(qubits))
            minus[np.flatnonzero(qubits == qubit)[-1]] = value
            return plus, minus

    return Spike(qubit, 0, [])


@pytest.mark.parametrize("value", [1.5, -5.0, math.nan], ids=["above", "below", "nan"])
@pytest.mark.parametrize("distribution", ["haar", "finite-projectors"])
def test_a_value_outside_the_bound_on_the_declared_qubit_raises(value, distribution):
    n = 3
    d = DISTRIBUTIONS[distribution](n)
    state = _product_state(n, 7)
    for qubit in range(n):
        phi = _declared_spike(qubit, value)
        with pytest.raises(UnboundedQuery):
            _table.__wrapped__(state, d, NoNoise()).answer(phi)
        with pytest.raises(UnboundedQuery):
            _mixed_table.__wrapped__(d).answer(phi)
        inner = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), ClassificationNoise(0.1)))
        wrapped = ClassificationCorrectedOracle(inner, 0.1)
        with pytest.raises(UnboundedQuery):
            wrapped.query(SQQuery(phi, 0.1))
        inner = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), DepolarizingNoise(0.3)))
        wrapped = DepolarizingCorrectedOracle(inner, 0.3)
        with pytest.raises(UnboundedQuery):
            wrapped.query(SQQuery(phi, 0.1))
        assert inner.query_count == 0


def test_a_label_part_declares_its_querys_qubit_and_array_form():
    # a part's family is the label family of its query's family, which
    # carries the qubit: one object per base family, whose members are the
    # parts (even, odd) of each base member
    axes = _axis_queries(3)[2]
    q = axes[1]
    scalar = lambda e, y: 0.0  # noqa: E731
    family = _LabelPart(q, False)._family
    assert family is _LabelPart(q, True)._family is _label_family(q._family)
    assert family.qubit == 2 and family.members == tuple(_LabelPart(a, odd) for a in axes for odd in (False, True))
    for odd in (False, True):
        assert hasattr(_LabelPart(q, odd), "on_projectors")
        assert _LabelPart(scalar, odd)._family is None and _LabelPart(_AxisSignQuery(2, 1), odd)._family is None
        assert getattr(_LabelPart(scalar, odd), "on_projectors", None) is None
    # a part of a part keeps both
    assert _LabelPart(_LabelPart(q, True), False)._family.qubit == 2
    assert _LabelPart(_LabelPart(q, True), False)._family is _label_family(family)
    assert hasattr(_LabelPart(_LabelPart(q, True), False), "on_projectors")
    # a field named qubit is no declaration
    for odd in (False, True):
        assert _LabelPart(_NamesAQubit(), odd)._family is None


def test_a_label_part_is_freed_without_the_cyclic_collector():
    # the classification wrapper makes two parts per query; a part that kept
    # its own bound method would wait for a full collection to be freed, and
    # reading a family member's part's family must keep nothing on the part
    gc.disable()
    try:
        for phi in (_AxisSignQuery(0, 1), _axis_queries(2)[1][0], lambda e, y: 0.0):
            part = _LabelPart(phi, odd=True)
            getattr(part, "on_projectors", None)
            getattr(part, "_family", None)
            ref = weakref.ref(part)
            del part
            assert ref() is None
    finally:
        gc.enable()
