"""A query pays its dispatch once per oracle, and nothing it answers changes.

The atom-table kernel takes an array-form query's phi(E, 1) and phi(E, -1)
as two arrays; it answers bit for bit as the interleaved kernel kept in
`dense_ref` did.  The learners ask one interned `_AxisSignQuery` per (qubit,
axis), the depolarizing wrapper reads I/2^n off a table it fetched when it
was built, and every count, transcript row and sampled reference stays as
it was.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulisq.oracle as oracle_module
from dense_ref import PostInitPauliOperator, PostInitProjector, interleaved_evaluate
from paulisq.cli import grid_step
from paulisq.learners import _AxisSignQuery, _axis_queries, learn_basis_state, learn_product_state
from paulisq.oracle import (
    BoundedChannelNoise,
    ClassificationCorrectedOracle,
    ClassificationNoise,
    DepolarizingCorrectedOracle,
    DepolarizingNoise,
    EmpiricalFromSamples,
    ExactPolicy,
    MaliciousNoise,
    NoNoise,
    OracleConfig,
    SQQuery,
    StatisticalQueryOracle,
    UnboundedQuery,
    _atoms,
    _evaluate,
    _LabelPart,
    _mixed_table,
    _table,
    draw_validation_set,
    eta_grid_search,
    expectation_on_maximally_mixed,
)
from paulisq.pauli import BudgetExceeded, PauliMeasurement, PauliOperator
from paulisq.pconcept import (
    BlochVector,
    HaarSingleQubitProduct,
    MaximallyMixed,
    ProductState,
    SingleQubitProjector,
    StabilizerState,
    UniformParity,
    UniformPauli,
)
from paulisq.stabilizer import StabilizerGroup, random_stabilizer_group
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
    # a Pauli corruption leaves no projector batch: both kernels read phi pair by pair
    "malicious-pauli": lambda n: MaliciousNoise(
        0.25, (((PauliMeasurement(PauliOperator.from_string("Z" * n)), 1), 1.0),)
    ),
}


def label_query(e, y):
    return float(y)


def _product_state(n: int, rng, pure: bool = False) -> ProductState:
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    if not pure:
        v *= rng.uniform(0.0, 1.0, size=(n, 1))
    return ProductState(tuple(BlochVector(*row) for row in v))


def _states(n: int, seed: int) -> list:
    rng = substream(seed, "dispatch-states", n)
    return [
        _product_state(n, rng),
        _product_state(n, rng, pure=True),
        StabilizerState(random_stabilizer_group(n, rng)),
        MaximallyMixed(n),
    ]


class _Smooth:
    """An array-form query whose values are not +-1 or 0, so that the kernel's
    products round: phi(E, 1) = 0.9 u.w_q and phi(E, -1) = -0.7 u_z w_q,z,
    for one fixed unit vector w_q per qubit."""

    def __init__(self, n: int, seed: int):
        w = substream(seed, "smooth-query", n).normal(size=(n, 3))
        self.w = w / np.linalg.norm(w, axis=1)[:, None]

    def on_projectors(self, qubits, directions):
        w = self.w[qubits]
        return 0.9 * np.einsum("ij,ij->i", directions, w), -0.7 * directions[:, 2] * w[:, 2]

    def __call__(self, e, y):
        if not isinstance(e, SingleQubitProjector):
            return 0.0
        w = self.w[e.qubit]
        u = e.axis.as_tuple()
        return 0.9 * (u[0] * w[0] + u[1] * w[1] + u[2] * w[2]) if y == 1 else -0.7 * u[2] * w[2]


def _queries(n: int, seed: int) -> list:
    """Every _AxisSignQuery and a smooth query on n qubits, each as itself and
    as both of its label parts."""
    bases = [q for axes in _axis_queries(n) for q in axes] + [_Smooth(n, seed)]
    return [form for q in bases for form in (q, _LabelPart(q, odd=False), _LabelPart(q, odd=True))]


def _assert_kernels_agree(table, phi):
    assert _evaluate(table, phi).hex() == interleaved_evaluate(table, phi).hex()


@pytest.mark.parametrize("noise", list(NOISES), ids=list(NOISES))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_array_kernel_is_the_interleaved_kernel_on_every_haar_table(n, noise):
    d = HaarSingleQubitProduct(n)
    queries = _queries(n, seed=n)
    tables = [NOISES[noise](n).label_weights(_atoms(state, d)) for state in _states(n, seed=n)]
    for table in tables + [_mixed_table(d).weights]:
        for phi in queries:
            _assert_kernels_agree(table, phi)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 8),
    data=st.data(),
    noise=st.sampled_from(sorted(NOISES)),
    seed=st.integers(0, 2**16),
)
def test_two_array_kernel_is_the_interleaved_kernel_up_to_8_qubits(n, data, noise, seed):
    d = HaarSingleQubitProduct(n)
    state = _product_state(n, substream(seed, "dispatch-hypothesis"), pure=data.draw(st.booleans()))
    base = data.draw(st.sampled_from([_AxisSignQuery(data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))), _Smooth(n, seed)]))
    part = data.draw(st.sampled_from([None, False, True]))
    phi = base if part is None else _LabelPart(base, odd=part)
    for table in (NOISES[noise](n).label_weights(_atoms(state, d)), _mixed_table(d).weights):
        _assert_kernels_agree(table, phi)


class _ArrayOnly:
    """A query answered only through its array form, hashed by identity."""

    def __init__(self, on_projectors):
        self.on_projectors = on_projectors

    def __call__(self, e, y):
        raise AssertionError("the per-pair adapter was used")


def _bad_at(value, label: int, where: int):
    """An array form inside [-1, 1] except at one atom on one label."""
    def on_projectors(qubits, directions):
        plus, minus = np.full(len(qubits), 0.5), np.full(len(qubits), -0.25)
        (plus if label == 1 else minus)[where] = value
        return plus, minus

    return _ArrayOnly(on_projectors)


@pytest.mark.parametrize("where", [0, 137, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("label", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("value", [math.nan, 1.5, -5.0], ids=["nan", "above", "below"])
def test_a_value_outside_the_bound_in_either_array_raises_and_is_not_kept(value, label, where):
    n = 2
    state, d = _product_state(n, substream(71, "unbounded")), HaarSingleQubitProduct(n)
    phi = _bad_at(value, label, where)
    for table in (NoNoise().label_weights(_atoms(state, d)), _mixed_table(d).weights):
        for kernel in (_evaluate, interleaved_evaluate):
            with pytest.raises(UnboundedQuery):
                kernel(table, phi)
    config = OracleConfig(ExactPolicy(), DepolarizingNoise(0.3))
    inner = StatisticalQueryOracle(state, d, config)
    wrapped = DepolarizingCorrectedOracle(inner, 0.3)
    for _ in range(2):
        with pytest.raises(UnboundedQuery):
            wrapped.query(SQQuery(phi, 0.1))
        with pytest.raises(UnboundedQuery):
            _mixed_table(d).answer(phi)
    assert (wrapped.query_count, inner.query_count, inner.transcript) == (0, 0, [])
    assert phi not in _table(state, d, DepolarizingNoise(0.3))._answers
    assert phi not in _mixed_table(d)._answers


# --- query accounting ----------------------------------------------------------


def test_grid_search_issues_twelve_inner_queries_per_learner_at_n4():
    n, epsilon, eta_upper = 4, 0.01, 0.6
    d = HaarSingleQubitProduct(n)
    state = _product_state(n, substream(72, "grid-accounting"))
    noise = DepolarizingNoise(eta_upper)
    oracles, hypotheses = [], []

    def run(guess):
        inner = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), noise))
        wrapped = DepolarizingCorrectedOracle(inner, guess)
        hypothesis = learn_product_state(wrapped, epsilon / 4)
        oracles.append((inner, wrapped))
        hypotheses.append(hypothesis)
        return hypothesis

    validation = draw_validation_set(state, d, 2000, substream(72, "grid-validation"))
    eta_grid_search(run, eta_upper, grid_step(epsilon, eta_upper), validation)
    assert len(oracles) == 31
    for (inner, wrapped), hypothesis in zip(oracles, hypotheses):
        assert hypothesis.queries_used == 3 * n == wrapped.query_count == inner.query_count
        assert [row["query"] for row in inner.transcript] == list(range(1, 3 * n + 1))
        assert hypothesis.transcript is inner.transcript
    assert sum(len(inner.transcript) for inner, _ in oracles) == 31 * 12


@pytest.mark.parametrize("n", [1, 3, 8])
def test_every_learner_asks_3n_queries_of_the_interned_set(n):
    d = HaarSingleQubitProduct(n)
    state = _product_state(n, substream(73, "interned", n))
    asked = []

    class Recording(StatisticalQueryOracle):
        def query(self, q):
            asked.append(q.phi)
            return super().query(q)

    for noise, wrap in ((NoNoise(), lambda o: o), (DepolarizingNoise(0.2), lambda o: DepolarizingCorrectedOracle(o, 0.2))):
        asked.clear()
        hypothesis = learn_product_state(wrap(Recording(state, d, OracleConfig(ExactPolicy(), noise))), 0.01)
        assert hypothesis.queries_used == len(asked) == 3 * n
        assert all(a is b for a, b in zip(asked, (q for axes in _axis_queries(n) for q in axes)))
    basis = StabilizerState(StabilizerGroup.basis_state(1, n))
    asked.clear()
    assert learn_basis_state(Recording(basis, d)).queries_used == len(asked) == n
    assert all(a is axes[2] for a, axes in zip(asked, _axis_queries(n)))


def test_a_query_the_caller_builds_hits_the_table_the_learner_warmed(monkeypatch):
    n = 3
    d, noise = HaarSingleQubitProduct(n), DepolarizingNoise(0.3)
    state = _product_state(n, substream(74, "caller-built"))
    config = OracleConfig(ExactPolicy(), noise)
    learned = learn_product_state(DepolarizingCorrectedOracle(StatisticalQueryOracle(state, d, config), 0.3), 0.01)
    want = [row["answer"] for row in learned.transcript]

    def evaluated(*args):
        raise AssertionError("a warmed table evaluated a query again")

    monkeypatch.setattr(oracle_module, "_evaluate", evaluated)
    inner = StatisticalQueryOracle(state, d, config)
    wrapped = DepolarizingCorrectedOracle(StatisticalQueryOracle(state, d, config), 0.3)
    for k, (i, j) in enumerate((i, j) for i in range(n) for j in range(3)):
        q = _AxisSignQuery(i, j)
        interned = _axis_queries(n)[i][j]
        assert q is not interned and q == interned and hash(q) == hash(interned)
        assert inner.query(SQQuery(q, 0.1)) == want[k]
        wrapped.query(SQQuery(q, 0.1))
    assert [row["answer"] for row in wrapped.inner.transcript] == want


def test_the_exact_mixed_reference_reads_the_table_bound_at_construction(monkeypatch):
    n = 2
    d = HaarSingleQubitProduct(n)
    state = _product_state(n, substream(75, "bound-reference"))
    inner = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), DepolarizingNoise(0.4)))
    wrapped = DepolarizingCorrectedOracle(inner, 0.4)
    q = _axis_queries(n)[1][0]
    want = DepolarizingNoise(0.4).correct(
        StatisticalQueryOracle(state, d, inner.config).query(SQQuery(q, 0.1)),
        expectation_on_maximally_mixed(q, d),
    )

    def called(*args, **kwargs):
        raise AssertionError("the exact reference went through expectation_on_maximally_mixed")

    monkeypatch.setattr(oracle_module, "expectation_on_maximally_mixed", called)
    monkeypatch.setattr(oracle_module, "_mixed_table", called)
    assert wrapped.query(SQQuery(q, 0.1)) == want


def test_an_exact_reference_over_its_budget_is_refused_when_the_wrapper_is_built():
    # the I/2^n table is fetched at construction, so the budget refuses there;
    # a sampled reference builds no table
    n = 17
    state = StabilizerState(StabilizerGroup.basis_state(1, n))
    config = OracleConfig(EmpiricalFromSamples(samples=10, seed=1), DepolarizingNoise(0.1))
    with pytest.raises(BudgetExceeded):
        DepolarizingCorrectedOracle(StatisticalQueryOracle(state, UniformParity(n), config), 0.1)
    wrapped = DepolarizingCorrectedOracle(StatisticalQueryOracle(state, UniformParity(n), config), 0.1, mixed_samples=10)
    assert math.isfinite(wrapped.query(SQQuery(label_query, 0.5))) and wrapped.query_count == 1


def test_a_sampled_mixed_reference_draws_the_same_stream():
    # pinned answers: binding the exact reference leaves the sampled one's
    # stream and draws as they are
    ket0 = StabilizerState(StabilizerGroup.from_strings(["+Z"]))
    inner = StatisticalQueryOracle(ket0, UniformPauli(1), OracleConfig(ExactPolicy(), DepolarizingNoise(0.5)))
    wrapped = DepolarizingCorrectedOracle(inner, 0.5, mixed_samples=1000, seed=5)
    got = [wrapped.query(SQQuery(label_query, 0.05)).hex() for _ in range(2)]
    assert got == ["-0x1.eb851eb851eb8p-6", "-0x1.89374bc6a7efap-7"]
    # on Haar draws the array form answers at the drawn labels
    state = ProductState((BlochVector(0.6, 0.0, 0.8), BlochVector(0.0, -0.6, 0.0)))
    d = HaarSingleQubitProduct(2)
    inner = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), DepolarizingNoise(0.3)))
    wrapped = DepolarizingCorrectedOracle(inner, 0.3, mixed_samples=500, seed=3)
    got = [wrapped.query(SQQuery(_AxisSignQuery(i, 2), 0.05)).hex() for i in range(2)]
    assert got == ["0x1.ace8e307460d0p-3", "-0x1.89374bc6a7ef8p-8"]


def test_classification_parts_answer_as_before_and_keep_their_hash():
    n = 2
    d = HaarSingleQubitProduct(n)
    state = _product_state(n, substream(76, "parts"))
    for q in (q for axes in _axis_queries(n) for q in axes):
        even, odd = _LabelPart(q, odd=False), _LabelPart(q, odd=True)
        assert hash(even) == hash((q, False)) and hash(odd) == hash((q, True))
        assert even == _LabelPart(_AxisSignQuery(q.qubit, q.axis), odd=False) and even != odd
        inner = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), ClassificationNoise(0.2)))
        got = ClassificationCorrectedOracle(inner, 0.2).query(SQQuery(q, 0.1))
        table = ClassificationNoise(0.2).label_weights(_atoms(state, d))
        assert got == interleaved_evaluate(table, even) + ClassificationNoise(0.2).correct(interleaved_evaluate(table, odd))


# --- the hand-written constructors keep the dataclass contract ---------------------


def test_sq_query_keeps_its_fields_validation_equality_and_immutability():
    q = SQQuery(label_query, 0.1)
    assert [f.name for f in dataclasses.fields(SQQuery)] == ["phi", "tau"]
    assert (q.phi, q.tau) == (label_query, 0.1) and SQQuery(phi=label_query, tau=0.1) == q
    assert q != SQQuery(label_query, 0.2) and q != (label_query, 0.1)
    assert hash(q) == hash((label_query, 0.1))
    assert dataclasses.replace(q, tau=0.2) == SQQuery(label_query, 0.2)
    assert repr(q) == f"SQQuery(phi={label_query!r}, tau=0.1)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.tau = 0.5
    for tau in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            SQQuery(label_query, tau)


def test_bloch_vector_converts_checks_and_stays_frozen():
    b = BlochVector(np.float64(0.6), 0, np.float32(0.5))
    assert all(type(c) is float for c in b.as_tuple()) and b.as_tuple() == (0.6, 0.0, float(np.float32(0.5)))
    assert b == BlochVector(0.6, 0.0, float(np.float32(0.5))) and hash(b) == hash(BlochVector(*b.as_tuple()))
    assert [f.name for f in dataclasses.fields(BlochVector)] == ["x", "y", "z"]
    assert dataclasses.replace(b, y=0.0) == b and BlochVector(x=1.0, y=0.0, z=0.0).norm() == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.x = 0.0
    BlochVector(1.0 + 1e-13, 0.0, 0.0)  # within the 1e-12 slack
    with pytest.raises(ValueError, match=r"Bloch vector has norm 1\.4142135623730951 > 1"):
        BlochVector(1, 1, 0)


def _built_or_refused(make, *args):
    """The fields of make(*args), each with its type, or the error it raised."""
    try:
        obj = make(*args)
    except Exception as e:  # compared by type and message
        return type(e), str(e)
    return [(type(v), v) for v in (getattr(obj, f.name) for f in dataclasses.fields(obj))]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(-2, 130), sign=st.sampled_from([1, -1, True, False, 0, 2, -2, 1.0]))
def test_pauli_operator_init_keeps_the_post_init_rule(data, n, sign):
    # negative bits, bits at and beyond n, bool and float signs, n < 1
    top = 1 << max(n, 0)
    bits = st.one_of(st.integers(0, top - 1), st.integers(-(1 << 131), 1 << 131), st.sampled_from([-1, top, True]))
    x, z = data.draw(bits), data.draw(bits)
    built = _built_or_refused(PauliOperator, n, sign, x, z)
    assert built == _built_or_refused(PostInitPauliOperator, n, sign, x, z)
    if isinstance(built, list):  # PauliMeasurement never checked its operator
        p = PauliOperator(n, sign, x, z)
        assert PauliMeasurement(p).__dict__ == {"pauli": p}


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.integers(-2, 130),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    scale=st.sampled_from([1.0, 1.0 - 1e-13, 1.0 - 1e-11, 0.5, 0.0]),
)
def test_single_qubit_projector_init_keeps_the_post_init_rule(data, n, direction, scale):
    # qubits inside [0, n) and at either side of it; axes on, near and off the sphere
    qubit = data.draw(st.one_of(st.integers(0, max(n - 1, 0)), st.sampled_from([-1, n, n + 3, True])))
    norm = math.sqrt(sum(c * c for c in direction))
    axis = BlochVector(*(scale * c / norm for c in direction)) if norm > 1e-3 else BlochVector(0.0, 0.0, scale)
    assert _built_or_refused(SingleQubitProjector, n, qubit, axis) == _built_or_refused(PostInitProjector, n, qubit, axis)


def test_pauli_and_projector_objects_keep_the_dataclass_contract():
    p = PauliOperator(3, -1, 0b101, 0b011)
    e = PauliMeasurement(p)
    proj = SingleQubitProjector(4, 2, BlochVector(0.6, 0.0, 0.8))
    assert PauliOperator(n=3, sign=-1, x=5, z=3) == p and PauliMeasurement(pauli=p).pauli is p
    assert SingleQubitProjector(n=4, qubit=2, axis=BlochVector(0.6, 0.0, 0.8)) == proj
    for obj, values in ((p, (3, -1, 5, 3)), (e, (p,)), (proj, (4, 2, BlochVector(0.6, 0.0, 0.8)))):
        names = [f.name for f in dataclasses.fields(obj)]
        assert tuple(getattr(obj, k) for k in names) == values and hash(obj) == hash(values)
        assert repr(obj) == f"{type(obj).__name__}({', '.join(f'{k}={v!r}' for k, v in zip(names, values))})"
        assert dataclasses.replace(obj) == obj and obj != values
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(obj, protocol))
            assert copy == obj and hash(copy) == hash(obj) and copy.__dict__ == obj.__dict__
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, names[0], values[0])
    assert dataclasses.replace(p, sign=1, z=0) == PauliOperator(3, 1, 5, 0)
    assert dataclasses.replace(e, pauli=p.negated()).pauli == PauliOperator(3, 1, 5, 3)
    assert dataclasses.replace(proj, qubit=3) == SingleQubitProjector(4, 3, BlochVector(0.6, 0.0, 0.8))
    # replace runs the constructor's checks
    with pytest.raises(ValueError, match="x/z bits exceed qubit count"):
        dataclasses.replace(p, n=2)
    with pytest.raises(ValueError, match="sign must be"):
        dataclasses.replace(p, sign=0)
    with pytest.raises(ValueError, match="qubit 4 out of range for n=4"):
        dataclasses.replace(proj, qubit=4)
    with pytest.raises(ValueError, match="unit length"):
        dataclasses.replace(proj, axis=BlochVector(0.5, 0.0, 0.0))
