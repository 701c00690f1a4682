"""A qubit's three axis queries form a family, and so do the classification
wrapper's label parts of them; a projector table answers an asked member
and its later siblings in one pass over the family's array form, on the
family's qubit's atoms.  Every answer must be the answer its member gets
alone, as tests/dense_ref.py reads it, bit for bit, or fail with the same
message; a member whose value fails its bound is kept by no pass but its
own."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulisq.oracle as oracle_module
from dense_ref import label_part_on_projectors, reference_sample_mean, reference_table_answer
from paulisq.learners import _AxisFamily, _AxisSignQuery, _axis_queries, learn_basis_state, learn_product_state
from paulisq.oracle import (
    AdversarialCallback,
    BoundedChannelNoise,
    ClassificationCorrectedOracle,
    ClassificationNoise,
    DefaultAdversary,
    DepolarizingNoise,
    ExactPolicy,
    MaliciousAbsorbingOracle,
    MaliciousNoise,
    NoNoise,
    OracleConfig,
    RandomWithinTau,
    SQQuery,
    StatisticalQueryOracle,
    UnboundedQuery,
    _evaluate,
    _label_family,
    _LabelFamily,
    _LabelPart,
    _mixed_table,
    _qubit_views,
    _sample_mean,
    _sums,
    _Table,
    _table,
)
from paulisq.pconcept import (
    BlochVector,
    HaarSingleQubitProduct,
    ProductState,
    ProjectorBatch,
    StabilizerState,
    draw_outcomes,
)
from paulisq.stabilizer import StabilizerGroup
from paulisq.streams import substream
from test_qubit_views import NOISES, _Family
from test_table_kernel import DISTRIBUTIONS, EDGE_VALUES, _outcome, _product_state, _projectors, _Valued

# the ask orders, as axes asked of each qubit in turn: the product learner's,
# the basis learner's, a later member before an earlier one, and repeats
ORDERS = {
    "xyz": (0, 1, 2),
    "z": (2,),
    "yx": (1, 0),
    "repeats": (0, 1, 2, 1, 0, 2),
    "y-first-repeats": (1, 2, 1, 0, 0),
}


def _tables(n: int, d, noise, seed: int) -> list:
    return [_table.__wrapped__(_product_state(n, seed), d, noise), _mixed_table.__wrapped__(d)]


def _assert_order_matches_reference(table: _Table, n: int, order):
    for axes in _axis_queries(n):
        for axis in order:
            q = axes[axis]
            assert _outcome(lambda: table.answer(q)) == _outcome(lambda: reference_table_answer(table.weights, q))


def test_each_qubits_members_share_one_family():
    for n in (1, 2, 5):
        for qubit, axes in enumerate(_axis_queries(n)):
            family = axes[0]._family
            assert isinstance(family, _AxisFamily) and family.qubit == qubit
            assert family.members is axes and all(q._family is family for q in axes)
            assert [(q.qubit, q.axis) for q in axes] == [(qubit, 0), (qubit, 1), (qubit, 2)]


def test_the_family_declaration_takes_no_part_in_equality_hash_or_repr():
    member = _axis_queries(3)[1][2]
    bare = _AxisSignQuery(1, 2)
    assert bare._family is None and member._family is not None
    assert member == bare and hash(member) == hash(bare) and repr(member) == repr(bare)
    assert {bare: 1.0}[member] == 1.0


def test_family_rows_are_the_members_array_forms():
    # signed zeros, subnormals, huge values and NaN, on rows of every qubit,
    # on the whole batch and on a non-contiguous slice of it
    components = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.3, -0.7, 1e300, -1e300, math.nan]
    n = 3
    rng = substream(1, "family-rows")
    directions = rng.choice(components, size=(4 * len(components), 3))
    qubits = rng.integers(0, n, size=len(directions))
    for rows in (slice(None), slice(1, None, 3)):
        for axes in _axis_queries(n):
            plus, minus = axes[0]._family.on_projectors(qubits[rows], directions[rows])
            assert plus.shape == minus.shape == (3, len(qubits[rows]))
            for axis, q in enumerate(axes):
                member = q.on_projectors(qubits[rows], directions[rows])
                assert plus[axis].tobytes() == member[0].tobytes()
                assert minus[axis].tobytes() == member[1].tobytes()


def test_label_family_rows_are_the_parts_array_forms():
    # signed zeros, subnormals and huge values, on rows of every qubit: on
    # the whole batch, on a non-contiguous slice of it, and on each qubit's
    # view of a table over it, as index runs and, once sorted, as slices.
    # Each row is its part's array form bit for bit, as it reads now and as
    # it read before the label family shared its formula
    components = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 0.3, -0.7, 1e300, -1e300]
    n = 3
    rng = substream(2, "label-family-rows")
    directions = rng.choice(components, size=(4 * len(components), 3))
    qubits = rng.integers(0, n, size=len(directions))
    batches = [(qubits, directions), (qubits[1::3], directions[1::3])]
    for order in (np.arange(len(qubits)), np.argsort(qubits, kind="stable")):
        batch = ProjectorBatch(n, qubits[order], directions[order])
        weights = (batch, np.ones(len(batch)), np.ones(len(batch)))
        batches += [(view[0].qubits, view[0].directions) for view in _qubit_views(weights)]
    for axes in _axis_queries(n):
        family = _label_family(axes[0]._family)
        assert family.qubit == axes[0].qubit
        for batch in batches:
            plus, minus = family.on_projectors(*batch)
            assert plus.shape == minus.shape == (6, len(batch[0]))
            for row, part in enumerate(family.members):
                assert (part.phi, part.odd) == (axes[row // 2], row % 2 == 1)
                for form in (part.on_projectors(*batch), label_part_on_projectors(part.phi, part.odd, *batch)):
                    assert plus[row].tobytes() == form[0].tobytes()
                    assert minus[row].tobytes() == form[1].tobytes()


def test_a_label_family_checks_every_base_value_on_both_labels():
    n = 2
    qubits = np.array([0, 1, 0, 1])
    directions = np.full((4, 3), 0.6)
    for row in range(4):
        for column in range(3):
            bad = directions.copy()
            bad[row, column] = math.nan
            family = _label_family(_axis_queries(n)[int(qubits[row])][0]._family)
            with pytest.raises(UnboundedQuery, match="query returned nan"):
                family.on_projectors(qubits, bad)
            # an off-qubit NaN is +0.0 in every member, and no part of the family reads it
            other = _label_family(_axis_queries(n)[1 - int(qubits[row])][0]._family)
            plus, minus = other.on_projectors(qubits, bad)
            assert not np.isnan(plus).any() and not np.isnan(minus).any()


@pytest.mark.parametrize("order", list(ORDERS), ids=list(ORDERS))
@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
@pytest.mark.parametrize("noise", list(NOISES), ids=list(NOISES))
def test_family_answers_match_the_reference(noise, distribution, order):
    for n in (1, 2, 3):
        d = DISTRIBUTIONS[distribution](n)
        for seed in range(2):
            for table in _tables(n, d, NOISES[noise](n), 10 * n + seed):
                _assert_order_matches_reference(table, n, ORDERS[order])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 16),
    data=st.data(),
    noise=st.sampled_from(sorted(NOISES)),
    distribution=st.sampled_from(["haar", "finite"]),
    order=st.lists(st.integers(0, 2), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_family_answers_match_the_reference_up_to_16_qubits(n, data, noise, distribution, order, seed):
    if distribution == "haar":
        d = HaarSingleQubitProduct(n)
    else:
        d = _projectors(n, data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=24)), seed)
    axes = _axis_queries(n)[data.draw(st.integers(0, n - 1))]
    for table in _tables(n, d, NOISES[noise](n), seed):
        for axis in order:
            q = axes[axis]
            assert _outcome(lambda: table.answer(q)) == _outcome(lambda: reference_table_answer(table.weights, q))


def _assert_wrapper_matches_reference(n: int, d, noise, seed: int, asks):
    """Asks each (qubit, axis) of `asks` in turn through a classification
    wrapper over a fresh table, and checks each answer against the
    reference answers of its two parts, each read alone."""
    _table.cache_clear()
    inner = StatisticalQueryOracle(_product_state(n, seed), d, OracleConfig(ExactPolicy(), noise))
    wrapper = ClassificationCorrectedOracle(inner, 0.2)
    expected = {}
    for qubit, axis in asks:
        q = _axis_queries(n)[qubit][axis]
        answer = wrapper.query(SQQuery(q, 0.1))
        if q not in expected:
            even, odd = (reference_table_answer(inner._exact.weights, _LabelPart(q, odd)) for odd in (False, True))
            expected[q] = even + wrapper.noise.correct(odd)
        assert answer.hex() == expected[q].hex()
    assert inner.query_count == 2 * len(asks)
    _table.cache_clear()


@pytest.mark.parametrize("order", list(ORDERS), ids=list(ORDERS))
@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
@pytest.mark.parametrize("noise", list(NOISES), ids=list(NOISES))
def test_answers_through_the_classification_wrapper_match_the_reference(noise, distribution, order):
    for n in (1, 2, 3):
        d = DISTRIBUTIONS[distribution](n)
        asks = [(qubit, axis) for qubit in range(n) for axis in ORDERS[order]]
        for seed in range(2):
            _assert_wrapper_matches_reference(n, d, NOISES[noise](n), 10 * n + seed, asks)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 16),
    data=st.data(),
    noise=st.sampled_from(sorted(NOISES)),
    distribution=st.sampled_from(["haar", "finite"]),
    seed=st.integers(0, 2**16),
)
def test_answers_through_the_classification_wrapper_match_the_reference_up_to_16_qubits(
    n, data, noise, distribution, seed
):
    if distribution == "haar":
        d = HaarSingleQubitProduct(n)
    else:
        d = _projectors(n, data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=24)), seed)
    asks = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2)), min_size=1, max_size=8))
    _assert_wrapper_matches_reference(n, d, NOISES[noise](n), seed, asks)


def _counting_passes(monkeypatch) -> dict:
    """Counts calls of the family's and the members' array forms."""
    calls = {"family": 0, "member": 0}
    family_form, member_form = _AxisFamily.on_projectors, _AxisSignQuery.on_projectors

    def family(self, qubits, directions):
        calls["family"] += 1
        return family_form(self, qubits, directions)

    def member(self, qubits, directions):
        calls["member"] += 1
        return member_form(self, qubits, directions)

    monkeypatch.setattr(_AxisFamily, "on_projectors", family)
    monkeypatch.setattr(_AxisSignQuery, "on_projectors", member)
    return calls


def test_a_pass_reads_the_asked_member_and_its_later_siblings_only(monkeypatch):
    n = 4
    d = HaarSingleQubitProduct(n)
    calls = _counting_passes(monkeypatch)
    # the product learner asks X, Y, Z: one family pass per qubit, and no other
    state = _product_state(n, 3)
    _table.cache_clear()
    learn_product_state(StatisticalQueryOracle(state, d), 0.01)
    assert calls == {"family": n, "member": 0}
    # the basis learner asks Z only, the last member: a pass of one row per qubit
    calls.update(family=0, member=0)
    _table.cache_clear()
    learn_basis_state(StatisticalQueryOracle(StabilizerState(StabilizerGroup.basis_state(5, n)), d))
    assert calls == {"family": n, "member": 0}
    _table.cache_clear()
    # Y then X: Y's pass keeps Y and Z, and X's keeps X and rewrites the same Y and Z
    table = _table.__wrapped__(state, d, NoNoise())
    axes = _axis_queries(n)[1]
    calls.update(family=0, member=0)
    table.answer(axes[1])
    assert set(table._answers) == {axes[1], axes[2]}
    table.answer(axes[2])
    table.answer(axes[0])
    assert set(table._answers) == set(axes) and calls == {"family": 2, "member": 0}


def test_the_classification_wrapper_reads_each_qubit_in_one_pass(monkeypatch):
    # the wrapper asks the even and odd parts of each query in turn: the first
    # part asked of a qubit is answered, with its later siblings, by one pass
    # over the label family, which reads the axis family's array form once
    n = 4
    d = HaarSingleQubitProduct(n)
    calls = _counting_passes(monkeypatch)
    label_form, part_form = _LabelFamily.on_projectors, _LabelPart._on_projectors

    def label(self, qubits, directions):
        calls["labels"] += 1
        return label_form(self, qubits, directions)

    def part(self, qubits, directions):
        calls["parts"] += 1
        return part_form(self, qubits, directions)

    monkeypatch.setattr(_LabelFamily, "on_projectors", label)
    monkeypatch.setattr(_LabelPart, "_on_projectors", part)
    targets = [
        (_product_state(n, 3), lambda oracle: learn_product_state(oracle, 0.01), 3 * n),
        (StabilizerState(StabilizerGroup.basis_state(5, n)), learn_basis_state, n),
    ]
    for target, learn, queries in targets:
        calls.update(family=0, member=0, labels=0, parts=0)
        _table.cache_clear()
        inner = StatisticalQueryOracle(target, d, OracleConfig(ExactPolicy(), ClassificationNoise(0.2)))
        assert learn(ClassificationCorrectedOracle(inner, 0.2)).queries_used == queries
        assert calls == {"family": n, "member": 0, "labels": n, "parts": 0}
        assert inner.query_count == 2 * queries
    _table.cache_clear()


def test_a_family_pass_on_a_pauli_corrupted_table_is_not_taken(monkeypatch):
    # a Pauli corruption leaves an IndexBatch: each member is read pair by pair
    n = 2
    d = HaarSingleQubitProduct(n)
    calls = _counting_passes(monkeypatch)
    table = _table.__wrapped__(_product_state(n, 1), d, NOISES["malicious-pauli"](n))
    _assert_order_matches_reference(table, n, ORDERS["xyz"])
    assert calls == {"family": 0, "member": 0} and len(table._answers) == 3 * n


def _valued_family(qubit: int, bad_row: int, bad_value: float, label: int) -> _Family:
    """Three _Valued members on `qubit`, reading axes 0, 1 and 2, inside the
    bound except `bad_value` on member `bad_row`'s label `label`."""
    members = []
    for row in range(3):
        values = [0.5, -0.25, 0.75, -1.0]
        if row == bad_row:
            values[label] = bad_value
        members.append(_Valued(qubit, row, values))
    return _Family(qubit, members)


@pytest.mark.parametrize("bad_value", [math.nan, 1.0 + 2e-9, -(1.0 + 2e-9)], ids=["nan", "above", "below"])
@pytest.mark.parametrize("bad_row", [0, 1, 2])
@pytest.mark.parametrize("distribution", list(DISTRIBUTIONS), ids=list(DISTRIBUTIONS))
def test_a_member_past_the_bound_raises_as_alone_and_is_never_kept(bad_value, bad_row, distribution):
    n = 3
    d = DISTRIBUTIONS[distribution](n)
    raised = set()
    for qubit in range(n):
        for label in (0, 3):  # phi(E, 1) where the component is positive, phi(E, -1) where it is not
            for table in _tables(n, d, ClassificationNoise(0.1), qubit):
                family = _valued_family(qubit, bad_row, bad_value, label)
                alone = [_outcome(lambda: reference_table_answer(table.weights, q)) for q in family.members]
                for order in ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 0, 1, 1, 2, 2)):
                    table._answers.clear()
                    for row in order:
                        assert _outcome(lambda: table.answer(family.members[row])) == alone[row]
                        # a member whose values fail the bound is never kept, by its
                        # own pass or a sibling's, so it raises again when asked
                        for q, expected in zip(family.members, alone):
                            if q in table._answers:
                                assert table._answers[q].hex() == expected
                        if alone[row].startswith("raised"):
                            assert row == bad_row
                            raised.add((qubit, label))
    if distribution == "haar":
        # every qubit has atoms with both signs of every component
        assert len(raised) == 2 * n


@pytest.mark.parametrize("bad_value", [math.nan, 1.0 + 2e-9, -(1.0 + 2e-9)], ids=["nan", "above", "below"])
@pytest.mark.parametrize("bad_row", [0, 1, 2])
def test_a_label_part_past_the_bound_raises_as_alone_and_is_never_kept(bad_value, bad_row):
    # the label family checks every base member, so a bad sibling sends each
    # asked part to be read alone; both parts of the bad member raise
    n = 3
    d = HaarSingleQubitProduct(n)
    for qubit in range(n):
        for label in (0, 3):
            for table in _tables(n, d, ClassificationNoise(0.1), qubit):
                parts = _label_family(_valued_family(qubit, bad_row, bad_value, label)).members
                alone = [_outcome(lambda: reference_table_answer(table.weights, part)) for part in parts]
                assert [a.startswith("raised") for a in alone] == [row // 2 == bad_row for row in range(6)]
                for order in ((0, 1, 2, 3, 4, 5), (3, 2, 5, 4, 1, 0), (1, 1, 0, 4, 5, 2, 3)):
                    table._answers.clear()
                    for row in order:
                        # a fresh part, as the wrapper asks it
                        part = _LabelPart(parts[row].phi, parts[row].odd)
                        assert _outcome(lambda: table.answer(part)) == alone[row]
                        for kept, expected in zip(parts, alone):
                            if kept in table._answers:
                                assert table._answers[kept].hex() == expected


@pytest.mark.parametrize("filled", [3, 2, 1, 0], ids=["room-for-three", "room-for-two", "room-for-one", "full"])
def test_one_pass_keeps_its_answers_within_the_cap(filled):
    n = 2
    d = HaarSingleQubitProduct(n)
    table = _table.__wrapped__(_product_state(n, 2), d, NoNoise())
    cap = oracle_module._ANSWER_CAP
    table._answers.update((("filler", i), 0.0) for i in range(cap - filled))
    axes = _axis_queries(n)[1]
    expected = [reference_table_answer(table.weights, q).hex() for q in axes]
    assert table.answer(axes[0]).hex() == expected[0]
    assert len(table._answers) <= cap
    # each kept answer is added in axis order; the memo starts over at the
    # first that finds it full, and keeps that answer and the later ones
    kept = {3: set(axes), 2: {axes[2]}, 1: {axes[1], axes[2]}, 0: set(axes)}[filled]
    assert {q for q in axes if q in table._answers} == kept
    assert (("filler", 0) in table._answers) == (filled == 3)
    for q, answer in zip(axes, expected):
        assert table.answer(q).hex() == answer
        assert len(table._answers) <= cap


def test_tables_on_one_distribution_share_the_families_and_keep_their_own_answers():
    n = 3
    d = HaarSingleQubitProduct(n)
    tables = [
        _table.__wrapped__(_product_state(n, 1), d, NoNoise()),
        _table.__wrapped__(_product_state(n, 2), d, ClassificationNoise(0.2)),
        _table.__wrapped__(_product_state(n, 1), d, DepolarizingNoise(0.3)),
        _mixed_table.__wrapped__(d),
    ]
    # the members interleave across the tables: each pass keeps its answers in its own table
    for axes in _axis_queries(n):
        for axis in (1, 0, 2):
            for table in tables:
                q = axes[axis]
                assert table.answer(q).hex() == reference_table_answer(table.weights, q).hex()
    answers = [dict(table._answers) for table in tables]
    assert all(set(a) == {q for axes in _axis_queries(n) for q in axes} for a in answers)
    assert answers[0] != answers[1] and answers[0] != answers[2]
    assert all(value == 0.0 for value in answers[3].values())


def _transcripts(config: OracleConfig, wrap, n: int, target) -> tuple:
    """The learner's hypothesis, the wrapper's and the inner oracle's counts,
    and the inner transcript's answers as hex, on fresh tables."""
    _table.cache_clear()
    _mixed_table.cache_clear()
    inner = StatisticalQueryOracle(target, HaarSingleQubitProduct(n), config)
    oracle = wrap(inner)
    if isinstance(target, ProductState):
        hypothesis = learn_product_state(oracle, 0.01)
    else:
        hypothesis = learn_basis_state(oracle)
    rows = [(row["query"], row["tau"].hex(), row["answer"].hex()) for row in inner.transcript]
    return hypothesis.state, hypothesis.queries_used, oracle.query_count, inner.query_count, rows


WRAPPED = {
    "classification": (ClassificationNoise(0.2), lambda inner: inner.config.noise.learner_oracle(inner)),
    "depolarizing": (DepolarizingNoise(0.3), lambda inner: inner.config.noise.learner_oracle(inner)),
    "bounded": (BoundedChannelNoise(0.002, DepolarizingNoise(0.001)), lambda inner: inner.config.noise.learner_oracle(inner)),
    "malicious": (MaliciousNoise(0.001), lambda inner: MaliciousAbsorbingOracle(inner, 0.001)),
    "clean": (NoNoise(), lambda inner: inner),
}
POLICIES = {
    "exact": lambda: ExactPolicy(),
    "within-tau": lambda: RandomWithinTau(3),
    "adversarial": lambda: AdversarialCallback(DefaultAdversary()),
}


@pytest.mark.parametrize("policy", list(POLICIES), ids=list(POLICIES))
@pytest.mark.parametrize("wrapper", list(WRAPPED), ids=list(WRAPPED))
def test_counts_and_transcripts_are_those_of_one_pass_per_query(wrapper, policy, monkeypatch):
    n = 3
    noise, wrap = WRAPPED[wrapper]
    targets = [
        ProductState(tuple(BlochVector(*v) for v in ((0.6, 0.0, 0.8), (0.0, -0.6, 0.0), (0.3, 0.4, -0.5)))),
        StabilizerState(StabilizerGroup.basis_state(0b101, n)),
    ]
    for target in targets:
        with_families = _transcripts(OracleConfig(POLICIES[policy](), noise), wrap, n, target)
        monkeypatch.setattr(_Table, "_pass", lambda self, phi: ((phi,), [_evaluate(self.weights, phi)]))
        alone = _transcripts(OracleConfig(POLICIES[policy](), noise), wrap, n, target)
        monkeypatch.undo()
        assert with_families == alone
        queries = 3 * n if isinstance(target, ProductState) else n
        assert with_families[1] == with_families[2] == queries
        assert with_families[3] == len(with_families[4]) == (2 * queries if wrapper == "classification" else queries)
    _table.cache_clear()
    _mixed_table.cache_clear()


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), m=st.integers(1, 300), seed=st.integers(0, 2**16), transposed=st.booleans())
def test_stacked_sums_are_each_rows_running_sum(k, m, seed, transposed):
    # one (k, m) pass sums each row as np.cumsum sums it alone, in either memory layout
    rng = substream(seed, "family-sums")
    accept, reject = rng.random(m), rng.random(m)
    values = rng.choice(EDGE_VALUES[:6] + [0.3, -0.7, 1e-300], size=(2, k, m))
    plus, minus = (np.asfortranarray(v) if transposed else v for v in values)
    sums = _sums((None, accept, reject), plus, minus)
    assert sums.shape == (k,)
    for row in range(k):
        alone = float(np.cumsum(accept * plus[row] + reject * minus[row])[-1] + 0.0)
        assert sums[row].hex() == alone.hex()
        assert float(_sums((None, accept, reject), plus[row], minus[row])).hex() == alone.hex()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 16),
    m=st.integers(1, 300),
    data=st.data(),
    seed=st.integers(0, 2**16),
)
def test_drawn_example_means_match_the_reference(n, m, data, seed):
    rng = substream(seed, "family-draws")
    batch = HaarSingleQubitProduct(n).draw(rng, m)
    labels = draw_outcomes(rng.uniform(-1.0, 1.0, size=m), rng)
    values = data.draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=4, max_size=4))
    qubit, axis = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 2))
    for phi in (_axis_queries(n)[qubit][axis], _Valued(qubit, axis, values)):
        for form in (phi, _LabelPart(phi, odd=False), _LabelPart(phi, odd=True)):
            assert _outcome(lambda: _sample_mean(form, batch, labels)) == _outcome(
                lambda: reference_sample_mean(form, batch, labels)
            )
