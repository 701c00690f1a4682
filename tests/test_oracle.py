"""Oracle soundness for every policy and noise model, plus the correction wrappers."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ref import measurement_matrix, per_example_loss, state_matrix
from paulisq.pauli import DimensionMismatch, PauliMeasurement, PauliOperator
from paulisq.pconcept import (
    BlochVector,
    FiniteWeighted,
    HaarSingleQubitProduct,
    MaximallyMixed,
    ProductState,
    SingleQubitProjector,
    StabilizerState,
    UniformParity,
    UniformPauli,
    f_value,
    random_bits,
)
from paulisq.oracle import (
    AdversarialCallback,
    BoundedChannelAbsorbingOracle,
    BoundedChannelNoise,
    ClassificationCorrectedOracle,
    ClassificationNoise,
    DefaultAdversary,
    DepolarizingCorrectedOracle,
    DepolarizingNoise,
    EmpiricalFromSamples,
    ExactPolicy,
    MaliciousNoise,
    NoNoise,
    OracleConfig,
    RandomWithinTau,
    SQQuery,
    StatisticalQueryOracle,
    ToleranceExhausted,
    UnboundedQuery,
    ValidationSet,
    draw_validation_set,
    eta_grid_search,
    expectation_on_maximally_mixed,
    mixture_acceptance,
)
from paulisq.stabilizer import StabilizerGroup, random_stabilizer_group
from paulisq.streams import substream

E_Z = PauliMeasurement(PauliOperator.from_string("Z"))
KET0 = StabilizerState(StabilizerGroup.from_strings(["+Z"]))
POINT_MASS_Z = FiniteWeighted(((E_Z, 1.0),))


def label_query(e, y):
    return float(y)


def brute_noisy_expectation(state, distribution, noise, phi):
    """Independent reference: enumerate the support and label probabilities,
    with the depolarizing action applied to a dense density matrix."""
    support = list(distribution.support())
    rho = state_matrix(state)
    n = state.n
    if isinstance(noise, (DepolarizingNoise, BoundedChannelNoise)):
        eta = noise.eta if isinstance(noise, DepolarizingNoise) else noise.channel.eta
        rho = (1 - eta) * rho + eta * np.eye(2**n) / 2**n
    total = 0.0
    for e, w in support:
        p = float(np.trace(measurement_matrix(e) @ rho).real)
        if isinstance(noise, ClassificationNoise):
            p = (1 - noise.eta) * p + noise.eta * (1 - p)
        total += float(w) * (phi(e, 1) * p + phi(e, -1) * (1 - p))
    if isinstance(noise, MaliciousNoise):
        corrupted = sum(
            float(w) * 0.5 * (phi(e, 1) + phi(e, -1)) for e, w in support
        )
        clean = total
        total = (1 - noise.eta) * clean + noise.eta * corrupted
    return total


def na_queries(rng, n, count=6):
    """A few structurally different bounded queries."""
    out = [lambda e, y: float(y), lambda e, y: 0.25, lambda e, y: 0.5 * (y + 0.5)]
    for k in range(count - len(out)):
        weights = rng.normal(size=4)

        def phi(e, y, w=weights):
            h = hash((str(e), y)) % 997 / 997.0
            return math.tanh(w[0] * h + w[1] * y + 0.2 * w[2])

        out.append(phi)
    return out


NOISES = [
    NoNoise(),
    ClassificationNoise(0.15),
    MaliciousNoise(0.2),
    DepolarizingNoise(0.35),
    BoundedChannelNoise(0.1, DepolarizingNoise(0.05)),
]


@pytest.mark.parametrize("noise", NOISES, ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("dist_kind", ["pauli", "parity"])
def test_exact_policy_soundness_against_brute_force(noise, dist_kind):
    n = 2
    rng = substream(31, "soundness", dist_kind, type(noise).__name__)
    distribution = UniformPauli(n) if dist_kind == "pauli" else UniformParity(n)
    for state in [
        StabilizerState(random_stabilizer_group(n, rng)),
        MaximallyMixed(n),
        ProductState((BlochVector(0.2, -0.3, 0.4), BlochVector(0, 0.8, 0))),
    ]:
        oracle = StatisticalQueryOracle(state, distribution, OracleConfig(ExactPolicy(), noise))
        for phi in na_queries(rng, n):
            got = oracle.query(SQQuery(phi, 1e-6))
            want = brute_noisy_expectation(state, distribution, noise, phi)
            assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("noise", NOISES, ids=lambda x: type(x).__name__)
def test_random_and_adversarial_policies_stay_in_band(noise):
    n = 2
    rng = substream(32, "band", type(noise).__name__)
    distribution = UniformPauli(n)
    state = StabilizerState(random_stabilizer_group(n, rng))
    tau = 0.05
    for policy in [RandomWithinTau(3), AdversarialCallback(DefaultAdversary())]:
        oracle = StatisticalQueryOracle(state, distribution, OracleConfig(policy, noise))
        for phi in na_queries(rng, n, count=4):
            answer = oracle.query(SQQuery(phi, tau))
            truth = brute_noisy_expectation(state, distribution, noise, phi)
            assert abs(answer - truth) <= tau + 1e-9


@pytest.mark.parametrize("noise", NOISES, ids=lambda x: type(x).__name__)
def test_empirical_policy_statistical_soundness(noise):
    n = 1
    state = KET0
    distribution = UniformPauli(n)
    tau = 0.05
    oracle = StatisticalQueryOracle(
        state,
        distribution,
        OracleConfig(EmpiricalFromSamples(samples=40_000, seed=4), noise),
    )
    answer = oracle.query(SQQuery(label_query, tau))
    truth = brute_noisy_expectation(state, distribution, noise, label_query)
    assert abs(answer - truth) <= tau


def test_exact_haar_with_noise_matches_empirical_sampling():
    # the quadrature path and the sampling path describe the same noisy world
    n = 2
    d = HaarSingleQubitProduct(n)
    state = ProductState((BlochVector(0.8, 0, 0.5), BlochVector(0, -0.6, 0.2)))
    for noise in NOISES:
        exact = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), noise))
        empirical = StatisticalQueryOracle(
            state, d, OracleConfig(EmpiricalFromSamples(samples=60_000, seed=11), noise)
        )
        from paulisq.learners import _AxisSignQuery

        q = _AxisSignQuery(0, 0)
        a = exact.query(SQQuery(q, 1e-6))
        b = empirical.query(SQQuery(q, 0.05))
        assert abs(a - b) <= 0.02  # ~5 sigma at this sample size


def test_empirical_sample_size_rule():
    oracle = StatisticalQueryOracle(
        KET0,
        POINT_MASS_Z,
        OracleConfig(EmpiricalFromSamples(seed=1, delta_total=0.02, expected_queries=2), NoNoise()),
    )
    answer = oracle.query(SQQuery(label_query, 0.2))
    # m = ceil(2 ln(2/0.01) / 0.04) = 265 samples of a deterministic +1 label
    assert answer == 1.0


def test_point_mass_examples():
    for noise, want in [
        (NoNoise(), 1.0),
        (ClassificationNoise(0.1), 0.8),
        (DepolarizingNoise(0.25), 0.75),
    ]:
        oracle = StatisticalQueryOracle(KET0, POINT_MASS_Z, OracleConfig(ExactPolicy(), noise))
        assert oracle.query(SQQuery(label_query, 0.01)) == pytest.approx(want)


def test_depolarizing_fixed_point_is_maximally_mixed():
    n = 2
    mixed = MaximallyMixed(n)
    d = UniformPauli(n)
    rng = substream(33, "fixed")
    clean = StatisticalQueryOracle(mixed, d, OracleConfig(ExactPolicy(), NoNoise()))
    noisy = StatisticalQueryOracle(mixed, d, OracleConfig(ExactPolicy(), DepolarizingNoise(0.7)))
    for phi in na_queries(rng, n):
        assert clean.query(SQQuery(phi, 1e-6)) == pytest.approx(
            noisy.query(SQQuery(phi, 1e-6)), abs=1e-12
        )


def test_malicious_perturbation_bound():
    n = 2
    rng = substream(34, "malicious")
    d = UniformPauli(n)
    state = StabilizerState(random_stabilizer_group(n, rng))
    eta = 0.3
    clean = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), NoNoise()))
    noisy = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), MaliciousNoise(eta)))
    for phi in na_queries(rng, n):
        a = clean.query(SQQuery(phi, 1e-6))
        b = noisy.query(SQQuery(phi, 1e-6))
        assert abs(a - b) <= 2 * eta + 1e-12


def test_malicious_absorbing_wrapper_round_trip():
    n = 2
    eta = 0.02
    rng = substream(39, "mabsorb")
    d = UniformPauli(n)
    state = StabilizerState(random_stabilizer_group(n, rng))
    clean = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), NoNoise()))
    noisy = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), MaliciousNoise(eta)))
    from paulisq.oracle import MaliciousAbsorbingOracle

    wrapped = MaliciousAbsorbingOracle(noisy, eta)
    tau = 0.1
    for phi in na_queries(rng, n):
        want = clean.query(SQQuery(phi, tau))
        got = wrapped.query(SQQuery(phi, tau))
        assert abs(got - want) <= tau  # label-only corruption perturbs by <= eta
    with pytest.raises(ToleranceExhausted):
        wrapped.query(SQQuery(label_query, eta / 2))


def test_malicious_custom_corruption():
    corruption = (((E_Z, -1), 1.0),)
    oracle = StatisticalQueryOracle(
        KET0, POINT_MASS_Z, OracleConfig(ExactPolicy(), MaliciousNoise(0.25, corruption))
    )
    # clean expectation of Y is 1; corrupted pairs always labeled -1
    assert oracle.query(SQQuery(label_query, 0.01)) == pytest.approx(0.75 * 1 + 0.25 * -1)


def test_query_counter_and_transcript(tmp_path):
    path = tmp_path / "transcript.jsonl"
    oracle = StatisticalQueryOracle(
        KET0, POINT_MASS_Z, OracleConfig(ExactPolicy(), NoNoise()), transcript_path=str(path)
    )
    assert oracle.query_count == 0
    for k in range(3):
        oracle.query(SQQuery(label_query, 0.1))
        assert oracle.query_count == k + 1
    rows = [line for line in path.read_text().splitlines() if line]
    assert len(rows) == 3
    assert oracle.transcript[0]["tau"] == 0.1
    assert oracle.transcript[2]["query"] == 3


def test_exact_policy_errors_beyond_enumeration_budget_but_empirical_works():
    from paulisq.pauli import BudgetExceeded

    n = 9  # uniform Pauli support would have 2 * 4^9 atoms
    state = MaximallyMixed(n)
    exact = StatisticalQueryOracle(state, UniformPauli(n), OracleConfig(ExactPolicy(), NoNoise()))
    with pytest.raises(BudgetExceeded):
        exact.query(SQQuery(label_query, 0.1))
    empirical = StatisticalQueryOracle(
        state, UniformPauli(n), OracleConfig(EmpiricalFromSamples(samples=2000, seed=8), NoNoise())
    )
    assert abs(empirical.query(SQQuery(label_query, 0.1))) <= 0.1


def test_oracle_rejects_dimension_mismatch():
    from paulisq.pauli import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        StatisticalQueryOracle(KET0, UniformPauli(2), OracleConfig())


def test_unbounded_query_rejected():
    oracle = StatisticalQueryOracle(KET0, POINT_MASS_Z, OracleConfig(ExactPolicy(), NoNoise()))
    with pytest.raises(UnboundedQuery):
        oracle.query(SQQuery(lambda e, y: 2.0 * y, 0.1))
    with pytest.raises(ValueError):
        SQQuery(label_query, 0.0)


E_X = PauliMeasurement(PauliOperator.from_string("X"))
RARE_X = FiniteWeighted(((E_Z, 0.999999), (E_X, 0.000001)))
# half of every noisy draw is the example (X, +1), which D itself never yields
CORRUPT_TO_X = MaliciousNoise(0.5, (((E_X, 1), 1.0),))


def _spike(value):
    """A query inside [-1, 1] except on the measurement X, where it returns `value`."""
    return lambda e, y: value if e == E_X else 0.5 * y


def _assert_rejected_without_a_trace(distribution, config, phi, tmp_path):
    sink = tmp_path / "transcript.jsonl"
    oracle = StatisticalQueryOracle(KET0, distribution, config, transcript_path=str(sink))
    with pytest.raises(UnboundedQuery):
        oracle.query(SQQuery(phi, 0.1))
    assert oracle.query_count == 0
    assert oracle.transcript == []
    assert not sink.exists()
    oracle.query(SQQuery(label_query, 0.1))
    assert oracle.query_count == 1
    assert [row["query"] for row in oracle.transcript] == [1]


@pytest.mark.parametrize("value", [5.0, math.nan], ids=["five", "nan"])
@pytest.mark.parametrize(
    "policy",
    [ExactPolicy(), RandomWithinTau(seed=3), AdversarialCallback(DefaultAdversary())],
    ids=["exact", "within-tau", "adversarial"],
)
def test_unbounded_query_rejected_on_a_rare_atom(policy, value, tmp_path):
    _assert_rejected_without_a_trace(RARE_X, OracleConfig(policy, NoNoise()), _spike(value), tmp_path)


@pytest.mark.parametrize("value", [5.0, math.nan], ids=["five", "nan"])
@pytest.mark.parametrize(
    "policy", [ExactPolicy(), EmpiricalFromSamples(samples=50, seed=4)], ids=["exact", "empirical"]
)
def test_unbounded_query_rejected_on_a_corruption_atom(policy, value, tmp_path):
    _assert_rejected_without_a_trace(POINT_MASS_Z, OracleConfig(policy, CORRUPT_TO_X), _spike(value), tmp_path)


@pytest.mark.parametrize("value", [5.0, math.nan], ids=["five", "nan"])
def test_mixed_reference_rejects_an_unbounded_query(value):
    with pytest.raises(UnboundedQuery):
        expectation_on_maximally_mixed(_spike(value), RARE_X, 1)
    half_x = FiniteWeighted(((E_Z, 0.5), (E_X, 0.5)))
    with pytest.raises(UnboundedQuery):
        expectation_on_maximally_mixed(_spike(value), half_x, 1, samples=50, rng=substream(6, "mixed"))
    wrapped = DepolarizingCorrectedOracle(StatisticalQueryOracle(KET0, RARE_X), 0.2)
    with pytest.raises(UnboundedQuery):
        wrapped.query(SQQuery(_spike(value), 0.1))
    assert wrapped.query_count == 0


def test_phi_is_called_only_on_the_pairs_an_answer_uses():
    calls = []

    def phi(e, y):
        calls.append((e, y))
        return 0.0

    StatisticalQueryOracle(KET0, RARE_X).query(SQQuery(phi, 0.1))
    assert calls == [(E_Z, 1), (E_Z, -1), (E_X, 1), (E_X, -1)]
    calls.clear()
    config = OracleConfig(EmpiricalFromSamples(samples=30, seed=7), NoNoise())
    StatisticalQueryOracle(KET0, RARE_X, config).query(SQQuery(phi, 0.1))
    assert len(calls) == 30


def test_adversary_contract_enforced():
    oracle = StatisticalQueryOracle(
        KET0, POINT_MASS_Z, OracleConfig(AdversarialCallback(lambda t, tau: t + 2 * tau), NoNoise())
    )
    with pytest.raises(ValueError):
        oracle.query(SQQuery(label_query, 0.1))


def test_exact_haar_quadrature_matches_closed_form():
    n = 3
    rng = substream(35, "quad")
    blochs = tuple(BlochVector(*(v / np.linalg.norm(v) * 0.9)) for v in rng.normal(size=(n, 3)))
    state = ProductState(blochs)
    oracle = StatisticalQueryOracle(
        state, HaarSingleQubitProduct(n), OracleConfig(ExactPolicy(), NoNoise())
    )
    from paulisq.learners import _AxisSignQuery

    for i in range(n):
        for j in range(3):
            got = oracle.query(SQQuery(_AxisSignQuery(i, j), 1e-6))
            want = blochs[i].as_tuple()[j] / (2 * n)
            assert got == pytest.approx(want, abs=1e-9)


# --- corrections ------------------------------------------------------------


def test_classification_correct_values():
    eta = 0.1
    assert ClassificationNoise(eta).correct(1 - 2 * eta) == pytest.approx(1.0)
    assert ClassificationNoise(0.0).correct(0.42) == 0.42
    with pytest.raises(ValueError):
        ClassificationNoise(0.5).correct(0.5)


def test_depolarizing_correct_values():
    eta = 0.4
    assert DepolarizingNoise(eta).correct(1 - eta, 0.0) == pytest.approx(1.0)
    assert DepolarizingNoise(0.0).correct(0.3, 0.1) == 0.3
    with pytest.raises(ValueError):
        DepolarizingNoise(1.0).correct(0.5, 0.0)


@pytest.mark.parametrize("eta", [0.1, 0.25, 0.4])
def test_classification_round_trip(eta):
    n = 2
    rng = substream(36, "clfround", eta)
    d = UniformPauli(n)
    state = StabilizerState(random_stabilizer_group(n, rng))
    clean = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), NoNoise()))
    noisy = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), ClassificationNoise(eta)))
    wrapped = ClassificationCorrectedOracle(noisy, eta)
    tau = 0.02
    for phi in na_queries(rng, n):
        want = clean.query(SQQuery(phi, tau))
        got = wrapped.query(SQQuery(phi, tau))
        assert abs(got - want) <= tau


def test_label_independent_query_unchanged_by_classification():
    eta = 0.4
    noisy = StatisticalQueryOracle(
        KET0, POINT_MASS_Z, OracleConfig(ExactPolicy(), ClassificationNoise(eta))
    )
    wrapped = ClassificationCorrectedOracle(noisy, eta)
    assert wrapped.query(SQQuery(lambda e, y: 0.7, 0.01)) == pytest.approx(0.7)


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_depolarizing_round_trip(eta):
    n = 2
    rng = substream(37, "depround", eta)
    d = UniformParity(n)
    state = StabilizerState(random_stabilizer_group(n, rng))
    clean = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), NoNoise()))
    noisy = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), DepolarizingNoise(eta)))
    wrapped = DepolarizingCorrectedOracle(noisy, eta)
    tau = 0.02
    for phi in na_queries(rng, n):
        want = clean.query(SQQuery(phi, tau))
        got = wrapped.query(SQQuery(phi, tau))
        assert abs(got - want) <= tau


def test_depolarizing_round_trip_sampled_reference():
    eta = 0.5
    n = 1
    noisy = StatisticalQueryOracle(
        KET0, UniformPauli(n), OracleConfig(ExactPolicy(), DepolarizingNoise(eta))
    )
    wrapped = DepolarizingCorrectedOracle(noisy, eta, mixed_samples=30_000, seed=5)
    clean = StatisticalQueryOracle(KET0, UniformPauli(n), OracleConfig(ExactPolicy(), NoNoise()))
    tau = 0.05
    want = clean.query(SQQuery(label_query, tau))
    got = wrapped.query(SQQuery(label_query, tau))
    assert abs(got - want) <= tau


@pytest.mark.parametrize("samples", [0, -2])
def test_non_positive_mixed_samples_fail_before_any_query(samples):
    inner = StatisticalQueryOracle(
        KET0, UniformPauli(1), OracleConfig(ExactPolicy(), DepolarizingNoise(0.1))
    )
    with pytest.raises(ValueError, match="at least 1"):
        DepolarizingCorrectedOracle(inner, 0.1, mixed_samples=samples)
    assert inner.query_count == 0 and inner.transcript == []
    with pytest.raises(ValueError, match="at least 1"):
        expectation_on_maximally_mixed(label_query, UniformPauli(1), 1, samples=samples)


@pytest.mark.parametrize("n", [17, 64])
def test_exact_policy_refuses_uniform_parity_over_its_budget(n, monkeypatch):
    import time

    import paulisq.pconcept as pconcept
    from paulisq.pauli import BudgetExceeded

    def enumerated(*args):
        raise AssertionError("a parity measurement was built past the budget")

    # a regression fails at the first atom instead of enumerating 2^n of them
    monkeypatch.setattr(pconcept, "parity_measurement", enumerated)
    oracle = StatisticalQueryOracle(StabilizerState(StabilizerGroup.basis_state(1, n)), UniformParity(n))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="over the enumeration budget of n <= 16"):
        oracle.query(SQQuery(label_query, 0.1))
    with pytest.raises(BudgetExceeded):
        expectation_on_maximally_mixed(label_query, UniformParity(n), n)
    assert time.perf_counter() - start < 0.1


def test_exact_policy_answers_uniform_parity_at_its_budget():
    # E[y chi_b(x)] = -1 on |b>: the label is -(-1)^(x.b), noiseless
    bits = 0b1011001110001101
    oracle = StatisticalQueryOracle(StabilizerState(StabilizerGroup.basis_state(bits, 16)), UniformParity(16))

    def character(e, y):
        return float(y) if (e.pauli.z & bits).bit_count() % 2 == 0 else -float(y)

    assert oracle.query(SQQuery(character, 0.1)) == -1.0
    assert oracle.query(SQQuery(label_query, 0.1)) == 0.0


def test_seeded_empirical_answers_are_pinned():
    """Sampled answers, bit for bit.  Each answer draws its m examples as one
    batch: the measurements, then one uniform per label against the noisy
    outcome mean (so classification noise draws no separate flips).  The
    values were recorded when the per-example draw was replaced by the batch
    draw; from the same seeds the per-example draw gave -0.812, -0.004, 0.04
    and -0.02666666666666667."""
    bits = 0b1011001110001101
    state = StabilizerState(StabilizerGroup.basis_state(bits, 16))
    config = OracleConfig(EmpiricalFromSamples(samples=500, seed=11), ClassificationNoise(0.1))
    o = StatisticalQueryOracle(state, UniformParity(16), config)

    def character(e, y):
        return float(y) if (e.pauli.z & bits).bit_count() % 2 == 0 else -float(y)

    assert o.query(SQQuery(character, 0.2)) == -0.784
    assert o.query(SQQuery(label_query, 0.2)) == -0.132
    product = ProductState((BlochVector(0.6, 0.0, 0.8), BlochVector(0.0, -0.28, 0.96)))
    config = OracleConfig(EmpiricalFromSamples(samples=400, seed=5), NoNoise())
    o = StatisticalQueryOracle(product, HaarSingleQubitProduct(2), config)
    assert o.query(SQQuery(label_query, 0.2)) == 0.005
    mixed = expectation_on_maximally_mixed(label_query, UniformPauli(3), 3, samples=300, rng=np.random.default_rng(7))
    assert mixed == 0.06666666666666667


DRAW_DISTRIBUTIONS = {
    "uniform-pauli": (lambda: StabilizerState(random_stabilizer_group(2, substream(66, "draw-state"))), UniformPauli(2)),
    "haar": (lambda: ProductState((BlochVector(0.6, 0, 0.8), BlochVector(0, -0.6, 0.2))), HaarSingleQubitProduct(2)),
}
E_Y = PauliMeasurement(PauliOperator.from_string("Y"))
PAULI_MIX = FiniteWeighted(((E_Z, 0.5), (E_X, 0.3), (E_Y, 0.2)))


def _assert_draw_mean_within_hoeffding(state, distribution, noise, seed):
    def phi(e, y):
        # mostly y f_state(E), which every noise model moves, plus a label-free part
        label_free = e.axis.x if isinstance(e, SingleQubitProjector) else (-1) ** (e.pauli.x & 1)
        return 0.8 * y * float(f_value(state, e)) + 0.2 * label_free

    m = 20_000
    batch, labels = noise.draw(state, distribution, substream(seed, "draw-mean"), m)
    assert len(batch) == len(labels) == m and set(labels.tolist()) <= {1, -1}
    mean = float(np.mean([phi(e, y) for e, y in zip(batch, labels.tolist())]))
    truth = StatisticalQueryOracle(state, distribution, OracleConfig(ExactPolicy(), noise)).true_noisy_expectation(phi)
    # Hoeffding: values lie in [-1, 1], so the mean is within this band except with odds 1e-9
    assert abs(mean - truth) <= math.sqrt(2.0 * math.log(2.0 / 1e-9) / m)


@pytest.mark.parametrize("noise", NOISES, ids=lambda x: type(x).__name__)
@pytest.mark.parametrize("distribution", list(DRAW_DISTRIBUTIONS))
def test_drawn_examples_follow_the_noisy_expectation(distribution, noise):
    make_state, d = DRAW_DISTRIBUTIONS[distribution]
    _assert_draw_mean_within_hoeffding(make_state(), d, noise, seed=67)


def test_drawn_examples_follow_an_explicit_malicious_corruption():
    corruption = (((E_Y, -1), 0.7), ((SingleQubitProjector(1, 0, BlochVector(0.6, 0.0, 0.8)), 1), 0.3))
    for eta in (0.3, 1.0):
        _assert_draw_mean_within_hoeffding(KET0, PAULI_MIX, MaliciousNoise(eta, corruption), seed=68)


def test_empirical_answer_streams_its_measurements():
    # a plain function makes the measurements one at a time; the 100,000
    # drawn projectors held as objects peak at about 31 MB
    rng = substream(69, "stream-state")
    state = ProductState(tuple(BlochVector(*(v / np.linalg.norm(v) * 0.8)) for v in rng.normal(size=(8, 3))))
    config = OracleConfig(EmpiricalFromSamples(samples=100_000, seed=3), NoNoise())
    oracle = StatisticalQueryOracle(state, HaarSingleQubitProduct(8), config)
    tracemalloc.start()
    try:
        answer = oracle.query(SQQuery(lambda e, y: 0.5 * y if e.qubit == 0 else 0.0, 0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(answer) <= 0.01  # E[y | E] averages to 0 over Haar projectors; the std error is 0.0006
    assert peak < 16e6


def test_expectation_on_maximally_mixed_uses_no_state():
    d = UniformPauli(2)
    got = expectation_on_maximally_mixed(label_query, d, 2)
    want = brute_noisy_expectation(MaximallyMixed(2), d, NoNoise(), label_query)
    assert got == pytest.approx(want, abs=1e-12)


def test_bounded_channel_tightened_arithmetic():
    def tightened(tau, eta_diamond):
        noise = BoundedChannelNoise(eta_diamond, DepolarizingNoise(eta_diamond / 2))
        inner = StatisticalQueryOracle(KET0, POINT_MASS_Z, OracleConfig(ExactPolicy(), noise))
        return noise.learner_oracle(inner).tightened(tau)

    assert tightened(0.1, 0.02) == pytest.approx(0.06)
    assert tightened(0.3, 0.0) == 0.3
    with pytest.raises(ToleranceExhausted):
        tightened(0.04, 0.02)


def test_bounded_channel_absorbing_oracle():
    eta = 0.01
    noise = BoundedChannelNoise(2 * eta, DepolarizingNoise(eta))
    noisy = StatisticalQueryOracle(KET0, POINT_MASS_Z, OracleConfig(ExactPolicy(), noise))
    wrapped = BoundedChannelAbsorbingOracle(noisy, noise.eta_diamond)
    tau = 0.1
    got = wrapped.query(SQQuery(label_query, tau))
    assert abs(got - 1.0) <= tau  # clean truth is 1; the answer must be tau-close
    assert noisy.transcript[0]["tau"] == pytest.approx(tau - 2 * noise.eta_diamond)


# --- noise-rate grid search ---------------------------------------------------


def _grid_target(n=2):
    return ProductState((BlochVector(0.5, 0.1, -0.6), BlochVector(-0.2, 0.7, 0.3)))


def _grid_runner(target, eta_true, epsilon):
    from paulisq.learners import learn_product_state

    d = HaarSingleQubitProduct(target.n)
    noise = DepolarizingNoise(eta_true)

    def run(guess):
        inner = StatisticalQueryOracle(target, d, OracleConfig(ExactPolicy(), noise))
        return learn_product_state(DepolarizingCorrectedOracle(inner, guess), epsilon / 4)

    return run


def test_eta_grid_search_exact_hit_matches_known_rate_run():
    from paulisq.oracle import draw_validation_set, eta_grid_search

    target = _grid_target()
    eta = 0.3
    run = _grid_runner(target, eta, 0.25)
    d = HaarSingleQubitProduct(target.n)
    validation = draw_validation_set(target, d, 5000, substream(40, "val"))
    best_eta, hyp = eta_grid_search(run, eta_upper=0.6, delta_grid=0.1, validation=validation)
    assert best_eta == pytest.approx(eta)
    known = run(eta)
    assert hyp.state == known.state  # grid hit reproduces the known-rate run


def test_eta_grid_search_off_grid_stays_close():
    # true rate 0.15 between grid points 0.1 and 0.2: the winner's loss stays
    # within the half-step scale-error budget (<= 0.004 here, asserted at 0.01)
    from paulisq.oracle import draw_validation_set, eta_grid_search
    from paulisq.pconcept import squared_loss

    target = _grid_target()
    run = _grid_runner(target, 0.15, 0.25)
    d = HaarSingleQubitProduct(target.n)
    validation = draw_validation_set(target, d, 5000, substream(41, "val"))
    best_eta, hyp = eta_grid_search(run, eta_upper=0.4, delta_grid=0.1, validation=validation)
    assert abs(best_eta - 0.15) <= 0.05 + 1e-12
    assert float(squared_loss(target, hyp.state, d)) <= 0.01


def test_eta_grid_search_zero_upper_is_single_clean_run():
    from paulisq.oracle import draw_validation_set, eta_grid_search

    target = _grid_target()
    calls = []

    def run(guess):
        calls.append(guess)
        d = HaarSingleQubitProduct(target.n)
        oracle = StatisticalQueryOracle(target, d, OracleConfig(ExactPolicy(), NoNoise()))
        from paulisq.learners import learn_product_state

        return learn_product_state(oracle, 0.25)

    d = HaarSingleQubitProduct(target.n)
    validation = draw_validation_set(target, d, 100, substream(42, "val"))
    best_eta, _ = eta_grid_search(run, eta_upper=0.0, delta_grid=0.1, validation=validation)
    assert calls == [0.0]
    assert best_eta == 0.0


def test_validation_loss_packed_and_generic_paths_agree():
    # labels and loss of the drawn batch equal scalar f_value on the same measurements
    from paulisq.oracle import draw_validation_set
    from paulisq.pconcept import f_value

    target, hypothesis = _grid_target(), ProductState((BlochVector(0, 0, 1), BlochVector(0.3, 0, 0)))
    projectors = draw_validation_set(target, HaarSingleQubitProduct(2), 500, substream(43, "val"))
    drawn = list(projectors.batch)
    assert len(projectors) == len(drawn) == 500
    assert projectors.labels.tolist() == [float(f_value(target, e)) for e in drawn]
    generic = np.mean([(float(f_value(hypothesis, e)) - y) ** 2 for e, y in zip(drawn, projectors.labels)])
    # a projector loss is summed from per-qubit moments, in another order
    assert abs(projectors.loss(hypothesis) - generic) <= 1e-12
    # a Pauli validation set: exact mean labels score 0 on the target
    state = StabilizerState(random_stabilizer_group(2, substream(43, "state")))
    paulis = draw_validation_set(state, UniformPauli(2), 200, substream(43, "paulis"))
    assert paulis.labels.tolist() == [float(f_value(state, e)) for e in paulis.batch]
    assert paulis.loss(state) == 0.0 and paulis.loss(MaximallyMixed(2)) > 0


def _random_product(rng, n, pure=False):
    vectors = rng.normal(size=(n, 3))
    scales = np.ones(n) if pure else rng.uniform(0, 1, size=n)
    return ProductState(tuple(BlochVector(*(v / np.linalg.norm(v) * r)) for v, r in zip(vectors, scales)))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_moment_loss_matches_the_per_example_loss(n):
    rng = substream(70, "moments", n)
    target = _random_product(rng, n)
    validation = draw_validation_set(target, HaarSingleQubitProduct(n), 20_000, rng)
    hypotheses = {
        "product": _random_product(rng, n),
        "pure product": _random_product(rng, n, pure=True),
        "stabilizer": StabilizerState(random_stabilizer_group(n, rng)),
        "basis": StabilizerState(StabilizerGroup.basis_state(random_bits(rng, n), n)),
        "mixed": MaximallyMixed(n),
        "identical": ProductState(tuple(BlochVector(*b.as_tuple()) for b in target.blochs)),
        "target": target,
    }
    for name, hypothesis in hypotheses.items():
        loss = validation.loss(hypothesis)
        assert 0.0 <= loss <= 4.0 and abs(loss - per_example_loss(validation, hypothesis)) <= 1e-12, name
    assert validation.loss(target) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    m=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    labeled=st.sampled_from(["target", "uniform", "signs"]),
)
def test_moment_loss_matches_the_per_example_loss_property(n, m, seed, labeled):
    # any labels in [-1, 1], not only f of a state: the moments assume no form of y
    rng = np.random.default_rng(seed)
    batch = HaarSingleQubitProduct(n).draw(rng, m)
    labels = {
        "target": lambda: batch.f(_random_product(rng, n)),
        "uniform": lambda: rng.uniform(-1, 1, size=m),
        "signs": lambda: 1.0 - 2.0 * rng.integers(0, 2, size=m),
    }[labeled]()
    validation = ValidationSet(batch, labels)
    for hypothesis in (_random_product(rng, n), _random_product(rng, n, pure=True), StabilizerState(random_stabilizer_group(n, rng))):
        assert abs(validation.loss(hypothesis) - per_example_loss(validation, hypothesis)) <= 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_moment_loss_resolves_hypotheses_near_the_fit(n):
    # next to exact labels, a loss reads ~1e-16 over the per-example sum's
    # ~1e-20, the rounding of the moments; that offset is the same for every
    # hypothesis, and the gaps between them, which pick the search's winner,
    # keep the per-example sum's digits (about 0, they would be rounding too)
    rng = substream(73, "near", n)
    target = _random_product(rng, n)
    validation = draw_validation_set(target, HaarSingleQubitProduct(n), 20_000, rng)
    losses, wants = [], []
    for delta in (0.0, 1e-10, 1e-9, 1e-8):
        hypothesis = ProductState(tuple(BlochVector(*(np.array(b.as_tuple()) * (1 - delta))) for b in target.blochs))
        losses.append(validation.loss(hypothesis))
        wants.append(per_example_loss(validation, hypothesis))
    gaps, want_gaps = np.diff(losses), np.diff(wants)
    assert (gaps > 0).all() and (np.abs(gaps - want_gaps) <= 1e-3 * want_gaps).all()
    assert max(np.abs(np.array(losses) - wants)) <= 1e-12


def test_moment_loss_sums_its_moments_once_and_checks_its_input(monkeypatch):
    target = _grid_target()
    validation = draw_validation_set(target, HaarSingleQubitProduct(2), 300, substream(71, "val"))
    first = validation.loss(MaximallyMixed(2))

    def summed_again(*args, **kwargs):
        raise AssertionError("the moments were summed again")

    monkeypatch.setattr(np, "bincount", summed_again)
    assert [validation.loss(MaximallyMixed(2)) for _ in range(3)] == [first] * 3
    assert validation.loss(target) <= 1e-12
    with pytest.raises(DimensionMismatch):
        validation.loss(MaximallyMixed(3))
    with pytest.raises(ValueError, match="empty"):
        draw_validation_set(target, HaarSingleQubitProduct(2), 0, substream(71, "empty")).loss(target)


def _validation_digest(validation) -> str:
    """sha256 over the batch's arrays and the labels, each with its dtype and shape."""
    h = hashlib.sha256()
    arrays = [(name, getattr(validation.batch, name, None)) for name in ("qubits", "directions", "signs", "x", "z", "indices")]
    for name, array in [*arrays, ("labels", validation.labels)]:
        if array is not None:
            array = np.ascontiguousarray(array)
            h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
            h.update(array.tobytes())
    return h.hexdigest()


def test_validation_draws_are_pinned():
    """The grid search's validation draws, bit for bit, as recorded before the
    oracle's other samplers moved to batch draws.  The `grid-search` golden
    cannot see this draw: its true rate lies on the grid and wins with a
    loss of ~1e-20 under any draw."""
    from paulisq.oracle import draw_validation_set

    product = ProductState((BlochVector(0.5, 0.1, -0.6), BlochVector(-0.2, 0.7, 0.3), BlochVector(0.0, 0.0, 1.0)))
    stabilizer = StabilizerState(random_stabilizer_group(3, substream(12, "pin-state")))
    basis = StabilizerState(StabilizerGroup.basis_state(0b10110, 5))
    finite = FiniteWeighted((
        (PauliMeasurement(PauliOperator.from_string("XYZ")), Fraction(1, 3)),
        (SingleQubitProjector(3, 1, BlochVector(0.6, 0.0, -0.8)), 0.25),
        (PauliMeasurement(PauliOperator.from_string("-ZIZ")), Fraction(5, 12)),
    ))
    cases = {
        "haar": (product, HaarSingleQubitProduct(3), "3bca00dba9617eac949ccdca2e51398e2068644c78210e1c23ea00fe6108d970"),
        "uniform-pauli": (stabilizer, UniformPauli(3), "17400885a4d8075c09d1db5aa23ee806f2ff8f2797a3660e20460aa92f865e76"),
        "uniform-parity": (basis, UniformParity(5), "61ca58d0550589db1ead5c355a9303d5abc47d5af5ece853df22173de1e6fb66"),
        "finite": (stabilizer, finite, "b69a25d907571ff502321d9630ae5b76f84e844456745c9626685df71ed1a8c3"),
    }
    for name, (state, d, digest) in cases.items():
        assert _validation_digest(draw_validation_set(state, d, 500, substream(12, "pin", name))) == digest, name


def test_eta_grid_search_rejects_bad_inputs():
    from paulisq.oracle import eta_grid_search

    with pytest.raises(ValueError):
        eta_grid_search(lambda g: None, eta_upper=0.5, delta_grid=0.0, validation=[(E_Z, 1.0)])
    with pytest.raises(ValueError):
        eta_grid_search(lambda g: None, eta_upper=0.5, delta_grid=0.1, validation=[])


# --- adjoint ----------------------------------------------------------------


def test_adjoint_identity_dense_exhaustive_n2():
    n = 2
    eta = 0.45
    channel = DepolarizingNoise(eta)
    rng = substream(38, "adjoint")
    identity = np.eye(2**n) / 2**n
    for _ in range(10):
        state = StabilizerState(random_stabilizer_group(n, rng))
        rho = state_matrix(state)
        noisy_rho = (1 - eta) * rho + eta * identity
        for e, _ in UniformPauli(n).support():
            lhs = mixture_acceptance(state, channel.adjoint(e))
            rhs = float(np.trace(measurement_matrix(e) @ noisy_rho).real)
            assert abs(lhs - rhs) < 1e-12


def test_adjoint_eta_zero_is_identity():
    assert DepolarizingNoise(0.0).adjoint(E_Z) == ((E_Z, 1.0),)


def test_adjoint_fixes_identity_effects():
    for sign in (1, -1):
        e = PauliMeasurement(PauliOperator.identity(2, sign))
        assert DepolarizingNoise(0.6).adjoint(e) == ((e, 1.0),)


def test_adjoint_weights_form_convex_mixture():
    mix = DepolarizingNoise(0.3).adjoint(E_Z)
    assert sum(w for _, w in mix) == pytest.approx(1.0)
    assert mix[0] == (E_Z, 0.7)


def test_adjoint_rejects_unknown_channel():
    with pytest.raises(ValueError):
        ClassificationNoise(0.1).adjoint(E_Z)


@pytest.mark.parametrize(
    "config",
    [
        lambda: OracleConfig(ExactPolicy(), "classification"),
        lambda: OracleConfig(ExactPolicy(), None),
        lambda: OracleConfig("exact", NoNoise()),
        lambda: OracleConfig(NoNoise(), ExactPolicy()),
    ],
)
def test_oracle_config_rejects_unknown_noise_or_policy(config):
    with pytest.raises(TypeError, match="unknown"):
        config()


def test_noise_models_pick_the_learner_oracle():
    inner = StatisticalQueryOracle(KET0, POINT_MASS_Z)
    assert NoNoise().learner_oracle(inner) is inner
    assert MaliciousNoise(0.1).learner_oracle(inner) is inner
    classification = ClassificationNoise(0.1).learner_oracle(inner)
    assert isinstance(classification, ClassificationCorrectedOracle)
    assert (classification.inner, classification.eta) == (inner, 0.1)
    depolarizing = DepolarizingNoise(0.3).learner_oracle(inner)
    assert isinstance(depolarizing, DepolarizingCorrectedOracle)
    assert (depolarizing.inner, depolarizing.eta) == (inner, 0.3)
    bounded = BoundedChannelNoise(0.02, DepolarizingNoise(0.01)).learner_oracle(inner)
    assert isinstance(bounded, BoundedChannelAbsorbingOracle)
    assert (bounded.inner, bounded.eta_diamond) == (inner, 0.02)


@pytest.mark.parametrize("distribution", [UniformPauli(2), HaarSingleQubitProduct(2)], ids=["pauli", "haar"])
@pytest.mark.parametrize(
    "noise",
    [
        NoNoise(),
        ClassificationNoise(0.2),
        MaliciousNoise(0.3),
        MaliciousNoise(0.25, (((PauliMeasurement(PauliOperator.from_string("ZX")), -1), 0.4),
                              ((PauliMeasurement(PauliOperator.from_string("IZ")), 1), 0.6))),
        DepolarizingNoise(0.4),
        BoundedChannelNoise(0.02, DepolarizingNoise(0.01)),
    ],
    ids=["none", "classification", "malicious", "malicious-custom", "depolarizing", "bounded"],
)
def test_exact_answer_is_the_running_sum_of_the_atom_table(distribution, noise):
    from paulisq.oracle import _atoms
    from paulisq.pconcept import f_value

    rng = substream(65, "table")
    state = ProductState(tuple(BlochVector(*(v / np.linalg.norm(v) * 0.7)) for v in rng.normal(size=(2, 3))))
    other = ProductState(tuple(BlochVector(*(v / np.linalg.norm(v))) for v in rng.normal(size=(2, 3))))

    def phi(e, y):
        return 0.25 + 0.5 * y * float(f_value(other, e))

    oracle = StatisticalQueryOracle(state, distribution, OracleConfig(ExactPolicy(), noise))
    total = 0.0
    for e, accept, reject in zip(*noise.label_weights(_atoms(state, distribution))):
        total += accept * phi(e, 1) + reject * phi(e, -1)
    assert oracle.true_noisy_expectation(phi) == total


def test_rates_and_margins_are_checked_when_a_wrapper_is_built():
    from paulisq.oracle import MaliciousAbsorbingOracle

    inner = StatisticalQueryOracle(KET0, POINT_MASS_Z)
    for build in (
        lambda: ClassificationCorrectedOracle(inner, 0.5),
        lambda: DepolarizingCorrectedOracle(inner, 1.0),
        lambda: BoundedChannelAbsorbingOracle(inner, -0.01),
        lambda: MaliciousAbsorbingOracle(inner, -0.1),
        lambda: BoundedChannelNoise(-0.01, DepolarizingNoise(0.0)),
    ):
        with pytest.raises(ValueError):
            build()


# --- shared atom tables -------------------------------------------------------


def test_gauss_legendre_constants_are_leggauss_6():
    from paulisq.pconcept import _GAUSS_NODES, _GAUSS_WEIGHTS

    nodes, weights = np.polynomial.legendre.leggauss(6)
    assert _GAUSS_NODES.tobytes() == nodes.tobytes()
    assert _GAUSS_WEIGHTS.tobytes() == weights.tobytes()


def test_oracles_over_one_table_evaluate_each_query_once():
    """31 fresh oracles over the same state, distribution and noise, as the
    grid search builds them: phi is read once per atom and label in all,
    while every oracle counts and logs each of its own queries."""
    state = StabilizerState(random_stabilizer_group(2, substream(66, "shared")))
    d = UniformPauli(2)
    calls = []

    def phi(e, y):
        calls.append((e, y))
        return 0.5 * y

    oracles = [StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), DepolarizingNoise(0.3))) for _ in range(31)]
    for oracle in oracles:
        answers = [oracle.query(SQQuery(phi, 0.01 * (k + 1))) for k in range(12)]
        assert oracle.query_count == 12
        assert [(row["query"], row["tau"], row["answer"]) for row in oracle.transcript] == [
            (k + 1, 0.01 * (k + 1), answers[k]) for k in range(12)
        ]
    assert len(calls) == 2 * len(list(d.support()))
    # the classification wrapper's label parts are equal whenever their (phi, odd) are
    calls.clear()
    for _ in range(31):
        inner = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), ClassificationNoise(0.2)))
        wrapped = ClassificationCorrectedOracle(inner, 0.2)
        for _ in range(6):
            wrapped.query(SQQuery(phi, 0.1))
        assert (wrapped.query_count, inner.query_count) == (6, 12)
    assert len(calls) == 2 * 2 * 2 * len(list(d.support()))  # two parts, each reading phi at both labels


@pytest.mark.parametrize("n", [2, 4])
def test_eta_grid_search_matches_a_memo_free_reference(n, monkeypatch):
    import paulisq.oracle as oracle_module
    from paulisq.learners import learn_product_state
    from paulisq.oracle import _atoms, _evaluate, draw_validation_set, eta_grid_search

    rng = substream(67, "grid", n)
    target = ProductState(tuple(BlochVector(*(v / np.linalg.norm(v) * 0.8)) for v in rng.normal(size=(n, 3))))
    d = HaarSingleQubitProduct(n)
    noise = DepolarizingNoise(0.3)

    class MemoFreeOracle(StatisticalQueryOracle):
        def true_noisy_expectation(self, phi):
            return _evaluate(self.config.noise.label_weights(_atoms(target, d)), phi)

    def search(oracle_class):
        def run(guess):
            inner = oracle_class(target, d, OracleConfig(ExactPolicy(), noise))
            return learn_product_state(DepolarizingCorrectedOracle(inner, guess), 0.01)

        validation = draw_validation_set(target, d, 2000, substream(67, "val", n))
        guess, hypothesis = eta_grid_search(run, 0.6, 0.05, validation)
        return guess, hypothesis.state.blochs

    shared = search(StatisticalQueryOracle)
    monkeypatch.setattr(
        oracle_module,
        "expectation_on_maximally_mixed",
        lambda phi, dist, n, samples=None, rng=None: _evaluate(NoNoise().label_weights(_atoms(MaximallyMixed(n), dist)), phi),
    )
    assert search(MemoFreeOracle) == shared
    assert shared[0] == pytest.approx(0.3)


@pytest.mark.parametrize("n", [2, 4])
def test_eta_grid_search_matches_a_reference_scored_search(n, monkeypatch):
    # scored by the per-example loss in place of the moments, the search picks
    # the same guess and hypothesis
    from paulisq.learners import learn_product_state

    d = HaarSingleQubitProduct(n)

    def search(target, eta, case):
        def run(guess):
            inner = StatisticalQueryOracle(target, d, OracleConfig(ExactPolicy(), DepolarizingNoise(eta)))
            return learn_product_state(DepolarizingCorrectedOracle(inner, guess), 0.01)

        validation = draw_validation_set(target, d, 20_000, substream(72, "val", n, case))
        guess, hypothesis = eta_grid_search(run, 0.6, 0.05, validation)
        return guess, np.array([b.as_tuple() for b in hypothesis.state.blochs])

    # mixed targets, one true rate on the 0.05 grid and two off it
    cases = [(_random_product(substream(72, "grid", n, case), n), eta, case) for case, eta in enumerate((0.3, 0.17, 0.42))]
    # a pure target: every guess over the true rate scales its Bloch vectors
    # out of the ball and back onto the sphere, so those hypotheses agree to
    # their last bits and the pick among them is rounding in either loss
    pure = (_random_product(substream(72, "grid", n, 3), n, pure=True), 0.3, 3)
    moments = [search(*case) for case in (*cases, pure)]
    monkeypatch.setattr(ValidationSet, "loss", per_example_loss)
    reference = [search(*case) for case in (*cases, pure)]
    for (guess, blochs), (want_guess, want_blochs) in zip(moments[:-1], reference[:-1]):
        assert guess == want_guess and (blochs == want_blochs).all()
    assert moments[0][0] == pytest.approx(0.3)
    assert moments[-1][0] >= 0.3 - 1e-12 and reference[-1][0] >= 0.3 - 1e-12
    assert np.abs(moments[-1][1] - reference[-1][1]).max() <= 1e-9


def test_an_unbounded_query_fails_on_every_ask_and_is_not_kept():
    from paulisq.oracle import _mixed_table, _table

    phi = _spike(5.0)
    oracle = StatisticalQueryOracle(KET0, RARE_X)
    for _ in range(3):
        with pytest.raises(UnboundedQuery):
            oracle.query(SQQuery(phi, 0.1))
        with pytest.raises(UnboundedQuery):
            expectation_on_maximally_mixed(phi, RARE_X, 1)
    assert oracle.query_count == 0
    assert phi not in _table(KET0, RARE_X, NoNoise())._answers
    assert phi not in _mixed_table(RARE_X)._answers


class _UnhashableQuery:
    """A query with value equality and no hash."""

    def __init__(self):
        self.calls = 0

    def __eq__(self, other):
        return isinstance(other, _UnhashableQuery)

    __hash__ = None

    def __call__(self, e, y):
        self.calls += 1
        return 0.5 * y


def test_an_unhashable_query_is_answered_every_time():
    phi = _UnhashableQuery()
    oracle = StatisticalQueryOracle(KET0, RARE_X)
    want = StatisticalQueryOracle(KET0, RARE_X).query(SQQuery(lambda e, y: 0.5 * y, 0.1))
    assert [oracle.query(SQQuery(phi, 0.1)) for _ in range(3)] == [want] * 3
    assert phi.calls == 3 * 2 * len(list(RARE_X.support()))
    wrapped = ClassificationCorrectedOracle(StatisticalQueryOracle(KET0, RARE_X, OracleConfig(ExactPolicy(), ClassificationNoise(0.1))), 0.1)
    assert wrapped.query(SQQuery(phi, 0.1)) == pytest.approx(want)


def test_an_unhashable_state_or_noise_model_gets_a_table_of_its_own():
    from dataclasses import dataclass

    from paulisq.oracle import NoiseModel

    @dataclass
    class PlainNoise(NoiseModel):  # eq without frozen: no hash
        pass

    blochs = (BlochVector(0.6, 0.0, 0.8),)
    d = HaarSingleQubitProduct(1)
    want = StatisticalQueryOracle(ProductState(blochs), d).query(SQQuery(label_query, 0.1))
    for state, noise in ((ProductState(list(blochs)), NoNoise()), (ProductState(blochs), PlainNoise())):
        oracle = StatisticalQueryOracle(state, d, OracleConfig(ExactPolicy(), noise))
        assert [oracle.query(SQQuery(label_query, 0.1)) for _ in range(2)] == [want, want]


def test_kept_answers_stay_within_the_cap():
    from paulisq.oracle import _ANSWER_CAP, _table

    oracle = StatisticalQueryOracle(KET0, POINT_MASS_Z)
    for k in range(10_000):
        assert oracle.query(SQQuery(lambda e, y, k=k: (k % 7) / 7 * y, 0.1)) == (k % 7) / 7
    assert 0 < len(_table(KET0, POINT_MASS_Z, NoNoise())._answers) <= _ANSWER_CAP
