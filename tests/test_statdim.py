"""Average correlation, SDA sweeps and bounds, and the lower-bound bookkeeping."""

from collections import Counter
from fractions import Fraction

import pytest

from paulisq.pauli import DimensionMismatch
from paulisq.pconcept import (
    EXACT,
    HaarSingleQubitProduct,
    MaximallyMixed,
    StabilizerState,
    UniformParity,
    UniformPauli,
    inner_product,
    squared_loss,
)
from paulisq.stabilizer import StabilizerGroup, enumerate_stabilizer_groups
from paulisq.statdim import (
    SDA_SWEEP_LIMIT,
    ConceptClass,
    SDAReport,
    average_correlation,
    correlation_matrix,
    sda_bound,
    sda_exact,
    verify_query_lower_bound,
)
from paulisq.streams import substream


def stabilizer_class(n):
    return ConceptClass(
        tuple(StabilizerState(g) for g in enumerate_stabilizer_groups(n)), UniformPauli(n)
    )


def test_average_correlation_singleton():
    for n in (1, 2):
        lone = ConceptClass((StabilizerState(StabilizerGroup.basis_state(0, n)),), UniformPauli(n))
        assert average_correlation(lone) == Fraction(1, 2**n)


def test_average_correlation_full_single_qubit_class():
    # 6 diagonal terms of 1/2 plus 24 cross-axis pairs of 1/4 (opposite-axis
    # pairs correlate to 0), all over 36
    assert average_correlation(stabilizer_class(1)) == Fraction(1, 4)


def test_average_correlation_tight_pair():
    n = 2
    a = StabilizerState(StabilizerGroup.from_strings(["+ZI", "+IZ"]))
    b = StabilizerState(StabilizerGroup.from_strings(["+ZI", "+IX"]))
    cls = ConceptClass((a, b), UniformPauli(n))
    want = Fraction(2 * Fraction(1, 2**n) + 2 * Fraction(1, 2 ** (n + 1)), 4)
    assert average_correlation(cls) == want


@pytest.mark.parametrize("n", [1, 2])
def test_exhaustive_correlation_structure(n):
    cls = stabilizer_class(n)
    mat = correlation_matrix(cls)
    k = len(cls)
    for i in range(k):
        assert mat[i][i] == Fraction(1, 2**n)
    bound = Fraction(1, 2 ** (n + 1))
    off = [abs(mat[i][j]) for i in range(k) for j in range(i + 1, k)]
    assert all(v <= bound for v in off)
    assert any(v == bound for v in off)


def test_sda_exact_single_qubit_class():
    report = sda_exact(stabilizer_class(1), Fraction(1, 2))
    assert report.sda_value == 6  # no violating subset: capped at the class size
    assert not report.is_lower_bound
    assert report.kappa == Fraction(1, 2)
    assert report.gamma_pair == Fraction(1, 4)
    assert report.witness is None


def test_sda_exact_singleton_violation():
    # two orthogonal basis states: norms 1/2 exceed gamma = 1/4, so singleton
    # subsets violate and any d >= |C| fails; the largest survivor is |C| - 1
    a = StabilizerState(StabilizerGroup.basis_state(0, 1))
    b = StabilizerState(StabilizerGroup.basis_state(1, 1))
    cls = ConceptClass((a, b), UniformPauli(1))
    report = sda_exact(cls, Fraction(1, 4))
    assert report.sda_value == 1
    assert report.witness is not None and len(report.witness) == 1


def test_sda_exact_witness_subset():
    cls = stabilizer_class(1)
    report = sda_exact(cls, Fraction(26, 100))
    # singletons have correlation 1/2 > 0.26: max violator turns out larger
    assert report.witness is not None
    size = len(report.witness)
    total = sum(
        abs(correlation_matrix(cls)[i][j]) for i in report.witness for j in report.witness
    )
    assert total > Fraction(26, 100) * size * size


def test_sda_bound_stabilizer_values():
    for n, size in [(1, 6), (2, 60)]:
        cls = stabilizer_class(n)
        report = sda_bound(
            cls, Fraction(1, 2 ** (n + 1)), Fraction(1, 2**n), Fraction(1, 2 ** (n + 1))
        )
        assert report.sda_value == size
        assert report.gamma == Fraction(1, 2**n)
        assert report.is_lower_bound
        assert report.min_norm_sq == Fraction(1, 2**n)


def test_sda_bound_vanishes_with_gamma_prime():
    cls = stabilizer_class(1)
    tiny = sda_bound(cls, Fraction(1, 4), Fraction(1, 2), Fraction(1, 10**9))
    assert 0 < tiny.sda_value < Fraction(1, 10**7)
    with pytest.raises(ValueError):
        sda_bound(cls, Fraction(1, 4), Fraction(1, 2), 0)


def test_sda_bound_hypothesis_check_fails_loudly():
    cls = stabilizer_class(1)
    with pytest.raises(ValueError):
        sda_bound(cls, Fraction(1, 8), Fraction(1, 2), Fraction(1, 4))  # pairs reach 1/4
    with pytest.raises(ValueError):
        sda_bound(cls, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))  # norms reach 1/2


def test_bound_never_exceeds_exact_single_qubit():
    cls = stabilizer_class(1)
    bound = sda_bound(cls, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    exact = sda_exact(cls, bound.gamma)
    assert Fraction(exact.sda_value) >= bound.sda_value


def test_parity_class_orthogonality():
    # computational basis states under uniform parity measurements: unit norms
    # and exactly zero cross-correlations, the classical parity geometry
    for n in range(1, 5):
        cls = ConceptClass(
            tuple(
                StabilizerState(StabilizerGroup.basis_state(y, n)) for y in range(1 << n)
            ),
            UniformParity(n),
        )
        mat = correlation_matrix(cls)
        k = len(cls)
        for i in range(k):
            for j in range(k):
                assert mat[i][j] == (Fraction(1) if i == j else Fraction(0))


def reference_loss(cls):
    """The smallest squared loss of a concept to I/2^n."""
    mixed = MaximallyMixed(cls.distribution.n)
    return min(squared_loss(s, mixed, cls.distribution, EXACT) for s in cls.concepts)


@pytest.mark.parametrize("n", [1, 2])
def test_the_reference_loss_of_the_stabilizer_class_is_2_to_the_minus_n_less_4_to_the_minus_n(n):
    cls = stabilizer_class(n)
    mixed = MaximallyMixed(n)
    losses = {squared_loss(s, mixed, cls.distribution, EXACT) for s in cls.concepts}
    assert losses == {Fraction(1, 2**n) - Fraction(1, 4**n)}
    assert reference_loss(cls) == (Fraction(1, 4) if n == 1 else Fraction(3, 16))


def test_verdict_refuses_the_n2_instantiation_that_the_mixed_state_meets():
    # the zero-query learner that outputs I/4 reaches loss 3/16 < 3/8 on
    # every state, and the squared loss 3/8 is above beta^2/3 = 1/12
    cls = stabilizer_class(2)
    gamma_pair = Fraction(1, 8)
    report = sda_bound(cls, gamma_pair, Fraction(1, 4), Fraction(9, 64) - gamma_pair)
    verdict = verify_query_lower_bound(report, epsilon=3 / 8, beta=0.5, tau=3 / 8, reference_loss=reference_loss(cls))
    assert not verdict.ok
    failed = ["epsilon_at_most_beta_sq_third", "reference_loss_above_epsilon"]
    assert [name for name, passed in verdict.checks.items() if not passed] == failed
    assert verdict.implied_queries is None
    assert verdict.statement == "side conditions violated: " + ", ".join(failed)


@pytest.mark.parametrize("beta", [2.0**-4, 2.0**-8], ids=["beta-as-norm", "beta-as-squared-norm"])
def test_verdict_refuses_the_n8_case_that_the_mixed_state_meets(beta):
    # n = 8, epsilon 0.01, tau = sqrt(epsilon)/(2n): I/2^8 is within
    # 2^-8 - 4^-8 of every state, and epsilon is above beta^2/3 under either
    # reading of beta; the other three checks pass
    n, epsilon = 8, 0.01
    tau = epsilon**0.5 / (2 * n)
    report = SDAReport(
        gamma=Fraction(1, 2**16), sda_value=10**6, is_lower_bound=True, kappa=Fraction(1, 2**n),
        gamma_pair=Fraction(1, 2 ** (n + 1)), min_norm_sq=Fraction(1, 2**n), class_size=10**6,
    )
    loss = Fraction(1, 2**n) - Fraction(1, 4**n)
    verdict = verify_query_lower_bound(report, epsilon=epsilon, beta=beta, tau=tau, reference_loss=loss)
    failed = ["epsilon_at_most_beta_sq_third", "reference_loss_above_epsilon"]
    assert [name for name, passed in verdict.checks.items() if not passed] == failed
    assert not verdict.ok and verdict.implied_queries is None


def test_verdict_positive_instantiation_on_a_hand_built_report():
    # epsilon = tau = 1/16 <= beta^2/3 = 1/12, and the threshold is tau^2
    report = SDAReport(
        gamma=Fraction(1, 256), sda_value=Fraction(15, 2), is_lower_bound=True, kappa=Fraction(1, 4),
        gamma_pair=Fraction(1, 8), min_norm_sq=Fraction(1, 4), class_size=60,
    )
    verdict = verify_query_lower_bound(report, epsilon=1 / 16, beta=0.5, tau=1 / 16, reference_loss=Fraction(1, 2))
    assert verdict.ok
    assert all(verdict.checks.values())
    assert verdict.implied_queries == Fraction(15, 2)
    assert verdict.statement == (
        "any SQ learner reaching squared loss 0.0625 with tolerance-0.0625 queries needs at least 15/2 queries (lower bound)"
    )
    # at a reference loss of exactly epsilon, the mixed state already meets the target
    assert not verify_query_lower_bound(report, epsilon=1 / 16, beta=0.5, tau=1 / 16, reference_loss=Fraction(1, 16)).ok


def test_verdict_rejects_tau_above_epsilon():
    cls = stabilizer_class(1)
    report = sda_bound(cls, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    verdict = verify_query_lower_bound(report, epsilon=0.1, beta=0.5, tau=0.2, reference_loss=reference_loss(cls))
    assert not verdict.ok
    assert not verdict.checks["tau_at_most_epsilon"]
    assert verdict.implied_queries is None


@pytest.mark.parametrize("epsilon, passed", [(0.2, False), (1 / 12, True), (0.0834, False)])
def test_verdict_compares_the_squared_loss_epsilon_with_beta_squared_over_three(epsilon, passed):
    # beta = 1/2 is a norm: epsilon 0.2 met epsilon^2 <= beta/3, the reading of
    # beta that compared a squared loss with a norm
    report = sda_bound(stabilizer_class(1), Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    verdict = verify_query_lower_bound(report, epsilon=epsilon, beta=0.5, tau=0.01, reference_loss=Fraction(1, 4))
    assert verdict.checks["epsilon_at_most_beta_sq_third"] is passed
    assert not verdict.ok


def test_sda_report_json_rationals():
    report = sda_bound(stabilizer_class(1), Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    data = report.to_jsonable()
    assert data["gamma"] == {"num": 1, "den": 2}
    assert data["sda_value"] == {"num": 6, "den": 1}
    assert data["kappa"] == {"num": 1, "den": 2}


def test_hand_built_class_with_custom_inner_product():
    # abstract handles: an orthonormal family given by its Gram structure
    def inner(a, b, _d):
        return Fraction(1) if a == b else Fraction(0)

    cls = ConceptClass(("c0", "c1", "c2", "c3"), UniformParity(2), inner=inner)
    assert average_correlation(cls) == Fraction(4, 16)
    report = sda_exact(cls, Fraction(1, 2))
    # any subset of size m has correlation m/m^2 = 1/m: only singletons exceed 1/2
    assert report.sda_value == 3
    assert len(report.witness) == 1


def test_state_class_on_another_qubit_count_than_its_distribution_is_refused():
    states = (StabilizerState(StabilizerGroup.basis_state(0, 3)), MaximallyMixed(3))
    for d in (UniformPauli(2), UniformParity(4), HaarSingleQubitProduct(2)):
        with pytest.raises(DimensionMismatch, match="mixed qubit counts"):
            ConceptClass(states, d)
    assert len(ConceptClass(states, UniformPauli(3))) == 2
    # hand-built concepts have no qubit count of their own
    assert len(ConceptClass(("c0", "c1"), UniformPauli(2), inner=lambda a, b, d: Fraction(int(a == b)))) == 2


# verify-lemmas checks the cross correlations of row 0 only: by Clifford
# symmetry every row of the stabilizer correlation matrix is the same multiset


@pytest.mark.parametrize("n", [1, 2])
def test_every_stabilizer_correlation_row_is_row_zero_as_a_multiset(n):
    mat = correlation_matrix(stabilizer_class(n))
    assert all(Counter(row) == Counter(mat[0]) for row in mat)


def test_seeded_stabilizer_correlation_rows_at_three_qubits_are_row_zero_as_a_multiset():
    states = [StabilizerState(g) for g in enumerate_stabilizer_groups(3)]

    def row(i):
        return Counter(inner_product(states[i], s, UniformPauli(3), EXACT) for s in states)

    first = row(0)
    picked = substream(71, "rows").choice(len(states), size=8, replace=False).tolist()
    assert all(row(i) == first for i in picked)


def test_sweep_budget_falls_back_to_bound():
    cls = stabilizer_class(2)  # 60 concepts, beyond any subset sweep
    assert len(cls) > SDA_SWEEP_LIMIT
    report = sda_exact(cls, Fraction(1, 4))
    assert report.is_lower_bound
    assert report.sda_value == 60


def test_correlation_matrix_is_computed_once_per_class():
    calls = []

    def inner(a, b, d):
        calls.append((a, b))
        return Fraction(1) if a == b else Fraction(1, 8)

    k = 5
    cls = ConceptClass(tuple(range(k)), UniformPauli(1), inner=inner)
    average_correlation(cls)
    sda_bound(cls, Fraction(1, 8), Fraction(1), Fraction(1, 8))
    sda_exact(cls, Fraction(1, 2))
    assert len(calls) == k * (k + 1) // 2
    assert correlation_matrix(cls) is correlation_matrix(cls)
