"""Average correlation, SDA sweeps and bounds, and the lower-bound bookkeeping."""

from fractions import Fraction

import pytest

from paulisq.pauli import DimensionMismatch
from paulisq.pconcept import (
    HaarSingleQubitProduct,
    MaximallyMixed,
    StabilizerState,
    UniformParity,
    UniformPauli,
)
from paulisq.stabilizer import StabilizerGroup, enumerate_stabilizer_groups
from paulisq.statdim import (
    ConceptClass,
    average_correlation,
    correlation_matrix,
    sda_bound,
    sda_exact,
    verify_query_lower_bound,
)


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


def test_verdict_positive_instantiation_n2():
    cls = stabilizer_class(2)
    gamma_pair = Fraction(1, 8)
    report = sda_bound(cls, gamma_pair, Fraction(1, 4), Fraction(9, 64) - gamma_pair)
    verdict = verify_query_lower_bound(report, epsilon=3 / 8, beta=0.5, tau=3 / 8)
    assert verdict.ok
    assert all(verdict.checks.values())
    assert verdict.implied_queries == Fraction(15, 2)
    assert "at least" in verdict.statement


def test_verdict_rejects_tau_above_epsilon():
    cls = stabilizer_class(1)
    report = sda_bound(cls, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    verdict = verify_query_lower_bound(report, epsilon=0.1, beta=0.5, tau=0.2)
    assert not verdict.ok
    assert not verdict.checks["tau_at_most_epsilon"]
    assert verdict.implied_queries is None


def test_verdict_rejects_epsilon_sq_above_beta_third():
    cls = stabilizer_class(1)
    report = sda_bound(cls, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    verdict = verify_query_lower_bound(report, epsilon=0.9, beta=0.5, tau=0.7072)
    assert not verdict.ok
    assert not verdict.checks["epsilon_sq_at_most_beta_third"]


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


def test_sweep_budget_falls_back_to_bound():
    cls = stabilizer_class(2)  # 60 concepts, beyond any subset sweep
    report = sda_exact(cls, Fraction(1, 4), sweep_limit=16)
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
