"""p-concept evaluation, inner products, and losses against dense references."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dense_ref import all_signed_paulis, dense_f_value, enumerated_inner, lower_rank_groups, pauli_batch
from paulisq.pauli import BudgetExceeded, DimensionMismatch, PauliMeasurement, PauliOperator
from paulisq.pconcept import (
    BlochVector,
    FiniteWeighted,
    HaarSingleQubitProduct,
    MaximallyMixed,
    IndexBatch,
    MonteCarlo,
    ProductState,
    SingleQubitProjector,
    StabilizerState,
    UniformParity,
    UniformPauli,
    acceptance_probability,
    f_value,
    inner_product,
    parity_index,
    parity_measurement,
    random_bits,
    draw_outcomes,
    reduced_bloch,
    squared_loss,
)
from paulisq.stabilizer import StabilizerGroup, enumerate_stabilizer_groups, random_stabilizer_group
from paulisq.streams import substream

KET0 = StabilizerState(StabilizerGroup.from_strings(["+Z"]))


def random_product(rng, n, pure=False):
    blochs = []
    for _ in range(n):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if not pure:
            v *= rng.uniform(0, 1) ** (1 / 3)
        blochs.append(BlochVector(*v))
    return ProductState(tuple(blochs))


def test_bloch_vector_validation():
    BlochVector(0.6, 0.0, 0.8)
    with pytest.raises(ValueError):
        BlochVector(1.0, 0.5, 0.0)


def test_f_value_examples():
    e_z = PauliMeasurement(PauliOperator.from_string("Z"))
    assert f_value(KET0, e_z) == Fraction(1)
    mixed = MaximallyMixed(2)
    for text in ["XI", "ZZ", "-YX"]:
        e = PauliMeasurement(PauliOperator.from_string(text))
        assert f_value(mixed, e) == 0
    proj = SingleQubitProjector(2, 1, BlochVector(0, 0, 1))
    state = ProductState((BlochVector(0.3, 0, 0), BlochVector(0, 0, 1)))
    assert f_value(state, proj) == pytest.approx(1.0)


def test_f_value_identity_measurements():
    for state in [KET0, MaximallyMixed(1), ProductState((BlochVector(0.2, 0.1, 0.3),))]:
        assert float(f_value(state, PauliMeasurement(PauliOperator.identity(1)))) == 1.0
        assert float(f_value(state, PauliMeasurement(PauliOperator.identity(1, -1)))) == -1.0


@pytest.mark.parametrize("n", [1, 2])
def test_f_value_matches_dense_across_state_kinds(n):
    rng = substream(42, "fval", n)
    states = [
        StabilizerState(random_stabilizer_group(n, rng)),
        random_product(rng, n),
        MaximallyMixed(n),
    ]
    measurements = [e for e, _ in UniformPauli(n).support()]
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        measurements.append(SingleQubitProjector(n, int(rng.integers(0, n)), BlochVector(*v)))
    for state in states:
        for e in measurements:
            assert float(f_value(state, e)) == pytest.approx(dense_f_value(state, e), abs=1e-12)


def test_parity_identity_exhaustive():
    for n in range(1, 5):
        for x in range(1 << n):
            e = parity_measurement(x, n)
            assert parity_index(e) == x
            for y in range(1 << n):
                state = StabilizerState(StabilizerGroup.basis_state(y, n))
                want = (x & y).bit_count() & 1
                assert acceptance_probability(state, e) == Fraction(want)


def test_uniform_parity_includes_empty_parity():
    support = list(UniformParity(2).support())
    assert len(support) == 4
    assert sum(w for _, w in support) == 1
    e0 = parity_measurement(0, 2)
    # the empty parity always rejects: its label is pinned to parity zero
    assert acceptance_probability(StabilizerState(StabilizerGroup.basis_state(3, 2)), e0) == 0


def test_random_bits_keeps_the_int64_stream_up_to_62_bits():
    for n in (1, 16, 62):
        a, b = substream(3, "bits", n), substream(3, "bits", n)
        assert [random_bits(a, n) for _ in range(20)] == [int(b.integers(0, 1 << n)) for _ in range(20)]
        assert a.random() == b.random()


def test_uniform_samplers_at_64_qubits():
    rng = substream(4, "wide")
    paulis = [UniformPauli(64).sample(rng).pauli for _ in range(20)]
    parities = [parity_index(UniformParity(64).sample(rng)) for _ in range(20)]
    assert max(p.x for p in paulis) >= 1 << 62 and max(p.z for p in paulis) >= 1 << 62
    assert max(parities) >= 1 << 62


@pytest.mark.parametrize("d", [UniformPauli(65), UniformParity(65)])
def test_uniform_samplers_reject_more_than_64_qubits(d):
    with pytest.raises(ValueError, match="at most 64 bits"):
        d.sample(substream(4, "too-wide"))


def repeated(e, m: int) -> IndexBatch:
    return IndexBatch((e,), np.zeros(m, dtype=int))


def test_sample_outcome_deterministic_cases():
    rng = substream(0, "det")
    e_z = PauliMeasurement(PauliOperator.from_string("Z"))
    assert draw_outcomes(repeated(e_z, 50).f(KET0), rng).tolist() == [1] * 50
    ket1 = StabilizerState(StabilizerGroup.from_strings(["-Z"]))
    assert draw_outcomes(repeated(e_z, 50).f(ket1), rng).tolist() == [-1] * 50


class FixedDraw:
    """An rng stand-in whose random(size) returns the given uniform draws."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u


def assert_same_threshold(state, batch):
    """The batch outcome draw's thresholds equal p = float(acceptance_probability)
    at each measurement: a draw one ulp below p gives +1, and a draw at p gives -1."""
    p = np.array([float(acceptance_probability(state, e)) for e in batch])
    f = batch.f(state)
    assert draw_outcomes(f, FixedDraw(np.nextafter(p, -np.inf))).tolist() == [1] * len(p)
    assert draw_outcomes(f, FixedDraw(p)).tolist() == [-1] * len(p)


@pytest.mark.parametrize("n", [1, 2])
def test_sample_outcome_threshold_on_every_small_stabilizer_state(n):
    effects = pauli_batch(n, all_signed_paulis(n))
    for g in enumerate_stabilizer_groups(n):
        assert_same_threshold(StabilizerState(g), effects)


@pytest.mark.parametrize("n", [1, 52, 53, 54, 64])
def test_sample_outcome_threshold_on_the_mixed_state(n):
    effects = (PauliOperator.identity(n), PauliOperator.identity(n, -1), PauliOperator.single(n, n - 1, "Y"))
    assert_same_threshold(MaximallyMixed(n), pauli_batch(n, effects))


def test_sample_outcome_threshold_on_product_states_under_haar_draws():
    rng = substream(9, "threshold")
    for n in (1, 3, 8):
        d = HaarSingleQubitProduct(n)
        for _ in range(5):
            assert_same_threshold(random_product(rng, n), d.draw(rng, 10))


def test_sample_outcome_concentration():
    rng = substream(1, "conc")
    e_x = PauliMeasurement(PauliOperator.from_string("X"))
    draws = draw_outcomes(repeated(e_x, 100_000).f(KET0), rng)
    assert abs(float(np.mean(draws))) < 0.02


def test_norm_squared_and_tightness():
    n = 2
    d = UniformPauli(n)
    s00 = StabilizerState(StabilizerGroup.from_strings(["+ZI", "+IZ"]))
    s0p = StabilizerState(StabilizerGroup.from_strings(["+ZI", "+IX"]))
    assert inner_product(s00, s00, d) == Fraction(1, 4)
    assert inner_product(s00, s0p, d) == Fraction(1, 8)


def test_inner_product_with_mixed_is_quarter_power():
    for n in (1, 2, 3):
        d = UniformPauli(n)
        rng = substream(5, "mix", n)
        s = StabilizerState(random_stabilizer_group(n, rng))
        assert inner_product(s, MaximallyMixed(n), d) == Fraction(1, 4**n)
        assert inner_product(MaximallyMixed(n), MaximallyMixed(n), d) == Fraction(1, 4**n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_member_sum_matches_enumeration_at_every_rank(n):
    rng = substream(47, "members", n)
    d = UniformPauli(n)
    product = random_product(rng, n)
    # a GHZ-type group, whose canonical rows share X letters (XIX and IXX at n = 3)
    ghz = StabilizerGroup.from_strings(["I" * i + "XX" + "I" * (n - 2 - i) for i in range(n - 1)] + ["Z" * n])
    for g in [random_stabilizer_group(n, rng), *lower_rank_groups(n, rng), *([ghz] if n > 1 else [])]:
        s = StabilizerState(g)
        brute = sum(w * f_value(s, e) * f_value(product, e) for e, w in d.support())
        assert inner_product(s, product, d) == pytest.approx(brute, abs=1e-12)
        assert inner_product(product, s, d) == pytest.approx(brute, abs=1e-12)


def test_member_sum_runs_past_the_enumeration_limit():
    rng = substream(48, "members")
    for n in (7, 13, 64):
        assert inner_product(random_product(rng, n), MaximallyMixed(n), UniformPauli(n)) == 4.0**-n
    # the 2^13 members of |0...0> are the Z strings, where f_product is a product of z's
    product = random_product(rng, 13)
    basis = StabilizerState(StabilizerGroup.basis_state(0, 13))
    want = math.prod(1 + b.z for b in product.blochs) / 4**13
    assert inner_product(basis, product, UniformPauli(13)) == pytest.approx(want, rel=1e-12)


def test_fast_path_matches_enumeration():
    n = 2
    d = UniformPauli(n)
    groups = enumerate_stabilizer_groups(n)
    rng = substream(8, "pairs")
    idx = rng.choice(len(groups), size=(20, 2))
    for i, j in idx:
        a, b = StabilizerState(groups[i]), StabilizerState(groups[j])
        fast = inner_product(a, b, d)
        brute = sum(w * f_value(a, e) * f_value(b, e) for e, w in d.support())
        assert fast == brute


def test_squared_loss_examples():
    n = 2
    d = UniformPauli(n)
    s00 = StabilizerState(StabilizerGroup.from_strings(["+ZI", "+IZ"]))
    assert squared_loss(s00, s00, d) == 0
    assert squared_loss(s00, MaximallyMixed(n), d) == Fraction(1, 2**n) - Fraction(1, 4**n)


def test_product_loss_single_qubit_difference():
    # states differing only on one qubit with Bloch distance dist:
    # loss = (4/3n) (dist/2)^2
    n = 3
    a = ProductState((BlochVector(0, 0, 1), BlochVector(0.3, 0, 0), BlochVector(0, 0.5, 0)))
    b = ProductState((BlochVector(1, 0, 0), BlochVector(0.3, 0, 0), BlochVector(0, 0.5, 0)))
    dist = math.sqrt(2.0)
    want = (4.0 / (3 * n)) * (dist / 2) ** 2
    assert float(squared_loss(a, b, HaarSingleQubitProduct(n))) == pytest.approx(want)


def test_zero_bloch_product_equals_mixed_under_all_supported_distributions():
    n = 2
    zeros = ProductState((BlochVector(0, 0, 0),) * n)
    mixed = MaximallyMixed(n)
    for d in [UniformPauli(n), UniformParity(n), HaarSingleQubitProduct(n)]:
        assert float(squared_loss(zeros, mixed, d)) == pytest.approx(0.0, abs=1e-15)


def test_maximally_mixed_identity_over_enumerated_states():
    for n in (1, 2):
        d = UniformPauli(n)
        mixed = MaximallyMixed(n)
        for g in enumerate_stabilizer_groups(n):
            s = StabilizerState(g)
            norm_sq = inner_product(s, s, d)
            assert norm_sq - squared_loss(s, mixed, d) == Fraction(1, 4**n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mc_inner_product_matches_exact_uniform_pauli(n):
    d = UniformPauli(n)
    rng = substream(13, "mcpairs", n)
    for k in range(3):
        a = StabilizerState(random_stabilizer_group(n, rng))
        b = StabilizerState(random_stabilizer_group(n, rng))
        exact = float(inner_product(a, b, d))
        est = inner_product(a, b, d, MonteCarlo(100_000, 1000 + k))
        assert abs(est.value - exact) <= 4 * est.std_error + 1e-9


def test_mc_loss_matches_closed_form_haar():
    n = 3
    d = HaarSingleQubitProduct(n)
    rng = substream(14, "mcloss")
    for k in range(4):
        a, b = random_product(rng, n), random_product(rng, n)
        exact = float(squared_loss(a, b, d))
        est = squared_loss(a, b, d, MonteCarlo(100_000, 2000 + k))
        assert abs(est.value - exact) <= 4 * est.std_error + 1e-9


def test_haar_sampling_isotropy():
    d = HaarSingleQubitProduct(1)
    rng = substream(15, "iso")
    m = 50_000
    us = d.draw(rng, m).directions
    assert np.allclose(np.mean(us, axis=0), 0, atol=4 / math.sqrt(m))
    assert np.mean(np.sum(us**2, axis=1)) == pytest.approx(1.0, abs=1e-9)


def test_exact_unavailable_paths():
    big = UniformPauli(9)
    a = ProductState((BlochVector(0, 0, 1),) * 9)
    with pytest.raises(BudgetExceeded):
        inner_product(a, a, big)
    # 2^14 members are over the 2*4^6 terms of support enumeration
    wide = ProductState((BlochVector(0, 0, 1),) * 14)
    with pytest.raises(BudgetExceeded):
        inner_product(StabilizerState(StabilizerGroup.basis_state(0, 14)), wide, UniformPauli(14))


@pytest.mark.parametrize("n", [17, 64])
def test_uniform_parity_refuses_exact_work_over_its_budget(n, monkeypatch):
    import time

    import paulisq.pconcept as pconcept

    def enumerated(*args):
        raise AssertionError("a parity measurement was built past the budget")

    # a regression fails at the first atom instead of enumerating 2^n of them;
    # stabilizer pairs have a polynomial path, so each pair here has a product state
    monkeypatch.setattr(pconcept, "parity_measurement", enumerated)
    basis = StabilizerState(StabilizerGroup.basis_state(1, n))
    product = ProductState((BlochVector(0, 0, 1),) * n)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"2\\^{n} elements, over the enumeration budget of n <= 16"):
        inner_product(product, basis, UniformParity(n))
    with pytest.raises(BudgetExceeded):
        squared_loss(product, MaximallyMixed(n), UniformParity(n))
    assert time.perf_counter() - start < 0.1


def _ghz(n):
    """(|0...0> + |1...1>)/sqrt(2), whose Z-type members are the +Z_i Z_j."""
    z_pairs = ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 1)]
    return StabilizerState(StabilizerGroup.from_strings(["X" * n, *z_pairs]))


@pytest.mark.parametrize("n", [17, 64])
def test_uniform_parity_answers_stabilizer_pairs_past_the_budget(n, monkeypatch):
    import time

    import paulisq.pconcept as pconcept

    def enumerated(*args):
        raise AssertionError("a parity measurement was built for a stabilizer pair")

    monkeypatch.setattr(pconcept, "parity_measurement", enumerated)
    rng = substream(50, "parity-wide", n)
    b, c = random_bits(rng, n), random_bits(rng, n) | 1
    basis, other, mixed = (StabilizerState(StabilizerGroup.basis_state(bits, n)) for bits in (b, c, 0))
    ghz, d = _ghz(n), UniformParity(n)
    start = time.perf_counter()
    # f(E_x) = -(-1)^(x.b) on |b>, so <f_b, f_c> = [b == c]; I/2^n shares only I
    assert inner_product(basis, basis, d) == 1 and inner_product(basis, other, d) == int(b == c)
    assert inner_product(MaximallyMixed(n), basis, d) == Fraction(1, 2**n)
    # GHZ meets |b> in the Z_i Z_j: all of them with sign + when b is 0...0, half of them otherwise
    assert inner_product(ghz, ghz, d) == inner_product(ghz, mixed, d) == Fraction(1, 2)
    assert inner_product(ghz, other, d) == (Fraction(1, 2) if c == (1 << n) - 1 else 0)
    assert squared_loss(basis, MaximallyMixed(n), d) == 1 - Fraction(1, 2**n)
    assert time.perf_counter() - start < 0.1


def test_uniform_parity_inner_products_match_enumeration_on_every_pair_up_to_n3():
    from paulisq.pconcept import _z_subgroup

    for n in (1, 2, 3):
        d = UniformParity(n)
        states = [StabilizerState(g) for g in enumerate_stabilizer_groups(n)]
        # f at every parity effect, a row per state: every pair's enumerated sum is one integer product
        rows = np.array([[int(f_value(s, e)) for e, _ in d.support()] for s in states])
        enumerated = (rows @ rows.T).tolist()
        if n < 3:
            assert [[inner_product(s, t, d) * 2**n for t in states] for s in states] == enumerated
            continue
        # 1080^2 pairs: a pair's answer reads its two groups only through their
        # Z-type subgroups, which equal states share (their rows are canonical),
        # so one representative pair per class pair stands for all of them
        classes = {}
        for i, s in enumerate(states):
            classes.setdefault(tuple(rows[i]), []).append(i)
        for members in classes.values():
            assert len({_z_subgroup(states[i].group) for i in members}) == 1
        for left in classes.values():
            for right in classes.values():
                assert {enumerated[i][j] for i in left for j in right} == {inner_product(states[left[0]], states[right[0]], d) * 2**n}


@pytest.mark.parametrize("n", range(1, 9))
def test_uniform_parity_inner_products_match_enumeration_on_seeded_pairs(n):
    rng = substream(51, "parity-pairs", n)
    d = UniformParity(n)
    groups = [random_stabilizer_group(n, rng) for _ in range(4)] + lower_rank_groups(n, rng)
    groups += [StabilizerGroup.basis_state(random_bits(rng, n), n) for _ in range(2)] + [MaximallyMixed(n).group]
    if n > 1:
        groups.append(_ghz(n).group)
    states = [StabilizerState(g) for g in groups]
    pairs = [(s, s) for s in states] + [(s, states[(i + 1) % len(states)]) for i, s in enumerate(states)]
    for s, t in pairs:
        assert inner_product(s, t, d) == enumerated_inner(s, t, d)
        want = enumerated_inner(s, s, d) + enumerated_inner(t, t, d) - 2 * enumerated_inner(s, t, d)
        assert squared_loss(s, t, d) == want


@pytest.mark.parametrize("n", [1, 4, 8])
def test_uniform_parity_inner_products_within_the_budget(n):
    # f(E_x) = -(-1)^(x.b) on the basis state |b>, so <f_b, f_c> = [b == c]
    rng = substream(49, "parity-inner", n)
    b, c = random_bits(rng, n), random_bits(rng, n) | 1
    states = [StabilizerState(StabilizerGroup.basis_state(bits, n)) for bits in (b, c, c ^ 1)]
    d = UniformParity(n)
    assert [inner_product(states[0], t, d) for t in states] == [Fraction(int(b == bits)) for bits in (b, c, c ^ 1)]
    # f of I/2^n is -1 at x = 0 and 0 elsewhere
    assert inner_product(MaximallyMixed(n), states[0], d) == Fraction(1, 2**n)


def test_finite_weighted_distribution():
    e1 = PauliMeasurement(PauliOperator.from_string("Z"))
    e2 = PauliMeasurement(PauliOperator.from_string("X"))
    d = FiniteWeighted(((e1, Fraction(1, 4)), (e2, Fraction(3, 4))))
    got = inner_product(KET0, KET0, d)
    assert got == Fraction(1, 4)  # only the Z atom contributes 1 * 1/4
    with pytest.raises(ValueError):
        FiniteWeighted(((e1, 0.5), (e2, 0.25)))


def test_reduced_bloch_stabilizer_is_exact_ints():
    s = StabilizerGroup.from_strings(["+XX", "+ZZ"])  # Bell-type pair
    assert reduced_bloch(StabilizerState(s), 0) == (0, 0, 0)
    assert reduced_bloch(KET0, 0) == (0, 0, 1)


# --- each distribution's own exact answers --------------------------------------


def _finite(n, rng, projectors=4):
    """Six random Pauli effects and `projectors` single-qubit projectors, with rational weights."""
    atoms = [PauliMeasurement(PauliOperator(n, s, random_bits(rng, n), random_bits(rng, n))) for s in (1, -1, 1, 1, -1, 1)]
    for q, u in zip(rng.integers(0, n, size=projectors), rng.normal(size=(projectors, 3))):
        atoms.append(SingleQubitProjector(n, int(q), BlochVector(*(u / np.linalg.norm(u)))))
    counts = [int(k) for k in rng.integers(1, 10, size=len(atoms))]
    return FiniteWeighted(tuple((e, Fraction(k, sum(counts))) for e, k in zip(atoms, counts)))


_KINDS = {
    "uniform-pauli": lambda n, rng: UniformPauli(n),
    "uniform-parity": lambda n, rng: UniformParity(n),
    "finite": _finite,
    "haar": lambda n, rng: HaarSingleQubitProduct(n),
}


@pytest.mark.parametrize(
    "kind, n, tol",
    [(kind, n, 1e-12) for kind in ("uniform-pauli", "uniform-parity", "finite") for n in (1, 2, 3)]
    + [("haar", n, 1e-8) for n in range(1, 6)],
)
def test_exact_inner_agrees_with_the_distributions_own_atoms(kind, n, tol):
    rng = substream(61, "inner-atoms", kind, n)
    d = _KINDS[kind](n, rng)
    groups = [random_stabilizer_group(n, rng)] + lower_rank_groups(n, rng)
    states = [random_product(rng, n), *(StabilizerState(g) for g in groups), MaximallyMixed(n)]
    batch, weights = d.atoms()
    assert weights.dtype == float and len(weights) == len(batch)
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
    fs = [batch.f(s) for s in states]
    for i, rho in enumerate(states):
        for j, sigma in enumerate(states):
            want = math.fsum(weights * fs[i] * fs[j])
            assert float(d.inner(rho, sigma)) == pytest.approx(want, abs=tol)
            assert inner_product(rho, sigma, d) == d.inner(rho, sigma)


@pytest.mark.parametrize("kind", ["uniform-pauli", "uniform-parity", "finite"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerable_loss_is_the_three_inner_form_as_fractions(kind, n):
    rng = substream(62, "loss-form", kind, n)
    # Pauli atoms only, so that every answer is a Fraction
    d = _finite(n, rng, projectors=0) if kind == "finite" else _KINDS[kind](n, rng)
    groups = [random_stabilizer_group(n, rng) for _ in range(2)] + lower_rank_groups(n, rng)
    states = [StabilizerState(g) for g in groups]
    for rho in states:
        for sigma in states:
            loss = d.loss(rho, sigma)
            assert type(loss) is Fraction
            assert loss == d.inner(rho, rho) + d.inner(sigma, sigma) - 2 * d.inner(rho, sigma)
            assert loss == sum(w * (f_value(rho, e) - f_value(sigma, e)) ** 2 for e, w in d.support())
            assert squared_loss(rho, sigma, d) == loss


@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize("mode", [None, MonteCarlo(50, 3)], ids=["exact", "mc"])
def test_a_distribution_on_another_qubit_count_is_refused(kind, mode, monkeypatch):
    import paulisq.pconcept as pconcept

    def answered(*args):
        raise AssertionError("answered before the qubit counts were checked")

    d = _KINDS[kind](2, substream(63, "other-n", kind))
    monkeypatch.setattr(pconcept, "_mc_f_arrays", answered)
    for name in ("inner", "loss"):
        monkeypatch.setattr(type(d), name, answered)
    rng = substream(63, "other-n-states", kind)
    s3, t3 = (StabilizerState(random_stabilizer_group(3, rng)) for _ in range(2))
    s2 = StabilizerState(random_stabilizer_group(2, rng))
    p3 = random_product(rng, 3)
    kwargs = {} if mode is None else {"mode": mode}
    for rho, sigma in ((s3, t3), (p3, MaximallyMixed(3)), (s3, s2), (s2, s3)):
        for measure in (inner_product, squared_loss):
            with pytest.raises(DimensionMismatch):
                measure(rho, sigma, d, **kwargs)
