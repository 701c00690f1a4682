"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

from fractions import Fraction

import numpy as np
import pytest

from dense_ref import (
    dense_stabilizer_state_census,
    group_state_matrix,
    matrix_key,
    measurement_matrix,
    state_matrix,
)
from paulisq.learners import (
    exhaustive_lpn_solver,
    gaussian_elimination_parity,
    generate_lpn_instance,
    haar_sign_moment_mc,
    learn_product_state,
    make_lpn_as_state_learning,
)
from paulisq.oracle import (
    BoundedChannelAbsorbingOracle,
    BoundedChannelNoise,
    ClassificationCorrectedOracle,
    ClassificationNoise,
    DepolarizingCorrectedOracle,
    DepolarizingNoise,
    ExactPolicy,
    NoNoise,
    OracleConfig,
    RandomWithinTau,
    StatisticalQueryOracle,
    draw_validation_set,
    eta_grid_search,
    mixture_acceptance,
)
from paulisq.pconcept import (
    EXACT,
    BlochVector,
    HaarSingleQubitProduct,
    MaximallyMixed,
    ProductState,
    StabilizerState,
    UniformPauli,
    inner_product,
    squared_loss,
)
from paulisq.stabilizer import enumerate_stabilizer_groups, random_stabilizer_group
from paulisq.streams import substream

SEED = 20240


def report(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def random_product_state(n, rng, pure):
    blochs = []
    for _ in range(n):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if not pure:
            v *= rng.uniform(0, 1) ** (1 / 3)
        blochs.append(BlochVector(*v))
    return ProductState(tuple(blochs))


def test_criterion_01_exact_stabilizer_correlations():
    """Norms 1/2^n, cross terms <= 1/2^{n+1} with equality attained; exact."""
    ok = True
    for n in (1, 2):
        d = UniformPauli(n)
        states = [StabilizerState(g) for g in enumerate_stabilizer_groups(n)]
        norm = Fraction(1, 2**n)
        bound = Fraction(1, 2 ** (n + 1))
        tight = False
        for i, a in enumerate(states):
            ok = ok and inner_product(a, a, d, EXACT) == norm
            for b in states[i + 1 :]:
                value = abs(inner_product(a, b, d, EXACT))
                ok = ok and value <= bound
                tight = tight or value == bound
        ok = ok and tight
    report("criterion 1: exact stabilizer correlation suite (n=1,2 exhaustive)", ok)


def test_criterion_02_maximally_mixed_identity():
    """norm^2 - loss-vs-mixed = 1/4^n exactly on 50 random states per n."""
    ok = True
    for n in (1, 2, 3):
        d = UniformPauli(n)
        mixed = MaximallyMixed(n)
        for k in range(50):
            s = StabilizerState(random_stabilizer_group(n, substream(SEED, "mm", n, k)))
            gap = inner_product(s, s, d, EXACT) - squared_loss(s, mixed, d, EXACT)
            ok = ok and gap == Fraction(1, 4**n)
    report("criterion 2: maximally-mixed identity, zero tolerance", ok)


def test_criterion_03_stabilizer_counts():
    """6 / 60 / 1080 groups, cross-checked densely for n <= 2."""
    counts = {n: len(enumerate_stabilizer_groups(n)) for n in (1, 2, 3)}
    ok = counts == {1: 6, 2: 60, 3: 1080}
    for n in (1, 2):
        census = dense_stabilizer_state_census(n)
        rebuilt = {
            matrix_key(group_state_matrix(g)) for g in enumerate_stabilizer_groups(n)
        }
        ok = ok and rebuilt == census and len(rebuilt) == counts[n]
    report(f"criterion 3: stabilizer counts {counts} with dense cross-check", ok)


def test_criterion_04_haar_moment_monte_carlo():
    """20 random single-qubit pairs: MC mean within 4 standard errors."""
    ok = True
    for k in range(20):
        rng = substream(SEED, "haar", k)
        psi = rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        reference, target = BlochVector(*psi), BlochVector(*r)
        est = haar_sign_moment_mc(reference, target, 1_000_000, rng)
        ok = ok and abs(est.value - reference.dot(target) / 4.0) <= 4 * est.std_error
    report("criterion 4: Haar sign-moment MC vs closed form (20 pairs, 1e6 samples)", ok)


def test_criterion_05_product_state_learner():
    """100 random targets across n in {1,2,4,8}: loss <= eps, 3n queries, both policies."""
    ok = True
    worst = 0.0
    for n in (1, 2, 4, 8):
        d = HaarSingleQubitProduct(n)
        for trial in range(25):
            rng = substream(SEED, "learn", n, trial)
            target = random_product_state(n, rng, pure=bool(trial % 2))
            for epsilon in (0.25, 0.01):
                for policy in (ExactPolicy(), RandomWithinTau(seed=1000 * n + trial)):
                    oracle = StatisticalQueryOracle(target, d, OracleConfig(policy, NoNoise()))
                    hyp = learn_product_state(oracle, epsilon)
                    loss = float(squared_loss(target, hyp.state, d, EXACT))
                    worst = max(worst, loss / epsilon)
                    ok = ok and loss <= epsilon and hyp.queries_used == 3 * n
    report(f"criterion 5: product learner loss certificate (worst loss/eps {worst:.3f})", ok)


def test_criterion_06_noise_correction_round_trips():
    """Wrapped learners meet the criterion-5 targets under label flips and
    depolarizing noise with rate-grid search."""
    ok = True
    # classification noise, known rate
    for n in (1, 2, 4, 8):
        d = HaarSingleQubitProduct(n)
        for eta in (0.1, 0.25, 0.4):
            for epsilon in (0.25, 0.01):
                for trial in range(2):
                    rng = substream(SEED, "clf", n, eta, trial)
                    target = random_product_state(n, rng, pure=bool(trial % 2))
                    for policy in (ExactPolicy(), RandomWithinTau(seed=trial + int(100 * eta))):
                        noisy = StatisticalQueryOracle(
                            target, d, OracleConfig(policy, ClassificationNoise(eta))
                        )
                        hyp = learn_product_state(ClassificationCorrectedOracle(noisy, eta), epsilon)
                        ok = ok and float(squared_loss(target, hyp.state, d, EXACT)) <= epsilon

    # depolarizing noise, rate found by grid search; the grid step realizes
    # the tolerance-scaled prescription with the constant set by the
    # per-coordinate error budget (inner runs at epsilon/4 leave sqrt(eps)/2
    # of slack, so a half-step rate mismatch stays within budget)
    def run_grid(n, eta, epsilon, policy, trial):
        d = HaarSingleQubitProduct(n)
        rng = substream(SEED, "grid", n, eta, epsilon, trial)
        target = random_product_state(n, rng, pure=bool(trial % 2))
        noise = DepolarizingNoise(eta)
        budget = (epsilon**0.5) * (1 - eta) / 2
        delta = eta / max(1, int(np.ceil(eta / budget))) if eta > 0 else 1.0
        validation = draw_validation_set(target, d, 20_000, substream(SEED, "val", n, eta, trial))

        def run(guess):
            inner = StatisticalQueryOracle(target, d, OracleConfig(policy, noise))
            return learn_product_state(DepolarizingCorrectedOracle(inner, guess), epsilon / 4)

        best_eta, hyp = eta_grid_search(run, eta, delta, validation)
        return float(squared_loss(target, hyp.state, d, EXACT)) <= epsilon

    for n in (1, 2, 4, 8):
        for eta in (0.1, 0.5, 0.9):
            for epsilon in (0.25, 0.01):
                ok = ok and run_grid(n, eta, epsilon, ExactPolicy(), 0)
    for eta in (0.1, 0.5, 0.9):
        ok = ok and run_grid(2, eta, 0.25, RandomWithinTau(seed=9), 1)
    report("criterion 6: classification and depolarizing round trips meet eps", ok)


def test_criterion_07_bounded_channel_absorption():
    """Unmodified learner at tolerance tau - 2 eta_diamond meets its target."""
    ok = True
    for n in (1, 2, 4):
        d = HaarSingleQubitProduct(n)
        for epsilon in (0.25, 0.01):
            tau = epsilon**0.5 / (2 * n)
            eta_dep = tau / 16  # declared diamond bound 2*eta keeps tau > 2*eta_diamond
            noise = BoundedChannelNoise(2 * eta_dep, DepolarizingNoise(eta_dep))
            for trial in range(5):
                rng = substream(SEED, "bounded", n, epsilon, trial)
                target = random_product_state(n, rng, pure=bool(trial % 2))
                for policy in (ExactPolicy(), RandomWithinTau(seed=trial)):
                    noisy = StatisticalQueryOracle(target, d, OracleConfig(policy, noise))
                    wrapped = BoundedChannelAbsorbingOracle(noisy, noise.eta_diamond)
                    hyp = learn_product_state(wrapped, epsilon)
                    ok = ok and float(squared_loss(target, hyp.state, d, EXACT)) <= epsilon
    report("criterion 7: bounded-channel absorption at tau - 2*eta_diamond", ok)


def test_criterion_08_adjoint_identity():
    """tr(adj(E) rho) = tr(E Lambda(rho)) to 1e-12, densely, all Pauli E, n=2."""
    n = 2
    eta = 0.37
    channel = DepolarizingNoise(eta)
    identity = np.eye(2**n) / 2**n
    worst = 0.0
    for k in range(50):
        state = StabilizerState(random_stabilizer_group(n, substream(SEED, "adj", k)))
        noisy_rho = (1 - eta) * state_matrix(state) + eta * identity
        for e, _ in UniformPauli(n).support():
            lhs = mixture_acceptance(state, channel.adjoint(e))
            rhs = float(np.trace(measurement_matrix(e) @ noisy_rho).real)
            worst = max(worst, abs(lhs - rhs))
    report(f"criterion 8: adjoint identity, worst |err| {worst:.2e} <= 1e-12", worst <= 1e-12)


def test_criterion_09_lpn_embedding_end_to_end():
    """Planted parity instances solved through the measurement embedding."""
    clean_hits = 0
    for trial in range(100):
        rng = substream(SEED, "lpn0", trial)
        for _ in range(10):  # retry on rank deficiency
            instance = generate_lpn_instance(16, 64, 0.0, rng)
            dataset = make_lpn_as_state_learning(instance)
            from paulisq.learners import decode_state_learning_dataset

            solution = gaussian_elimination_parity(
                decode_state_learning_dataset(dataset, 16), 16
            )
            if isinstance(solution, int):
                clean_hits += int(solution == instance.secret)
                break
    noisy_hits = 0
    for trial in range(100):
        rng = substream(SEED, "lpn1", trial)
        instance = generate_lpn_instance(12, 600, 0.1, rng)
        dataset = make_lpn_as_state_learning(instance)
        from paulisq.learners import decode_state_learning_dataset

        rebuilt = decode_state_learning_dataset(dataset, 12)
        result = exhaustive_lpn_solver(
            type(instance)(12, 0.1, tuple(rebuilt), instance.secret)
        )
        noisy_hits += int(result.best == instance.secret and len(result.ties) == 1)
    ok = clean_hits >= 99 and noisy_hits >= 95
    report(
        f"criterion 9: parity embedding, clean {clean_hits}/100, noisy {noisy_hits}/100",
        ok,
    )


def test_criterion_10_sda_chain():
    """Pairwise-bound instantiation gives 60 at threshold 1/4 with verified
    hypotheses; the exact n=1 sweep dominates its own bound."""
    from paulisq.statdim import ConceptClass, sda_bound, sda_exact

    ok = True
    cls2 = ConceptClass(
        tuple(StabilizerState(g) for g in enumerate_stabilizer_groups(2)), UniformPauli(2)
    )
    bound2 = sda_bound(cls2, Fraction(1, 8), Fraction(1, 4), Fraction(1, 8))
    ok = ok and bound2.sda_value == 60 and bound2.gamma == Fraction(1, 4)

    cls1 = ConceptClass(
        tuple(StabilizerState(g) for g in enumerate_stabilizer_groups(1)), UniformPauli(1)
    )
    bound1 = sda_bound(cls1, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    exact1 = sda_exact(cls1, bound1.gamma)
    ok = ok and Fraction(exact1.sda_value) >= bound1.sda_value
    report(
        f"criterion 10: dimension chain (bound 60 at 1/4; exact {exact1.sda_value} >= {bound1.sda_value})",
        ok,
    )
