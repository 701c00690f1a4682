"""The benchmark's three workloads, driving paulisq's public API the way the
CLI subcommands do.

A workload is an optional prefix of one-off items followed by a repeating
cycle of item kinds.  Each kind has two halves: ``make`` draws the item's
inputs from a generator seeded by the run seed and the item index (outside
the timed span), and ``run`` calls into paulisq, checks the outputs and
returns ``(passed, record)``.  The record holds every output that must be
reproducible; the runner hashes it into the run's digest.

Cycle lengths are odd (7, 5, 3), so that the median item is an item of one
kind rather than the mean of the slowest item of one kind and the fastest of
the next, which would make the median jump between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from paulisq import learners, oracle, pconcept, stabilizer, statdim
from paulisq.cli import grid_step
from paulisq.pconcept import (
    BlochVector,
    HaarSingleQubitProduct,
    MaximallyMixed,
    MonteCarlo,
    ProductState,
    StabilizerState,
    UniformParity,
    UniformPauli,
)
from paulisq.oracle import (
    AdversarialCallback,
    BoundedChannelNoise,
    ClassificationNoise,
    DefaultAdversary,
    DepolarizingNoise,
    EmpiricalFromSamples,
    ExactPolicy,
    NoNoise,
    OracleConfig,
    SQQuery,
)

# Failure probability allowed to each statistical check; a run makes at most
# a few hundred of them, so an honest program fails one with odds ~1e-7.
CHECK_DELTA = 1e-9


@dataclass(frozen=True)
class Kind:
    name: str
    make: Callable  # (ctx, rng) -> item input
    run: Callable  # (ctx, item input) -> (passed, record)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (seed, tracer) -> ctx
    prefix: tuple  # one-off kinds run once, before the first cycle
    cycle: tuple  # kinds repeated in this order
    trace_cycles: int  # cycles in a traced run, fixed so its counts repeat exactly


def _blochs(state) -> tuple:
    return tuple(b.as_tuple() for b in state.blochs)


# ---------------------------------------------------------------------------
# sq-learn: product-state learner trials through noisy oracles

SQ_N = 8
SQ_EPSILON = 0.01
CLASSIFICATION_ETA = 0.25
DEPOLARIZING_ETA = 0.5
# the CLI's bounded_channel descriptor: diamond bound 2 eta around depolarizing
# eta; eta must stay below tau / 4 = sqrt(epsilon) / (8 n) for the learner
BOUNDED_ETA = 0.001
GRID_N = 4
GRID_ETA = 0.6
GRID_VALIDATION = 20_000


def _sq_setup(seed, tracer):
    ctx = {"haar": HaarSingleQubitProduct(SQ_N), "haar_grid": HaarSingleQubitProduct(GRID_N), "tracer": tracer}
    # warm the shared quadrature atoms and mixed-state references for both n
    for n, dist in ((SQ_N, ctx["haar"]), (GRID_N, ctx["haar_grid"])):
        state = ProductState(tuple(BlochVector(0.0, 0.0, 1.0) for _ in range(n)))
        inner = oracle.StatisticalQueryOracle(state, dist, OracleConfig(ExactPolicy(), DepolarizingNoise(0.5)))
        wrapped = oracle.DepolarizingCorrectedOracle(inner, 0.5)
        wrapped.query(SQQuery(lambda e, y: float(y), 0.1))
    return ctx


def _product_state(rng, n: int, pure: bool) -> ProductState:
    blochs = []
    for _ in range(n):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if not pure:
            v = v * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
        blochs.append(BlochVector(*v))
    return ProductState(tuple(blochs))


def _learned(ctx, state, hypothesis, n: int):
    dist = ctx["haar"] if n == SQ_N else ctx["haar_grid"]
    loss = float(pconcept.squared_loss(state, hypothesis.state, dist))
    passed = loss <= SQ_EPSILON and hypothesis.queries_used == 3 * n
    return passed, (loss, hypothesis.queries_used, _blochs(hypothesis.state))


def _make_ball(ctx, rng):
    return _product_state(rng, SQ_N, pure=False)


def _make_pure(ctx, rng):
    return _product_state(rng, SQ_N, pure=True)


def _run_clean(ctx, state):
    o = oracle.StatisticalQueryOracle(state, ctx["haar"])
    return _learned(ctx, state, learners.learn_product_state(o, SQ_EPSILON), SQ_N)


def _run_classification(ctx, state):
    config = OracleConfig(ExactPolicy(), ClassificationNoise(CLASSIFICATION_ETA))
    o = oracle.StatisticalQueryOracle(state, ctx["haar"], config)
    wrapped = oracle.ClassificationCorrectedOracle(o, CLASSIFICATION_ETA)
    return _learned(ctx, state, learners.learn_product_state(wrapped, SQ_EPSILON), SQ_N)


def _run_depolarizing(ctx, state):
    config = OracleConfig(ExactPolicy(), DepolarizingNoise(DEPOLARIZING_ETA))
    o = oracle.StatisticalQueryOracle(state, ctx["haar"], config)
    wrapped = oracle.DepolarizingCorrectedOracle(o, DEPOLARIZING_ETA)
    return _learned(ctx, state, learners.learn_product_state(wrapped, SQ_EPSILON), SQ_N)


def _run_bounded(ctx, state):
    noise = BoundedChannelNoise(eta_diamond=2 * BOUNDED_ETA, channel=DepolarizingNoise(BOUNDED_ETA))
    o = oracle.StatisticalQueryOracle(state, ctx["haar"], OracleConfig(ExactPolicy(), noise))
    wrapped = oracle.BoundedChannelAbsorbingOracle(o, noise.eta_diamond)
    return _learned(ctx, state, learners.learn_product_state(wrapped, SQ_EPSILON), SQ_N)


def _make_basis(ctx, rng):
    return int(rng.integers(0, 1 << SQ_N))


def _run_basis(ctx, bits):
    state = StabilizerState(stabilizer.StabilizerGroup.basis_state(bits, SQ_N))
    config = OracleConfig(AdversarialCallback(DefaultAdversary()), NoNoise())
    o = oracle.StatisticalQueryOracle(state, ctx["haar"], config)
    hypothesis = learners.learn_basis_state(o)
    loss = pconcept.squared_loss(state, hypothesis.state, ctx["haar"])
    passed = hypothesis.state == state and hypothesis.queries_used == SQ_N and loss <= SQ_EPSILON
    return passed, (bits, hypothesis.queries_used, loss)


def _make_grid(ctx, rng):
    return _product_state(rng, GRID_N, pure=False), rng


def _run_grid(ctx, item):
    # as the CLI's grid-search trial: the validation draw is part of the trial
    state, rng = item
    dist = ctx["haar_grid"]
    validation = oracle.draw_validation_set(state, dist, GRID_VALIDATION, rng)
    noise = DepolarizingNoise(GRID_ETA)

    def run(guess):
        inner = oracle.StatisticalQueryOracle(state, dist, OracleConfig(ExactPolicy(), noise))
        return learners.learn_product_state(oracle.DepolarizingCorrectedOracle(inner, guess), SQ_EPSILON / 4)

    guess, hypothesis = oracle.eta_grid_search(run, GRID_ETA, grid_step(SQ_EPSILON, GRID_ETA), validation)
    passed, record = _learned(ctx, state, hypothesis, GRID_N)
    return passed, (guess,) + record


SQ_LEARN = Workload(
    name="sq-learn",
    setup=_sq_setup,
    prefix=(),
    # the clean learner runs twice, on a mixed and on a pure target, to make
    # the cycle odd; the median item is then a clean trial
    cycle=(
        Kind("clean", _make_ball, _run_clean),
        Kind("classification", _make_ball, _run_classification),
        Kind("depolarizing", _make_ball, _run_depolarizing),
        Kind("bounded-channel", _make_ball, _run_bounded),
        Kind("basis-adversarial", _make_basis, _run_basis),
        Kind("clean-pure", _make_pure, _run_clean),
        Kind("grid-search", _make_grid, _run_grid),
    ),
    trace_cycles=3,
)


# ---------------------------------------------------------------------------
# stab-corr: exact stabilizer correlations and the SDA chain

MC_SAMPLES = 500
SUBCLASS_SIZE = 48


def _stab_setup(seed, tracer):
    with tracer.span("stabilizer.enumerate_stabilizer_groups", n=2):
        groups2 = stabilizer.enumerate_stabilizer_groups(2)
    with tracer.span("stabilizer.enumerate_stabilizer_groups", n=3):
        groups3 = stabilizer.enumerate_stabilizer_groups(3)
    rng = np.random.default_rng([seed, 0x5DA])
    picked = sorted(rng.choice(len(groups3), size=SUBCLASS_SIZE, replace=False).tolist())
    return {
        "class2": statdim.ConceptClass(tuple(StabilizerState(g) for g in groups2), UniformPauli(2)),
        "class3": statdim.ConceptClass(tuple(StabilizerState(groups3[i]) for i in picked), UniformPauli(3)),
        "uniform": {n: UniformPauli(n) for n in (6, 8, 10, 12)},
        "tracer": tracer,
    }


def _make_class(ctx, rng):
    return None


def _run_class(ctx, _):
    cls2, cls3 = ctx["class2"], ctx["class3"]
    kappa, half = Fraction(1, 4), Fraction(1, 8)
    # <f_S, f_T> = 2^-n tr(rho_S rho_T) >= 0, and the stabilizer states sum to
    # a multiple of I, so over the full class the average correlation is 4^-n
    avg = statdim.average_correlation(cls2)
    bound = statdim.sda_bound(cls2, half, kappa, half)
    # 60 concepts exceed the sweep budget, so sda_exact certifies the same bound
    exact = statdim.sda_exact(cls2, kappa)
    mat = statdim.correlation_matrix(cls3)
    k = len(cls3)
    diagonal_ok = all(mat[i][i] == Fraction(1, 8) for i in range(k))
    off = [mat[i][j] for i in range(k) for j in range(k) if i != j]
    off_ok = all(
        0 <= v <= Fraction(1, 16) and (v == 0 or _is_power_of_two(v * 64)) for v in off
    ) and all(mat[i][j] == mat[j][i] for i in range(k) for j in range(i))
    passed = (
        avg == Fraction(1, 16)
        and bound.sda_value == len(cls2) and bound.gamma == kappa and bound.is_lower_bound
        and exact.sda_value == len(cls2) and exact.is_lower_bound and exact.gamma_pair == half
        and diagonal_ok and off_ok
    )
    return passed, (avg, bound.sda_value, exact.sda_value, exact.kappa, sum(off))


def _is_power_of_two(v: Fraction) -> bool:
    if v.denominator == 1:
        return v.numerator & (v.numerator - 1) == 0
    return v.numerator == 1 and v.denominator & (v.denominator - 1) == 0


def _bernstein_band(variance_bound: float, range_bound: float, samples: int) -> float:
    """Half-width t with P(|mean - mu| >= t) <= CHECK_DELTA for `samples`
    i.i.d. draws of variance <= variance_bound and |X - mu| <= range_bound.

    A 4-standard-error band is not used here: the per-sample values are
    nonzero with probability <= 2^-n, so the hit count is Poisson-like with
    mean well below 10, and a 4-SE band would miss for ~0.1-1% of honest
    seeds (and for every seed whose sample has no hit, where the sample
    standard error is 0).
    """
    log_term = math.log(2.0 / CHECK_DELTA)
    lin = range_bound * log_term / 3.0
    return (lin + math.sqrt(lin * lin + 2.0 * variance_bound * log_term * samples)) / samples


def _pair_kind(n: int) -> Kind:
    def make(ctx, rng):
        return rng, int(rng.integers(0, 2**32))

    def run(ctx, item):
        rng, mc_seed = item
        d = ctx["uniform"][n]
        s = StabilizerState(stabilizer.random_stabilizer_group(n, rng))
        t = StabilizerState(stabilizer.random_stabilizer_group(n, rng))
        norm = pconcept.inner_product(s, s, d)
        cross = pconcept.inner_product(s, t, d)
        loss = pconcept.squared_loss(s, MaximallyMixed(n), d)
        mc = pconcept.inner_product(s, t, d, MonteCarlo(MC_SAMPLES, mc_seed))
        # f_S f_T is nonzero only on the <= 2^n Paulis shared by S and T
        band = _bernstein_band(2.0**-n, 1.0 + float(cross), MC_SAMPLES)
        passed = (
            norm == Fraction(1, 2**n)
            and 0 <= cross <= Fraction(1, 2 ** (n + 1))
            and (cross == 0 or _is_power_of_two(cross * 4**n))
            and norm - loss == Fraction(1, 4**n)
            and abs(mc.value - float(cross)) <= band
        )
        return passed, (n, s.group.generators, t.group.generators, cross, loss, mc.value, mc.std_error)

    return Kind(f"pair-n{n}", make, run)


STAB_CORR = Workload(
    name="stab-corr",
    setup=_stab_setup,
    prefix=(Kind("class", _make_class, _run_class),),
    # n=10 runs twice to make the cycle odd; the median item is then an n=10 pair
    cycle=tuple(_pair_kind(n) for n in (6, 8, 10, 12, 10)),
    trace_cycles=2,
)


# ---------------------------------------------------------------------------
# lpn-samples: LPN embedded as parity measurements of a basis state

NOISY_N, NOISY_ETA, NOISY_M = 16, 0.1, 800
CLEAN_N, CLEAN_M = 64, 256
EMPIRICAL_N, EMPIRICAL_SAMPLES, EMPIRICAL_ETA = 16, 500, 0.1


def _lpn_setup(seed, tracer):
    return {"parity": UniformParity(EMPIRICAL_N), "tracer": tracer}


def _lpn_instance(rng, n: int, m: int, eta: float) -> learners.LPNInstance:
    # built here rather than by generate_lpn_instance, whose
    # rng.integers(0, 1 << n) overflows int64 for n >= 63
    secret = int(rng.integers(0, 2**n, dtype=np.uint64))
    xs = rng.integers(0, 2**n, size=m, dtype=np.uint64).tolist()
    flips = (rng.random(m) < eta).tolist()
    examples = tuple((x, ((x & secret).bit_count() & 1) ^ int(f)) for x, f in zip(xs, flips))
    return learners.LPNInstance(n, eta, examples, secret)


def _round_trip(ctx, instance) -> bool:
    with ctx["tracer"].span("learners.lpn_embedding", n=instance.n):
        dataset = learners.make_lpn_as_state_learning(instance)
        decoded = learners.decode_state_learning_dataset(dataset, instance.n)
    return tuple(decoded) == instance.examples


def _make_noisy(ctx, rng):
    return _lpn_instance(rng, NOISY_N, NOISY_M, NOISY_ETA)


def _run_noisy(ctx, instance):
    round_trip = _round_trip(ctx, instance)
    result = learners.exhaustive_lpn_solver(instance)
    passed = round_trip and result.best == instance.secret and len(result.ties) == 1
    return passed, (instance.secret, result.best, result.disagreements, len(result.ties))


def _make_noiseless(ctx, rng):
    return _lpn_instance(rng, CLEAN_N, CLEAN_M, 0.0)


def _run_noiseless(ctx, instance):
    round_trip = _round_trip(ctx, instance)
    solution = learners.gaussian_elimination_parity(instance.examples, instance.n)
    return round_trip and solution == instance.secret, (instance.secret, repr(solution))


def _make_empirical(ctx, rng):
    return int(rng.integers(0, 1 << EMPIRICAL_N)), int(rng.integers(0, 2**32))


def _run_empirical(ctx, item):
    bits, seed = item
    state = StabilizerState(stabilizer.StabilizerGroup.basis_state(bits, EMPIRICAL_N))
    policy = EmpiricalFromSamples(samples=EMPIRICAL_SAMPLES, seed=seed)
    config = OracleConfig(policy, ClassificationNoise(EMPIRICAL_ETA))
    o = oracle.StatisticalQueryOracle(state, ctx["parity"], config)

    def character(e, y):
        # the label times the parity character chi_bits(x) = (-1)^{x.bits}
        return float(y) if (pconcept.parity_index(e) & bits).bit_count() % 2 == 0 else -float(y)

    # Hoeffding: values lie in [-1, 1], so the mean of m samples is within
    # sqrt(2 ln(2/delta) / m) of its expectation except with odds delta
    band = math.sqrt(2.0 * math.log(2.0 / CHECK_DELTA) / EMPIRICAL_SAMPLES)
    answer = o.query(SQQuery(character, band))
    # E[y chi_a(x)] = -(1 - 2 eta) [a == bits] on the basis state |bits>
    closed_form = -(1.0 - 2.0 * EMPIRICAL_ETA)
    return abs(answer - closed_form) <= band, (bits, answer)


LPN_SAMPLES = Workload(
    name="lpn-samples",
    setup=_lpn_setup,
    prefix=(),
    cycle=(
        Kind("lpn-noisy-n16", _make_noisy, _run_noisy),
        Kind("lpn-noiseless-n64", _make_noiseless, _run_noiseless),
        Kind("empirical-parity", _make_empirical, _run_empirical),
    ),
    trace_cycles=10,
)


WORKLOADS = {w.name: w for w in (SQ_LEARN, STAB_CORR, LPN_SAMPLES)}
