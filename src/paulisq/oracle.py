"""Simulated statistical-query oracle with pluggable response policies and noise.

A statistical query is a bounded function phi(E, Y) of a measurement and a
+-1 outcome, together with a tolerance tau; the oracle answers within tau of
E[phi(E, Y)] where E ~ D and Y is the (possibly noise-corrupted) outcome of
measuring the hidden state.

Every query decomposes as phi(E, Y) = a(E) + Y * b(E), so the expectation is
E[a(E)] + E[b(E) * f(E)] with f the conditional outcome mean.  All noise
models act through this decomposition:

* classification noise at rate eta scales the outcome mean by (1 - 2 eta);
* malicious noise mixes in an adversarial distribution at weight eta;
* a depolarizing channel replaces f by (1-eta) f + eta f_mixed;
* a generic bounded channel perturbs every expectation by at most twice its
  diamond-norm distance from the identity, and is absorbed into tolerance.

Each noise model is a `NoiseModel` subclass that owns its behaviour: `mean`
and `label_weights` fold it into the expectation engine's atoms, `sample`
draws one noisy example, `learner_oracle` wraps a noisy oracle in the
correction a learner queries through, and `adjoint` pushes it onto a
measurement where a closed form exists.  Each `ResponsePolicy` owns its
`answer` and the random `stream` an oracle opens for it once.
`StatisticalQueryOracle` only calls the configured pair.

Expectations are computed deterministically: by weighted enumeration for
finite distributions, and by per-panel Gauss-Legendre quadrature over the
sphere for Haar single-qubit measurement distributions (exact to roughly
1e-9 for queries that are smooth on each octant, which covers sign-threshold
queries split along the coordinate planes).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .pauli import DimensionMismatch, PauliMeasurement, PauliOperator
from .pconcept import (
    BlochVector,
    HaarSingleQubitProduct,
    MaximallyMixed,
    Measurement,
    MeasurementDistribution,
    QuantumState,
    SingleQubitProjector,
    acceptance_probability,
    distribution_support,
    f_value,
    reduced_bloch,
    sample_outcome,
)
from .streams import substream

_QUAD_ORDER = 6
_BOUND_SLACK = 1e-9


class UnboundedQuery(ValueError):
    """A query function strayed outside [-1, 1] on a probe point."""


class ToleranceExhausted(ValueError):
    """Requested tolerance cannot absorb the declared channel noise."""


# ---------------------------------------------------------------------------
# queries, policies, noise models


@dataclass(frozen=True)
class SQQuery:
    phi: Callable[[Measurement, int], float]
    tau: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tolerance must be positive, got {self.tau}")


class ResponsePolicy:
    """Base of the response policies (see the module docstring)."""

    def stream(self):
        return None


@dataclass(frozen=True)
class ExactPolicy(ResponsePolicy):
    """Answer with the true (noisy) expectation."""

    def answer(self, oracle, q, rng) -> float:
        return oracle.true_noisy_expectation(q.phi)


@dataclass(frozen=True)
class RandomWithinTau(ResponsePolicy):
    """Answer with truth plus uniform noise over [-tau, tau]."""

    seed: int = 0

    def stream(self):
        return substream(self.seed, "within-tau")

    def answer(self, oracle, q, rng) -> float:
        return oracle.true_noisy_expectation(q.phi) + float(rng.uniform(-q.tau, q.tau))


@dataclass(frozen=True)
class AdversarialCallback(ResponsePolicy):
    """Answer via handle(truth, tau); the handle must stay inside the band."""

    handle: Callable[[float, float], float]

    def answer(self, oracle, q, rng) -> float:
        truth = oracle.true_noisy_expectation(q.phi)
        answer = float(self.handle(truth, q.tau))
        if abs(answer - truth) > q.tau * (1.0 + 1e-9):
            raise ValueError("adversarial callback left the tolerance band")
        return answer


@dataclass(frozen=True)
class EmpiricalFromSamples(ResponsePolicy):
    """Answer with the empirical mean of phi over fresh noisy samples.

    With samples=None the per-query sample size is ceil(2 ln(2/delta)/tau^2)
    where delta = delta_total / expected_queries, the union-bound choice that
    makes every answer tau-accurate except with probability delta_total.
    """

    samples: Optional[int] = None
    seed: int = 0
    delta_total: float = 0.01
    expected_queries: int = 1

    def stream(self):
        return substream(self.seed, "empirical")

    def answer(self, oracle, q, rng) -> float:
        m = self.samples
        if m is None:
            delta = self.delta_total / max(self.expected_queries, 1)
            m = math.ceil(2.0 * math.log(2.0 / delta) / (q.tau * q.tau))
        total = 0.0
        for _ in range(m):
            e, y = oracle.sample_noisy_example(rng)
            total += q.phi(e, y)
        return total / m


class DefaultAdversary:
    """Full-magnitude perturbation whose sign flips between calls, so each
    answer opposes the correction a learner would have made to the last one."""

    def __init__(self):
        self._sign = 1

    def __call__(self, truth: float, tau: float) -> float:
        self._sign = -self._sign
        return truth + self._sign * tau


class NoiseModel:
    """Base of the noise models (see the module docstring); by itself, no noise."""

    def mean(self, f: float, f_mixed: float) -> float:
        """Noisy outcome mean from the clean one and the mixed state's."""
        return f

    def label_weights(self, engine: "_ExpectationEngine") -> list:
        return engine.label_weights([self.mean(f, fm) for f, fm in zip(engine.f_clean, engine.f_mixed)])

    def sample(self, state: QuantumState, distribution: MeasurementDistribution, rng):
        e = distribution.sample(rng)
        return e, sample_outcome(state, e, rng)

    def learner_oracle(self, oracle):
        return oracle

    def adjoint(self, e: Measurement) -> tuple:
        raise ValueError(f"no closed-form adjoint for channel {self!r}")


@dataclass(frozen=True)
class NoNoise(NoiseModel):
    pass


@dataclass(frozen=True)
class ClassificationNoise(NoiseModel):
    """Each outcome label is flipped independently with probability eta."""

    eta: float

    def __post_init__(self):
        if not 0 <= self.eta < 0.5:
            raise ValueError(f"classification noise rate must lie in [0, 1/2), got {self.eta}")

    def mean(self, f, f_mixed):
        return (1.0 - 2.0 * self.eta) * f

    def sample(self, state, distribution, rng):
        e, y = super().sample(state, distribution, rng)
        if rng.random() < self.eta:
            y = -y
        return e, y

    def learner_oracle(self, oracle):
        return ClassificationCorrectedOracle(oracle, self.eta)


@dataclass(frozen=True)
class MaliciousNoise(NoiseModel):
    """With probability eta the whole example is replaced by a draw from an
    adversarial distribution; `corruption` is a tuple of ((E, y), weight)
    entries, or None for the default of E ~ D with a uniform label.
    Learners query it uncorrected; see MaliciousAbsorbingOracle."""

    eta: float
    corruption: Optional[tuple] = None

    def __post_init__(self):
        if not 0 <= self.eta <= 1:
            raise ValueError(f"malicious noise rate must lie in [0, 1], got {self.eta}")

    def label_weights(self, engine) -> list:
        keep = 1.0 - self.eta
        pairs = [(e, keep * wp, keep * wm) for e, wp, wm in super().label_weights(engine)]
        if self.corruption is None:
            # default corruption: E ~ D with a uniformly random label
            pairs += [
                (e, 0.5 * self.eta * w, 0.5 * self.eta * w)
                for e, w in zip(engine.measurements, engine.weights)
            ]
        else:
            pairs += [
                (e, self.eta * float(w) if y == 1 else 0.0, self.eta * float(w) if y == -1 else 0.0)
                for (e, y), w in self.corruption
            ]
        return pairs

    def sample(self, state, distribution, rng):
        if rng.random() < self.eta:
            if self.corruption is not None:
                weights = [float(w) for _, w in self.corruption]
                idx = rng.choice(len(weights), p=np.asarray(weights) / sum(weights))
                return self.corruption[int(idx)][0]
            e = distribution.sample(rng)
            return e, (1 if rng.random() < 0.5 else -1)
        return super().sample(state, distribution, rng)


@dataclass(frozen=True)
class DepolarizingNoise(NoiseModel):
    """The hidden state is replaced by (1-eta) rho + eta I/2^n."""

    eta: float

    def __post_init__(self):
        if not 0 <= self.eta < 1:
            raise ValueError(f"depolarizing rate must lie in [0, 1), got {self.eta}")

    def mean(self, f, f_mixed):
        return (1.0 - self.eta) * f + self.eta * f_mixed

    def sample(self, state, distribution, rng):
        # one uniform draw per example, against the noisy outcome mean
        e = distribution.sample(rng)
        f = self.mean(float(f_value(state, e)), float(f_value(MaximallyMixed(state.n), e)))
        return e, (1 if rng.random() < 0.5 * (1.0 + f) else -1)

    def learner_oracle(self, oracle):
        return DepolarizingCorrectedOracle(oracle, self.eta)

    def adjoint(self, e: Measurement) -> tuple:
        """adj(E) = (1-eta) E + eta (tr E / 2^n) I.  Effects here have trace 0,
        2^{n-1} or 2^n; the middle case is returned as the exact convex mixture
        (1-eta) E + eta/2 (always-accept) + eta/2 (always-reject) of Pauli effects."""
        if self.eta == 0.0:
            return ((e, 1.0),)
        if isinstance(e, PauliMeasurement) and e.pauli.is_identity:
            return ((e, 1.0),)  # E = I or E = 0: fixed points of the unital adjoint
        n = e.n
        accept_all = PauliMeasurement(PauliOperator.identity(n, 1))
        reject_all = PauliMeasurement(PauliOperator.identity(n, -1))
        return ((e, 1.0 - self.eta), (accept_all, self.eta / 2.0), (reject_all, self.eta / 2.0))


@dataclass(frozen=True)
class BoundedChannelNoise(NoiseModel):
    """A channel applied to the hidden state, declared to be within
    eta_diamond of the identity in diamond norm.  The concrete channel in
    scope is depolarizing and produces the examples; the declared bound is
    what wrappers may rely on."""

    eta_diamond: float
    channel: DepolarizingNoise

    def __post_init__(self):
        if self.eta_diamond < 0:
            raise ValueError("diamond bound must be nonnegative")

    def mean(self, f, f_mixed):
        return self.channel.mean(f, f_mixed)

    def sample(self, state, distribution, rng):
        return self.channel.sample(state, distribution, rng)

    def learner_oracle(self, oracle):
        return BoundedChannelAbsorbingOracle(oracle, self.eta_diamond)


@dataclass(frozen=True)
class OracleConfig:
    policy: ResponsePolicy = field(default_factory=ExactPolicy)
    noise: NoiseModel = field(default_factory=NoNoise)

    def __post_init__(self):
        if not isinstance(self.policy, ResponsePolicy):
            raise TypeError(f"unknown response policy {self.policy!r}: not a ResponsePolicy")
        if not isinstance(self.noise, NoiseModel):
            raise TypeError(f"unknown noise model {self.noise!r}: not a NoiseModel")


# ---------------------------------------------------------------------------
# deterministic expectation engine


@lru_cache(maxsize=None)
def _sphere_quadrature(order: int):
    """Gauss-Legendre nodes/weights on the sphere, split into octant panels.

    Splitting theta at pi/2 and phi at every quarter turn keeps sign-threshold
    integrands smooth on each panel.  Weights sum to 1.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    theta_panels = [(0.0, math.pi / 2), (math.pi / 2, math.pi)]
    phi_panels = [(k * math.pi / 2, (k + 1) * math.pi / 2) for k in range(4)]
    us = []
    ws = []
    for t0, t1 in theta_panels:
        th = 0.5 * (t1 - t0) * nodes + 0.5 * (t1 + t0)
        wt = 0.5 * (t1 - t0) * weights
        for p0, p1 in phi_panels:
            ph = 0.5 * (p1 - p0) * nodes + 0.5 * (p1 + p0)
            wp = 0.5 * (p1 - p0) * weights
            for t, w_t in zip(th, wt):
                st, ct = math.sin(t), math.cos(t)
                for p, w_p in zip(ph, wp):
                    us.append((math.cos(p) * st, math.sin(p) * st, ct))
                    ws.append(w_t * w_p * st / (4.0 * math.pi))
    return tuple(us), tuple(ws)


@lru_cache(maxsize=16)
def _haar_atoms(n: int):
    """Quadrature measurements for the Haar product distribution, shared
    across oracles: (projector, weight/n, direction) per qubit and node."""
    us, ws = _sphere_quadrature(_QUAD_ORDER)
    atoms = []
    for q in range(n):
        for u, w in zip(us, ws):
            atoms.append((SingleQubitProjector(n, q, BlochVector(*u)), w / n, u))
    return tuple(atoms)


class _ExpectationEngine:
    """Deterministic atoms (measurement, weight, f) for a fixed state and
    distribution: E[phi] = sum_atoms w (phi(E,1)(1+f) + phi(E,-1)(1-f))/2."""

    def __init__(self, state: QuantumState, distribution: MeasurementDistribution):
        self.measurements: list[Measurement] = []
        self.weights: list[float] = []
        self.f_clean: list[float] = []
        self.f_mixed: list[float] = []
        n = state.n
        if isinstance(distribution, HaarSingleQubitProduct):
            blochs = [reduced_bloch(state, q) for q in range(n)]
            for e, w, (ux, uy, uz) in _haar_atoms(n):
                bx, by, bz = blochs[e.qubit]
                self.measurements.append(e)
                self.weights.append(w)
                self.f_clean.append(ux * bx + uy * by + uz * bz)
                self.f_mixed.append(0.0)
        else:
            mixed = MaximallyMixed(n)
            for e, w in distribution_support(distribution):
                self.measurements.append(e)
                self.weights.append(float(w))
                self.f_clean.append(float(f_value(state, e)))
                self.f_mixed.append(float(f_value(mixed, e)))

    def label_weights(self, fs) -> list:
        """Per-atom (measurement, accept-weight, reject-weight) for given outcome means."""
        return [
            (e, 0.5 * w * (1.0 + f), 0.5 * w * (1.0 - f))
            for e, w, f in zip(self.measurements, self.weights, fs)
        ]


def _evaluate(pairs, phi) -> float:
    total = 0.0
    for e, wp, wm in pairs:
        total += wp * phi(e, 1) + wm * phi(e, -1)
    return total


@lru_cache(maxsize=16)
def _mixed_reference_pairs(distribution: MeasurementDistribution, n: int):
    engine = _ExpectationEngine(MaximallyMixed(n), distribution)
    return engine.label_weights(engine.f_clean)


def expectation_on_maximally_mixed(
    phi,
    distribution: MeasurementDistribution,
    n: int,
    samples: Optional[int] = None,
    rng=None,
) -> float:
    """E[phi(E, Y)] when the state is I/2^n: needs no access to the hidden state.

    With `samples` set, estimates from that many unlabeled draws of D instead
    of deterministic evaluation (labels are then simulated from the known
    mixed-state outcome law).
    """
    if samples is None:
        return _evaluate(_mixed_reference_pairs(distribution, n), phi)
    mixed = MaximallyMixed(n)
    rng = rng if rng is not None else np.random.default_rng(0)
    total = 0.0
    for _ in range(samples):
        e = distribution.sample(rng)
        total += phi(e, sample_outcome(mixed, e, rng))
    return total / samples


# ---------------------------------------------------------------------------
# the oracle


class StatisticalQueryOracle:
    """SQ oracle for a hidden state under a measurement distribution.

    Stateful: keeps a monotone query counter and a transcript of
    (index, tau, answer) rows.  One query at a time; distinct instances are
    independent.
    """

    def __init__(
        self,
        state: QuantumState,
        distribution: MeasurementDistribution,
        config: OracleConfig = OracleConfig(),
        probe_seed: int = 2024,
        transcript_path: Optional[str] = None,
    ):
        if state.n != distribution.n:
            raise DimensionMismatch(
                f"state on {state.n} qubits, distribution on {distribution.n}"
            )
        self._state = state
        self._distribution = distribution
        self.config = config
        self.transcript: list[dict] = []
        self._transcript_path = transcript_path
        self._count = 0
        self._pairs: Optional[list] = None
        self._probe_rng = substream(probe_seed, "probe")
        self._policy_rng = config.policy.stream()

    @property
    def distribution(self) -> MeasurementDistribution:
        return self._distribution

    @property
    def n(self) -> int:
        return self._state.n

    @property
    def query_count(self) -> int:
        return self._count

    def _probe_boundedness(self, phi):
        for _ in range(8):
            e = self._distribution.sample(self._probe_rng)
            for y in (1, -1):
                v = phi(e, y)
                if not -1.0 - _BOUND_SLACK <= v <= 1.0 + _BOUND_SLACK:
                    raise UnboundedQuery(f"query returned {v} at a probe point")

    def _get_pairs(self) -> list:
        """Per-atom (measurement, accept, reject) weights with the noise model
        folded in, so each query costs two phi calls per atom and nothing else."""
        if self._pairs is None:
            engine = _ExpectationEngine(self._state, self._distribution)
            self._pairs = self.config.noise.label_weights(engine)
        return self._pairs

    def true_noisy_expectation(self, phi) -> float:
        """E[phi] under the configured noise model, computed deterministically."""
        return _evaluate(self._get_pairs(), phi)

    def sample_noisy_example(self, rng):
        """One (E, y) example drawn under the configured noise model."""
        return self.config.noise.sample(self._state, self._distribution, rng)

    def query(self, q: SQQuery) -> float:
        """Answer within tau of the noisy expectation, per the response policy."""
        self._probe_boundedness(q.phi)
        answer = self.config.policy.answer(self, q, self._policy_rng)
        self._count += 1
        row = {"query": self._count, "tau": q.tau, "answer": answer}
        self.transcript.append(row)
        if self._transcript_path is not None:
            with open(self._transcript_path, "a", encoding="utf-8") as sink:
                sink.write(json.dumps(row) + "\n")
        return answer


# ---------------------------------------------------------------------------
# noise-correction wrappers


def correct_classification(noisy_answer: float, eta: float) -> float:
    """Invert the (1 - 2 eta) attenuation on the label-dependent part of a query.

    Only the Y-odd part of a query is damped by label flips; the label-free
    part passes through untouched and must not be rescaled.
    """
    if not 0 <= eta < 0.5:
        raise ValueError(f"classification noise rate must lie in [0, 1/2), got {eta}")
    return noisy_answer / (1.0 - 2.0 * eta)


def correct_depolarizing(noisy_answer: float, phi_on_mixed: float, eta: float) -> float:
    """Recover phi[rho] from phi[(1-eta) rho + eta I/2^n] and phi[I/2^n]."""
    if not 0 <= eta < 1:
        raise ValueError(f"depolarizing rate must lie in [0, 1), got {eta}")
    return (noisy_answer - eta * phi_on_mixed) / (1.0 - eta)


def absorb_bounded_channel(tau_requested: float, eta: float) -> float:
    """Tolerance to issue against a channel within eta of the identity.

    A bounded channel moves any query expectation by at most 2 eta, so a
    noisy answer within tau - 2 eta is a clean answer within tau.
    """
    if eta < 0:
        raise ValueError("diamond bound must be nonnegative")
    if not tau_requested > 2.0 * eta:
        raise ToleranceExhausted(
            f"tolerance {tau_requested} cannot absorb channel noise 2*{eta}"
        )
    return tau_requested - 2.0 * eta


class _WrapperOracle:
    """Common plumbing for oracles layered on top of another oracle."""

    def __init__(self, inner):
        self.inner = inner
        self._count = 0

    @property
    def distribution(self):
        return self.inner.distribution

    @property
    def n(self):
        return self.inner.n

    @property
    def query_count(self):
        return self._count

    @property
    def transcript(self):
        return getattr(self.inner, "transcript", None)


class ClassificationCorrectedOracle(_WrapperOracle):
    """Presents a clean oracle on top of a classification-noisy one.

    Each clean query splits into its label-free and label-odd parts, both
    issued at tolerance tau (1 - 2 eta) / 2; only the odd part is rescaled.
    """

    def __init__(self, inner, eta: float):
        if not 0 <= eta < 0.5:
            raise ValueError(f"classification noise rate must lie in [0, 1/2), got {eta}")
        super().__init__(inner)
        self.eta = eta

    def query(self, q: SQQuery) -> float:
        phi = q.phi
        sub_tau = q.tau * (1.0 - 2.0 * self.eta) / 2.0
        even = self.inner.query(SQQuery(lambda e, y: 0.5 * (phi(e, 1) + phi(e, -1)), sub_tau))
        odd = self.inner.query(SQQuery(lambda e, y: 0.5 * y * (phi(e, 1) - phi(e, -1)), sub_tau))
        self._count += 1
        return even + correct_classification(odd, self.eta)


class DepolarizingCorrectedOracle(_WrapperOracle):
    """Presents a clean oracle on top of a depolarizing-noisy one.

    The noisy query is issued at tolerance tau (1 - eta) / 2 and the
    state-independent reference phi[I/2^n] is computed from the distribution
    alone (deterministically, or from `mixed_samples` unlabeled draws).
    """

    def __init__(self, inner, eta: float, mixed_samples: Optional[int] = None, seed: int = 0):
        if not 0 <= eta < 1:
            raise ValueError(f"depolarizing rate must lie in [0, 1), got {eta}")
        super().__init__(inner)
        self.eta = eta
        self.mixed_samples = mixed_samples
        self._rng = substream(seed, "mixed-reference")

    def query(self, q: SQQuery) -> float:
        sub_tau = q.tau * (1.0 - self.eta) / 2.0
        noisy = self.inner.query(SQQuery(q.phi, sub_tau))
        phi_mixed = expectation_on_maximally_mixed(
            q.phi, self.distribution, self.n, samples=self.mixed_samples, rng=self._rng
        )
        self._count += 1
        return correct_depolarizing(noisy, phi_mixed, self.eta)


class BoundedChannelAbsorbingOracle(_WrapperOracle):
    """Tightens every tolerance by twice the declared diamond bound and
    forwards the answer unchanged."""

    def __init__(self, inner, eta_diamond: float):
        super().__init__(inner)
        self.eta_diamond = eta_diamond

    def query(self, q: SQQuery) -> float:
        tightened = absorb_bounded_channel(q.tau, self.eta_diamond)
        self._count += 1
        return self.inner.query(SQQuery(q.phi, tightened))


class MaliciousAbsorbingOracle(_WrapperOracle):
    """Tightens every tolerance by the malicious rate and forwards the answer.

    Sound when the corruption keeps the measurement marginal (label-only
    corruption moves expectations by at most eta for queries bounded by 1);
    a corruption that also skews the measurements can move them by 2 eta,
    in which case the caller should tighten accordingly.
    """

    def __init__(self, inner, eta: float):
        super().__init__(inner)
        self.eta = eta

    def query(self, q: SQQuery) -> float:
        if not q.tau > self.eta:
            raise ToleranceExhausted(
                f"tolerance {q.tau} cannot absorb malicious noise {self.eta}"
            )
        self._count += 1
        return self.inner.query(SQQuery(q.phi, q.tau - self.eta))


# ---------------------------------------------------------------------------
# adjoint channel action on measurements


def adjoint_measurement(e: Measurement, channel: NoiseModel):
    """Push a channel from the state onto the effect, as a convex mixture."""
    return channel.adjoint(e)


def mixture_acceptance(state: QuantumState, mixture) -> float:
    """tr(sum_k w_k E_k rho) for a convex mixture of effects."""
    return sum(float(w) * float(acceptance_probability(state, e)) for e, w in mixture)


# ---------------------------------------------------------------------------
# noise-rate grid search


def draw_validation_set(
    state: QuantumState,
    distribution: MeasurementDistribution,
    size: int,
    rng,
    mean_labels: bool = True,
) -> list[tuple[Measurement, float]]:
    """Labeled holdout examples for hypothesis selection.

    With mean_labels=True each measurement carries its exact conditional mean
    f_rho(E) (the idealized example form); otherwise a sampled +-1 outcome.
    """
    out = []
    for _ in range(size):
        e = distribution.sample(rng)
        label = float(f_value(state, e)) if mean_labels else float(sample_outcome(state, e, rng))
        out.append((e, label))
    return out


def _empirical_squared_loss(validation) -> Callable[[QuantumState], float]:
    """The mean squared error of f_hypothesis on the validation set, as a
    function of the hypothesis state.  A set of single-qubit projectors is
    packed into arrays here, once for every hypothesis scored."""
    if not all(isinstance(e, SingleQubitProjector) for e, _ in validation):
        return lambda state: float(np.mean([(float(f_value(state, e)) - y) ** 2 for e, y in validation]))
    qubits = np.fromiter((e.qubit for e, _ in validation), dtype=int)
    axes = np.array([e.axis.as_tuple() for e, _ in validation], dtype=float)
    labels = np.fromiter((y for _, y in validation), dtype=float)

    def loss(state: QuantumState) -> float:
        bloch = np.array([reduced_bloch(state, q) for q in range(state.n)], dtype=float)
        f = np.einsum("ij,ij->i", axes, bloch[qubits])
        return float(np.mean((f - labels) ** 2))

    return loss


def eta_grid_search(
    run_learner: Callable[[float], object],
    eta_upper: float,
    delta_grid: float,
    validation: Sequence[tuple[Measurement, float]],
):
    """Learn once per noise-rate guess {0, delta, 2 delta, ..., eta_upper} and
    return the (guess, hypothesis) pair with the smallest empirical squared
    loss on the validation set.  Ties break toward the smaller guess.
    """
    if not 0 <= eta_upper < 1:
        raise ValueError(f"eta_upper must lie in [0, 1), got {eta_upper}")
    if eta_upper > 0 and not delta_grid > 0:
        raise ValueError("grid step must be positive")
    if not validation:
        raise ValueError("validation set is empty")
    guesses = [0.0]
    g = delta_grid
    while eta_upper > 0 and g < eta_upper - 1e-12:
        guesses.append(g)
        g += delta_grid
    if eta_upper > 0:
        guesses.append(eta_upper)
    loss = _empirical_squared_loss(validation)
    best = None
    for guess in guesses:
        hypothesis = run_learner(guess)
        score = loss(hypothesis.state)
        if best is None or score < best[0]:
            best = (score, guess, hypothesis)
    return best[1], best[2]
