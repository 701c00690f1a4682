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

Each noise model is a `NoiseModel` subclass that owns its behaviour and
checks its own rate: `mean` and `label_weights` fold it into an atom
table, `draw` draws m noisy examples, `correct` undoes it on one answer,
and `adjoint` pushes it onto a measurement where a closed form exists.
`learner_oracle` wraps a noisy oracle in the reduction that simulates a
clean one, and is the one entry point to a correction: Kearns'
split-and-rescale for classification noise, subtracting the I/2^n
reference for depolarizing noise, and a tolerance tightened by the
channel's margin for a bounded channel; `margin` states the most that
learner oracle takes off a query tolerance.  Each `ResponsePolicy` owns its
`answer` and the random `stream` an oracle opens for it once.
`StatisticalQueryOracle` only calls the pair.

Every answer is evaluated on one kind of object, a measurement batch (see
`pconcept`): m measurements held as arrays, or as indices into a tuple of
measurement objects, whose f(state) gives f at all of them in one call.
Exact answers come from an atom table, the batch and weights of
`distribution.atoms()`: the support of a finite distribution (a uniform one
refuses past its enumeration budget before it builds an atom), or the
per-panel Gauss-Legendre quadrature of `HaarSingleQubitProduct.atoms`
(exact to roughly 1e-9 for queries that are smooth on each octant, which
covers sign-threshold queries split along the coordinate planes).  There is one
table per (state, distribution, noise), shared by every oracle over them,
and one per distribution for the maximally mixed state.  A query is a
function of (E, y), so its answer on a table never changes: each table
evaluates a hashable query once and keeps the answer, while every oracle
still counts and logs each query it is asked.  The rest of an answer's path
is resolved once per oracle, not once per query: an oracle binds its
policy's `answer` when it is built and its table on the first exact answer,
and the depolarizing wrapper binds the I/2^n table when it is built (a
sampled reference still draws through `expectation_on_maximally_mixed`).
The learners ask the same query object for each (qubit, axis), so a
kept answer is found by identity, without comparing queries.  The empirical
policy draws one batch of m examples per answer, with the noisy labels
drawn as an array against the noisy outcome mean.  The grid search's
validation set is one batch labeled with f of the hidden state.  On
single-qubit projectors each hypothesis is scored from the set's per-qubit
moments, summed once (see `ValidationSet`).

A query is any callable phi(E, y).  It may also have an array form,
phi.on_projectors(qubits, directions) -> (phi(E, 1), phi(E, -1)) as two
arrays over the projectors.  On a batch of single-qubit projectors (every
Haar table and Haar draw) a query with an array form is answered in one
call: a table weighs the two arrays by its accept and reject weights as
they are, and a draw picks each example's value at its label.  Otherwise
phi is called pair by pair on measurements made from the batch one at a
time.  One helper, `_values`, reads phi for every answer, and either way it
checks |phi| <= 1 on each value the answer uses: both labels of every atom
a table reads, in one pass, or the drawn label of every example.

The package's own queries may also declare, by `_family`, a family of
queries that read one qubit, with one array form for all of them:
phi(E, y) is +-0.0 for both labels on every projector acting on another
qubit.  A projector table answers an asked member on that qubit's atoms
only (1/n of the Haar atoms), together with its later siblings in one
pass, each bit for bit as alone (see `_Table`); draws, and tables of
other measurements, read every atom or example.  Where each qubit's atoms
lie is found once per batch (`ProjectorBatch._qubit_runs`), so every
table on a distribution's shared support reuses one search and one set of
per-qubit batches, and slices only its own weights.  A qubit's three axis
queries are one family, so the product learner, asking X, Y and Z in
turn, reads each qubit's atoms once.  The classification wrapper's label
parts of a family's members are one family too, read in one pass over the
base family's array form.  A query's field named `qubit` alone declares
nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .pauli import DimensionMismatch, PauliMeasurement, PauliOperator
from .pconcept import (
    FiniteWeighted,
    MaximallyMixed,
    Measurement,
    MeasurementBatch,
    MeasurementDistribution,
    ProjectorBatch,
    QuantumState,
    acceptance_probability,
    batch_of,
    check_samples,
    concatenate,
    draw_outcomes,
    reduced_bloch,
)
from .streams import check_seed, substream

_BOUND_SLACK = 1e-9
# answers a table keeps before it starts over
_ANSWER_CAP = 1024


class UnboundedQuery(ValueError):
    """A query returned a value outside [-1, 1], or NaN, that its answer uses."""


class ToleranceExhausted(ValueError):
    """Requested tolerance cannot absorb the declared channel noise."""


# ---------------------------------------------------------------------------
# queries, policies, noise models


@dataclass(frozen=True)
class SQQuery:
    phi: Callable[[Measurement, int], float]
    tau: float

    def __init__(self, phi: Callable[[Measurement, int], float], tau: float):
        # the generated frozen __init__ sets each field through object.__setattr__;
        # writing the instance dict directly is the same state at ~60% of the cost
        if not tau > 0:
            raise ValueError(f"tolerance must be positive, got {tau}")
        fields = self.__dict__
        fields["phi"] = phi
        fields["tau"] = tau


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
    """Answer with truth plus uniform noise over [-tau, tau], from the stream
    of a seed >= 0."""

    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed, "within-tau seed")

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


# the failure probability of one empirical answer sized by Hoeffding's bound
EMPIRICAL_DELTA = 0.01


@dataclass(frozen=True)
class EmpiricalFromSamples(ResponsePolicy):
    """Answer with the empirical mean of phi over fresh noisy samples.

    With samples=None the per-query sample size is ceil(2 ln(2/delta)/tau^2)
    with delta = EMPIRICAL_DELTA: by Hoeffding's bound each answer is
    tau-accurate except with probability delta.  A given `samples` must be
    an int >= 1, and `seed` must be >= 0; both are checked when the policy
    is built.
    """

    samples: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.samples is not None:
            check_samples(self.samples, "empirical samples")
        check_seed(self.seed, "empirical seed")

    def stream(self):
        return substream(self.seed, "empirical")

    def answer(self, oracle, q, rng) -> float:
        m = self.samples
        if m is None:
            m = math.ceil(2.0 * math.log(2.0 / EMPIRICAL_DELTA) / (q.tau * q.tau))
        return _sample_mean(q.phi, *oracle.draw_noisy_examples(rng, m))


class DefaultAdversary:
    """Full-magnitude perturbation whose sign flips between calls, so each
    answer opposes the correction a learner would have made to the last one."""

    def __init__(self):
        self._sign = 1

    def __call__(self, truth: float, tau: float) -> float:
        self._sign = -self._sign
        return truth + self._sign * tau


class NoiseModel:
    """Base of the noise models (see the module docstring); by itself, no
    noise.  `margin` is the most `learner_oracle` subtracts from a query's
    tolerance, which must stay above it: 0 for every model but the bounded
    channel, as the correction wrappers scale a tolerance instead.  It is
    derived, and read-only, as every model is a frozen dataclass."""

    margin = 0.0

    def mean(self, f, f_mixed):
        """Noisy outcome mean from the clean one, elementwise; f_mixed() gives
        the mixed state's, and only the models that read it call it."""
        return f

    def label_weights(self, atoms: "_Atoms") -> tuple:
        """(batch, accept, reject): the atoms' measurement batch and per-atom
        weights of the outcomes +1 and -1 under this noise, so
        E[phi] = sum accept phi(E,1) + reject phi(E,-1)."""
        mean = self.mean(atoms.f, lambda: atoms.f_mixed)
        return atoms.batch, 0.5 * atoms.weight * (1.0 + mean), 0.5 * atoms.weight * (1.0 - mean)

    def draw(self, state: QuantumState, distribution: MeasurementDistribution, rng, m: int) -> tuple:
        """(batch, labels): m noisy examples, the measurements drawn from D as one
        batch and each +-1 label drawn against the noisy outcome mean."""
        batch = distribution.draw(rng, m)
        return batch, draw_outcomes(self.mean(batch.f(state), lambda: batch.f(MaximallyMixed(state.n))), rng)

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

    def correct(self, noisy_answer: float) -> float:
        """Invert the (1 - 2 eta) attenuation of a query's label-odd part; the
        label-free part is not damped by label flips and must not be rescaled."""
        return noisy_answer / (1.0 - 2.0 * self.eta)

    def learner_oracle(self, oracle):
        return ClassificationCorrectedOracle(oracle, self.eta)


@dataclass(frozen=True)
class MaliciousNoise(NoiseModel):
    """With probability eta the whole example is replaced by a draw from an
    adversarial distribution; `corruption` is a tuple of ((E, y), weight)
    entries with y = +-1 and weights as a FiniteWeighted's, or None for the
    default of E ~ D with a uniform label.  Learners query it uncorrected;
    see MaliciousAbsorbingOracle."""

    eta: float
    corruption: Optional[tuple] = None

    def __post_init__(self):
        if not 0 <= self.eta <= 1:
            raise ValueError(f"malicious noise rate must lie in [0, 1], got {self.eta}")
        if self.corruption is not None:
            self._corruption_draws()  # its weights are checked as a FiniteWeighted's
            if any(y not in (1, -1) for (_, y), _ in self.corruption):
                raise ValueError(f"corruption labels must be +1 or -1, got {[y for (_, y), _ in self.corruption]}")

    def label_weights(self, atoms) -> tuple:
        batch, accept, reject = super().label_weights(atoms)
        keep = 1.0 - self.eta
        if self.corruption is None:
            # default corruption: E ~ D with a uniformly random label
            corrupted = atoms.batch
            bad_accept = bad_reject = 0.5 * self.eta * atoms.weight
        else:
            corrupted = batch_of(tuple(e for (e, _), _ in self.corruption))
            labels = np.array([y for (_, y), _ in self.corruption])
            bad = self.eta * np.array([float(w) for _, w in self.corruption])
            bad_accept, bad_reject = np.where(labels == 1, bad, 0.0), np.where(labels == -1, bad, 0.0)
        return (
            concatenate(batch, corrupted),
            np.concatenate([keep * accept, bad_accept]),
            np.concatenate([keep * reject, bad_reject]),
        )

    def _corruption_draws(self) -> FiniteWeighted:
        """The explicit corruption's measurements, at its weights."""
        return FiniteWeighted(tuple((e, w) for (e, _), w in self.corruption))

    def draw(self, state, distribution, rng, m: int) -> tuple:
        """Each example is corrupted with probability eta.  By default a corrupted
        example keeps its draw from D and gets a uniform label.  An explicit
        corruption draws the number k of corrupted examples, then m - k clean
        examples, then k examples from the corruption's weights; the batch
        lists the clean examples first, which leaves the law of the sample
        mean unchanged."""
        if self.corruption is None:
            batch, labels = super().draw(state, distribution, rng, m)
            corrupted = rng.random(m) < self.eta
            return batch, np.where(corrupted, 1 - 2 * rng.integers(0, 2, size=m), labels)
        k = int(rng.binomial(m, self.eta))
        batch, labels = super().draw(state, distribution, rng, m - k)
        picks = self._corruption_draws().draw(rng, k)
        bad_labels = np.array([y for (_, y), _ in self.corruption])[picks.indices]
        return concatenate(batch, batch_of(tuple(picks))), np.concatenate([labels, bad_labels])


@dataclass(frozen=True)
class DepolarizingNoise(NoiseModel):
    """The hidden state is replaced by (1-eta) rho + eta I/2^n."""

    eta: float

    def __post_init__(self):
        if not 0 <= self.eta < 1:
            raise ValueError(f"depolarizing rate must lie in [0, 1), got {self.eta}")

    def mean(self, f, f_mixed):
        return (1.0 - self.eta) * f + self.eta * f_mixed()

    def correct(self, noisy_answer: float, phi_on_mixed: float) -> float:
        """Recover phi[rho] from phi[(1-eta) rho + eta I/2^n] and phi[I/2^n]."""
        return (noisy_answer - self.eta * phi_on_mixed) / (1.0 - self.eta)

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
        if not self.eta_diamond >= 0:
            raise ValueError(f"diamond bound must be nonnegative, got {self.eta_diamond}")

    def mean(self, f, f_mixed):
        return self.channel.mean(f, f_mixed)

    @property
    def margin(self) -> float:
        return _diamond_margin(self.eta_diamond)

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
# atom tables for deterministic expectations


class _Atoms(NamedTuple):
    """A distribution's atoms as a batch, with their weights, f of one state and
    f_mixed of I/2^n at each."""

    batch: MeasurementBatch
    weight: np.ndarray
    f: np.ndarray
    f_mixed: np.ndarray


@lru_cache(maxsize=16)
def _support(distribution: MeasurementDistribution) -> _Atoms:
    """The distribution's atoms with f of I/2^n as both f and f_mixed: built
    once per distribution, shared read-only."""
    batch, weights = distribution.atoms()
    f_mixed = batch.f(MaximallyMixed(distribution.n))
    for array in (weights, f_mixed):
        array.setflags(write=False)
    return _Atoms(batch, weights, f_mixed, f_mixed)


def _atoms(state: QuantumState, distribution: MeasurementDistribution) -> _Atoms:
    atoms = _support(distribution)
    return atoms._replace(f=atoms.batch.f(state))


class _Table:
    """An atom table: `weights` is (batch, accept, reject) as
    NoiseModel.label_weights gives it, and `answer` reads a query off it.

    A query may declare, in `_family`, a family of queries that read one
    qubit: `family.qubit`, `family.members` in order, and an array form
    family.on_projectors(qubits, directions) -> (plus, minus) as (k, m)
    arrays, row a equal to member a's array form bit for bit.  Every member
    is +-0.0 for both labels on every projector acting on another qubit.
    On a miss for a member, a projector table reads the qubit's view only
    (see _qubit_views): the atoms it drops add terms of +-0.0, which leave
    the running sum's normalised result as it is.  On that view it
    evaluates the asked member and its later siblings in one pass: one
    bound check covers all their values and each row is summed as
    `_evaluate` sums one query, so every answer is the one its member would
    get alone.  If any of the values fails the bound, the asked member is
    evaluated alone, so it answers or raises as before, and no sibling is
    kept.  A family whose qubit is outside the table reads all the weights.
    The batch finds its per-qubit runs once, for every table that shares
    it; the table slices its weights by them, for every qubit at once, on
    its first family pass.  Any other query, and any other table, is
    evaluated on all the weights.

    The table keeps the answer to every hashable query it has evaluated; its
    weights never change, and neither does the answer.  A query that cannot
    be hashed is evaluated every time.  A query that fails its bound check
    raises and is not kept, so it fails again when asked again.  The kept
    answers start over after _ANSWER_CAP of them.
    """

    __slots__ = ("weights", "_answers", "_views")

    def __init__(self, weights: tuple):
        self.weights = weights
        self._answers: dict = {}
        self._views: Optional[tuple] = None

    def answer(self, phi) -> float:
        try:
            value = self._answers.get(phi)
        except TypeError:
            return _evaluate(self.weights, phi)
        if value is None:
            members, values = self._pass(phi)
            answers = self._answers
            for member, kept in zip(members, values):
                if len(answers) >= _ANSWER_CAP and member not in answers:
                    answers.clear()
                answers[member] = kept
            value = values[0]
        return value

    def _pass(self, phi) -> tuple:
        """(members, values): phi and its family's later members, with their
        answers from one pass over the family's array form on its qubit's
        view, or phi alone with its answer (see the class docstring)."""
        family = getattr(phi, "_family", None)
        if family is None or not isinstance(self.weights[0], ProjectorBatch):
            return (phi,), [_evaluate(self.weights, phi)]
        view = self._view(family.qubit)
        first = family.members.index(phi)
        try:
            plus, minus = family.on_projectors(view[0].qubits, view[0].directions)
            plus, minus = _checked(plus[first:], minus[first:])
        except UnboundedQuery:
            return (phi,), [_evaluate(view, phi)]
        return family.members[first:], _sums(view, plus, minus).tolist()

    def _view(self, qubit) -> tuple:
        """The weights a family on `qubit` reads: that qubit's view of a
        projector table, or all of them for a qubit outside the table."""
        if type(qubit) is not int or not 0 <= qubit < self.weights[0].n:
            return self.weights
        if self._views is None:
            self._views = _qubit_views(self.weights)
        return self._views[qubit]


def _qubit_views(weights: tuple) -> tuple:
    """(batch, accept, reject) of each qubit's atoms of a projector table, in
    table order: the batch's run and view batch for the qubit (see
    ProjectorBatch._qubit_runs), and the run of the table's weights.  A
    qubit with no atoms gets the whole table.  The runs and view batches
    belong to the batch, so tables on the same support share them; a table
    adds only its weights' runs, which copy ~16 B per atom where a run is an
    index run, held for as long as the table is cached."""
    batch, accept, reject = weights
    views = []
    for entry in batch._qubit_runs:
        if entry is None:
            views.append(weights)
            continue
        run, view = entry
        views.append((view, accept[run], reject[run]))
    return tuple(views)


@lru_cache(maxsize=4)
def _table(state: QuantumState, distribution: MeasurementDistribution, noise: NoiseModel) -> _Table:
    """The atom table of a state under a distribution and a noise model,
    shared by every oracle over the three."""
    return _Table(noise.label_weights(_atoms(state, distribution)))


@lru_cache(maxsize=16)
def _mixed_table(distribution: MeasurementDistribution) -> _Table:
    """The noiseless atom table of I/2^n under the distribution."""
    return _Table(NoNoise().label_weights(_support(distribution)))


def _check_bound(values: np.ndarray) -> np.ndarray:
    """The values, once each has passed |v| <= 1 + _BOUND_SLACK (NaN fails)."""
    inside = np.abs(values) <= 1.0 + _BOUND_SLACK
    if not inside.all():
        raise UnboundedQuery(f"query returned {values[~inside][0]}, outside [-1, 1]")
    return values


def _checked(plus, minus) -> tuple:
    """The array form's (phi(E, 1), phi(E, -1)) as float arrays, once every
    value has passed |v| <= 1 + _BOUND_SLACK."""
    plus, minus = np.asarray(plus, dtype=float), np.asarray(minus, dtype=float)
    # both labels in one check, which reports a bad phi(E, 1) before any phi(E, -1)
    _check_bound(np.concatenate((plus, minus), axis=None))
    return plus, minus


def _values(phi, batch: MeasurementBatch, labels: Optional[np.ndarray] = None):
    """phi at the pairs an answer uses, each checked against |phi| <= 1: the
    two arrays (phi(E, 1), phi(E, -1)) over the measurements E of the batch,
    or with `labels` the array of phi(E, y) at each drawn example.

    A query with an array form, phi.on_projectors(qubits, directions) ->
    (phi(E, 1), phi(E, -1)) per projector, answers on a ProjectorBatch in one
    call.  Otherwise phi is called pair by pair, on the measurements the
    batch yields, which it makes one block of pconcept.ITER_BLOCK at a time.
    """
    native = getattr(phi, "on_projectors", None)
    if native is not None and isinstance(batch, ProjectorBatch):
        plus, minus = native(batch.qubits, batch.directions)
        if labels is None:
            return _checked(plus, minus)
        return _check_bound(np.where(labels == 1, plus, minus))
    if labels is None:
        pairs = ((e, y) for e in batch for y in (1, -1))
        values = np.fromiter(itertools.starmap(phi, pairs), float, 2 * len(batch))
        plus, minus = _check_bound(values).reshape(-1, 2).T
        return plus, minus
    values = np.fromiter(itertools.starmap(phi, zip(batch, labels.tolist())), float, len(labels))
    return _check_bound(values)


def _sums(table, plus: np.ndarray, minus: np.ndarray):
    """sum_atoms accept plus + reject minus over a table's weights, or over
    one qubit's view of them, the terms summed in atom order from 0.0 as a
    loop would (np.sum and np.dot add pairwise): one sum of (m,) values, or
    one per row of k queries' values stacked as (k, m), each row's the same
    accumulation as alone."""
    _, accept, reject = table
    # .T[-1]: the last running sum of each row, or of the one (m,) row
    return (accept * plus + reject * minus).cumsum(-1).T[-1] + 0.0


def _evaluate(table, phi) -> float:
    """phi's answer on a table's weights, or on one qubit's view of them: the
    running sum of its checked values (see _sums)."""
    return float(_sums(table, *_values(phi, table[0])))


def _sample_mean(phi, batch: MeasurementBatch, labels: np.ndarray) -> float:
    """Mean of phi over the drawn examples (E, y), as a running total in draw
    order (sum() compensates rounding from Python 3.12 on)."""
    return float(_values(phi, batch, labels).cumsum()[-1] + 0.0) / len(labels)


def expectation_on_maximally_mixed(
    phi, distribution: MeasurementDistribution, *, samples: Optional[int] = None, rng=None
) -> float:
    """E[phi(E, Y)] when the state is I/2^n, n the distribution's: needs no
    access to the hidden state.

    With `samples` set, estimates from that many unlabeled draws of D instead
    of deterministic evaluation (labels are then simulated from the known
    mixed-state outcome law).
    """
    if samples is None:
        return _mixed_table(distribution).answer(phi)
    check_samples(samples, "mixed-reference samples")
    rng = rng if rng is not None else np.random.default_rng(0)
    return _sample_mean(phi, *NoNoise().draw(MaximallyMixed(distribution.n), distribution, rng, samples))


# ---------------------------------------------------------------------------
# the oracle


class StatisticalQueryOracle:
    """SQ oracle for a hidden state under a measurement distribution.

    Stateful: keeps a monotone query counter and, in `transcript`, one
    {"query", "tau", "answer"} row per answered query, in order.  One query
    at a time; distinct instances are independent.
    """

    def __init__(
        self, state: QuantumState, distribution: MeasurementDistribution, config: OracleConfig = OracleConfig()
    ):
        if state.n != distribution.n:
            raise DimensionMismatch(f"state on {state.n} qubits, distribution on {distribution.n}")
        self._state = state
        self._distribution = distribution
        self.config = config
        self.transcript: list[dict] = []
        self._count = 0
        self._exact: Optional[_Table] = None
        # the policy's answer and its stream, each fetched once per oracle
        self._answer = config.policy.answer
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

    def true_noisy_expectation(self, phi) -> float:
        """E[phi] under the configured noise model, read deterministically off
        the atom table, which is fetched on the first call."""
        if self._exact is None:
            key = (self._state, self._distribution, self.config.noise)
            try:
                self._exact = _table(*key)
            except TypeError:  # an unhashable state or noise model gets a table of its own
                self._exact = _table.__wrapped__(*key)
        return self._exact.answer(phi)

    def draw_noisy_examples(self, rng, m: int) -> tuple:
        """(batch, labels): m examples (E, y) drawn under the configured noise model."""
        return self.config.noise.draw(self._state, self._distribution, rng, m)

    def query(self, q: SQQuery) -> float:
        """Answer within tau of the noisy expectation, per the response policy."""
        answer = self._answer(self, q, self._policy_rng)
        self._count += 1
        self.transcript.append({"query": self._count, "tau": q.tau, "answer": answer})
        return answer


# ---------------------------------------------------------------------------
# noise-correction wrappers


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


class _LabelPart:
    """The label-free part 0.5 (phi(E, 1) + phi(E, -1)) of a query, or with
    odd=True its label-odd part 0.5 y (phi(E, 1) - phi(E, -1)).

    A query outside [-1, 1] can have bounded parts, so phi itself is checked
    on both labels of every atom or example the part is evaluated at.  The
    part has an array form exactly when phi does, and declares a family
    exactly when phi does: the one `_LabelFamily` of phi's family, whose
    members are the parts of its members.  Parts are equal when their
    (phi, odd) are, so an atom table reads each part once.
    """

    def __init__(self, phi, odd: bool):
        self.phi = phi
        self.odd = odd

    # both are read through properties: a bound method kept on a part, or a
    # label family kept on one of its own member parts, would make a
    # reference cycle, left for the cyclic collector to free
    @property
    def on_projectors(self):
        """The array form, where phi has one."""
        if not hasattr(self.phi, "on_projectors"):
            raise AttributeError("on_projectors")
        return self._on_projectors

    @property
    def _family(self):
        """The label parts of phi's family, where phi declares one."""
        family = getattr(self.phi, "_family", None)
        return None if family is None else _label_family(family)

    def __eq__(self, other) -> bool:
        return isinstance(other, _LabelPart) and (self.phi, self.odd) == (other.phi, other.odd)

    def __hash__(self) -> int:
        return hash((self.phi, self.odd))

    def __call__(self, e, y: int) -> float:
        even, odd = _label_parts((self.phi(e, 1), self.phi(e, -1)))
        return y * odd if self.odd else even

    def _on_projectors(self, qubits: np.ndarray, directions: np.ndarray) -> tuple:
        even, odd = _label_parts(self.phi.on_projectors(qubits, directions))
        return (odd, -odd) if self.odd else (even, even)


def _label_parts(values) -> tuple:
    """(even, odd): the label-free part 0.5 (phi(E, 1) + phi(E, -1)) of the
    values (phi(E, 1), phi(E, -1)), two scalars or two arrays, and the
    label-odd part at y = 1, 0.5 (phi(E, 1) - phi(E, -1)), once every value
    has passed the bound."""
    plus, minus = _check_bound(np.array(values, dtype=float))
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


class _LabelFamily:
    """The label parts of a family's members, even then odd for each member
    in order, with one array form: the base family's, checked on both
    labels, with every part's rows formed as `_LabelPart` forms them."""

    def __init__(self, base):
        self.qubit = base.qubit
        self.members = tuple(_LabelPart(phi, odd) for phi in base.members for odd in (False, True))
        self._base = base

    def on_projectors(self, qubits: np.ndarray, directions: np.ndarray) -> tuple:
        """(plus, minus) as (2k, m) arrays: rows 2a and 2a + 1 are the even
        and odd parts of base member a, each bit for bit as alone."""
        even, odd = _label_parts(self._base.on_projectors(qubits, directions))
        return tuple(np.stack(rows, 1).reshape(2 * len(even), -1) for rows in ((even, odd), (even, -odd)))


# each base family's label family, built once
_label_family = lru_cache(maxsize=256)(_LabelFamily)


class ClassificationCorrectedOracle(_WrapperOracle):
    """Presents a clean oracle on top of a classification-noisy one.

    Each clean query splits into its label-free and label-odd parts, both
    issued at tolerance tau (1 - 2 eta) / 2; only the odd part is rescaled.
    """

    def __init__(self, inner, eta: float):
        super().__init__(inner)
        self.noise = ClassificationNoise(eta)
        self.eta = eta

    def query(self, q: SQQuery) -> float:
        sub_tau = q.tau * (1.0 - 2.0 * self.eta) / 2.0
        even = self.inner.query(SQQuery(_LabelPart(q.phi, odd=False), sub_tau))
        odd = self.inner.query(SQQuery(_LabelPart(q.phi, odd=True), sub_tau))
        self._count += 1
        return even + self.noise.correct(odd)


class DepolarizingCorrectedOracle(_WrapperOracle):
    """Presents a clean oracle on top of a depolarizing-noisy one.

    The noisy query is issued at tolerance tau (1 - eta) / 2 and the
    state-independent reference phi[I/2^n] is computed from the distribution
    alone: read off the distribution's I/2^n table, which the wrapper fetches
    when it is built, or estimated from `mixed_samples` unlabeled draws of
    the stream of `seed`.  Both are checked when the wrapper is built: an
    int >= 1 and a seed >= 0.
    """

    def __init__(self, inner, eta: float, mixed_samples: Optional[int] = None, seed: int = 0):
        if mixed_samples is not None:
            check_samples(mixed_samples, "mixed-reference samples")
        check_seed(seed, "mixed-reference seed")
        super().__init__(inner)
        self.noise = DepolarizingNoise(eta)
        self.eta = eta
        self.mixed_samples = mixed_samples
        # an exact reference reads one table, a sampled one a stream
        self._mixed = _mixed_table(inner.distribution) if mixed_samples is None else None
        self._rng = None if mixed_samples is None else substream(seed, "mixed-reference")

    def query(self, q: SQQuery) -> float:
        sub_tau = q.tau * (1.0 - self.eta) / 2.0
        noisy = self.inner.query(SQQuery(q.phi, sub_tau))
        if self._mixed is not None:
            phi_mixed = self._mixed.answer(q.phi)
        else:
            phi_mixed = expectation_on_maximally_mixed(
                q.phi, self.distribution, samples=self.mixed_samples, rng=self._rng
            )
        self._count += 1
        return self.noise.correct(noisy, phi_mixed)


class _AbsorbingOracle(_WrapperOracle):
    """Tightens every tolerance by a fixed margin, the most the noise can move
    an expectation, and forwards the answer unchanged."""

    def __init__(self, inner, margin: float):
        if not margin >= 0:
            raise ValueError(f"noise margin must be nonnegative, got {margin}")
        super().__init__(inner)
        self.margin = margin

    def tightened(self, tau: float) -> float:
        if not tau > self.margin:
            raise ToleranceExhausted(f"tolerance {tau} cannot absorb the noise margin {self.margin}")
        return tau - self.margin

    def query(self, q: SQQuery) -> float:
        tau = self.tightened(q.tau)
        self._count += 1
        return self.inner.query(SQQuery(q.phi, tau))


def _diamond_margin(eta_diamond: float) -> float:
    """2 eta_diamond, the most a channel within eta_diamond of the identity
    moves a query bounded by 1.

    The margin is exact for the halved convention, eta_diamond >= (1/2)
    ||Phi(rho) - rho||_1: an acceptance probability then moves by at most
    eta_diamond and a query bounded by 1 by at most 2 eta_diamond.  Under the
    trace-norm convention, ||Phi - id||_<> <= eta_diamond, a query moves by
    at most eta_diamond, so there the margin is conservative by a factor 2.
    """
    return 2.0 * eta_diamond


class BoundedChannelAbsorbingOracle(_AbsorbingOracle):
    """Tightens every tolerance by _diamond_margin(eta_diamond) and forwards
    the answer."""

    def __init__(self, inner, eta_diamond: float):
        super().__init__(inner, _diamond_margin(eta_diamond))
        self.eta_diamond = eta_diamond


class MaliciousAbsorbingOracle(_AbsorbingOracle):
    """Tightens every tolerance by the malicious rate and forwards the answer.

    Sound when the corruption keeps the measurement marginal (label-only
    corruption moves expectations by at most eta for queries bounded by 1);
    a corruption that also skews the measurements can move them by 2 eta,
    in which case the caller should tighten accordingly.
    """

    def __init__(self, inner, eta: float):
        super().__init__(inner, eta)
        self.eta = eta


# ---------------------------------------------------------------------------
# adjoint channel action on measurements (see NoiseModel.adjoint)


def mixture_acceptance(state: QuantumState, mixture) -> float:
    """tr(sum_k w_k E_k rho) for a convex mixture of effects."""
    return sum(float(w) * float(acceptance_probability(state, e)) for e, w in mixture)


# ---------------------------------------------------------------------------
# noise-rate grid search


@dataclass(frozen=True)
class ValidationSet:
    """Labeled holdout examples for hypothesis selection: drawn measurements,
    each labeled with its exact conditional mean f_rho(E) (the idealized
    example form).

    On single-qubit projectors f_h(E_i) = u_i . b_h[q_i] is linear in the
    hypothesis's reduced Bloch vectors b_q, so its squared error is a
    quadratic in them, read off the per-qubit moments
    G_q = sum_{q_i = q} u_i u_i' and t_q = sum_{q_i = q} y_i u_i.  About any
    center c it is, with e_q = b_q - c_q and r_q = t_q - G_q c_q,

        sum_i (y_i - u_i . c_{q_i})^2 + sum_q (e_q' G_q e_q - 2 r_q . e_q).

    The center is the least-squares fit G_q^-1 t_q, held to the unit ball.
    Expanded about 0, the terms cancel to ~1e-16 near a perfect fit; about
    the fit, hypotheses ~1e-11 from it are still told apart, as summing each
    example's error does.  The moments are summed once, on the first
    `loss`, in O(m), and each loss then takes O(n).  Pauli and index
    batches have no linear form and are scored example by example.
    """

    batch: MeasurementBatch
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def _moments(self) -> tuple:
        """(G, c, r, the first sum above): G summed by one np.bincount over
        the qubits per component, and the fit by cofactors, with no LAPACK
        call (its first use adds ~1.4 MB of resident memory).  A singular G
        gets the center 0; a near-singular one, whatever fit lies in the ball."""
        n, q, u, y = self.batch.n, self.batch.qubits, self.batch.directions, self.labels
        gram, t = np.empty((n, 3, 3)), np.empty((n, 3))
        for j in range(3):
            t[:, j] = np.bincount(q, weights=y * u[:, j], minlength=n)
            for k in range(j, 3):
                gram[:, j, k] = gram[:, k, j] = np.bincount(q, weights=u[:, j] * u[:, k], minlength=n)
        # G is symmetric: the rows of its adjugate are g1 x g2, g2 x g0 and g0 x g1
        adjugate = np.cross(gram[:, [1, 2, 0]], gram[:, [2, 0, 1]])
        det = np.einsum("qj,qj->q", gram[:, 0], adjugate[:, 0])
        fit = np.einsum("qjk,qk->qj", adjugate, t) / np.where(det > 0, det, np.inf)[:, None]
        center = fit / np.maximum(np.sqrt(np.einsum("qj,qj->q", fit, fit)), 1.0)[:, None]
        pulled = np.einsum("qjk,qk->qj", gram, center)
        at_center = float(np.sum(y * y)) - float(np.einsum("qj,qj->", 2.0 * t - pulled, center))
        return gram, center, t - pulled, max(at_center, 0.0)

    def loss(self, hypothesis: QuantumState) -> float:
        """The mean squared error of f_hypothesis against the labels."""
        if not self:
            raise ValueError("validation set is empty")
        if not isinstance(self.batch, ProjectorBatch):
            return float(np.mean((self.batch.f(hypothesis) - self.labels) ** 2))
        if hypothesis.n != self.batch.n:
            raise DimensionMismatch(f"hypothesis on {hypothesis.n} qubits, validation set on {self.batch.n}")
        gram, center, pull, at_center = self._moments
        e = np.array([reduced_bloch(hypothesis, i) for i in range(hypothesis.n)], dtype=float) - center
        total = at_center + float(np.einsum("qj,qjk,qk->", e, gram, e)) - 2.0 * float(np.einsum("qj,qj->", pull, e))
        # rounding can take a loss of 0 just below it
        return max(total, 0.0) / len(self.labels)


def draw_validation_set(
    state: QuantumState,
    distribution: MeasurementDistribution,
    size: int,
    rng,
) -> ValidationSet:
    """`size` measurements drawn as one batch, labeled with f_state."""
    batch = distribution.draw(rng, size)
    return ValidationSet(batch, batch.f(state))


def eta_grid_search(
    run_learner: Callable[[float], object],
    eta_upper: float,
    delta_grid: float,
    validation: ValidationSet,
):
    """Learn once per noise-rate guess {0, delta, 2 delta, ..., eta_upper} and
    return the (guess, hypothesis) pair with the smallest empirical squared
    loss on the validation set.  Ties break toward the smaller guess.

    On a projector validation set of m examples, the first loss sums the
    set's moments in O(m) and every loss takes O(n), so scoring G guesses
    costs O(m + G n) (Kearns' guess-and-validate search, JACM 1998).
    """
    DepolarizingNoise(eta_upper)  # the guesses are depolarizing rates: check the range
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
    best = None
    for guess in guesses:
        hypothesis = run_learner(guess)
        score = validation.loss(hypothesis.state)
        if best is None or score < best[0]:
            best = (score, guess, hypothesis)
    return best[1], best[2]
