"""States as p-concepts over measurement distributions.

A state rho is identified with the conditional mean function
f_rho(E) = 2 tr(E rho) - 1 of its +-1 measurement outcomes.  This module
evaluates f, draws outcomes, and computes inner products / squared losses
between two states' p-concepts, either exactly (rational arithmetic on the
stabilizer fast paths, closed forms elsewhere) or by seeded Monte Carlo.

Supported states: stabilizer states of any rank r <= n (pure at r = n, and
the maximally mixed state I/2^n at r = 0, see `MaximallyMixed`), and
products of single-qubit Bloch vectors.  Supported measurements: Pauli
effects (I+P)/2 and single-qubit projectors embedded in identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .pauli import DimensionMismatch, PauliMeasurement, PauliOperator
from .stabilizer import StabilizerGroup, signed_intersection_counts

# the largest n whose uniform distribution `support()` enumerates, one object
# per atom: 2*4^6 Pauli effects and 2^16 parities
EXACT_PAULI_ENUMERATION_LIMIT = 6
EXACT_PARITY_ENUMERATION_LIMIT = 16


class ExactUnavailable(RuntimeError):
    """Exact evaluation was requested where no exact path exists."""


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class BlochVector:
    """A point in the closed unit ball: the state (I + xX + yY + zZ)/2."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.norm() > 1 + 1e-12:
            raise ValueError(f"Bloch vector has norm {self.norm()} > 1")

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def dot(self, other: "BlochVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class StabilizerState:
    group: StabilizerGroup

    @property
    def n(self) -> int:
        return self.group.n


@dataclass(frozen=True)
class ProductState:
    blochs: tuple[BlochVector, ...]

    def __post_init__(self):
        if not self.blochs:
            raise ValueError("product state needs at least one qubit")

    @property
    def n(self) -> int:
        return len(self.blochs)


def MaximallyMixed(n: int) -> StabilizerState:
    """I/2^n, the state of the rank-0 stabilizer group {I}."""
    return StabilizerState(StabilizerGroup(n, ()))


QuantumState = Union[StabilizerState, ProductState]


# ---------------------------------------------------------------------------
# measurements


@dataclass(frozen=True)
class SingleQubitProjector:
    """Projector onto the pure qubit state at `axis` on one qubit, I elsewhere."""

    n: int
    qubit: int
    axis: BlochVector

    def __post_init__(self):
        if not 0 <= self.qubit < self.n:
            raise ValueError(f"qubit {self.qubit} out of range for n={self.n}")
        if abs(self.axis.norm() - 1.0) > 1e-12:
            raise ValueError(f"projector axis must be unit length, got norm {self.axis.norm()}")


Measurement = Union[PauliMeasurement, SingleQubitProjector]


def parity_measurement(x: int, n: int) -> PauliMeasurement:
    """The effect accepting |y> with probability x.y mod 2.

    Built from the signed Pauli -Z^x (Z on the support of x), so that the
    acceptance probability on a basis state is exactly the parity bit.
    """
    if x >> n:
        raise ValueError(f"parity index {x} exceeds {n} bits")
    return PauliMeasurement(PauliOperator(n, -1, 0, x))


def parity_index(e: PauliMeasurement) -> int:
    """Recover x from a parity measurement; inverse of parity_measurement."""
    p = e.pauli
    if p.sign != -1 or p.x != 0:
        raise ValueError(f"{e} is not a parity measurement")
    return p.z


# ---------------------------------------------------------------------------
# distributions


def _check_budget(n: int, limit: int, what: str) -> None:
    """Raise ExactUnavailable, before anything is built, when n > limit."""
    if n > limit:
        raise ExactUnavailable(f"{what}, over the enumeration budget of n <= {limit}")


def random_bits(rng, n: int, size: Optional[int] = None):
    """A uniform n-bit int for n <= 64, drawn as uint64; for n <= 62 this is
    the same draw, and the same stream use, as numpy's default int64 draw.
    With `size`, that many as a uint64 array."""
    if n > 64:
        raise ValueError(f"uniform draws support at most 64 bits, got n = {n}")
    bits = rng.integers(0, 1 << n, size=size, dtype=np.uint64)
    return int(bits) if size is None else bits


@dataclass(frozen=True)
class UniformPauli:
    """Uniform over all 2*4^n Pauli effects (I+P)/2, including E=0 and E=I."""

    n: int

    def support(self) -> list:
        """The (effect, weight) pairs, for n <= EXACT_PAULI_ENUMERATION_LIMIT."""
        _check_budget(self.n, EXACT_PAULI_ENUMERATION_LIMIT, f"uniform Pauli support has 2*4^{self.n} elements")
        weight = Fraction(1, 2 * 4**self.n)
        return [
            (PauliMeasurement(PauliOperator(self.n, sign, x, z)), weight)
            for sign in (1, -1)
            for x in range(1 << self.n)
            for z in range(1 << self.n)
        ]

    def sample(self, rng) -> PauliMeasurement:
        sign = 1 if rng.integers(0, 2) == 0 else -1
        x = random_bits(rng, self.n)
        z = random_bits(rng, self.n)
        return PauliMeasurement(PauliOperator(self.n, sign, x, z))

    def draw(self, rng, m: int) -> "PauliBatch":
        signs = 1 - 2 * rng.integers(0, 2, size=m)
        return PauliBatch(self.n, signs, random_bits(rng, self.n, m), random_bits(rng, self.n, m))


@dataclass(frozen=True)
class UniformParity:
    """Uniform over the 2^n parity measurements E_x, x = 0 included."""

    n: int

    def support(self) -> list:
        """The (effect, weight) pairs, for n <= EXACT_PARITY_ENUMERATION_LIMIT."""
        _check_budget(self.n, EXACT_PARITY_ENUMERATION_LIMIT, f"uniform parity support has 2^{self.n} elements")
        weight = Fraction(1, 2**self.n)
        return [(parity_measurement(x, self.n), weight) for x in range(1 << self.n)]

    def sample(self, rng) -> PauliMeasurement:
        return parity_measurement(random_bits(rng, self.n), self.n)

    def draw(self, rng, m: int) -> "PauliBatch":
        return PauliBatch(self.n, np.full(m, -1), np.zeros(m, dtype=np.uint64), random_bits(rng, self.n, m))


@dataclass(frozen=True)
class HaarSingleQubitProduct:
    """Pick a qubit uniformly, project it onto a Haar-random pure qubit state."""

    n: int

    def draw(self, rng, m: int) -> "ProjectorBatch":
        qubits = rng.integers(0, self.n, size=m)
        return ProjectorBatch(self.n, qubits, haar_directions(rng, m))


@dataclass(frozen=True)
class FiniteWeighted:
    """An explicit finite distribution over measurements."""

    items: tuple[tuple[Measurement, object], ...]

    def __post_init__(self):
        total = sum(Fraction(w) if not isinstance(w, float) else w for _, w in self.items)
        if abs(float(total) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {float(total)}, not 1")

    @property
    def n(self) -> int:
        return self.items[0][0].n

    def support(self) -> tuple:
        return self.items

    def sample(self, rng):
        threshold = rng.random()
        acc = 0.0
        for measurement, weight in self.items:
            acc += float(weight)
            if threshold < acc:
                return measurement
        return self.items[-1][0]

    def draw(self, rng, m: int) -> "IndexBatch":
        """m draws at once, against the same running-sum thresholds as `sample`."""
        ends = np.cumsum([float(w) for _, w in self.items])
        indices = np.searchsorted(ends, rng.random(m), side="right")
        return IndexBatch(tuple(e for e, _ in self.items), np.minimum(indices, len(self.items) - 1))


MeasurementDistribution = Union[UniformPauli, UniformParity, HaarSingleQubitProduct, FiniteWeighted]


def haar_directions(rng, size: int) -> np.ndarray:
    """`size` area-uniform unit vectors as rows: cos(polar) uniform on [-1, 1]
    and the azimuth uniform on [0, 2pi), all cos values drawn first and then
    all azimuths."""
    directions = np.empty((size, 3))
    cos_t = rng.uniform(-1.0, 1.0, size=size)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=size)
    directions[:, 2] = cos_t
    # each column is written once, with no stacked copy, and sin(polar) =
    # sqrt(max(1 - cos^2, 0)) and sin(azimuth) reuse their inputs' buffers
    sin_t = np.square(cos_t, out=cos_t)
    np.subtract(1.0, sin_t, out=sin_t)
    np.sqrt(np.clip(sin_t, 0.0, None, out=sin_t), out=sin_t)
    np.multiply(np.cos(phi), sin_t, out=directions[:, 0])
    np.multiply(np.sin(phi, out=phi), sin_t, out=directions[:, 1])
    return directions


# ---------------------------------------------------------------------------
# f_rho evaluation


def _check_dims(a, b):
    """Raise DimensionMismatch unless states or measurements a and b share n."""
    if a.n != b.n:
        raise DimensionMismatch(f"qubit counts differ: {a.n} != {b.n}")


def reduced_bloch(state: QuantumState, qubit: int) -> tuple:
    """Bloch vector of the reduced single-qubit state; exact ints for stabilizers."""
    if isinstance(state, ProductState):
        return state.blochs[qubit].as_tuple()
    return tuple(
        state.group.trace_pauli(PauliOperator.single(state.n, qubit, kind))
        for kind in ("X", "Y", "Z")
    )


def _product_pauli_trace(state: ProductState, p: PauliOperator) -> float:
    value = float(p.sign)
    for i, b in enumerate(state.blochs):
        kind = p.kind(i)
        if kind == "I":
            continue
        value *= getattr(b, kind.lower())
        if value == 0.0:
            return 0.0
    return value


def f_value(state: QuantumState, e: Measurement):
    """f_rho(E) = 2 tr(E rho) - 1, exact Fraction where the state allows it."""
    _check_dims(state, e)
    if isinstance(e, PauliMeasurement):
        p = e.pauli
        if isinstance(state, StabilizerState):
            return Fraction(state.group.trace_pauli(p))
        return _product_pauli_trace(state, p)
    bloch = reduced_bloch(state, e.qubit)
    u = e.axis
    return u.x * bloch[0] + u.y * bloch[1] + u.z * bloch[2]


def acceptance_probability(state: QuantumState, e: Measurement):
    """tr(E rho) = (1 + f_rho(E))/2, a Fraction where f_value is one."""
    return (1 + f_value(state, e)) / 2


def draw_outcomes(f: np.ndarray, rng) -> np.ndarray:
    """One +-1 outcome per conditional mean f: +1 with probability (1 + f)/2,
    each against one uniform draw.

    The threshold (1 + f)/2 is taken in floats.  It equals
    float(acceptance_probability) wherever f is exact as a float, as every
    Fraction f_value is (-1, 0 or 1): halving is exact, so rounding 1 + f
    and then halving rounds (1 + f)/2 once.
    """
    return np.where(rng.random(len(f)) < 0.5 * (1.0 + f), 1, -1)


# ---------------------------------------------------------------------------
# batches of measurements
#
# `distribution.draw(rng, m)` returns m measurements as arrays, and so does an
# oracle's atom table.  A batch's f(state) is f_state at every one of them,
# equal to float(f_value) measurement by measurement; iterating a batch makes
# its measurements as objects, one at a time.  A PauliBatch on a stabilizer
# state takes every string's sign from one array solve of the group
# (StabilizerGroup.trace_paulis).


@dataclass(frozen=True)
class ProjectorBatch:
    """Single-qubit projectors: the qubit of each and its unit axis as a row."""

    n: int
    qubits: np.ndarray
    directions: np.ndarray

    def __len__(self) -> int:
        return len(self.qubits)

    def __iter__(self):
        for q, u in zip(self.qubits, self.directions):
            yield SingleQubitProjector(self.n, int(q), BlochVector(*u))

    def f(self, state: QuantumState) -> np.ndarray:
        _check_dims(state, self)
        # one 1-D gather per Bloch coordinate; the products, and the order they
        # are summed in, are f_value's
        bx, by, bz = np.array([reduced_bloch(state, i) for i in range(state.n)], dtype=float).T.copy()
        q, u = self.qubits, self.directions
        return u[:, 0] * bx[q] + u[:, 1] * by[q] + u[:, 2] * bz[q]


@dataclass(frozen=True)
class PauliBatch:
    """Pauli effects (I + P)/2: the sign of each P and its x and z bits as uint64."""

    n: int
    signs: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self):
        for s, x, z in zip(self.signs, self.x, self.z):
            yield PauliMeasurement(PauliOperator(self.n, int(s), int(x), int(z)))

    def f(self, state: QuantumState) -> np.ndarray:
        _check_dims(state, self)
        if isinstance(state, ProductState):
            value = self.signs.astype(float)
            for i, b in enumerate(state.blochs):
                # the factor of qubit i is 1, z, x or y for its (x, z) bits 00, 01, 10, 11
                bit = np.uint64(i)
                kind = ((self.x >> bit) & 1) * 2 + ((self.z >> bit) & 1)
                value = value * np.array([1.0, b.z, b.x, b.y])[kind]
            return value
        return (self.signs * state.group.trace_paulis(self.x, self.z)).astype(float)


@dataclass(frozen=True)
class IndexBatch:
    """Measurements given as objects: indices into a tuple of them."""

    measurements: tuple
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return (self.measurements[i] for i in self.indices)

    def f(self, state: QuantumState) -> np.ndarray:
        return np.array([float(f_value(state, e)) for e in self.measurements])[self.indices]


MeasurementBatch = Union[ProjectorBatch, PauliBatch, IndexBatch]


def batch_of(measurements: tuple) -> MeasurementBatch:
    """The measurements in order as a batch: a ProjectorBatch when every one is a
    single-qubit projector, and an IndexBatch over them otherwise."""
    if measurements and all(isinstance(e, SingleQubitProjector) for e in measurements):
        qubits = np.array([e.qubit for e in measurements])
        directions = np.array([e.axis.as_tuple() for e in measurements], dtype=float)
        return ProjectorBatch(measurements[0].n, qubits, directions)
    return IndexBatch(measurements, np.arange(len(measurements)))


def concatenate(first: MeasurementBatch, second: MeasurementBatch) -> MeasurementBatch:
    """The measurements of `first`, then those of `second`.  Two projector
    batches stay arrays, an empty batch leaves the other as it is, and any
    other pair is joined as objects."""
    if len(second) == 0:
        return first
    if len(first) == 0:
        return second
    if isinstance(first, ProjectorBatch) and isinstance(second, ProjectorBatch):
        return ProjectorBatch(
            first.n,
            np.concatenate([first.qubits, second.qubits]),
            np.concatenate([first.directions, second.directions]),
        )
    return IndexBatch(tuple(first) + tuple(second), np.arange(len(first) + len(second)))


# ---------------------------------------------------------------------------
# inner products and losses


class Exact:
    """Marker requesting exact evaluation."""

    def __repr__(self):
        return "Exact()"


EXACT = Exact()


@dataclass(frozen=True)
class MonteCarlo:
    samples: int
    seed: int


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    std_error: float
    samples: int

    def __float__(self) -> float:
        return self.value


def _exact_inner(rho: QuantumState, sigma: QuantumState, d: MeasurementDistribution):
    n = rho.n
    if isinstance(d, HaarSingleQubitProduct):
        # E_u[(u.a)(u.b)] = a.b/3 per qubit, so <f,g> = sum_i a_i.b_i / (3n)
        total = sum(
            sum(a * b for a, b in zip(reduced_bloch(rho, i), reduced_bloch(sigma, i)))
            for i in range(n)
        )
        if isinstance(total, int):
            return Fraction(total, 3 * n)
        return total / (3.0 * n)
    if isinstance(d, UniformPauli):
        if isinstance(rho, StabilizerState) and isinstance(sigma, StabilizerState):
            plus, minus = signed_intersection_counts(rho.group, sigma.group)
            return Fraction(plus - minus, 4**n)
        if isinstance(sigma, StabilizerState):
            rho, sigma = sigma, rho
        if isinstance(rho, StabilizerState):
            # f_rho is +-1 on +-S and 0 elsewhere, so each member M of S and its
            # negation add f_sigma(M) - f_sigma(-M) = 2 f_sigma(M) times 1/(2*4^n)
            return math.ldexp(math.fsum(_member_batch(rho.group).f(sigma)), -2 * n)
    if isinstance(d, UniformParity) and isinstance(rho, StabilizerState) and isinstance(sigma, StabilizerState):
        # E_x = (I - Z^x)/2, so f_rho(E_x) is -+1 where +-Z^x is in the group and
        # 0 elsewhere: the sum runs over the Z-type members the groups share
        plus, minus = signed_intersection_counts(_z_subgroup(rho.group), _z_subgroup(sigma.group))
        return Fraction(plus - minus, 2**n)
    total = None
    for e, w in d.support():
        term = w * f_value(rho, e) * f_value(sigma, e)
        total = term if total is None else total + term
    return total


def _z_subgroup(group: StabilizerGroup) -> StabilizerGroup:
    """The group's Z-type members, spanned by its canonical rows with x = 0: a
    row with x != 0 pivots on an x bit, which no other row has set, so any
    product that takes it has x != 0 (see gf2_echelon)."""
    return StabilizerGroup(group.n, tuple(g for g in group.generators if g.x == 0))


def _member_batch(group: StabilizerGroup) -> PauliBatch:
    """The 2^r signed members of a rank-r group as one batch, held to the
    2*4^EXACT_PAULI_ENUMERATION_LIMIT terms of support enumeration."""
    r = len(group.generators)
    if r > 2 * EXACT_PAULI_ENUMERATION_LIMIT + 1 or group.n > 64:
        raise ExactUnavailable(f"a rank-{r} group on {group.n} qubits is over the member-sum budget")
    x = z = np.zeros(1, dtype=np.uint64)
    for g in group.generators:
        x = np.concatenate([x, x ^ np.uint64(g.x)])
        z = np.concatenate([z, z ^ np.uint64(g.z)])
    return PauliBatch(group.n, group.trace_paulis(x, z), x, z)


def _mc_f_arrays(rho, sigma, d, mode):
    rng = np.random.default_rng(np.random.SeedSequence(mode.seed))
    m = mode.samples
    if isinstance(d, HaarSingleQubitProduct):
        batch = d.draw(rng, m)
        return batch.f(rho), batch.f(sigma)
    # per sample: a batch here makes the benchmark's stab-corr items 4.4x
    # faster, and its per-item records then raise peak RSS past its bound
    # (ROADMAP item 6)
    fr = np.empty(m)
    fs = np.empty(m)
    for k in range(m):
        e = d.sample(rng)
        fr[k] = float(f_value(rho, e))
        fs[k] = float(f_value(sigma, e))
    return fr, fs


def _mc_estimate(values: np.ndarray) -> MonteCarloEstimate:
    m = len(values)
    std = float(values.std(ddof=1)) if m > 1 else 0.0
    return MonteCarloEstimate(float(values.mean()), std / math.sqrt(m), m)


def inner_product(rho: QuantumState, sigma: QuantumState, d: MeasurementDistribution, mode=EXACT):
    """<f_rho, f_sigma>_D = E_{E~D}[f_rho(E) f_sigma(E)].

    Exact mode uses the stabilizer intersection fast path under uniform Pauli
    measurements, and under uniform parity that of the Z-type subgroups for
    two stabilizer states, the per-qubit closed form under Haar product
    measurements, and support enumeration otherwise.  Monte Carlo mode
    returns a seeded estimate with its standard error.
    """
    _check_dims(rho, sigma)
    if isinstance(mode, Exact):
        return _exact_inner(rho, sigma, d)
    fr, fs = _mc_f_arrays(rho, sigma, d, mode)
    return _mc_estimate(fr * fs)


def squared_loss(rho: QuantumState, sigma: QuantumState, d: MeasurementDistribution, mode=EXACT):
    """||f_rho - f_sigma||^2_D, the squared loss of sigma as a hypothesis for rho.

    Under Haar single-qubit measurements this reduces per qubit to
    |a_i - b_i|^2 / (3n), equivalently (4/3n) * trace-distance^2.
    """
    _check_dims(rho, sigma)
    if isinstance(mode, Exact):
        if isinstance(d, HaarSingleQubitProduct):
            total = None
            for i in range(rho.n):
                a = reduced_bloch(rho, i)
                b = reduced_bloch(sigma, i)
                term = sum((ai - bi) ** 2 for ai, bi in zip(a, b))
                total = term if total is None else total + term
            if isinstance(total, int):
                return Fraction(total, 3 * rho.n)
            return total / (3.0 * rho.n)
        parts = [
            _exact_inner(rho, rho, d),
            _exact_inner(sigma, sigma, d),
            _exact_inner(rho, sigma, d),
        ]
        return parts[0] + parts[1] - 2 * parts[2]
    fr, fs = _mc_f_arrays(rho, sigma, d, mode)
    return _mc_estimate((fr - fs) ** 2)
