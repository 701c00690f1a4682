"""States as p-concepts over measurement distributions.

A state rho is identified with the conditional mean function
f_rho(E) = 2 tr(E rho) - 1 of its +-1 measurement outcomes.  This module
evaluates f, draws outcomes, and computes inner products / squared losses
between two states' p-concepts, either exactly or by seeded Monte Carlo.
Each measurement distribution owns its exact answers, `inner` and `loss`,
and its `atoms()`: a batch with a float weight per measurement, which the
oracle's exact tables are built on.

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

from .pauli import BudgetExceeded, DimensionMismatch, PauliMeasurement, PauliOperator
from .stabilizer import StabilizerGroup, signed_intersection_counts

# the largest n whose uniform distribution `support()` enumerates, one object
# per atom: 2*4^6 Pauli effects and 2^16 parities
EXACT_PAULI_ENUMERATION_LIMIT = 6
EXACT_PARITY_ENUMERATION_LIMIT = 16

# the 6-point Gauss-Legendre rule on [-1, 1], as np.polynomial.legendre.leggauss(6)
# returns it (importing numpy.polynomial costs ~0.8 MB and ~5 ms)
_GAUSS_NODES = np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                         0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
_GAUSS_WEIGHTS = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                           0.46791393457269104, 0.3607615730481387, 0.17132449237917027])


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
    """Raise BudgetExceeded, before anything is built, when n > limit."""
    if n > limit:
        raise BudgetExceeded(f"{what}, over the enumeration budget of n <= {limit}")


def random_bits(rng, n: int, size: Optional[int] = None):
    """A uniform n-bit int for n <= 64, drawn as uint64; for n <= 62 this is
    the same draw, and the same stream use, as numpy's default int64 draw.
    With `size`, that many as a uint64 array."""
    if n > 64:
        raise ValueError(f"uniform draws support at most 64 bits, got n = {n}")
    bits = rng.integers(0, 1 << n, size=size, dtype=np.uint64)
    return int(bits) if size is None else bits


class _Enumerable:
    """Base of the distributions with an enumerable `support()`."""

    def inner(self, rho: QuantumState, sigma: QuantumState):
        """<f_rho, f_sigma>_D summed over the support, in the weights' own arithmetic."""
        total = None
        for e, w in self.support():
            term = w * f_value(rho, e) * f_value(sigma, e)
            total = term if total is None else total + term
        return total

    def loss(self, rho: QuantumState, sigma: QuantumState):
        """||f_rho - f_sigma||^2_D = <f_rho, f_rho> + <f_sigma, f_sigma> - 2 <f_rho, f_sigma>."""
        return self.inner(rho, rho) + self.inner(sigma, sigma) - 2 * self.inner(rho, sigma)

    def atoms(self) -> tuple:
        """(batch, weights): the support in order, with float weights."""
        support = self.support()
        return batch_of(tuple(e for e, _ in support)), np.array([float(w) for _, w in support])


@dataclass(frozen=True)
class UniformPauli(_Enumerable):
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

    def inner(self, rho: QuantumState, sigma: QuantumState):
        """Two stabilizer groups' signed intersection, else a member sum, else the support sum."""
        if isinstance(rho, StabilizerState) and isinstance(sigma, StabilizerState):
            plus, minus = signed_intersection_counts(rho.group, sigma.group)
            return Fraction(plus - minus, 4**self.n)
        if isinstance(sigma, StabilizerState):
            rho, sigma = sigma, rho
        if isinstance(rho, StabilizerState):
            # f_rho is +-1 on +-S and 0 elsewhere, so each member M of S and its
            # negation add f_sigma(M) - f_sigma(-M) = 2 f_sigma(M) times 1/(2*4^n)
            return math.ldexp(math.fsum(_member_batch(rho.group).f(sigma)), -2 * self.n)
        return super().inner(rho, sigma)

    def sample(self, rng) -> PauliMeasurement:
        sign = 1 if rng.integers(0, 2) == 0 else -1
        x = random_bits(rng, self.n)
        z = random_bits(rng, self.n)
        return PauliMeasurement(PauliOperator(self.n, sign, x, z))

    def draw(self, rng, m: int) -> "PauliBatch":
        signs = 1 - 2 * rng.integers(0, 2, size=m)
        return PauliBatch(self.n, signs, random_bits(rng, self.n, m), random_bits(rng, self.n, m))


@dataclass(frozen=True)
class UniformParity(_Enumerable):
    """Uniform over the 2^n parity measurements E_x, x = 0 included."""

    n: int

    def support(self) -> list:
        """The (effect, weight) pairs, for n <= EXACT_PARITY_ENUMERATION_LIMIT."""
        _check_budget(self.n, EXACT_PARITY_ENUMERATION_LIMIT, f"uniform parity support has 2^{self.n} elements")
        weight = Fraction(1, 2**self.n)
        return [(parity_measurement(x, self.n), weight) for x in range(1 << self.n)]

    def inner(self, rho: QuantumState, sigma: QuantumState):
        """Two stabilizer groups' Z-type intersection at any n, else the support sum."""
        if isinstance(rho, StabilizerState) and isinstance(sigma, StabilizerState):
            # E_x = (I - Z^x)/2, so f_rho(E_x) is -+1 where +-Z^x is in the group and
            # 0 elsewhere: the sum runs over the Z-type members the groups share
            plus, minus = signed_intersection_counts(_z_subgroup(rho.group), _z_subgroup(sigma.group))
            return Fraction(plus - minus, 2**self.n)
        return super().inner(rho, sigma)

    def sample(self, rng) -> PauliMeasurement:
        return parity_measurement(random_bits(rng, self.n), self.n)

    def draw(self, rng, m: int) -> "PauliBatch":
        return PauliBatch(self.n, np.full(m, -1), np.zeros(m, dtype=np.uint64), random_bits(rng, self.n, m))


def _z_subgroup(group: StabilizerGroup) -> StabilizerGroup:
    """The group's Z-type members, spanned by its canonical rows with x = 0: a
    row with x != 0 pivots on an x bit, which no other row has set, so any
    product that takes it has x != 0 (see gf2_echelon)."""
    return StabilizerGroup(group.n, tuple(g for g in group.generators if g.x == 0))


def _member_batch(group: StabilizerGroup) -> "PauliBatch":
    """The 2^r signed members of a rank-r group as one batch, held to the
    2*4^EXACT_PAULI_ENUMERATION_LIMIT terms of support enumeration."""
    r = len(group.generators)
    if r > 2 * EXACT_PAULI_ENUMERATION_LIMIT + 1 or group.n > 64:
        raise BudgetExceeded(f"a rank-{r} group on {group.n} qubits is over the member-sum budget")
    x = z = np.zeros(1, dtype=np.uint64)
    for g in group.generators:
        x = np.concatenate([x, x ^ np.uint64(g.x)])
        z = np.concatenate([z, z ^ np.uint64(g.z)])
    return PauliBatch(group.n, group.trace_paulis(x, z), x, z)


@dataclass(frozen=True)
class HaarSingleQubitProduct:
    """Pick a qubit uniformly, project it onto a Haar-random pure qubit state."""

    n: int

    def _qubit_mean(self, rho: QuantumState, sigma: QuantumState, term):
        """sum_i term(a_i, b_i) / (3n) over the qubits' Bloch coordinates, a Fraction for ints."""
        total = sum(
            sum(term(a, b) for a, b in zip(reduced_bloch(rho, i), reduced_bloch(sigma, i)))
            for i in range(self.n)
        )
        if isinstance(total, int):
            return Fraction(total, 3 * self.n)
        return total / (3.0 * self.n)

    def inner(self, rho: QuantumState, sigma: QuantumState):
        # E_u[(u.a)(u.b)] = a.b/3 per qubit, so <f,g> = sum_i a_i.b_i / (3n)
        return self._qubit_mean(rho, sigma, lambda a, b: a * b)

    def loss(self, rho: QuantumState, sigma: QuantumState):
        # |a_i - b_i|^2 / (3n) per qubit, equivalently (4/3n) * trace-distance^2;
        # not inner's three-term form, whose rounding differs
        return self._qubit_mean(rho, sigma, lambda a, b: (a - b) ** 2)

    def atoms(self) -> tuple:
        """Quadrature atoms, qubit-major, as (batch, weights): Gauss-Legendre
        nodes on the sphere, split into octant panels.  Splitting theta at pi/2
        and phi at every quarter turn keeps sign-threshold integrands smooth on
        each panel.  The weights sum to 1."""
        nodes, node_weights = _GAUSS_NODES, _GAUSS_WEIGHTS
        theta_panels = [(0.0, math.pi / 2), (math.pi / 2, math.pi)]
        phi_panels = [(k * math.pi / 2, (k + 1) * math.pi / 2) for k in range(4)]
        us, ws = [], []
        for t0, t1 in theta_panels:
            th = 0.5 * (t1 - t0) * nodes + 0.5 * (t1 + t0)
            wt = 0.5 * (t1 - t0) * node_weights
            for p0, p1 in phi_panels:
                ph = 0.5 * (p1 - p0) * nodes + 0.5 * (p1 + p0)
                wp = 0.5 * (p1 - p0) * node_weights
                for t, w_t in zip(th, wt):
                    st, ct = math.sin(t), math.cos(t)
                    for p, w_p in zip(ph, wp):
                        us.append((math.cos(p) * st, math.sin(p) * st, ct))
                        ws.append(w_t * w_p * st / (4.0 * math.pi))
        weights = np.tile(np.array(ws) / self.n, self.n)
        directions = np.tile(np.array(us), (self.n, 1))
        qubits = np.repeat(np.arange(self.n), len(ws))
        for array in (weights, directions, qubits):
            array.setflags(write=False)
        return ProjectorBatch(self.n, qubits, directions), weights

    def draw(self, rng, m: int) -> "ProjectorBatch":
        qubits = rng.integers(0, self.n, size=m)
        return ProjectorBatch(self.n, qubits, haar_directions(rng, m))


@dataclass(frozen=True)
class FiniteWeighted(_Enumerable):
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
    """Raise DimensionMismatch unless a and b (states, measurements, distributions) share n."""
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

    Exact mode returns d.inner(rho, sigma), the distribution's own exact
    answer (stabilizer fast paths, closed forms or support sums).  Monte
    Carlo mode returns a seeded estimate with its standard error.  Both raise
    DimensionMismatch, before any draw, unless rho, sigma and d share n.
    """
    _check_dims(rho, sigma)
    _check_dims(rho, d)
    if isinstance(mode, Exact):
        return d.inner(rho, sigma)
    fr, fs = _mc_f_arrays(rho, sigma, d, mode)
    return _mc_estimate(fr * fs)


def squared_loss(rho: QuantumState, sigma: QuantumState, d: MeasurementDistribution, mode=EXACT):
    """||f_rho - f_sigma||^2_D, the squared loss of sigma as a hypothesis for rho.

    Exact mode returns d.loss(rho, sigma); under Haar single-qubit
    measurements that is |a_i - b_i|^2 / (3n) per qubit, equivalently
    (4/3n) * trace-distance^2.  The modes and n check are inner_product's.
    """
    _check_dims(rho, sigma)
    _check_dims(rho, d)
    if isinstance(mode, Exact):
        return d.loss(rho, sigma)
    fr, fs = _mc_f_arrays(rho, sigma, d, mode)
    return _mc_estimate((fr - fs) ** 2)
