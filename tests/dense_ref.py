"""Dense-matrix reference implementations, used only as test oracles.

Everything here is deliberately independent of the bit-vector code paths:
states are reconstructed as explicit 2^n x 2^n matrices and traces are taken
numerically, so agreement with the packed representations is evidence, not
tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from paulisq.learners import AffineSolutionSpace, InconsistentSystem
from paulisq.oracle import _BOUND_SLACK, UnboundedQuery
from paulisq.pauli import DimensionMismatch, PauliMeasurement, PauliOperator, gf2_echelon
from paulisq.pconcept import (
    FiniteWeighted,
    PauliBatch,
    ProductState,
    ProjectorBatch,
    SingleQubitProjector,
    StabilizerState,
    UniformParity,
    UniformPauli,
    f_value,
    parity_measurement,
    random_bits,
)
from paulisq.stabilizer import StabilizerGroup, canonical_rows, random_stabilizer_group

I2 = np.eye(2, dtype=complex)
PAULI_MATS = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli string together with a phase in {+1, i, -1, -i}.

    ``phase_exp`` is the exponent k of i^k relative to the plain letter
    string (each Y counted as a single letter, not as iXZ).
    """

    n: int
    phase_exp: int
    x: int
    z: int

    @property
    def phase(self) -> complex:
        return (1, 1j, -1, -1j)[self.phase_exp % 4]

    @property
    def is_real_signed(self) -> bool:
        return self.phase_exp % 2 == 0

    def to_operator(self) -> PauliOperator:
        if not self.is_real_signed:
            raise ValueError(f"phase i^{self.phase_exp} is imaginary, not in the real-signed set")
        return PauliOperator(self.n, 1 if self.phase_exp % 4 == 0 else -1, self.x, self.z)

    def __str__(self) -> str:
        letters = str(PauliOperator(self.n, 1, self.x, self.z))[1:]
        return ("+", "+i", "-", "-i")[self.phase_exp % 4] + letters


def as_phased(p: PauliOperator | PhasedPauli) -> PhasedPauli:
    if isinstance(p, PhasedPauli):
        return p
    return PhasedPauli(p.n, (0 if p.sign > 0 else 2), p.x, p.z)


def pauli_product(a: PauliOperator | PhasedPauli, b: PauliOperator | PhasedPauli) -> PhasedPauli:
    """Matrix product a*b with exact phase tracking, one factor pair at a time.

    Writing each factor as i^k X^x Z^z, the product picks up (-1) for every
    qubit where a Z of `a` moves past an X of `b`.
    """
    pa, pb = as_phased(a), as_phased(b)
    if pa.n != pb.n:
        raise DimensionMismatch(f"qubit counts differ: {pa.n} != {pb.n}")
    ka = pa.phase_exp + (pa.x & pa.z).bit_count()
    kb = pb.phase_exp + (pb.x & pb.z).bit_count()
    x = pa.x ^ pb.x
    z = pa.z ^ pb.z
    k = ka + kb + 2 * (pa.z & pb.x).bit_count() - (x & z).bit_count()
    return PhasedPauli(pa.n, k % 4, x, z)


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_matrix(p: PauliOperator | PhasedPauli) -> np.ndarray:
    if isinstance(p, PhasedPauli):
        letters = str(p)
        phase = p.phase
        body = letters.lstrip("+-i")
        mats = [PAULI_MATS[ch] for ch in body]
        return phase * kron_all(mats)
    mats = [PAULI_MATS[p.kind(i)] for i in range(p.n)]
    return p.sign * kron_all(mats)


def pauli_product_many(ops) -> PhasedPauli:
    """The product of `ops` in order, one pauli_product at a time: the
    reference for the packed-int phase of paulisq.stabilizer._product."""
    ops = list(ops)
    if not ops:
        raise ValueError("empty product")
    return reduce(pauli_product, ops[1:], as_phased(ops[0]))


def pauli_batch(n: int, paulis) -> PauliBatch:
    """The effects (I + P)/2 of the given Paulis, in order, as one batch."""
    paulis = list(paulis)
    return PauliBatch(
        n,
        np.array([p.sign for p in paulis]),
        np.array([p.x for p in paulis], dtype=np.uint64),
        np.array([p.z for p in paulis], dtype=np.uint64),
    )


@dataclass(frozen=True)
class PostInitPauliOperator:
    """PauliOperator's fields under the generated frozen __init__, with the
    checks it ran in __post_init__: the rule its explicit __init__ must keep."""

    n: int
    sign: int
    x: int
    z: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got n={self.n}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits exceed qubit count")


@dataclass(frozen=True)
class PostInitProjector:
    """SingleQubitProjector's fields and __post_init__ checks, as for
    PostInitPauliOperator."""

    n: int
    qubit: int
    axis: object

    def __post_init__(self):
        if not 0 <= self.qubit < self.n:
            raise ValueError(f"qubit {self.qubit} out of range for n={self.n}")
        if abs(self.axis.norm() - 1.0) > 1e-12:
            raise ValueError(f"projector axis must be unit length, got norm {self.axis.norm()}")


def bitwise_sign_form(group: StabilizerGroup) -> tuple[np.ndarray, np.ndarray]:
    """StabilizerGroup._sign_form built bit by bit from Python ints: the pivot
    columns, and per pivot row (the product of the generators its tag names)
    its 2n bits, parity(z_i & x_j) for j > i, and (1 - s_i) + |x_i & z_i|."""
    n = group.n
    identity = PauliOperator.identity(n)
    rows = [
        pauli_product_many([identity, *(g for i, g in enumerate(group.generators) if tag >> i & 1)]).to_operator()
        for _, tag in group._pivots.values()
    ]
    form = [
        [(a.x | a.z << n) >> col & 1 for col in range(2 * n)]
        + [j > i and (a.z & b.x).bit_count() & 1 for j, b in enumerate(rows)]
        + [(1 - a.sign) + (a.x & a.z).bit_count()]
        for i, a in enumerate(rows)
    ]
    shape = (len(rows), 2 * n + len(rows) + 1)
    return np.array(list(group._pivots), dtype=np.intp), np.array(form, dtype=np.float32).reshape(shape)


def group_elements(group: StabilizerGroup):
    """Yield all 2^r elements of a rank-r group (Gray-code order over generator subsets)."""
    current = as_phased(PauliOperator.identity(group.n))
    yield current.to_operator()
    for k in range(1, 1 << len(group.generators)):
        flip = (k & -k).bit_length() - 1
        current = pauli_product(current, group.generators[flip])
        yield current.to_operator()


def subgroup(group: StabilizerGroup, tags) -> StabilizerGroup:
    """The subgroup generated by the products of `group`'s generators that the
    independent `tags` name (bit i for generator i), made canonical.  No tags
    give the rank-0 group {I}."""
    n = group.n
    identity = PauliOperator.identity(n)
    gens = [
        pauli_product_many([identity, *(g for i, g in enumerate(group.generators) if tag >> i & 1)]).to_operator()
        for tag in tags
    ]
    return StabilizerGroup(n, canonical_rows(gens) if gens else ())


def random_subgroup(group: StabilizerGroup, r: int, rng) -> StabilizerGroup:
    """A rank-r subgroup of `group`, from r uniform products of its generators
    redrawn until they are independent."""
    n = len(group.generators)
    while True:
        tags = [int(t) for t in rng.integers(0, 1 << n, size=r, dtype=np.uint64)]
        try:
            return subgroup(group, tags)
        except ValueError:
            continue


def lower_rank_groups(n: int, rng) -> list:
    """The rank-0 group and one random rank-r subgroup of a random group per 0 < r < n."""
    group = random_stabilizer_group(n, rng)
    return [random_subgroup(group, r, rng) for r in range(n)]


@lru_cache(maxsize=None)
def element_set(group: StabilizerGroup) -> frozenset:
    return frozenset(group_elements(group))


def element_intersection_counts(s: StabilizerGroup, t: StabilizerGroup) -> tuple[int, int]:
    """(|S meet T|, |S meet -T|) by listing both groups' elements."""
    s_elements, t_elements = element_set(s), element_set(t)
    return len(s_elements & t_elements), sum(e.negated() in t_elements for e in s_elements)


def group_state_matrix(group: StabilizerGroup) -> np.ndarray:
    """rho = 2^{-n} sum over all group elements."""
    n = group.n
    total = np.zeros((2**n, 2**n), dtype=complex)
    for element in group_elements(group):
        total += pauli_matrix(element)
    return total / 2**n


def bloch_qubit_matrix(b) -> np.ndarray:
    return 0.5 * (
        I2 + b.x * PAULI_MATS["X"] + b.y * PAULI_MATS["Y"] + b.z * PAULI_MATS["Z"]
    )


def state_matrix(state) -> np.ndarray:
    if isinstance(state, StabilizerState):
        return group_state_matrix(state.group)
    if isinstance(state, ProductState):
        return kron_all([bloch_qubit_matrix(b) for b in state.blochs])
    raise TypeError(f"unknown state {state!r}")


def measurement_matrix(e) -> np.ndarray:
    if isinstance(e, PauliMeasurement):
        n = e.n
        return 0.5 * (np.eye(2**n, dtype=complex) + pauli_matrix(e.pauli))
    if isinstance(e, SingleQubitProjector):
        mats = [I2] * e.n
        mats[e.qubit] = bloch_qubit_matrix(e.axis)
        return kron_all(mats)
    raise TypeError(f"unknown measurement {e!r}")


def dense_acceptance(state, e) -> float:
    return float(np.trace(measurement_matrix(e) @ state_matrix(state)).real)


def dense_f_value(state, e) -> float:
    return 2.0 * dense_acceptance(state, e) - 1.0


def enumerated_inner(rho, sigma, d):
    """<f_rho, f_sigma>_D summed atom by atom over d.support(), with the
    one-Pauli f_value: the exact path before any closed form."""
    return sum(w * f_value(rho, e) * f_value(sigma, e) for e, w in d.support())


def finite_sample(d, rng):
    """One draw of a finite distribution d against one uniform threshold, by
    a running float sum of the weights: the scalar stream that
    FiniteWeighted.draw takes m draws at a time."""
    threshold = rng.random()
    acc = 0.0
    for measurement, weight in d.items:
        acc += float(weight)
        if threshold < acc:
            return measurement
    return d.items[-1][0]


def uniform_pauli_sample(d, rng) -> PauliMeasurement:
    """One uniform Pauli effect as a sign, then x bits, then z bits: the
    scalar stream that pconcept._sampled_pauli_batch takes m draws at a time."""
    sign = 1 if rng.integers(0, 2) == 0 else -1
    x = random_bits(rng, d.n)
    z = random_bits(rng, d.n)
    return PauliMeasurement(PauliOperator(d.n, sign, x, z))


def uniform_parity_sample(d, rng) -> PauliMeasurement:
    """One uniform parity measurement: the scalar stream that
    UniformParity.draw takes m draws at a time."""
    return parity_measurement(random_bits(rng, d.n), d.n)


_SCALAR_SAMPLERS = {
    FiniteWeighted: finite_sample,
    UniformPauli: uniform_pauli_sample,
    UniformParity: uniform_parity_sample,
}


def per_sample_f(state, d, mode) -> np.ndarray:
    """f_state at `mode.samples` seeded scalar draws of d, one f_value per
    draw: the Monte Carlo loop that uniform Pauli, uniform parity and finite
    distributions ran before their draws were evaluated as one batch.  The
    draws do not depend on the state, so two calls give that loop's f_rho
    and f_sigma."""
    rng = np.random.default_rng(np.random.SeedSequence(mode.seed))
    draw = _SCALAR_SAMPLERS[type(d)]
    return np.array([float(f_value(state, draw(d, rng))) for _ in range(mode.samples)])


def full_elimination_parity(dataset, n: int):
    """Solve x . y = b over GF(2) by reducing every example against the pivot
    rows, with no stop at full rank: the elimination that
    learners.gaussian_elimination_parity ran before it checked the examples
    after full rank by one parity each.  Returns the secret, or the affine
    solution space, and raises InconsistentSystem on contradictory examples."""
    pivots, dependencies = gf2_echelon((x, b & 1) for x, b in dataset)
    if any(dependencies):
        raise InconsistentSystem("contradictory parity examples")
    solution = sum(1 << c for c, (_, b) in pivots.items() if b)
    if len(pivots) == n:
        return solution
    basis = tuple(
        1 << free | sum(1 << c for c, (x, _) in pivots.items() if x >> free & 1)
        for free in range(n) if free not in pivots
    )
    return AffineSolutionSpace(solution, basis)


def per_example_loss(validation, hypothesis) -> float:
    """A validation set's mean squared error, example by example: f of the
    hypothesis at every drawn measurement against its label."""
    return float(np.mean((validation.batch.f(hypothesis) - validation.labels) ** 2))


def interleaved_evaluate(table, phi) -> float:
    """An atom-table answer as the oracle's kernel computed it before it took
    phi(E, 1) and phi(E, -1) as two arrays: both labels of every atom
    interleaved into one buffer of 2m values (by the array form on
    projectors, pair by pair otherwise), the buffer checked against
    |phi| <= 1, then sliced apart and summed as a running total from 0.0."""
    batch, accept, reject = table
    native = getattr(phi, "on_projectors", None)
    if native is not None and isinstance(batch, ProjectorBatch):
        values = np.empty(2 * len(batch))
        values[0::2], values[1::2] = native(batch.qubits, batch.directions)
    else:
        values = np.array([phi(e, y) for e in batch for y in (1, -1)], dtype=float)
    check_bound(values)
    return float(np.cumsum(accept * values[0::2] + reject * values[1::2])[-1] + 0.0)


def check_bound(values: np.ndarray) -> np.ndarray:
    """The values, once each has passed |v| <= 1 + _BOUND_SLACK (NaN fails):
    the oracle's check as it read before it took one comparison and all()."""
    outside = ~(np.abs(values) <= 1.0 + _BOUND_SLACK)
    if outside.any():
        raise UnboundedQuery(f"query returned {values[outside][0]}, outside [-1, 1]")
    return values


def reference_values(phi, batch, labels=None):
    """oracle._values as it read before it checked an array form's two label
    arrays in one pass: phi(E, 1) checked first, then phi(E, -1)."""
    native = getattr(phi, "on_projectors", None)
    if native is not None and isinstance(batch, ProjectorBatch):
        plus, minus = native(batch.qubits, batch.directions)
        if labels is None:
            return check_bound(np.asarray(plus, dtype=float)), check_bound(np.asarray(minus, dtype=float))
        return check_bound(np.where(labels == 1, plus, minus))
    if labels is None:
        values = np.array([phi(e, y) for e in batch for y in (1, -1)], dtype=float)
        plus, minus = check_bound(values).reshape(-1, 2).T
        return plus, minus
    return check_bound(np.array([phi(e, y) for e, y in zip(batch, labels.tolist())], dtype=float))


def reference_evaluate(weights, phi) -> float:
    """oracle._evaluate as it read before: reference_values, then np.cumsum
    of the weighted terms in atom order."""
    batch, accept, reject = weights
    plus, minus = reference_values(phi, batch)
    return float(np.cumsum(accept * plus + reject * minus)[-1] + 0.0)


def reference_sample_mean(phi, batch, labels) -> float:
    """oracle._sample_mean as it read before: np.cumsum of reference_values
    over the drawn examples, in draw order."""
    return float(np.cumsum(reference_values(phi, batch, labels))[-1] + 0.0) / len(labels)


def reference_qubit_views(weights) -> tuple:
    """oracle._qubit_views as each table built it before its batch kept the
    per-qubit runs: a stable sort of the table's qubits, a slice where a
    qubit's atoms are contiguous and an index run where not, a fresh view
    batch per table, and the whole table for a qubit with no atoms."""
    batch, accept, reject = weights
    order = np.argsort(batch.qubits, kind="stable")
    views = []
    start = 0
    for end in np.cumsum(np.bincount(batch.qubits, minlength=batch.n)).tolist():
        if end == start:
            views.append(weights)
            continue
        run = order[start:end]
        if run[-1] - run[0] == end - start - 1:
            run = slice(int(run[0]), int(run[-1]) + 1)
        views.append((ProjectorBatch(batch.n, batch.qubits[run], batch.directions[run]), accept[run], reject[run]))
        start = end
    return tuple(views)


def reference_table_answer(weights, phi) -> float:
    """A table's answer as it was read before, phi alone: the reference
    view of a projector table for the qubit of phi's declared family, all
    the weights otherwise."""
    qubit = getattr(getattr(phi, "_family", None), "qubit", None)
    batch = weights[0]
    if isinstance(batch, ProjectorBatch) and type(qubit) is int and 0 <= qubit < batch.n:
        weights = reference_qubit_views(weights)[qubit]
    return reference_evaluate(weights, phi)


def label_part_on_projectors(phi, odd: bool, qubits, directions) -> tuple:
    """oracle._LabelPart's array form as it read before the label family
    shared its formula: the odd part's y = -1 row as -0.5 (plus - minus)."""
    plus, minus = check_bound(np.array(phi.on_projectors(qubits, directions), dtype=float))
    if odd:
        return 0.5 * (plus - minus), -0.5 * (plus - minus)
    even = 0.5 * (plus + minus)
    return even, even


def axis_sign_on_projectors(qubit: int, axis: int, qubits, directions) -> tuple:
    """learners._AxisSignQuery.on_projectors as it read before it took the
    sign in one ufunc: two comparisons, so a NaN component scores 0.0."""
    component = directions[:, axis]
    plus = np.where(qubits == qubit, (component > 0).astype(float) - (component < 0), 0.0)
    return plus, 0.0 - plus


def all_signed_paulis(n: int):
    for sign in (1, -1):
        for x in range(1 << n):
            for z in range(1 << n):
                yield PauliOperator(n, sign, x, z)


def dense_stabilizer_state_census(n: int) -> set:
    """Every distinct stabilizer pure state as a rounded dense matrix key,
    enumerated from scratch with dense arithmetic only (n <= 2)."""
    states = set()
    if n == 1:
        candidate_sets = [[p] for p in all_signed_paulis(1) if not p.is_identity]
    elif n == 2:
        nonid = [p for p in all_signed_paulis(2) if not p.is_identity]
        candidate_sets = []
        for a in nonid:
            ma = pauli_matrix(a)
            for b in nonid:
                if (b.x, b.z) == (a.x, a.z):
                    continue
                mb = pauli_matrix(b)
                if not np.allclose(ma @ mb, mb @ ma):
                    continue
                candidate_sets.append([a, b])
    else:
        raise ValueError("dense census supported for n <= 2")
    dim = 2**n
    for gens in candidate_sets:
        total = np.eye(dim, dtype=complex)
        mats = [pauli_matrix(g) for g in gens]
        if len(mats) == 1:
            total = total + mats[0]
        else:
            total = total + mats[0] + mats[1] + mats[0] @ mats[1]
        rho = total / dim
        if not np.allclose(rho, rho.conj().T):
            continue
        if not np.isclose(np.trace(rho).real, 1.0):
            continue
        if not np.allclose(rho @ rho, rho):
            continue
        states.add(matrix_key(rho))
    return states


def matrix_key(m: np.ndarray) -> bytes:
    return np.round(m, 9).tobytes()
