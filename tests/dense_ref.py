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
    f_value,
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


def per_sample_f(state, d, mode) -> np.ndarray:
    """f_state at `mode.samples` seeded scalar draws of d, one f_value per
    draw: the Monte Carlo loop that uniform Pauli, uniform parity and finite
    distributions ran before their draws were evaluated as one batch.  The
    draws do not depend on the state, so two calls give that loop's f_rho
    and f_sigma."""
    rng = np.random.default_rng(np.random.SeedSequence(mode.seed))
    draw = finite_sample if isinstance(d, FiniteWeighted) else type(d).sample
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
    outside = ~(np.abs(values) <= 1.0 + _BOUND_SLACK)
    if outside.any():
        raise UnboundedQuery(f"query returned {values[outside][0]}, outside [-1, 1]")
    return float(np.cumsum(accept * values[0::2] + reject * values[1::2])[-1] + 0.0)


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
