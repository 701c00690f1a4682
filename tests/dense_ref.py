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

from paulisq.pauli import DimensionMismatch, PauliMeasurement, PauliOperator
from paulisq.pconcept import (
    MaximallyMixed,
    PauliBatch,
    ProductState,
    SingleQubitProjector,
    StabilizerState,
)
from paulisq.stabilizer import StabilizerGroup

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
    """Yield all 2^n group elements (Gray-code order over generator subsets)."""
    current = as_phased(PauliOperator.identity(group.n))
    yield current.to_operator()
    for k in range(1, 1 << group.n):
        flip = (k & -k).bit_length() - 1
        current = pauli_product(current, group.generators[flip])
        yield current.to_operator()


@lru_cache(maxsize=None)
def element_set(group: StabilizerGroup) -> frozenset:
    return frozenset(group_elements(group))


def element_intersection_counts(s: StabilizerGroup, t: StabilizerGroup) -> tuple[int, int]:
    """(|S meet T|, |S meet -T|) by listing both groups' 2^n elements."""
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
    if isinstance(state, MaximallyMixed):
        return np.eye(2**state.n, dtype=complex) / 2**state.n
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
