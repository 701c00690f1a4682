"""Stabilizer groups as canonical GF(2) tableaux.

A group is held as n signed generator rows in reduced row echelon form over
GF(2), pivoting on X-block columns first and then Z-block columns.  The RREF
basis of the (x|z) row space is unique, and each row's sign is fixed by group
membership, so equal groups produce bit-identical tableaux and can be
dedup'd by hashing.

Dense-matrix reconstruction of the stabilized state lives only in the test
suite; everything here stays at O(n^2) bits per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .pauli import (
    BudgetExceeded,
    DimensionMismatch,
    PauliMeasurement,
    PauliOperator,
    as_phased,
    commutes,
    pauli_product,
)

ENUMERATION_LIMIT = 3
ELEMENT_ITERATION_LIMIT = 14


class Membership(Enum):
    PLUS = "plus"
    MINUS = "minus"
    ABSENT = "absent"


def _column_bit(op: PauliOperator, col: int, n: int) -> int:
    # columns 0..n-1 are the X block, n..2n-1 the Z block
    if col < n:
        return (op.x >> col) & 1
    return (op.z >> (col - n)) & 1


def _real_product(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    return pauli_product(a, b).to_operator()


def canonical_rows(generators) -> tuple[PauliOperator, ...]:
    """Reduce a commuting generating set to the unique signed RREF tableau.

    Raises ValueError if the generators are dependent or generate -I.
    """
    rows = list(generators)
    if not rows:
        raise ValueError("need at least one generator")
    n = rows[0].n
    for r in rows:
        if r.n != n:
            raise DimensionMismatch("generators act on different qubit counts")
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if not commutes(a, b):
                raise ValueError(f"generators {a} and {b} anticommute")
    pivot = 0
    for col in range(2 * n):
        hit = next((r for r in range(pivot, len(rows)) if _column_bit(rows[r], col, n)), None)
        if hit is None:
            continue
        rows[pivot], rows[hit] = rows[hit], rows[pivot]
        for r in range(len(rows)):
            if r != pivot and _column_bit(rows[r], col, n):
                rows[r] = _real_product(rows[r], rows[pivot])
        pivot += 1
    for r in rows[pivot:]:
        # a surviving all-zero row means the set was dependent; with sign -1
        # the dependency produced -I, which no stabilizer group contains
        if r.sign < 0:
            raise ValueError("generators produce -I: not a stabilizer group")
        raise ValueError("generators are dependent over GF(2)")
    return tuple(rows)


@dataclass(frozen=True)
class StabilizerGroup:
    """Abelian group of 2^n real-signed Paulis without -I, in canonical form."""

    n: int
    generators: tuple[PauliOperator, ...]

    def __post_init__(self):
        if len(self.generators) != self.n:
            raise ValueError(f"need exactly {self.n} generators, got {len(self.generators)}")

    @classmethod
    def from_generators(cls, generators) -> "StabilizerGroup":
        rows = canonical_rows(generators)
        n = rows[0].n
        if len(rows) != n:
            raise ValueError(f"got rank {len(rows)}, need {n} independent generators")
        return cls(n, rows)

    @classmethod
    def from_strings(cls, texts) -> "StabilizerGroup":
        return cls.from_generators(PauliOperator.from_string(t) for t in texts)

    @classmethod
    def basis_state(cls, bits: int, n: int) -> "StabilizerGroup":
        """The computational basis state |y>, generated by (-1)^{y_i} Z_i."""
        gens = [
            PauliOperator.single(n, i, "Z", sign=-1 if (bits >> i) & 1 else 1)
            for i in range(n)
        ]
        return cls.from_generators(gens)

    def _pivot_columns(self) -> tuple[int, ...]:
        cols = []
        for g in self.generators:
            cols.append(next(c for c in range(2 * self.n) if _column_bit(g, c, self.n)))
        return tuple(cols)

    def contains(self, p: PauliOperator) -> Membership:
        """Decide P in S / -P in S / neither, by GF(2) solve plus exact signs."""
        if p.n != self.n:
            raise DimensionMismatch(f"qubit counts differ: {p.n} != {self.n}")
        acc = as_phased(PauliOperator.identity(self.n))
        rx, rz = p.x, p.z
        for g, col in zip(self.generators, self._pivot_columns()):
            bit = (rx >> col) & 1 if col < self.n else (rz >> (col - self.n)) & 1
            if bit:
                rx ^= g.x
                rz ^= g.z
                acc = pauli_product(acc, g)
        if rx or rz:
            return Membership.ABSENT
        member = acc.to_operator()
        return Membership.PLUS if member.sign == p.sign else Membership.MINUS

    def trace_pauli(self, p: PauliOperator) -> int:
        """tr(P rho) for the stabilized pure state: +1, -1 or 0."""
        member = self.contains(p)
        if member is Membership.PLUS:
            return 1
        if member is Membership.MINUS:
            return -1
        return 0

    def trace_measurement(self, e: PauliMeasurement) -> Fraction:
        """tr(E rho) = (1 + tr(P rho))/2, exactly one of 0, 1/2, 1."""
        return Fraction(1 + self.trace_pauli(e.pauli), 2)

    def elements(self):
        """Yield all 2^n group elements (Gray-code order over generator subsets)."""
        if self.n > ELEMENT_ITERATION_LIMIT:
            raise BudgetExceeded(f"refusing to iterate 2^{self.n} group elements")
        current = as_phased(PauliOperator.identity(self.n))
        yield current.to_operator()
        for k in range(1, 1 << self.n):
            flip = (k & -k).bit_length() - 1
            current = pauli_product(current, self.generators[flip])
            yield current.to_operator()

    def __str__(self) -> str:
        return "\n".join(str(g) for g in self.generators)


def signed_intersection_counts(s: StabilizerGroup, t: StabilizerGroup) -> tuple[int, int]:
    """(|S meet T|, |S meet -T|) by running S's elements through T's membership test."""
    if s.n != t.n:
        raise DimensionMismatch(f"qubit counts differ: {s.n} != {t.n}")
    plus = minus = 0
    for element in s.elements():
        member = t.contains(element)
        if member is Membership.PLUS:
            plus += 1
        elif member is Membership.MINUS:
            minus += 1
    return plus, minus


def _symplectic_orthogonal(u: tuple[int, int], v: tuple[int, int]) -> bool:
    return ((u[0] & v[1]).bit_count() + (u[1] & v[0]).bit_count()) % 2 == 0


def _isotropic_subspaces(n: int):
    """All maximal (dimension-n) isotropic subspaces of GF(2)^{2n}.

    Each subspace appears once (dedup'd on its full span) and is returned
    as one basis of (x, z) vectors.
    """
    dim = 2 * n
    vectors = [((v >> n), v & ((1 << n) - 1)) for v in range(1, 1 << dim)]
    seen: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}

    def extend(basis: list[tuple[int, int]], span: dict[int, tuple[int, int]], start: int):
        if len(basis) == n:
            seen.setdefault(tuple(sorted(span)), tuple(basis))
            return
        for idx in range(start, len(vectors)):
            v = vectors[idx]
            code = v[0] << n | v[1]
            if code in span:
                continue
            if not all(_symplectic_orthogonal(v, b) for b in basis):
                continue
            new_span = dict(span)
            for s in list(span.values()) + [(0, 0)]:
                xs, zs = s[0] ^ v[0], s[1] ^ v[1]
                new_span[xs << n | zs] = (xs, zs)
            basis.append(v)
            extend(basis, new_span, idx + 1)
            basis.pop()

    extend([], {}, 0)
    return [seen[key] for key in sorted(seen)]


def enumerate_stabilizer_groups(n: int) -> list[StabilizerGroup]:
    """Every n-qubit stabilizer group, canonical and duplicate-free.

    Works by enumerating the maximal isotropic (x|z) row spaces and then
    assigning the 2^n free generator signs: independence of the rows already
    rules -I out for every sign pattern.  Counts: 6, 60, 1080 for n = 1, 2, 3.
    """
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise BudgetExceeded(f"enumeration supported for 1 <= n <= {ENUMERATION_LIMIT}, got {n}")
    groups = []
    for basis in _isotropic_subspaces(n):
        plain_rows = canonical_rows(
            [PauliOperator(n, 1, x, z) for x, z in basis]
        )
        for signs in range(1 << n):
            gens = [
                PauliOperator(n, -1 if (signs >> i) & 1 else 1, row.x, row.z)
                for i, row in enumerate(plain_rows)
            ]
            groups.append(StabilizerGroup.from_generators(gens))
    groups.sort(key=lambda g: tuple((p.sign, p.x, p.z) for p in g.generators))
    return groups


def random_stabilizer_group(n: int, rng) -> StabilizerGroup:
    """Draw a stabilizer group by rejection over commuting independent generators."""
    while True:
        gens: list[PauliOperator] = []
        span = {0}
        guard = 0
        while len(gens) < n:
            guard += 1
            if guard > 400 * n:
                break  # dead end: restart from scratch
            x = int(rng.integers(0, 1 << n))
            z = int(rng.integers(0, 1 << n))
            if (x << n | z) in span:
                continue
            cand = PauliOperator(n, 1 if rng.integers(0, 2) == 0 else -1, x, z)
            if not all(commutes(cand, g) for g in gens):
                continue
            span |= {s ^ (x << n | z) for s in span}
            gens.append(cand)
        if len(gens) == n:
            return StabilizerGroup.from_generators(gens)
