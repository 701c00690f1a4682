"""Stabilizer groups as canonical GF(2) tableaux.

A group is held as n signed generator rows in reduced row echelon form over
GF(2) of the packed rows x | z << n (see :func:`paulisq.pauli.gf2_echelon`).
The RREF basis of the (x|z) row space is unique, and each row's sign is fixed
by group membership, so equal groups produce bit-identical tableaux.

Membership and the signed intersections behind the exact correlations
<f_S, f_T> are GF(2) solves on these rows, polynomial in n.  A solve names
the generators whose product is the member, and the member's sign is that
product's phase i^k, accumulated as an integer over the packed rows
(Aaronson & Gottesman, arXiv:quant-ph/0406196): no Pauli object is built
until the product itself.  Sampling and enumeration add rows one at a time
from the symplectic complement of the rows so far.  Dense states and the
element-by-element reference live only in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from itertools import compress
from operator import xor

from .pauli import (
    BudgetExceeded,
    DimensionMismatch,
    PauliMeasurement,
    PauliOperator,
    commutes,
    gf2_echelon,
    gf2_reduce,
)

ENUMERATION_LIMIT = 3


class Membership(Enum):
    """Where P stands in S; the value is tr(P rho) for the stabilized state."""

    PLUS = 1
    MINUS = -1
    ABSENT = 0


def _swapped(v: int, n: int) -> int:
    """The packed row x | z << n as z | x << n: <u, v> = |u & _swapped(v)| mod 2."""
    return v >> n | (v & ((1 << n) - 1)) << n


def _packed_rows(generators):
    """(x | z << n, one-hot index) per generator: the input to gf2_echelon."""
    return [(g.x | g.z << g.n, 1 << i) for i, g in enumerate(generators)]


def _product(generators, tag: int) -> PauliOperator:
    """The product of the generators named by the set bits of `tag`, in index order.

    Each factor is i^k X^x Z^z with k counting its Y letters and a sign of -1
    as 2; moving a Z of the product so far past an X of the next factor adds 2,
    and the letters of the result take back one i per Y.  Raises ValueError if
    the phase is imaginary, i.e. if the named generators do not commute.
    """
    k = x = z = 0
    while tag:
        g = generators[(tag & -tag).bit_length() - 1]
        tag &= tag - 1
        k += (1 - g.sign) + (g.x & g.z).bit_count() + 2 * (z & g.x).bit_count()
        x ^= g.x
        z ^= g.z
    k -= (x & z).bit_count()
    if k & 1:
        raise ValueError(f"phase i^{k % 4} is imaginary, not in the real-signed set")
    return PauliOperator(generators[0].n, 1 if k % 4 == 0 else -1, x, z)


def canonical_rows(generators) -> tuple[PauliOperator, ...]:
    """Reduce a commuting generating set to the unique signed RREF tableau.

    Raises ValueError if the generators are dependent or generate -I.
    """
    rows = list(generators)
    if not rows:
        raise ValueError("need at least one generator")
    if any(r.n != rows[0].n for r in rows):
        raise DimensionMismatch("generators act on different qubit counts")
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if not commutes(a, b):
                raise ValueError(f"generators {a} and {b} anticommute")
    pivots, dependencies = gf2_echelon(_packed_rows(rows))
    # each dependency multiplies to +I or -I, and no stabilizer group holds -I
    if any(_product(rows, tag).sign < 0 for tag in dependencies):
        raise ValueError("generators produce -I: not a stabilizer group")
    if dependencies:
        raise ValueError("generators are dependent over GF(2)")
    # a one-hot tag is an input row that survived unchanged: reuse it.  The
    # tuple is built from a list: tuple(<generator>) over-allocates and then
    # shrinks, which leaves a free-list block behind per group
    return tuple([
        rows[tag.bit_length() - 1] if tag & (tag - 1) == 0 else _product(rows, tag)
        for _, tag in pivots.values()
    ])


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

    @cached_property
    def _pivots(self) -> dict[int, tuple[int, int]]:
        return gf2_echelon(_packed_rows(self.generators))[0]

    def contains(self, p: PauliOperator) -> Membership:
        """Decide P in S / -P in S / neither.

        A GF(2) solve of P's (x|z) bits against the tableau names the
        generators whose product has P's letters, or finds none; that
        product's sign, an integer phase over the packed rows, then tells S
        from -S.
        """
        if p.n != self.n:
            raise DimensionMismatch(f"qubit counts differ: {p.n} != {self.n}")
        rest, tag = gf2_reduce(p.x | p.z << self.n, 0, self._pivots)
        if rest:
            return Membership.ABSENT
        return Membership.PLUS if _product(self.generators, tag).sign == p.sign else Membership.MINUS

    def trace_pauli(self, p: PauliOperator) -> int:
        """tr(P rho) for the stabilized pure state: +1, -1 or 0."""
        return self.contains(p).value

    def trace_measurement(self, e: PauliMeasurement) -> Fraction:
        """tr(E rho) = (1 + tr(P rho))/2, exactly one of 0, 1/2, 1."""
        return Fraction(1 + self.trace_pauli(e.pauli), 2)

    def __str__(self) -> str:
        return "\n".join(str(g) for g in self.generators)


def signed_intersection_counts(s: StabilizerGroup, t: StabilizerGroup) -> tuple[int, int]:
    """(|S meet T|, |S meet -T|) by row-space intersection in O(n^3) bit operations.

    T's (x|z) row space is its own symplectic complement, so the intersection V
    is the null space of the anticommutation matrix of S's and T's generators.
    The ratio of S's and T's signs is a character on V: the counts are (2^k, 0)
    if it is trivial on a basis of V, else (2^(k-1), 2^(k-1)), k = dim V
    (Garcia, Markov & Cross, arXiv:1210.6646).
    """
    if s.n != t.n:
        raise DimensionMismatch(f"qubit counts differ: {s.n} != {t.n}")
    n = s.n
    swapped = [_swapped(h, n) for h, _ in _packed_rows(t.generators)]
    anticommute = [
        (sum(((bits & h).bit_count() & 1) << j for j, h in enumerate(swapped)), tag)
        for bits, tag in _packed_rows(s.generators)
    ]
    _, null = gf2_echelon(anticommute)
    k = len(null)
    if all(t.contains(_product(s.generators, a)) is Membership.PLUS for a in null):
        return 1 << k, 0
    return 1 << (k - 1), 1 << (k - 1)


def _isotropic_subspaces(n: int):
    """Yield every maximal isotropic subspace of GF(2)^{2n} once, as its RREF
    rows (packed x | z << n, pivot on the lowest set bit; see gf2_echelon).

    Rows are chosen in decreasing pivot order: each new row pivots below the
    rows so far, is clear at their pivots and commutes with them.
    """
    def extend(rows, pivots, low):
        if len(rows) == n:
            yield rows
            return
        swapped = [_swapped(r, n) for r in rows]
        # the rows still to come need pivots below this row's
        for v in range(1 << n - len(rows) - 1, 1 << 2 * n):
            pivot = v & -v
            if pivot < low and not v & pivots and not any((v & h).bit_count() & 1 for h in swapped):
                yield from extend([*rows, v], pivots | pivot, pivot)

    yield from extend([], 0, 1 << 2 * n)


def enumerate_stabilizer_groups(n: int) -> list[StabilizerGroup]:
    """Every n-qubit stabilizer group, canonical and duplicate-free.

    Works by enumerating the maximal isotropic (x|z) row spaces in RREF and then
    assigning the 2^n free generator signs: independence of the rows already
    rules -I out for every sign pattern.  Counts: 6, 60, 1080 for n = 1, 2, 3.
    """
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise BudgetExceeded(f"enumeration supported for 1 <= n <= {ENUMERATION_LIMIT}, got {n}")
    mask = (1 << n) - 1
    groups = [
        StabilizerGroup(n, tuple(
            PauliOperator(n, -1 if signs >> i & 1 else 1, v & mask, v >> n)
            for i, v in enumerate(reversed(rows))
        ))
        for rows in _isotropic_subspaces(n)
        for signs in range(1 << n)
    ]
    groups.sort(key=lambda g: tuple((p.sign, p.x, p.z) for p in g.generators))
    return groups


def random_stabilizer_group(n: int, rng) -> StabilizerGroup:
    """A uniformly random stabilizer group, in O(n^3) bit operations.

    Each generator is a uniform element v of the symplectic complement of the
    rows so far, kept as a basis (at first the 2n unit rows), with a uniform
    sign.  v is redrawn, with odds at most 1/2, while it lies in the span of
    the rows so far, which is where it commutes with every basis row.  The
    basis then shrinks by one: rows anticommuting with v are XORed with the
    first of them, which is dropped (Koenig & Smolin, arXiv:1406.2170).
    """
    basis = [1 << i for i in range(2 * n)]
    mask = (1 << n) - 1
    gens = []
    while len(gens) < n:
        v = reduce(xor, compress(basis, rng.integers(0, 2, size=len(basis))), 0)
        h = _swapped(v, n)
        anti = [b for b in basis if (b & h).bit_count() & 1]
        if not anti:
            continue
        gens.append(PauliOperator(n, 1 if rng.integers(0, 2) == 0 else -1, v & mask, v >> n))
        basis = [b for b in basis if not (b & h).bit_count() & 1] + [b ^ anti[0] for b in anti[1:]]
    return StabilizerGroup.from_generators(gens)
