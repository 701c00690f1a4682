"""Stabilizer groups as canonical GF(2) tableaux.

A group of rank r <= n is held as r signed generator rows in reduced row
echelon form over GF(2) of the packed rows x | z << n (see gf2_echelon).
The RREF basis of the (x|z) row space is unique, and each row's sign is fixed
by group membership, so equal groups produce bit-identical tableaux.

Membership and the signed intersections behind the exact correlations
<f_S, f_T> are GF(2) solves on these rows, polynomial in n.  A solve names
the generators whose product is the member, and the member's sign is that
product's phase i^k, accumulated as an integer over the packed rows
(Aaronson & Gottesman, arXiv:quant-ph/0406196): no Pauli object is built
until the product itself.  For many strings at once, `trace_paulis` reads
each one's pivot rows off its bits at the pivot columns and takes the sign
as a quadratic form over GF(2) in them (Dehaene & De Moor, PRA 2003), as
float matrix products over uint64 arrays; `contains` stays the one-Pauli
path.  Sampling and enumeration add rows one at a time
from the symplectic complement of the rows so far.  Dense states and the
element-by-element reference live only in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce
from itertools import compress
from operator import or_, xor

import numpy as np

from .pauli import (
    BudgetExceeded,
    DimensionMismatch,
    PauliOperator,
    gf2_echelon,
    gf2_reduce,
)

ENUMERATION_LIMIT = 3
# strings per array solve in trace_paulis: a block's arrays take ~1 MB at n = 64
TRACE_BLOCK = 1024


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


def _product(n: int, generators, tag: int) -> PauliOperator:
    """The n-qubit product of the generators named by `tag`'s set bits, in index order.

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
    return PauliOperator(n, 1 if k % 4 == 0 else -1, x, z)


def _popcount(v: np.ndarray) -> np.ndarray:
    """The number of set bits of each uint64, by summing ever wider fields
    (np.bitwise_count needs numpy >= 2)."""
    v = v - (v >> np.uint64(1) & np.uint64(0x5555555555555555))
    v = (v & np.uint64(0x3333333333333333)) + (v >> np.uint64(2) & np.uint64(0x3333333333333333))
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return v * np.uint64(0x0101010101010101) >> np.uint64(56)


def _unpacked(x: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """The low 2n bits of x | z << n for uint64 arrays x and z, one uint8 per
    bit in a row per string: x's n bits, then z's n."""
    words = np.stack([x, z], axis=1).astype("<u8").view(np.uint8).reshape(len(x), 2, 8)
    return np.unpackbits(words, axis=2, bitorder="little")[:, :, :n].reshape(len(x), 2 * n)


def canonical_rows(generators) -> tuple[PauliOperator, ...]:
    """Reduce a commuting generating set to the unique signed RREF tableau.

    Raises ValueError if two generators anticommute (naming the first such
    pair), if they are dependent, or if they generate -I.
    """
    rows = list(generators)
    if not rows:
        raise ValueError("need at least one generator")
    n = rows[0].n
    if any(r.n != n for r in rows):
        raise DimensionMismatch("generators act on different qubit counts")
    packed = _packed_rows(rows)
    for i, (a, _) in enumerate(packed):
        h = _swapped(a, n)
        for j in range(i + 1, len(packed)):
            if (packed[j][0] & h).bit_count() & 1:
                raise ValueError(f"generators {rows[i]} and {rows[j]} anticommute")
    pivots, dependencies = gf2_echelon(packed)
    # each dependency multiplies to +I or -I, and no stabilizer group holds -I
    if any(_product(n, rows, tag).sign < 0 for tag in dependencies):
        raise ValueError("generators produce -I: not a stabilizer group")
    if dependencies:
        raise ValueError("generators are dependent over GF(2)")
    # a one-hot tag is an input row that survived unchanged: reuse it.  The
    # tuple is built from a list: tuple(<generator>) over-allocates and then
    # shrinks, which leaves a free-list block behind per group
    return tuple([
        rows[tag.bit_length() - 1] if tag & (tag - 1) == 0 else _product(n, rows, tag)
        for _, tag in pivots.values()
    ])


@dataclass(frozen=True)
class StabilizerGroup:
    """Abelian group of 2^r real-signed Paulis without -I, in canonical form:
    r <= n generator rows, none for the group {I} of the maximally mixed state.
    The rows must be canonical_rows' (from_generators builds them): each row
    pivots on its lowest set bit (see _pivots), and membership and traces
    raise ValueError on other rows.  A row on other than n qubits is refused
    here, with DimensionMismatch."""

    n: int
    generators: tuple[PauliOperator, ...]

    def __post_init__(self):
        if len(self.generators) > self.n:
            raise ValueError(f"need at most {self.n} generators, got {len(self.generators)}")
        if any(g.n != self.n for g in self.generators):
            raise DimensionMismatch(f"generators must act on {self.n} qubits, got {[g.n for g in self.generators]}")

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
        """gf2_echelon's pivots of the rows, read off them: canonical rows are
        already reduced, so row i pivots on its lowest set bit, with tag 1 << i.

        Raises ValueError if the rows are not canonical: their lowest set bits
        must strictly rise, and each row must be clear at every other row's.
        """
        pivots = {}
        lows = 0
        for bits, tag in _packed_rows(self.generators):
            low = bits & -bits
            if low <= lows:  # an identity row, or a pivot not above the last
                raise ValueError("rows are not canonical: build the group with from_generators")
            lows |= low
            pivots[low.bit_length() - 1] = (bits, tag)
        if any(bits & lows != 1 << col for col, (bits, _) in pivots.items()):
            raise ValueError("rows are not canonical: build the group with from_generators")
        return pivots

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
        return Membership.PLUS if _product(self.n, self.generators, tag).sign == p.sign else Membership.MINUS

    def trace_pauli(self, p: PauliOperator) -> int:
        """tr(P rho) for the stabilized state rho = 2^-n sum_{Q in S} Q: +1, -1 or 0."""
        return self.contains(p).value

    @cached_property
    def _sign_form(self) -> tuple[np.ndarray, np.ndarray]:
        """The pivot columns, and one r x (2n + r + 1) matrix over the r pivot
        rows: their 2n bits, the strictly upper B and the column c of trace_paulis."""
        n = self.n
        cols = np.array(list(self._pivots), dtype=np.intp)
        rows = self.generators  # each pivot row is its own generator (see _pivots)
        x = np.array([a.x for a in rows], dtype=np.uint64)
        z = np.array([a.z for a in rows], dtype=np.uint64)
        signs = np.array([a.sign for a in rows], dtype=np.int64)
        b = np.triu(_popcount(z[:, None] & x[None, :]) & np.uint64(1), k=1)
        c = (1 - signs) + _popcount(x & z).astype(np.int64)
        form = np.concatenate([_unpacked(x, z, n), b, c[:, None]], axis=1, dtype=np.float32)
        return cols, form

    @cached_property
    def _support(self) -> tuple[np.uint64, np.uint64]:
        """The OR of the rows' x bits and of their z bits: every member lies inside."""
        return (
            np.uint64(reduce(or_, (g.x for g in self.generators), 0)),
            np.uint64(reduce(or_, (g.z for g in self.generators), 0)),
        )

    def trace_paulis(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """tr(P rho) for +P at every (x, z) pair of uint64 arrays: +1, -1 or 0.

        The pivot rows are in reduced echelon form, so the bits t of
        v = x | z << n at the pivot columns name the rows whose product has
        P's letters, if any has: P is a member iff t's rows sum to v.  The
        product's phase exponent is, mod 4, t.c + 2 sum_{i<j} t_i t_j B_ij
        - |x & z|, with c_i = (1 - s_i) + |x_i & z_i| and B_ij = |z_i & x_j|
        (Dehaene & De Moor, PRA 68, 042318 (2003)): the sum _product takes.
        One float matrix product gives all three terms' parts; its entries
        are integers below 2^13, so exact.  Blocks of TRACE_BLOCK strings
        bound the memory of the unpacked bits.  A string with a bit outside
        the rows' support is no member and is never unpacked: at rank 0
        only the identity is solved.
        """
        n = self.n
        cols, form = self._sign_form
        out = np.zeros(len(x), dtype=np.int64)
        support_x, support_z = self._support
        inside = ((x & ~support_x) | (z & ~support_z)) == 0
        if not inside.all():
            out[inside] = self.trace_paulis(x[inside], z[inside])  # all inside now
            return out
        for start in range(0, len(x), TRACE_BLOCK):
            bx = x[start:start + TRACE_BLOCK]
            bz = z[start:start + TRACE_BLOCK]
            v = _unpacked(bx, bz, n)
            t = v[:, cols].astype(np.float32)
            p = t @ form
            member = ~((p[:, :2 * n].astype(np.uint8) ^ v) & 1).any(axis=1)
            k = p[:, -1] + 2 * np.einsum("ij,ij->i", p[:, 2 * n:-1], t) - _popcount(bx & bz)
            out[start:start + TRACE_BLOCK] = np.where(member, 1 - k % 4, 0)
        return out

    def __str__(self) -> str:
        return "\n".join(str(g) for g in self.generators)


def signed_intersection_counts(s: StabilizerGroup, t: StabilizerGroup) -> tuple[int, int]:
    """(|S meet T|, |S meet -T|) by row-space intersection in O(n^3) bit operations.

    Reducing T's (x|z) rows against S's pivots and echeloning the rest, as one
    echelon of the stacked rows would, yields a basis of their dependencies:
    each names a member of S and one of T with the same letters, and they
    span the intersection V of the row spaces, at any ranks.  The ratio of
    S's and T's signs is a character on V, read off each dependency as the sign
    of the product of its two members, +-I: the counts are (2^k, 0) if it is
    trivial on that basis, else (2^(k-1), 2^(k-1)), k = dim V (Garcia, Markov
    & Cross, arXiv:1210.6646).
    """
    if s.n != t.n:
        raise DimensionMismatch(f"qubit counts differ: {s.n} != {t.n}")
    r = len(s.generators)
    rows = (gf2_reduce(bits, tag << r, s._pivots) for bits, tag in _packed_rows(t.generators))
    _, dependencies = gf2_echelon(rows)
    k = len(dependencies)
    if all(_product(s.n, s.generators + t.generators, tag).sign > 0 for tag in dependencies):
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
