"""Signed n-qubit Pauli operators in symplectic bit-vector form.

An operator is stored as a sign in {+1, -1} plus two n-bit masks: bit i of
``x`` / ``z`` gives the X / Z component on qubit i, so qubit i carries
I, X, Y, Z for (x_i, z_i) = (0,0), (1,0), (1,1), (0,1).  Qubit 0 is the
leftmost tensor factor and the leftmost character of the string form.

Only real-signed operators (phase +1 or -1) are represented: stabilizer
groups and Pauli measurements are built from them.  Products of generators,
whose phases i^k are tracked as integers, live in :mod:`paulisq.stabilizer`.
"""

from __future__ import annotations

from dataclasses import dataclass

_KIND_FOR_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS_FOR_KIND = {v: k for k, v in _KIND_FOR_BITS.items()}
_MINUS_CHARS = ("-", "−")


class DimensionMismatch(ValueError):
    """Raised when two operators act on different qubit counts."""


class BudgetExceeded(ValueError):
    """Raised when an exhaustive operation is asked beyond its size budget."""


@dataclass(frozen=True)
class PauliOperator:
    """A real-signed Pauli: sign * (tensor product of I/X/Y/Z per qubit)."""

    n: int
    sign: int
    x: int
    z: int

    def __init__(self, n: int, sign: int, x: int, z: int):
        # the generated frozen __init__ sets each field through object.__setattr__
        # and then runs __post_init__; checking the arguments and writing the
        # instance dict is the same object at ~40% of the cost
        if n < 1:
            raise ValueError(f"need at least one qubit, got n={n}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        mask = (1 << n) - 1
        if x & ~mask or z & ~mask:
            raise ValueError("x/z bits exceed qubit count")
        fields = self.__dict__
        fields["n"] = n
        fields["sign"] = sign
        fields["x"] = x
        fields["z"] = z

    @classmethod
    def identity(cls, n: int, sign: int = 1) -> "PauliOperator":
        return cls(n, sign, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str, sign: int = 1) -> "PauliOperator":
        """The operator acting as `kind` on one qubit and I elsewhere."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        xb, zb = _BITS_FOR_KIND[kind]
        return cls(n, sign, xb << qubit, zb << qubit)

    @classmethod
    def from_string(cls, text: str) -> "PauliOperator":
        s = text.strip()
        sign = 1
        if s[:1] in _MINUS_CHARS:
            sign, s = -1, s[1:]
        elif s[:1] == "+":
            s = s[1:]
        if not s:
            raise ValueError(f"no Pauli letters in {text!r}")
        x = z = 0
        for i, ch in enumerate(s):
            try:
                xb, zb = _BITS_FOR_KIND[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {text!r}") from None
            x |= xb << i
            z |= zb << i
        return cls(len(s), sign, x, z)

    def kind(self, qubit: int) -> str:
        return _KIND_FOR_BITS[((self.x >> qubit) & 1, (self.z >> qubit) & 1)]

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def negated(self) -> "PauliOperator":
        return PauliOperator(self.n, -self.sign, self.x, self.z)

    def __str__(self) -> str:
        letters = "".join(self.kind(i) for i in range(self.n))
        return ("+" if self.sign > 0 else "-") + letters


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    """True iff the symplectic form <a.x, b.z> + <a.z, b.x> vanishes over GF(2)."""
    if a.n != b.n:
        raise DimensionMismatch(f"qubit counts differ: {a.n} != {b.n}")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def gf2_reduce(bits: int, tag: int, pivots: dict[int, tuple[int, int]]) -> tuple[int, int]:
    """Reduce the GF(2) row `bits` against the pivots {column: (bits, tag)} of
    :func:`gf2_echelon`, XORing their tags into `tag`.  One pass in any order
    suffices, as each pivot column is clear in every other pivot row."""
    for col, (row, row_tag) in pivots.items():
        if bits >> col & 1:
            bits ^= row
            tag ^= row_tag
    return bits, tag


def gf2_echelon(rows, stop: int | None = None) -> tuple[dict[int, tuple[int, int]], list[int]]:
    """Reduced row echelon form over GF(2) of `(bits, tag)` int pairs, unique
    per row space: each row pivots on its lowest set bit, and pivot columns are
    cleared from all other rows.  Tags are XORed along with the rows.

    Returns the pivot rows as {column: (bits, tag)} in column order, and the
    tags of the input rows that reduced to zero.

    With `stop`, no row is read after the one that brings the rank to `stop`:
    an iterator passed as `rows` is left just after that row, so the caller
    can read the rest.  Without it every row is read.
    """
    pivots: dict[int, tuple[int, int]] = {}
    zeros = []
    for bits, tag in rows:
        bits, tag = gf2_reduce(bits, tag, pivots)
        if not bits:
            zeros.append(tag)
            continue
        low = bits & -bits
        for col, (row, row_tag) in pivots.items():
            if row & low:
                pivots[col] = (row ^ bits, row_tag ^ tag)
        pivots[low.bit_length() - 1] = (bits, tag)
        if len(pivots) == stop:
            break
    return dict(sorted(pivots.items())), zeros


@dataclass(frozen=True)
class PauliMeasurement:
    """The two-outcome effect E = (I + P)/2 for a signed Pauli P.

    P = +I...I gives E = I (always accept) and P = -I...I gives E = 0
    (always reject); both are legal measurements here.
    """

    pauli: PauliOperator

    def __init__(self, pauli: PauliOperator):
        self.__dict__["pauli"] = pauli

    @property
    def n(self) -> int:
        return self.pauli.n

    def __str__(self) -> str:
        return f"(I{self.pauli})/2"
