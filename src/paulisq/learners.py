"""Learning algorithms driven by the statistical-query oracle.

The product-state learner estimates every Bloch coordinate of every qubit
with one sign-threshold query each (3n queries total) under the
pick-a-qubit, Haar-random-projector measurement distribution.  The
basis-state learner is its n-query specialization with a decision margin
wide enough to survive worst-case within-tolerance answers.

The parity side: a planted learning-parity-with-noise instance maps
bijectively onto labeled parity measurements of a computational basis state,
and is solved by GF(2) Gaussian elimination (noiseless) or an exhaustive
maximum-likelihood sweep (noisy, n <= 24) as the classical baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Optional, Union

import numpy as np

from .pauli import BudgetExceeded, PauliMeasurement, gf2_echelon
from .pconcept import (
    BlochVector,
    HaarSingleQubitProduct,
    MonteCarloEstimate,
    ProductState,
    QuantumState,
    SingleQubitProjector,
    StabilizerState,
    _mc_estimate,
    haar_directions,
    parity_index,
    parity_measurement,
    random_bits,
)
from .oracle import SQQuery
from .stabilizer import StabilizerGroup


class PromiseViolation(RuntimeError):
    """An oracle answer landed in the dead zone the promise rules out."""


class InconsistentSystem(ValueError):
    """The linear system has no solution over GF(2)."""


@dataclass(frozen=True)
class LearnedHypothesis:
    state: QuantumState
    queries_used: int
    transcript: Optional[list] = None


def normalize_if_outside(x: float, y: float, z: float) -> tuple[float, float, float]:
    """Project a coordinate estimate radially onto the unit sphere if it left
    the ball; for any true point inside the ball this never increases the
    distance to the estimate."""
    r = math.sqrt(x * x + y * y + z * z)
    if r > 1.0:
        return (x / r, y / r, z / r)
    return (x, y, z)


@dataclass(frozen=True)
class _AxisSignQuery:
    """phi(E, Y) = sgn(component `axis` of the projector on `qubit`) * Y.

    This is the sign of 2^{1-n} tr(E (I x ... x (I+P_axis)/2 x ... x I)) - 1/2
    evaluated directly on the sampled projector: measurements on other qubits
    contribute exactly 1/2 and score zero.  A query built by `_AxisFamily`
    declares, in `_family`, the family of its qubit's three axis queries, so
    a projector table answers it on that qubit's atoms only, with its later
    siblings in one pass (see the oracle module docstring); the declaration
    takes no part in equality or the hash.
    """

    qubit: int
    axis: int
    _family: Optional[_AxisFamily] = field(default=None, compare=False, repr=False)

    def __hash__(self) -> int:
        # equal queries share (qubit, axis), so this is a hash; it skips the
        # generated hash's tuple
        return 3 * self.qubit + self.axis

    def __call__(self, e, y: int) -> float:
        if isinstance(e, SingleQubitProjector) and e.qubit == self.qubit:
            component = e.axis.as_tuple()[self.axis]
            if component > 0:
                return float(y)
            if component < 0:
                return float(-y)
        return 0.0

    def on_projectors(self, qubits: np.ndarray, directions: np.ndarray) -> tuple:
        """(phi(E, 1), phi(E, -1)) for every projector of a table at once."""
        # np.sign gives +0.0 at +-0.0, as the scalar form does
        plus = np.where(qubits == self.qubit, np.sign(directions[:, self.axis]), 0.0)
        return plus, 0.0 - plus  # not -plus: off the qubit the scalar form gives +0.0


class _AxisFamily:
    """The axis queries of one qubit, in `members` by axis, with one array
    form for all three: they read only `qubit`'s atoms, with the same
    weights, so an atom table answers a member and its later siblings in one
    pass over that array form on the qubit's view (see oracle._Table).  Each
    member declares the family in its `_family`."""

    __slots__ = ("qubit", "members")

    def __init__(self, qubit: int):
        self.qubit = qubit
        self.members = tuple(_AxisSignQuery(qubit, axis, self) for axis in range(3))

    def on_projectors(self, qubits: np.ndarray, directions: np.ndarray) -> tuple:
        """(plus, minus) as (3, m) arrays: row a is member a's on_projectors,
        bit for bit."""
        # rows contiguous, so that every later pass over them runs along a row
        plus = np.where(qubits == self.qubit, np.sign(np.ascontiguousarray(directions.T)), 0.0)
        return plus, 0.0 - plus


@lru_cache(maxsize=64)
def _axis_queries(n: int) -> tuple:
    """_AxisSignQuery(i, j) for every qubit i < n and axis j, built once per n
    as the members of each qubit's _AxisFamily: each learner asks the same
    objects, so an atom table's memo hits them by identity and never
    compares two of them."""
    return tuple(_AxisFamily(i).members for i in range(n))


def _require_haar(oracle) -> int:
    d = oracle.distribution
    if not isinstance(d, HaarSingleQubitProduct):
        raise ValueError(
            f"learner needs the Haar single-qubit product distribution, got {type(d).__name__}"
        )
    return d.n


def product_tolerance(n: int, epsilon: float, tau: Optional[float] = None) -> float:
    """The tolerance learn_product_state issues its queries at: tau, or
    sqrt(epsilon)/(2n) where tau is None."""
    return math.sqrt(epsilon) / (2 * n) if tau is None else tau


def basis_tolerance(n: int) -> float:
    """The tolerance learn_basis_state issues its queries at, 1/(4n)."""
    return 1.0 / (4 * n)


def learn_product_state(oracle, epsilon: float, tau: Optional[float] = None) -> LearnedHypothesis:
    """Learn a product state to squared loss epsilon with exactly 3n queries.

    A clean answer to the (qubit i, axis j) query equals tr(P_j rho_i)/(2n),
    so each Bloch coordinate is 2n times the answer.  Queries are issued at
    tolerance sqrt(eps)/(2n): half the headline sqrt(eps)/n, so that the
    factor-2n coordinate conversion keeps each coordinate within sqrt(eps)
    and the total loss within (1/3n) * sum_i 3 eps = eps.  Passing `tau`
    overrides the issued tolerance; anything looser voids the loss guarantee.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    n = _require_haar(oracle)
    start = oracle.query_count
    tau = product_tolerance(n, epsilon, tau)
    blochs = []
    for axes in _axis_queries(n):
        coords = [2 * n * oracle.query(SQQuery(q, tau)) for q in axes]
        blochs.append(BlochVector(*normalize_if_outside(*coords)))
    used = oracle.query_count - start
    transcript = getattr(oracle, "transcript", None)
    return LearnedHypothesis(ProductState(tuple(blochs)), used, transcript)


def learn_basis_state(oracle) -> LearnedHypothesis:
    """Recover a promised computational basis state exactly with n queries.

    Clean answers are +-1/(2n); issued at tolerance 1/(4n) every answer keeps
    its sign, so thresholding at +-1/(4n) decides each bit even against
    worst-case within-band answers.  An answer strictly inside the open dead
    zone (-1/(4n), 1/(4n)) is impossible under the promise and is reported.
    """
    n = _require_haar(oracle)
    start = oracle.query_count
    tau = basis_tolerance(n)
    bits = 0
    for i, axes in enumerate(_axis_queries(n)):
        answer = oracle.query(SQQuery(axes[2], tau))
        # 1e-9 slack: boundary answers from a worst-case-within-band oracle
        # carry ~1e-10 of deterministic evaluation error and still decide the bit
        if abs(answer) < tau - 1e-9:
            raise PromiseViolation(
                f"answer {answer} for qubit {i} lies in the dead zone; "
                "the hidden state is not a computational basis state"
            )
        if answer < 0:
            bits |= 1 << i
    used = oracle.query_count - start
    state = StabilizerState(StabilizerGroup.basis_state(bits, n))
    return LearnedHypothesis(state, used, getattr(oracle, "transcript", None))


# ---------------------------------------------------------------------------
# single-qubit Haar moment: the identity behind the learner's queries


def haar_sign_moment_mc(
    reference: BlochVector, target: BlochVector, samples: int, rng
) -> MonteCarloEstimate:
    """Monte Carlo estimate of E[ sgn(tr(E psi) - 1/2) (tr(E rho) - 1/2) ]
    over Haar-random single-qubit projectors E.

    For a unit reference vector the exact value is (reference . target)/4.
    """
    if abs(reference.norm() - 1.0) > 1e-9:
        raise ValueError("reference state must be pure (unit Bloch vector)")
    u = haar_directions(rng, samples)
    vals = np.sign(u @ np.array(reference.as_tuple())) * (u @ np.array(target.as_tuple())) / 2.0
    return _mc_estimate(vals)


# ---------------------------------------------------------------------------
# learning parity with noise, embedded as basis-state learning


@dataclass(frozen=True)
class LPNInstance:
    """Noisy parity examples: labels are x . secret mod 2, each flipped
    independently with probability eta in [0, 1/2); a known secret is < 2^n.

    Every example is an (x, b) pair in [0, 2^n) x {0, 1}: the first that is
    not is refused here, with a ValueError that names it, and `examples`
    keeps the checked pairs as a tuple."""

    n: int
    eta: float
    examples: tuple[tuple[int, int], ...]
    secret: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.eta < 0.5:
            raise ValueError(f"LPN noise rate must lie in [0, 1/2), got {self.eta}")
        # a negative int shifts to -1, so one shift tests both ends
        if self.secret is not None and self.secret >> self.n:
            raise ValueError(f"secret {self.secret} lies outside [0, 2^{self.n})")
        object.__setattr__(self, "examples", tuple(_checked_examples(self.examples, self.n)))


def _bits_to_string(bits: int, n: int) -> str:
    # coordinate 0 is the leftmost character, matching Pauli string order
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(n))


def _string_to_bits(text: str, n: int) -> int:
    if len(text) != n or set(text) - {"0", "1"}:
        raise ValueError(f"{text!r} is not an {n}-bit string")
    return sum(1 << i for i, ch in enumerate(text) if ch == "1")


def _checked_examples(examples, n: int):
    """Each (x, b) of `examples` in order; the first that is not a pair, or
    lies outside [0, 2^n) x {0, 1}, is refused with a ValueError that names it."""
    for i, example in enumerate(examples):
        try:
            x, b = example
        except (TypeError, ValueError):
            raise ValueError(f"example {i}, {example!r}, is not an (x, b) pair") from None
        # a negative int shifts to -1, so one shift tests both ends
        if x >> n or b >> 1:
            raise ValueError(f"example {i}, ({x}, {b}), lies outside [0, 2^{n}) x {{0, 1}}")
        yield x, b


def lpn_instance_to_json(instance: LPNInstance) -> dict:
    """The on-disk form: bitstrings for example vectors and the secret."""
    data = {
        "n": instance.n,
        "eta": instance.eta,
        "examples": [[_bits_to_string(x, instance.n), b] for x, b in instance.examples],
    }
    if instance.secret is not None:
        data["secret"] = _bits_to_string(instance.secret, instance.n)
    return data


def lpn_instance_from_json(data: dict) -> LPNInstance:
    n = data["n"]
    examples = tuple((_string_to_bits(x, n), int(b)) for x, b in data["examples"])
    secret = _string_to_bits(data["secret"], n) if "secret" in data else None
    return LPNInstance(n, float(data["eta"]), examples, secret)


def generate_lpn_instance(
    n: int, m: int, eta: float, rng, secret: Optional[int] = None
) -> LPNInstance:
    """m >= 0 planted examples on n <= 64 bits, drawn with random_bits; eta
    and a given secret are checked before any draw, as LPNInstance checks them."""
    if m < 0:
        raise ValueError(f"example count must be non-negative, got m = {m}")
    LPNInstance(n, eta, (), secret)
    if secret is None:
        secret = random_bits(rng, n)
    examples = []
    for _ in range(m):
        x = random_bits(rng, n)
        bit = (x & secret).bit_count() & 1
        if eta > 0 and rng.random() < eta:
            bit ^= 1
        examples.append((x, bit))
    return LPNInstance(n, eta, tuple(examples), secret)


def make_lpn_as_state_learning(instance: LPNInstance) -> list[tuple[PauliMeasurement, int]]:
    """Re-express parity examples as measurement-outcome pairs.

    (x, b) becomes (E_x, 2b - 1): measuring the basis state |secret> with the
    parity effect E_x accepts with probability x . secret mod 2, so the
    labeled datasets are the same problem in different clothes, noise
    included.  The mapping is a bijection; see parity_index for the inverse.
    """
    return [
        (parity_measurement(x, instance.n), 2 * bit - 1) for x, bit in instance.examples
    ]


def decode_state_learning_dataset(
    dataset, n: int
) -> list[tuple[int, int]]:
    """Inverse of make_lpn_as_state_learning, bit-exact."""
    return [(parity_index(e), (label + 1) // 2) for e, label in dataset]


@dataclass(frozen=True)
class AffineSolutionSpace:
    """All solutions particular ^ span(basis) of an underdetermined system."""

    particular: int
    nullspace_basis: tuple[int, ...]


ParitySolution = Union[int, AffineSolutionSpace]


def gaussian_elimination_parity(dataset, n: int) -> ParitySolution:
    """Solve x . y = b over GF(2) for the secret y.

    The dataset is read once, in order.  Elimination stops at the example
    that brings the rank to n: the secret is then fixed, and each later
    example costs one parity check instead of a reduction against n pivot
    rows.  On uniform examples the rank reaches n after about n + 2 of them,
    so m examples cost O(n^2 + m) steps on n <= 64 bit words.

    Returns the unique solution as an int bitmask when the examples have full
    rank, otherwise the affine solution space.  Raises InconsistentSystem on
    contradictory examples (noise, or a broken promise), and a ValueError
    naming the first example that is not a pair or lies outside
    [0, 2^n) x {0, 1}.
    """
    rows = _checked_examples(dataset, n)
    pivots, dependencies = gf2_echelon(rows, stop=n)
    # free variables set to 0 leave y_c = b on each reduced pivot row
    solution = sum(1 << c for c, (_, b) in pivots.items() if b)
    # examples are left in rows only if the rank reached n, and then solution
    # is the secret; the sum reads them all, so a bad one is refused even after
    # a contradiction
    if sum(dependencies) + sum(((x & solution).bit_count() ^ b) & 1 for x, b in rows):
        raise InconsistentSystem("contradictory parity examples")
    if len(pivots) == n:
        return solution
    basis = tuple(
        1 << free | sum(1 << c for c, (x, _) in pivots.items() if x >> free & 1)
        for free in range(n) if free not in pivots
    )
    return AffineSolutionSpace(solution, basis)


@dataclass(frozen=True)
class MaximumLikelihoodSecret:
    best: int
    disagreements: int
    ties: tuple[int, ...]


def _hadamard_blocks(top: int) -> tuple[np.ndarray, ...]:
    blocks = [np.ones((1, 1), dtype=np.float32)]
    for _ in range(top):
        h = blocks[-1]
        blocks.append(np.block([[h, h], [h, -h]]))
    return tuple(blocks)


# H_2^{(x)k} for k = 0..4: one 16 x 16 block covers four bits per pass
_HADAMARD = _hadamard_blocks(4)


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a contiguous float32 vector of
    length 2^n; consumes v and returns the result, in v or in one new buffer.

    Each pass applies a Hadamard block to the next k <= 4 index bits: the
    first is one matrix product on the low bits, each later one a batched
    product on the axis between the bits done and the bits to come.  The
    passes alternate between v and the new buffer.  On integer entries whose
    absolute values sum below 2^24 every partial sum is an exact float32
    integer, so the result does not depend on the order of summation.
    """
    n = len(v).bit_length() - 1
    src, dst = v, None
    done = 0
    while done < n:
        k = min(4, n - done)
        h = _HADAMARD[k]
        if dst is None:
            dst = np.matmul(src.reshape(-1, 1 << k), h).reshape(-1)
        else:
            low = 1 << done
            np.matmul(h, src.reshape(-1, 1 << k, low), out=dst.reshape(-1, 1 << k, low))
        src, dst = dst, src
        done += k
    return src


SWEEP_LIMIT = 24
# float32 holds every integer of magnitude below 2^24 exactly
EXACT_SWEEP_EXAMPLES = 1 << 24
# candidates per tie test in exhaustive_lpn_solver: a 64 KB mask, not 2^n bytes
TIE_CHUNK = 1 << 16


def exhaustive_lpn_solver(instance: LPNInstance) -> MaximumLikelihoodSecret:
    """Minimum-disagreement secret over all 2^n candidates, n <= SWEEP_LIMIT.

    Agreement minus disagreement counts for every candidate at once come from
    one Walsh-Hadamard transform of the signed example histogram, so the
    sweep costs O(2^n n + m) rather than O(2^n m).  The histogram and the
    transform are float32, exact while there are fewer than 2^24 examples.
    The instance has checked its examples, so the 2m ints are read in one
    flat pass.
    """
    n = instance.n
    if n > SWEEP_LIMIT:
        raise BudgetExceeded(f"2^{n} sweep exceeds budget 2^{SWEEP_LIMIT}")
    m = len(instance.examples)
    if m >= EXACT_SWEEP_EXAMPLES:
        raise BudgetExceeded(f"the float32 sweep is exact below 2^24 examples, got {m}")
    flat = np.fromiter(chain.from_iterable(instance.examples), np.int64, 2 * m)
    hist = np.zeros(1 << n, dtype=np.float32)
    np.add.at(hist, flat[0::2], (1 - 2 * flat[1::2]).astype(np.float32))
    # hist[y] = sum_i (-1)^{b_i + x_i.y} = m - 2 disagreements(y)
    hist = _walsh_hadamard(hist)
    top = int(hist.max())
    ties = tuple(
        start + int(y)
        for start in range(0, len(hist), TIE_CHUNK)
        for y in np.flatnonzero(hist[start:start + TIE_CHUNK] == top)
    )
    return MaximumLikelihoodSecret(ties[0], (m - top) // 2, ties)
