"""Average correlation and statistical dimension of finite concept classes.

The statistical dimension on average at threshold gamma is the largest d
such that every subset containing at least a 1/d fraction of the class still
has average absolute correlation at most gamma; it lower-bounds the number
of statistical queries any learner needs.  For desk-scale classes the
dimension is computed exactly by subset sweep; beyond that a pairwise
correlation bound gives a certified lower bound.

All stabilizer-class quantities are exact rationals: the structural results
being checked are equalities, and float tolerances would weaken them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional

import numpy as np

from .pauli import BudgetExceeded, DimensionMismatch
from .pconcept import EXACT, MeasurementDistribution, QuantumState, inner_product

SDA_SWEEP_LIMIT = 16


def jsonable(value):
    """A JSON-ready copy of a report value: exact rationals become
    {"num", "den"} objects, numpy scalars Python scalars, tuples lists."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class ConceptClass:
    """A finite family of p-concepts under one measurement distribution.

    Concepts are usually quantum states; hand-built classes can instead
    supply `inner`, a callable (c, c', distribution) -> correlation, and use
    arbitrary handles as concepts.
    """

    concepts: tuple
    distribution: MeasurementDistribution
    inner: object = None

    def __post_init__(self):
        if not self.concepts:
            raise ValueError("concept class is empty")
        if self.inner is None:
            sizes = {c.n for c in self.concepts} | {self.distribution.n}
            if len(sizes) != 1:
                raise DimensionMismatch(f"concepts and distribution act on mixed qubit counts {sizes}")

    def __len__(self) -> int:
        return len(self.concepts)

    @cached_property
    def matrix(self) -> tuple:
        """Pairwise inner products <c_i, c_j>_D, exact where the states allow;
        computed on first use, one inner product per unordered pair."""
        k = len(self)
        pair = self.inner if self.inner is not None else (
            lambda a, b, d: inner_product(a, b, d, EXACT)
        )
        mat = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                value = pair(self.concepts[i], self.concepts[j], self.distribution)
                mat[i][j] = value
                mat[j][i] = value
        return tuple(tuple(row) for row in mat)


def correlation_matrix(cls: ConceptClass) -> tuple:
    """The class's correlation matrix, rows of <c_i, c_j>_D (see ConceptClass.matrix)."""
    return cls.matrix


def average_correlation(cls: ConceptClass):
    """rho_D = (1/|C|^2) sum over all ordered pairs of |<c, c'>|, diagonal included."""
    mat = correlation_matrix(cls)
    k = len(cls)
    total = sum(abs(mat[i][j]) for i in range(k) for j in range(k))
    if isinstance(total, Fraction):
        return total / k**2
    return total / float(k**2)


@dataclass(frozen=True)
class SDAReport:
    gamma: object
    sda_value: object
    is_lower_bound: bool
    kappa: object
    gamma_pair: object
    min_norm_sq: object
    class_size: int
    witness: Optional[tuple[int, ...]] = None

    def to_jsonable(self) -> dict:
        return jsonable(asdict(self))


def _pair_stats(mat):
    k = len(mat)
    kappa = max(mat[i][i] for i in range(k))
    min_norm = min(mat[i][i] for i in range(k))
    gamma_pair = max(
        (abs(mat[i][j]) for i in range(k) for j in range(k) if i != j),
        default=Fraction(0),
    )
    return kappa, gamma_pair, min_norm


def sda_exact(cls: ConceptClass, gamma, sweep_limit: int = SDA_SWEEP_LIMIT) -> SDAReport:
    """Exact statistical dimension on average, by exhaustive subset sweep.

    The defining supremum is open: with M the largest violating-subset size,
    every d < |C|/M qualifies and d = |C|/M does not, so the reported integer
    value is the largest integer strictly below |C|/M (capped at |C| when
    nothing violates: all thresholds d >= |C| impose the same condition).

    Subsets are swept largest-first with per-size early exit; classes beyond
    `sweep_limit` fall back to the pairwise bound at this gamma and are
    labeled as lower bounds.
    """
    k = len(cls)
    mat = correlation_matrix(cls)
    kappa, gamma_pair, min_norm = _pair_stats(mat)
    if k > sweep_limit:
        gamma_prime = gamma - gamma_pair
        if not gamma_prime > 0:
            raise BudgetExceeded(
                f"class size {k} exceeds sweep budget and gamma <= max pair correlation"
            )
        return sda_bound(cls, gamma_pair, kappa, gamma_prime)
    abs_mat = [[abs(v) for v in row] for row in mat]
    max_violator = 0
    witness = None
    for size in range(k, 0, -1):
        if max_violator:
            break
        for subset in combinations(range(k), size):
            total = sum(abs_mat[i][j] for i in subset for j in subset)
            if total > gamma * size * size:
                max_violator = size
                witness = subset
                break
    if max_violator == 0:
        value = k
    else:
        # largest integer strictly below k / max_violator
        value = (k - 1) // max_violator if k % max_violator == 0 else k // max_violator
    return SDAReport(
        gamma=gamma,
        sda_value=value,
        is_lower_bound=False,
        kappa=kappa,
        gamma_pair=gamma_pair,
        min_norm_sq=min_norm,
        class_size=k,
        witness=witness,
    )


def sda_bound(cls: ConceptClass, gamma_pair, kappa, gamma_prime) -> SDAReport:
    """Certified lower bound |C| gamma' / (kappa - gamma_pair) on the dimension
    at threshold gamma_pair + gamma', valid whenever every off-diagonal
    correlation is at most gamma_pair and every squared norm at most kappa.

    Both hypotheses are verified exhaustively before the bound is issued.
    """
    if not gamma_prime > 0:
        raise ValueError("gamma_prime must be positive")
    mat = correlation_matrix(cls)
    k = len(cls)
    for i in range(k):
        if mat[i][i] > kappa:
            raise ValueError(f"concept {i} has squared norm {mat[i][i]} > kappa {kappa}")
    for i in range(k):
        for j in range(k):
            if i != j and abs(mat[i][j]) > gamma_pair:
                raise ValueError(
                    f"pair ({i},{j}) has |correlation| {abs(mat[i][j])} > gamma_pair {gamma_pair}"
                )
    _, _, min_norm = _pair_stats(mat)
    bound = k * gamma_prime / (kappa - gamma_pair)
    return SDAReport(
        gamma=gamma_pair + gamma_prime,
        sda_value=bound,
        is_lower_bound=True,
        kappa=kappa,
        gamma_pair=gamma_pair,
        min_norm_sq=min_norm,
        class_size=k,
    )


@dataclass(frozen=True)
class Verdict:
    ok: bool
    checks: dict
    implied_queries: object
    statement: str


def verify_query_lower_bound(report: SDAReport, epsilon: float, beta: float, tau: float) -> Verdict:
    """Machine-check the side conditions that turn an SDA value into a query
    lower bound: norms at least beta, tau <= epsilon, epsilon^2 <= beta/3, and
    the report's threshold at most tau^2.

    This validates hypothesis bookkeeping; it does not empirically prove
    hardness.  When all checks pass, any SQ learner reaching squared loss
    epsilon with tolerance-tau queries needs at least the reported dimension
    many queries.
    """
    checks = {
        "norm_at_least_beta": float(report.min_norm_sq) >= beta * beta - 1e-15,
        "tau_at_most_epsilon": tau <= epsilon,
        "epsilon_sq_at_most_beta_third": epsilon * epsilon <= beta / 3.0 + 1e-15,
        "threshold_at_most_tau_sq": float(report.gamma) <= tau * tau + 1e-15,
    }
    ok = all(checks.values())
    if ok:
        statement = (
            f"any SQ learner reaching squared loss {epsilon} with tolerance-{tau} queries "
            f"needs at least {report.sda_value} queries"
            + (" (lower bound)" if report.is_lower_bound else "")
        )
    else:
        failed = sorted(name for name, passed in checks.items() if not passed)
        statement = "side conditions violated: " + ", ".join(failed)
    return Verdict(ok=ok, checks=checks, implied_queries=report.sda_value if ok else None, statement=statement)
