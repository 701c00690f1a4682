"""Reproducible seeded experiments with machine-readable JSON reports.

Subcommands: verify-lemmas, learn-product, lpn, sda, noise-demo.  Every
randomized quantity flows from --seed through named substreams, so a report
is bit-identical across reruns and worker counts (timestamps and runtimes
live under "meta" and are excluded from that contract).  Exit code 0 iff all
assertions in the report passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Callable

import numpy as np

from . import __version__
from .learners import (
    EXACT_SWEEP_EXAMPLES,
    SWEEP_LIMIT,
    basis_tolerance,
    decode_state_learning_dataset,
    exhaustive_lpn_solver,
    gaussian_elimination_parity,
    generate_lpn_instance,
    haar_sign_moment_mc,
    learn_basis_state,
    learn_product_state,
    lpn_instance_from_json,
    make_lpn_as_state_learning,
    product_tolerance,
)
from .oracle import (
    AdversarialCallback,
    BoundedChannelNoise,
    ClassificationNoise,
    DefaultAdversary,
    DepolarizingCorrectedOracle,
    DepolarizingNoise,
    EmpiricalFromSamples,
    ExactPolicy,
    MaliciousNoise,
    NoNoise,
    OracleConfig,
    RandomWithinTau,
    SQQuery,
    StatisticalQueryOracle,
    draw_validation_set,
    eta_grid_search,
    mixture_acceptance,
)
from .pauli import PauliMeasurement, PauliOperator
from .pconcept import (
    EXACT,
    EXACT_PARITY_ENUMERATION_LIMIT,
    EXACT_PAULI_ENUMERATION_LIMIT,
    BlochVector,
    FiniteWeighted,
    HaarSingleQubitProduct,
    MaximallyMixed,
    MonteCarlo,
    ProductState,
    SingleQubitProjector,
    StabilizerState,
    UniformPauli,
    UniformParity,
    acceptance_probability,
    inner_product,
    random_bits,
    squared_loss,
)
from .stabilizer import (
    ENUMERATION_LIMIT,
    StabilizerGroup,
    enumerate_stabilizer_groups,
    random_stabilizer_group,
)
from .statdim import ConceptClass, average_correlation, jsonable, sda_bound, sda_exact
from .statdim import verify_query_lower_bound
from .streams import check_seed, substream

STABILIZER_COUNTS = {1: 6, 2: 60, 3: 1080}


# the JSON values accepted for each type named in ExperimentConfig's annotations
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "dict": dict, "None": type(None)}


def _json_type_ok(annotation: str, value) -> bool:
    """Whether `value` fits an annotation such as "int | None"; a JSON true or
    false is a bool only, though Python counts it as an int."""
    kinds = annotation.split(" | ")
    if isinstance(value, bool):
        return "bool" in kinds
    return any(isinstance(value, _JSON_TYPES[kind]) for kind in kinds)


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 2
    distribution: dict | None = None
    noise: dict | None = None
    policy: dict | None = None
    epsilon: float = 0.01
    tau: float | None = None
    seed: int = 0
    trials: int = 10
    jobs: int = 1
    samples: int | None = None
    target: str = "ball"
    grid_search: bool = False
    eta_upper: float | None = None
    lpn_m: int | None = None
    lpn_eta: float = 0.0
    lpn_file: str | None = None
    out: str | None = None

    def __post_init__(self):
        command = COMMANDS.get(self.experiment)
        if command is None:
            raise ValueError(f"unknown experiment {self.experiment!r}; expected one of {', '.join(COMMANDS)}")
        # a field the experiment does not read must keep its default, as a
        # descriptor key its kind does not read must be absent
        for f in fields(self):
            if f.name not in ("experiment", "seed", "out", *command.reads) and getattr(self, f.name) != f.default:
                raise ValueError(f"experiment {self.experiment!r} does not read {f.name!r}")
        for name in ("n", "trials", "jobs", "samples", "lpn_m"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        check_seed(self.seed, "seed")
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.tau is not None and not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0 <= self.lpn_eta < 0.5:
            raise ValueError(f"lpn_eta must lie in [0, 1/2), got {self.lpn_eta}")
        if self.eta_upper is not None and not 0 <= self.eta_upper < 1:
            raise ValueError(f"eta_upper must lie in [0, 1), got {self.eta_upper}")
        noise_from_descriptor(self.noise)
        policy_from_descriptor(self.policy, self.seed)
        if self.distribution is not None:
            distribution_from_descriptor(self.distribution)
        # a field the experiment reads only in some configs must keep its default in the others
        unread = command.unread(self)
        for f in fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ValueError(f"experiment {self.experiment!r} does not read {f.name!r} {unread[f.name]}")
        # an --lpn-file instance is read here, so its size is checked like --n
        self.lpn_instance = None if self.lpn_file is None else _load_lpn_instance(self.lpn_file)
        if self.lpn_instance is not None and not self.lpn_instance.examples:
            raise ValueError(f"LPN instance {self.lpn_file} has no examples")
        for top, what, n in command.caps(self):
            if n > top:
                raise ValueError(f"{what} supports n <= {top}, got n = {n}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if "experiment" not in data:
            raise ValueError("config needs an 'experiment' field")
        for f in fields(cls):
            if f.name in data and not _json_type_ok(f.type, data[f.name]):
                expected = f.type.replace(" | ", " or ")
                raise ValueError(f"config field {f.name!r} must be {expected}, got {data[f.name]!r}")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


def _finite_item(meas, weight) -> tuple:
    if isinstance(meas, str):
        return PauliMeasurement(PauliOperator.from_string(meas)), weight
    return SingleQubitProjector(meas["n"], meas["qubit"], BlochVector(*meas["axis"])), weight


def _finite(desc: dict) -> FiniteWeighted:
    try:
        return FiniteWeighted(tuple(_finite_item(*item) for item in desc["items"]))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"finite distribution items must be [measurement, weight] pairs: {exc!r}") from None


def _qubits(desc: dict, top: int | None = None) -> int:
    # noise-demo's exact round trip enumerates the support, within pconcept's budget `top`
    n = desc.get("n")
    if not _json_type_ok("int", n) or n < 1:
        raise ValueError(f"distribution kind {desc['kind']!r} needs an int n >= 1, got {n!r}")
    if top is not None and n > top:
        raise ValueError(f"{desc['kind']} distribution supports n <= {top}, got n = {n}")
    return n


def _rate(desc: dict) -> float:
    if "eta" not in desc:
        raise ValueError(f"noise kind {desc['kind']!r} needs an eta")
    return desc["eta"]


def _no_noise(desc: dict) -> NoNoise:
    if desc.get("eta", 0.0) != 0.0:
        raise ValueError(f"noise kind 'none' does not read 'eta' but the 0.0 that --noise none records, got {desc['eta']!r}")
    return NoNoise()


# Descriptor kind -> (constructor, which takes the descriptor and, for a
# policy, its default seed; the keys the kind reads besides "kind", each with
# the JSON type of its value, or None where the constructor checks it).  These
# tables are the one list of accepted kinds: the parsers and --noise/--policy read them.
DISTRIBUTION_KINDS = {
    "uniform_pauli": (lambda desc: UniformPauli(_qubits(desc, EXACT_PAULI_ENUMERATION_LIMIT)), {"n": None}),
    "uniform_parity": (lambda desc: UniformParity(_qubits(desc, EXACT_PARITY_ENUMERATION_LIMIT)), {"n": None}),
    "haar_product": (lambda desc: HaarSingleQubitProduct(_qubits(desc)), {"n": None}),
    "finite": (_finite, {"items": None}),
}

NOISE_KINDS = {
    "none": (_no_noise, {"eta": "float"}),
    "classification": (lambda desc: ClassificationNoise(_rate(desc)), {"eta": "float"}),
    "malicious": (lambda desc: MaliciousNoise(_rate(desc)), {"eta": "float"}),
    "depolarizing": (lambda desc: DepolarizingNoise(_rate(desc)), {"eta": "float"}),
    "bounded_channel": (lambda desc: BoundedChannelNoise(2.0 * _rate(desc), DepolarizingNoise(_rate(desc))), {"eta": "float"}),
}

POLICY_KINDS = {
    "exact": (lambda desc, seed: ExactPolicy(), {}),
    "random_within_tau": (lambda desc, seed: RandomWithinTau(desc.get("seed", seed)), {"seed": "int"}),
    "adversarial": (lambda desc, seed: AdversarialCallback(DefaultAdversary()), {}),
    "empirical": (lambda desc, seed: EmpiricalFromSamples(desc.get("samples"), desc.get("seed", seed)),
                  {"samples": "int | None", "seed": "int"}),
}


def _kind(desc: dict, table: dict, what: str) -> Callable:
    kind = desc.get("kind")
    if kind not in table:
        raise ValueError(f"unknown {what} kind {kind!r}; expected one of {', '.join(table)}")
    make, keys = table[kind]
    for key, value in desc.items():
        if key != "kind" and key not in keys:
            raise ValueError(f"{what} kind {kind!r} does not read {key!r}")
        if keys.get(key) and not _json_type_ok(keys[key], value):
            raise ValueError(f"{what} {key!r} must be {keys[key].replace(' | ', ' or ')}, got {value!r}")
    return make


def distribution_from_descriptor(desc: dict):
    return _kind(desc, DISTRIBUTION_KINDS, "distribution")(desc)


def noise_from_descriptor(desc: dict | None):
    desc = {"kind": "none"} if desc is None else desc
    return _kind(desc, NOISE_KINDS, "noise")(desc)


def policy_from_descriptor(desc: dict | None, default_seed: int):
    desc = {"kind": "exact"} if desc is None else desc
    return _kind(desc, POLICY_KINDS, "policy")(desc, default_seed)


def _random_product_state(n: int, rng, target: str) -> ProductState:
    blochs = []
    for _ in range(n):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if target == "ball":
            v = v * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
        blochs.append(BlochVector(*v))
    return ProductState(tuple(blochs))


def grid_step(epsilon: float, eta_upper: float) -> float:
    """Noise-rate grid step for the search over depolarizing-rate guesses.

    Fine enough that a half-step rate mismatch perturbs each recovered Bloch
    coordinate by at most sqrt(eps)/2, the slack left by running the inner
    learner at eps/4; rounded so the grid lands on eta_upper exactly.
    """
    if eta_upper <= 0:
        return 1.0
    budget = (epsilon**0.5) * (1.0 - eta_upper) / 2.0
    steps = max(1, int(np.ceil(eta_upper / budget)))
    return eta_upper / steps


# ---------------------------------------------------------------------------
# verify-lemmas


def cmd_verify_lemmas(config: ExperimentConfig) -> dict:
    n = config.n
    assertions = []
    results = {}

    groups = enumerate_stabilizer_groups(n)
    results["stabilizer_count"] = len(groups)
    assertions.append({"name": "stabilizer_count", "passed": len(groups) == STABILIZER_COUNTS[n]})

    # exact correlation structure: norms 1/2^n, cross terms <= 1/2^{n+1}, tight
    d = UniformPauli(n)
    states = [StabilizerState(g) for g in groups]
    norm_ok = all(inner_product(s, s, d, EXACT) == Fraction(1, 2**n) for s in states)
    assertions.append({"name": "norm_squared_is_2^-n", "passed": norm_ok})

    # Clifford symmetry makes every row of the correlation matrix the same
    # multiset, so row 0 holds every cross value of the class
    bound = Fraction(1, 2 ** (n + 1))
    cross = [abs(inner_product(states[0], s, d, EXACT)) for s in states[1:]]
    assertions.append({"name": "cross_correlation_at_most_2^-(n+1)", "passed": all(c <= bound for c in cross)})
    witness = StabilizerState(StabilizerGroup.from_strings(["+" + "I" * i + "Z" + "I" * (n - 1 - i) for i in range(n)]))
    witness2_strings = ["+" + "I" * i + "Z" + "I" * (n - 1 - i) for i in range(n - 1)] + ["+" + "I" * (n - 1) + "X"]
    witness2 = StabilizerState(StabilizerGroup.from_strings(witness2_strings))
    tight_pair_value = abs(inner_product(witness, witness2, d, EXACT))
    results["tightness_witness_value"] = tight_pair_value
    assertions.append({"name": "tightness_attained", "passed": tight_pair_value == bound and bound in cross})

    # maximally mixed identity on random states
    mixed = MaximallyMixed(n)
    identity_ok = True
    for k in range(50):
        g = random_stabilizer_group(n, substream(config.seed, "mm", k))
        s = StabilizerState(g)
        lhs = inner_product(s, s, d, EXACT) - squared_loss(s, mixed, d, EXACT)
        identity_ok = identity_ok and lhs == Fraction(1, 4**n)
    assertions.append({"name": "maximally_mixed_identity", "passed": identity_ok})

    # Haar sign moment, Monte Carlo vs closed form
    samples = 1_000_000 if config.samples is None else config.samples
    mc_ok = True
    mc_rows = []
    for k in range(5):
        rng_k = substream(config.seed, "haar-moment", k)
        ref = _random_product_state(1, rng_k, "pure").blochs[0]
        r = rng_k.normal(size=3)
        r *= rng_k.uniform(0, 1) / np.linalg.norm(r)
        tgt = BlochVector(*r)
        est = haar_sign_moment_mc(ref, tgt, samples, rng_k)
        closed = ref.dot(tgt) / 4.0
        mc_rows.append({"estimate": est.value, "closed_form": closed, "std_error": est.std_error})
        mc_ok = mc_ok and abs(est.value - closed) <= 4 * est.std_error
    results["haar_moment"] = mc_rows
    assertions.append({"name": "haar_sign_moment_mc", "passed": mc_ok})

    # product squared loss: closed form vs Monte Carlo
    dh = HaarSingleQubitProduct(n)
    loss_ok = True
    for k in range(3):
        rng_k = substream(config.seed, "loss", k)
        a = _random_product_state(n, rng_k, "ball")
        b = _random_product_state(n, rng_k, "ball")
        exact = float(squared_loss(a, b, dh, EXACT))
        mc = squared_loss(a, b, dh, MonteCarlo(100_000, config.seed + k))
        loss_ok = loss_ok and abs(mc.value - exact) <= 4 * mc.std_error + 1e-12
    assertions.append({"name": "product_loss_closed_form_vs_mc", "passed": loss_ok})

    return {"results": results, "assertions": assertions}


# ---------------------------------------------------------------------------
# learn-product


def _run_trials(trial, config: ExperimentConfig) -> list[dict]:
    """trial(config, index) for every trial, pooled when jobs > 1; rows sorted by trial.

    A fork-started pool starts all its workers at the first submit, so it is
    asked for no more workers than there are trials."""
    args = ([config] * config.trials, range(config.trials))
    workers = min(config.jobs, config.trials)
    if workers > 1:
        # imported here: the pool machinery costs memory that a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(trial, *args))
    else:
        rows = list(map(trial, *args))
    return sorted(rows, key=lambda r: r["trial"])


def _tolerance(config: ExperimentConfig) -> float:
    """The tolerance the config's learner issues its queries at, outside a
    grid search: the learners' own rule for the target."""
    return basis_tolerance(config.n) if config.target == "basis" else product_tolerance(config.n, config.epsilon, config.tau)


def _product_trial(config: ExperimentConfig, trial: int) -> dict:
    n = config.n
    rng = substream(config.seed, "trial", trial)
    dist = HaarSingleQubitProduct(n)
    noise = noise_from_descriptor(config.noise)
    oracle_config = OracleConfig(policy_from_descriptor(config.policy, config.seed * 7919 + trial), noise)
    basis = config.target == "basis"
    state = (StabilizerState(StabilizerGroup.basis_state(random_bits(rng, n), n)) if basis
             else _random_product_state(n, rng, config.target))

    if config.grid_search:
        # the rate is unknown to the learner: search over guesses up to eta_upper
        eta_upper = config.eta_upper if config.eta_upper is not None else noise.eta
        delta = grid_step(config.epsilon, eta_upper)
        validation = draw_validation_set(state, dist, 20_000, substream(config.seed, "val", trial))

        def run(guess: float):
            inner = StatisticalQueryOracle(state, dist, oracle_config)
            corrected = DepolarizingCorrectedOracle(inner, guess)
            return learn_product_state(corrected, config.epsilon / 4)

        _, hypothesis = eta_grid_search(run, eta_upper, delta, validation)
    else:
        # either learner queries through the noise model's reduction to a clean oracle
        oracle = noise.learner_oracle(StatisticalQueryOracle(state, dist, oracle_config))
        hypothesis = learn_basis_state(oracle) if basis else learn_product_state(oracle, config.epsilon, _tolerance(config))

    loss = float(squared_loss(state, hypothesis.state, dist, EXACT))
    row = {"trial": trial, "queries": hypothesis.queries_used, "loss": loss}
    return {**row, "recovered": bool(hypothesis.state == state)} if basis else {**row, "passed": loss <= config.epsilon}


def cmd_learn_product(config: ExperimentConfig) -> dict:
    rows = _run_trials(_product_trial, config)
    if config.target == "basis":
        assertions = [
            {"name": "exact_recovery", "passed": all(r["recovered"] for r in rows)},
            {"name": "queries_equal_n", "passed": all(r["queries"] == config.n for r in rows)},
        ]
    else:
        assertions = [
            {"name": "loss_within_epsilon", "passed": all(r["loss"] <= config.epsilon for r in rows)},
            {"name": "queries_equal_3n", "passed": all(r["queries"] == 3 * config.n for r in rows)},
        ]
    return {"results": {"trials": rows, "max_loss": max(r["loss"] for r in rows)}, "assertions": assertions}


# ---------------------------------------------------------------------------
# lpn


def _load_lpn_instance(path: str):
    """The LPN instance in a JSON file; any unreadable file is a ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return lpn_instance_from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read LPN instance {path}: {type(exc).__name__}: {exc}") from None


def _lpn_size(config: ExperimentConfig) -> tuple[int, int, float]:
    """n, example count and noise rate of an lpn run: the --lpn-file
    instance's own, else the flags'."""
    fixed = config.lpn_instance
    if fixed is not None:
        return fixed.n, len(fixed.examples), fixed.eta
    n, eta = config.n, config.lpn_eta
    return n, config.lpn_m if config.lpn_m is not None else (4 * n if eta == 0 else 50 * n), eta


def _lpn_trial(config: ExperimentConfig, trial: int) -> dict:
    fixed = config.lpn_instance
    n, m, eta = _lpn_size(config)
    rng = substream(config.seed, "lpn", trial)
    retries = 0
    while True:
        instance = fixed if fixed is not None else generate_lpn_instance(n, m, eta, rng)
        dataset = make_lpn_as_state_learning(instance)
        decoded = decode_state_learning_dataset(dataset, n)
        round_trip = tuple(decoded) == instance.examples
        if eta == 0:
            solution = gaussian_elimination_parity(instance.examples, n)
            if isinstance(solution, int):
                return {
                    "trial": trial,
                    "recovered": solution == instance.secret if instance.secret is not None else None,
                    "round_trip": round_trip,
                    "retries": retries,
                }
            retries += 1
            if fixed is not None or retries > 10:
                return {"trial": trial, "recovered": False, "round_trip": round_trip, "retries": retries}
            continue
        result = exhaustive_lpn_solver(instance)
        disagreement_rate = result.disagreements / m
        recovered = None
        if instance.secret is not None:
            recovered = result.best == instance.secret and len(result.ties) == 1
        return {
            "trial": trial,
            "recovered": recovered,
            "round_trip": round_trip,
            "disagreement_rate": disagreement_rate,
            "ties": len(result.ties),
        }


def cmd_lpn(config: ExperimentConfig) -> dict:
    rows = _run_trials(_lpn_trial, config)
    recovered = sum(1 for r in rows if r["recovered"])
    assertions = [
        {"name": "round_trip_bijection", "passed": all(r["round_trip"] for r in rows)},
    ]
    secrets_known = all(r["recovered"] is not None for r in rows)
    _, _, eta = _lpn_size(config)
    if secrets_known and eta < 0.45:
        threshold = 0.99 if eta == 0 else 0.95
        assertions.append({"name": "secret_recovery_rate", "passed": recovered >= threshold * len(rows)})
    return {
        "results": {"trials": rows, "recovered": recovered, "total": len(rows)},
        "assertions": assertions,
    }


# ---------------------------------------------------------------------------
# sda


def cmd_sda(config: ExperimentConfig) -> dict:
    n = config.n
    groups = enumerate_stabilizer_groups(n)
    cls = ConceptClass(tuple(StabilizerState(g) for g in groups), UniformPauli(n))
    results = {}
    assertions = []

    avg = average_correlation(cls)
    results["class_size"] = len(cls)
    results["average_correlation"] = avg

    kappa = Fraction(1, 2**n)
    gamma_pair = Fraction(1, 2 ** (n + 1))
    gamma_prime = Fraction(1, 2 ** (n + 1))
    bound = sda_bound(cls, gamma_pair, kappa, gamma_prime)
    results["pairwise_bound"] = bound.to_jsonable()
    passed = bound.sda_value == len(cls) and bound.gamma == kappa
    assertions.append({"name": "bound_equals_class_size_at_threshold_2^-n", "passed": passed})

    if n == 1:
        exact = sda_exact(cls, Fraction(1, 2))
        results["sda_exact"] = exact.to_jsonable()
        assertions.append({"name": "exact_at_least_bound", "passed": Fraction(exact.sda_value) >= bound.sda_value})

    # side-condition verdict at tau = epsilon = 3/8 (n = 2) or 9/16 (n = 1); it must refuse,
    # as the zero-query learner that outputs I/2^n is within 2^-n - 4^-n < epsilon of every state
    tau = 3.0 / 8.0 if n == 2 else 9.0 / 16.0
    beta = 2.0 ** (-n / 2.0)
    verdict_report = sda_bound(cls, gamma_pair, kappa, Fraction(tau) ** 2 - gamma_pair)
    reference_loss = min(squared_loss(s, MaximallyMixed(n), cls.distribution, EXACT) for s in cls.concepts)
    verdict = verify_query_lower_bound(verdict_report, epsilon=tau, beta=beta, tau=tau, reference_loss=reference_loss)
    results["verdict"] = asdict(verdict)
    assertions.append({"name": "verdict_consistent", "passed": not verdict.checks["reference_loss_above_epsilon"]})

    return {"results": results, "assertions": assertions}


# ---------------------------------------------------------------------------
# noise-demo


def cmd_noise_demo(config: ExperimentConfig) -> dict:
    results = {}
    assertions = []
    state = StabilizerState(StabilizerGroup.from_strings(["+Z"]))
    point_mass = FiniteWeighted(((PauliMeasurement(PauliOperator.from_string("Z")), 1.0),))
    label_query = lambda e, y: float(y)  # noqa: E731

    probe = SQQuery(label_query, 0.01)

    def oracle(noise):
        return StatisticalQueryOracle(state, point_mass, OracleConfig(noise=noise))

    eta_c, eta_d, eta_m = 0.1, 0.5, 0.2
    classification, depolarizing = ClassificationNoise(eta_c), DepolarizingNoise(eta_d)
    clean = oracle(NoNoise()).query(probe)
    noisy_c = oracle(classification).query(probe)
    noisy_d = oracle(depolarizing).query(probe)
    noisy_m = oracle(MaliciousNoise(eta_m)).query(probe)
    results["clean"] = clean
    # each correction is its noise model's reduction to a clean oracle, run end to end
    results["classification"] = {"noisy": noisy_c, "corrected": classification.learner_oracle(oracle(classification)).query(probe)}
    results["depolarizing"] = {"noisy": noisy_d, "corrected": depolarizing.learner_oracle(oracle(depolarizing)).query(probe)}
    results["malicious"] = {"noisy": noisy_m, "perturbation_bound": 2 * eta_m}
    assertions.append({"name": "classification_expectation", "passed": abs(noisy_c - (1 - 2 * eta_c)) < 1e-12})
    assertions.append({"name": "classification_corrected", "passed": abs(results["classification"]["corrected"] - clean) < 1e-12})
    assertions.append({"name": "depolarizing_expectation", "passed": abs(noisy_d - (1 - eta_d)) < 1e-12})
    assertions.append({"name": "depolarizing_corrected", "passed": abs(results["depolarizing"]["corrected"] - clean) < 1e-12})
    assertions.append({"name": "malicious_within_2eta", "passed": abs(noisy_m - clean) <= 2 * eta_m + 1e-12})

    bounded = BoundedChannelNoise(0.02, DepolarizingNoise(0.01))
    results["absorb"] = {"tau": 0.1, "eta": 0.02, "effective": bounded.learner_oracle(oracle(bounded)).tightened(0.1)}
    assertions.append({"name": "absorb_arithmetic", "passed": abs(results["absorb"]["effective"] - 0.06) < 1e-15})

    # adjoint identity: tr(adj(E) rho) == tr(E (1-eta) rho + eta I/2^n) on a
    # random two-qubit stabilizer state, over all signed Paulis
    n = 2
    eta = 0.3
    channel = DepolarizingNoise(eta)
    rho = StabilizerState(random_stabilizer_group(n, substream(config.seed, "adjoint")))
    mixed = MaximallyMixed(n)
    worst = 0.0
    for e, _ in UniformPauli(n).support():
        lhs = mixture_acceptance(rho, channel.adjoint(e))
        rhs = (1 - eta) * float(acceptance_probability(rho, e)) + eta * float(
            acceptance_probability(mixed, e)
        )
        worst = max(worst, abs(lhs - rhs))
    results["adjoint_worst_abs_err"] = worst
    assertions.append({"name": "adjoint_identity", "passed": worst < 1e-12})

    if config.distribution is not None:
        # correction round trip on a caller-supplied measurement distribution
        d = distribution_from_descriptor(config.distribution)
        target = StabilizerState(random_stabilizer_group(d.n, substream(config.seed, "demo-state")))
        clean = StatisticalQueryOracle(target, d)
        noise = ClassificationNoise(eta_c)
        wrapped = noise.learner_oracle(StatisticalQueryOracle(target, d, OracleConfig(noise=noise)))
        tau = config.tau if config.tau is not None else 0.01
        probe = SQQuery(label_query, tau)
        gap = abs(wrapped.query(probe) - clean.query(probe))
        results["custom_distribution_round_trip_gap"] = gap
        assertions.append({"name": "custom_distribution_round_trip", "passed": gap <= tau})

    return {"results": results, "assertions": assertions}


# ---------------------------------------------------------------------------
# driver


@dataclass(frozen=True)
class Command:
    """A subcommand: its report body, the config fields it reads besides seed
    and out, which also name its flags, those of them that a config leaves
    unread, each with the reason, and the caps (top, what, n) a config sets."""

    run: Callable[[ExperimentConfig], dict]
    reads: tuple[str, ...]
    unread: Callable[[ExperimentConfig], dict] = lambda config: {}
    caps: Callable[[ExperimentConfig], list] = lambda config: []


def _learn_product_unread(config: ExperimentConfig) -> dict:
    # a basis target is read off n queries exactly; a grid search's learners run at epsilon/4 with their own tolerance
    unread = dict.fromkeys(("epsilon", "tau"), "with a basis target") if config.target == "basis" else {}
    if config.target == "basis" or (config.noise or {}).get("kind") != "depolarizing":
        unread["grid_search"] = "without depolarizing noise and a non-basis target"
    if config.grid_search:
        unread.setdefault("tau", "with grid_search, whose learners set their own tolerance")
    else:
        unread["eta_upper"] = "without grid_search"
    return unread


def _learn_product_caps(config: ExperimentConfig) -> list:
    # the learner oracle takes the noise's margin off the learner's tolerance;
    # only a bounded channel has one, 2 eta_diamond = 4 eta
    margin, tau = noise_from_descriptor(config.noise).margin, _tolerance(config)
    if not tau > margin:
        raise ValueError(f"bounded_channel margin 4 eta = {margin} is not below the learner's tolerance {tau}")
    return [(64, "basis target", config.n)] if config.target == "basis" else []


def _lpn_unread(config: ExperimentConfig) -> dict:
    if config.lpn_file is None:
        return {}
    return dict.fromkeys(("n", "lpn_m", "lpn_eta"), "with an lpn_file, whose instance sets it")


def _lpn_caps(config: ExperimentConfig) -> list:
    # a noisy instance is solved by sweeping all 2^n secrets, with float32 counts
    n, m, eta = _lpn_size(config)
    if eta > 0 and m >= EXACT_SWEEP_EXAMPLES:
        raise ValueError(f"noisy lpn supports fewer than 2^24 examples, got m = {m}")
    return [(SWEEP_LIMIT, "noisy lpn", n) if eta > 0 else (64, "lpn", n)]


def _noise_demo_unread(config: ExperimentConfig) -> dict:
    # tau is the tolerance of the round trip on a custom distribution
    return {} if config.distribution is not None else {"tau": "without a distribution"}


# verify-lemmas and sda enumerate stabilizer states; caps are checked before any exponential work
COMMANDS = {
    "verify-lemmas": Command(cmd_verify_lemmas, ("n", "samples"),
                             caps=lambda config: [(ENUMERATION_LIMIT, "verify-lemmas", config.n)]),
    "learn-product": Command(
        cmd_learn_product,
        ("n", "trials", "jobs", "epsilon", "tau", "target", "noise", "policy", "grid_search", "eta_upper"),
        _learn_product_unread,
        _learn_product_caps,
    ),
    "lpn": Command(cmd_lpn, ("n", "trials", "jobs", "lpn_m", "lpn_eta", "lpn_file"), _lpn_unread, _lpn_caps),
    "sda": Command(cmd_sda, ("n",), caps=lambda config: [(2, "sda", config.n)]),
    "noise-demo": Command(cmd_noise_demo, ("distribution", "tau"), _noise_demo_unread),
}

# The flag of each config field that has one, named after it (--lpn-m sets
# lpn_m); --noise comes with --eta.  tau, eta_upper and distribution are set
# in a config file only.
_FLAGS = {
    **dict.fromkeys(("seed", "n", "trials", "jobs", "samples", "lpn_m"), {"type": int}),
    **dict.fromkeys(("epsilon", "lpn_eta"), {"type": float}),
    **dict.fromkeys(("out", "lpn_file"), {"type": str}),
    "target": {"choices": ["ball", "pure", "basis"]},
    "noise": {"choices": list(NOISE_KINDS)},
    "policy": {"choices": list(POLICY_KINDS)},
    "grid_search": {"action": "store_true"},
}


def run_experiment(config: ExperimentConfig) -> dict:
    t0 = time.perf_counter()
    body = COMMANDS[config.experiment].run(config)
    return {
        "config": config.to_dict(),
        "results": jsonable(body["results"]),
        "assertions": jsonable(body["assertions"]),
        "passed": all(a["passed"] for a in body["assertions"]),
        "version": __version__,
        "meta": {"runtime_s": time.perf_counter() - t0, "timestamp": time.time()},
    }


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes --config and the flags of the fields it reads;
    any other flag is argparse's usage error."""
    parser = argparse.ArgumentParser(prog="paulisq", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for field in ("seed", "out", *command.reads):
            if field in _FLAGS:
                p.add_argument("--" + field.replace("_", "-"), default=None, **_FLAGS[field])
        if "noise" in command.reads:
            p.add_argument("--eta", type=float, default=None, help="noise rate; required with a noisy --noise")
    return parser


def config_from_args(args) -> ExperimentConfig:
    flags = dict(vars(args))
    data = {}
    path = flags.pop("config")
    if path:
        with open(path, encoding="utf-8") as fh:
            data.update(json.load(fh))
    noise, eta, policy = (flags.pop(key, None) for key in ("noise", "eta", "policy"))
    # a flag overrides the config file's field of the same name, and the
    # subcommand its experiment
    data.update((key, value) for key, value in flags.items() if value is not None)
    if eta is not None and noise is None:
        raise ValueError("--eta needs --noise")
    if noise is not None:
        if noise != "none" and eta is None:
            raise ValueError(f"--eta is required with --noise {noise}")
        data["noise"] = {"kind": noise, "eta": eta if eta is not None else 0.0}
    if policy is not None:
        data["policy"] = {"kind": policy}
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    report = run_experiment(config)
    text = json.dumps(report, indent=2)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
