"""Product-state and basis-state learners, plus the parity-learning baselines."""

import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ref import full_elimination_parity, kron_all, measurement_matrix, PAULI_MATS, I2
from paulisq.learners import (
    AffineSolutionSpace,
    BudgetExceeded,
    EXACT_SWEEP_EXAMPLES,
    InconsistentSystem,
    LPNInstance,
    PromiseViolation,
    SWEEP_LIMIT,
    _AxisSignQuery,
    _walsh_hadamard,
    decode_state_learning_dataset,
    exhaustive_lpn_solver,
    gaussian_elimination_parity,
    generate_lpn_instance,
    haar_sign_moment_mc,
    learn_basis_state,
    learn_product_state,
    make_lpn_as_state_learning,
    normalize_if_outside,
)
from paulisq.oracle import (
    AdversarialCallback,
    DefaultAdversary,
    ExactPolicy,
    NoNoise,
    OracleConfig,
    RandomWithinTau,
    StatisticalQueryOracle,
)
from paulisq.pauli import gf2_reduce
from paulisq.pconcept import (
    EXACT,
    BlochVector,
    HaarSingleQubitProduct,
    MaximallyMixed,
    ProductState,
    SingleQubitProjector,
    StabilizerState,
    UniformPauli,
    batch_of,
    draw_outcomes,
    squared_loss,
)
from paulisq.stabilizer import StabilizerGroup
from paulisq.streams import substream


def random_product(rng, n, pure=False):
    blochs = []
    for _ in range(n):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if not pure:
            v *= rng.uniform(0, 1) ** (1 / 3)
        blochs.append(BlochVector(*v))
    return ProductState(tuple(blochs))


def exact_oracle(state, n):
    return StatisticalQueryOracle(
        state, HaarSingleQubitProduct(n), OracleConfig(ExactPolicy(), NoNoise())
    )


def test_axis_sign_query_matches_literal_trace_formula():
    # phi = sgn(2^{1-n} tr(E (I x .. x (I+P_j)/2 x .. x I)) - 1/2) * Y, checked densely
    rng = substream(51, "literal")
    for n in (2, 3):
        for _ in range(25):
            qubit = int(rng.integers(0, n))
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            e = SingleQubitProjector(n, qubit, BlochVector(*v))
            e_mat = measurement_matrix(e)
            for i in range(n):
                for j, kind in enumerate("XYZ"):
                    mats = [I2] * n
                    mats[i] = 0.5 * (I2 + PAULI_MATS[kind])
                    ref = np.sign(
                        2.0 ** (1 - n) * np.trace(e_mat @ kron_all(mats)).real - 0.5
                    )
                    for y in (1, -1):
                        assert _AxisSignQuery(i, j)(e, y) == pytest.approx(ref * y)


def test_product_learner_exact_recovery_of_all_zeros():
    n = 4
    target = ProductState((BlochVector(0, 0, 1),) * n)
    hyp = learn_product_state(exact_oracle(target, n), 0.01)
    assert hyp.queries_used == 3 * n
    for b in hyp.state.blochs:
        assert b.z == pytest.approx(1.0, abs=1e-8)
    assert float(squared_loss(target, hyp.state, HaarSingleQubitProduct(n), EXACT)) <= 1e-15


def test_product_learner_on_maximally_mixed_target():
    n = 3
    target = MaximallyMixed(n)
    oracle = exact_oracle(target, n)
    hyp = learn_product_state(oracle, 0.25)
    for b in hyp.state.blochs:
        assert abs(b.x) < 1e-9 and abs(b.y) < 1e-9 and abs(b.z) < 1e-9


def test_product_learner_single_qubit_closed_form():
    target = ProductState((BlochVector(0.6, 0.0, 0.8),))
    hyp = learn_product_state(exact_oracle(target, 1), 0.01)
    got = hyp.state.blochs[0]
    assert got.x == pytest.approx(0.6, abs=1e-8)
    assert got.z == pytest.approx(0.8, abs=1e-8)


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("epsilon", [0.25, 0.01])
def test_product_learner_loss_certificate(n, epsilon):
    d = HaarSingleQubitProduct(n)
    for trial in range(8):
        rng = substream(52, "cert", n, epsilon, trial)
        target = random_product(rng, n, pure=bool(trial % 2))
        for policy in [ExactPolicy(), RandomWithinTau(seed=trial)]:
            oracle = StatisticalQueryOracle(target, d, OracleConfig(policy, NoNoise()))
            hyp = learn_product_state(oracle, epsilon)
            assert hyp.queries_used == 3 * n
            assert float(squared_loss(target, hyp.state, d, EXACT)) <= epsilon


def test_product_learner_rejects_wrong_distribution():
    state = ProductState((BlochVector(0, 0, 1),))
    oracle = StatisticalQueryOracle(state, UniformPauli(1), OracleConfig())
    with pytest.raises(ValueError):
        learn_product_state(oracle, 0.1)
    with pytest.raises(ValueError):
        learn_product_state(exact_oracle(state, 1), 0.0)


def test_basis_learner_exact_under_default_adversary():
    n = 3
    bits = 0b101
    state = StabilizerState(StabilizerGroup.basis_state(bits, n))
    oracle = StatisticalQueryOracle(
        state,
        HaarSingleQubitProduct(n),
        OracleConfig(AdversarialCallback(DefaultAdversary()), NoNoise()),
    )
    hyp = learn_basis_state(oracle)
    assert hyp.queries_used == n
    assert hyp.state.group == state.group


def test_basis_learner_single_qubit():
    state = StabilizerState(StabilizerGroup.basis_state(0, 1))
    hyp = learn_basis_state(exact_oracle(state, 1))
    assert hyp.queries_used == 1
    assert hyp.state.group == state.group


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_learner_survives_every_full_perturbation_pattern(n):
    # adversary pushes every answer by the full +-1/(4n), all sign patterns
    for bits in range(1 << n):
        state = StabilizerState(StabilizerGroup.basis_state(bits, n))
        for pattern in itertools.product((1, -1), repeat=n):
            signs = iter(pattern)

            def push(truth, tau, _signs=signs):
                return truth + next(_signs) * tau

            oracle = StatisticalQueryOracle(
                state,
                HaarSingleQubitProduct(n),
                OracleConfig(AdversarialCallback(push), NoNoise()),
            )
            hyp = learn_basis_state(oracle)
            assert hyp.state.group == state.group


def test_basis_learner_dead_zone_detection():
    # |+> on the probed qubit: its z component is 0, inside the dead zone
    state = ProductState((BlochVector(1, 0, 0), BlochVector(0, 0, 1)))
    with pytest.raises(PromiseViolation):
        learn_basis_state(exact_oracle(state, 2))


def test_normalize_if_outside_identity_inside_ball():
    assert normalize_if_outside(0.1, 0.2, -0.3) == (0.1, 0.2, -0.3)


@given(
    target=st.tuples(*[st.floats(-1, 1) for _ in range(3)]),
    estimate=st.tuples(*[st.floats(-2, 2) for _ in range(3)]),
)
@settings(max_examples=300)
def test_renormalization_never_hurts(target, estimate):
    t = np.array(target)
    if np.linalg.norm(t) > 1:
        t /= np.linalg.norm(t)
    e = np.array(estimate)
    if np.linalg.norm(e) <= 1:
        return
    projected = np.array(normalize_if_outside(*e))
    assert np.linalg.norm(t - projected) <= np.linalg.norm(t - e) + 1e-12


def test_haar_sign_moment_mc_matches_closed_form():
    rng = substream(53, "moment")
    for k in range(6):
        psi = rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        ref, tgt = BlochVector(*psi), BlochVector(*r)
        est = haar_sign_moment_mc(ref, tgt, 400_000, rng)
        assert abs(est.value - ref.dot(tgt) / 4.0) <= 4 * est.std_error


# --- parity learning ---------------------------------------------------------


def test_lpn_embedding_example():
    instance = LPNInstance(2, 0.0, ((0b11, 1),), secret=0b01)
    [(e, label)] = make_lpn_as_state_learning(instance)
    assert label == 1  # x.y = 1*1 + 1*0 = 1
    state = StabilizerState(StabilizerGroup.basis_state(instance.secret, 2))
    rng = substream(54, "embed")
    assert draw_outcomes(batch_of((e,) * 20).f(state), rng).tolist() == [label] * 20


def test_lpn_embedding_empty_parity():
    instance = LPNInstance(3, 0.0, ((0, 0),), secret=0b101)
    [(e, label)] = make_lpn_as_state_learning(instance)
    assert label == -1
    state = StabilizerState(StabilizerGroup.basis_state(instance.secret, 3))
    rng = substream(54, "embed0")
    assert draw_outcomes(batch_of((e,) * 20).f(state), rng).tolist() == [-1] * 20


def test_lpn_embedding_round_trip_bijection():
    rng = substream(55, "roundtrip")
    instance = generate_lpn_instance(6, 40, 0.2, rng)
    dataset = make_lpn_as_state_learning(instance)
    assert tuple(decode_state_learning_dataset(dataset, 6)) == instance.examples


def test_lpn_instance_json_round_trip():
    import json

    from paulisq.learners import lpn_instance_from_json, lpn_instance_to_json

    rng = substream(55, "json")
    instance = generate_lpn_instance(5, 12, 0.25, rng)
    data = json.loads(json.dumps(lpn_instance_to_json(instance)))
    assert lpn_instance_from_json(data) == instance
    assert all(len(x) == 5 and set(x) <= {"0", "1"} for x, _ in data["examples"])
    # leftmost character is coordinate 0
    one_hot = LPNInstance(3, 0.0, ((0b001, 1),), secret=None)
    assert lpn_instance_to_json(one_hot)["examples"][0][0] == "100"


def test_lpn_instance_json_without_secret():
    from paulisq.learners import lpn_instance_from_json, lpn_instance_to_json

    instance = LPNInstance(2, 0.0, ((0b11, 0),))
    data = lpn_instance_to_json(instance)
    assert "secret" not in data
    assert lpn_instance_from_json(data).secret is None


def test_lpn_embedding_outcome_law_matches_noise_rate():
    # measuring the embedded basis state reproduces clean labels; the mapped
    # noisy labels disagree with them at exactly the instance's flip rate
    rng = substream(56, "law")
    instance = generate_lpn_instance(5, 4000, 0.3, rng)
    state = StabilizerState(StabilizerGroup.basis_state(instance.secret, 5))
    dataset = make_lpn_as_state_learning(instance)
    # deterministic for parity effects
    clean = draw_outcomes(batch_of(tuple(e for e, _ in dataset)).f(state), rng)
    flips = int(np.count_nonzero(clean != np.array([label for _, label in dataset])))
    assert flips / len(dataset) == pytest.approx(0.3, abs=0.03)


def test_gaussian_elimination_unit_vectors():
    n = 5
    secret = 0b10110
    data = [(1 << i, (secret >> i) & 1) for i in range(n)]
    assert gaussian_elimination_parity(data, n) == secret


def test_gaussian_elimination_planted():
    rng = substream(57, "ge")
    recovered = 0
    for trial in range(20):
        instance = generate_lpn_instance(16, 64, 0.0, rng)
        solution = gaussian_elimination_parity(instance.examples, 16)
        if isinstance(solution, int) and solution == instance.secret:
            recovered += 1
    assert recovered >= 19  # rank deficiency at m = 4n is vanishingly rare


def test_noiseless_lpn_recovers_secret_at_64_bits():
    instance = generate_lpn_instance(64, 256, 0.0, substream(64, "wide"))
    assert instance.secret >= 1 << 32  # the draw really spans the high bits
    assert gaussian_elimination_parity(instance.examples, 64) == instance.secret


def test_lpn_instance_rejects_more_than_64_bits():
    with pytest.raises(ValueError, match="at most 64 bits"):
        generate_lpn_instance(65, 10, 0.0, substream(0, "wide"))


def _refused_before_a_draw(message, *args, **kwargs):
    rng = substream(58, "refused")
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        generate_lpn_instance(*args, rng, **kwargs)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("eta", [0.7, -0.3, 1.5, 0.5, float("nan")])
def test_lpn_instance_refuses_a_noise_rate_outside_zero_to_half(eta):
    message = re.escape(f"LPN noise rate must lie in [0, 1/2), got {eta}")
    with pytest.raises(ValueError, match=message):
        LPNInstance(4, eta, ((1, 0),))
    _refused_before_a_draw(message, 4, 5, eta)


@pytest.mark.parametrize("secret", [16, 99, -1])
def test_lpn_instance_refuses_a_secret_outside_n_bits(secret):
    # a secret of 99 on 4 bits once labeled its examples with 99 & 15 = 3
    message = re.escape(f"secret {secret} lies outside [0, 2^4)")
    with pytest.raises(ValueError, match=message):
        LPNInstance(4, 0.1, ((1, 0),), secret)
    _refused_before_a_draw(message, 4, 5, 0.1, secret=secret)
    assert [LPNInstance(4, 0.1, (), s).secret for s in (0, 15, None)] == [0, 15, None]


@pytest.mark.parametrize("m", [-1, -3])
def test_generate_lpn_instance_refuses_a_negative_example_count(m):
    _refused_before_a_draw(re.escape(f"example count must be non-negative, got m = {m}"), 4, m, 0.1)
    assert generate_lpn_instance(4, 0, 0.1, substream(58, "empty")).examples == ()


def test_gaussian_elimination_inconsistent():
    with pytest.raises(InconsistentSystem):
        gaussian_elimination_parity([(0b11, 0), (0b11, 1)], 2)


def test_gaussian_elimination_underdetermined():
    n = 4
    secret = 0b1010
    data = [(0b0011, (secret & 0b0011).bit_count() & 1), (0b1100, (secret & 0b1100).bit_count() & 1)]
    out = gaussian_elimination_parity(data, n)
    assert isinstance(out, AffineSolutionSpace)
    assert len(out.nullspace_basis) == 2
    # every affine-space member satisfies the dataset
    for mask in range(1 << len(out.nullspace_basis)):
        candidate = out.particular
        for k, vec in enumerate(out.nullspace_basis):
            if (mask >> k) & 1:
                candidate ^= vec
        for x, b in data:
            assert (x & candidate).bit_count() & 1 == b


def _solved(solver, dataset, n):
    """The solver's answer, or the InconsistentSystem class if it raised that."""
    try:
        return solver(dataset, n)
    except InconsistentSystem:
        return InconsistentSystem


def _assert_same_solution(dataset, n):
    ours, reference = _solved(gaussian_elimination_parity, dataset, n), _solved(full_elimination_parity, dataset, n)
    assert type(ours) is type(reference) and ours == reference
    return ours


@pytest.mark.parametrize("n", [0, 1, 2])
def test_gaussian_elimination_matches_full_elimination_on_every_small_dataset(n):
    examples = [(x, b) for x in range(1 << n) for b in (0, 1)]
    for m in range(5):
        for dataset in itertools.product(examples, repeat=m):
            _assert_same_solution(dataset, n)


def test_gaussian_elimination_matches_full_elimination_on_seeded_datasets_at_n3():
    rng = substream(66, "ge3")
    for _ in range(3000):
        m = int(rng.integers(0, 12))
        dataset = list(zip(rng.integers(0, 8, size=m).tolist(), rng.integers(0, 2, size=m).tolist()))
        _assert_same_solution(dataset, 3)


def _full_rank_index(xs, n):
    """Index of the example at which the rank of xs first reaches n, or None.
    Kept apart from gf2_echelon: a basis with distinct leading bits, in
    decreasing order, that each new vector is XOR-minimised against."""
    basis = []
    for i, x in enumerate(xs):
        for v in basis:
            x = min(x, x ^ v)
        if x:
            basis = sorted(basis + [x], reverse=True)
            if len(basis) == n:
                return i
    return None


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_gaussian_elimination_matches_full_elimination_with_one_flipped_label(data):
    n = data.draw(st.integers(1, 64), label="n")
    m = data.draw(st.integers(max(1, n // 2), 4 * n), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    secret = int(rng.integers(0, 2**n, dtype=np.uint64))
    xs = rng.integers(0, 2**n, size=m, dtype=np.uint64).tolist()
    dataset = [(x, (x & secret).bit_count() & 1) for x in xs]
    full = _full_rank_index(xs, n)
    where = data.draw(st.sampled_from(["none", "before", "after"]), label="flip")
    if where == "after" and full is not None and full + 1 < m:
        i = data.draw(st.integers(full + 1, m - 1), label="row")
    elif where == "before":
        i = data.draw(st.integers(0, m - 1 if full is None else full), label="row")
    else:
        i = None
    if i is not None:
        dataset[i] = (dataset[i][0], dataset[i][1] ^ 1)
    solution = _assert_same_solution(dataset, n)
    if i is None:
        assert solution == secret if full is not None else isinstance(solution, AffineSolutionSpace)
    elif full is not None and i > full:
        # the rows up to full fix the secret, so a later flip contradicts it
        assert solution is InconsistentSystem


def test_gaussian_elimination_reads_a_generator_once_and_reduces_only_up_to_full_rank(monkeypatch):
    import paulisq.pauli as pauli

    instance = generate_lpn_instance(16, 64, 0.0, substream(65, "once"))
    read, reduced = [], []

    def examples():
        for example in instance.examples:
            read.append(example)
            yield example

    def counted_reduce(bits, tag, pivots):
        reduced.append(bits)
        return gf2_reduce(bits, tag, pivots)

    monkeypatch.setattr(pauli, "gf2_reduce", counted_reduce)
    dataset = examples()
    assert gaussian_elimination_parity(dataset, 16) == instance.secret
    # every example was read, once and in order, including those after full rank
    assert read == list(instance.examples)
    assert next(dataset, None) is None
    # but only those up to full rank were reduced against the pivot rows
    full = _full_rank_index([x for x, _ in instance.examples], 16)
    assert full < 63 and reduced == [x for x, _ in instance.examples[:full + 1]]


@pytest.mark.parametrize(
    "examples, bad",
    [
        (((3, 1), (1, 0), (-1, 1)), 2),  # x = -1 was read as x = 3
        (((3, 1), (7, 0)), 1),  # x = 7 failed inside the sweep's histogram
        (((4, 1), (1, 0), (2, 1)), 0),  # x = 4 solved to a secret of 6
        (((1, 1), (2, 0), (3, 2)), 2),  # b = 2 was read as 0
        (((1, 1), (2, 0), (3, -1)), 2),
        (((1, 1), (2, 0), (3, 1), (8, 0)), 3),  # after full rank
        (((1, 1), (1, 0), (2, 0), (-2, 0)), 3),  # after a contradiction
        (((1, 1), (2, 0), (3, 0), (2**64, 0)), 3),  # beyond int64, after a contradiction
    ],
)
def test_lpn_instance_and_elimination_refuse_an_example_outside_the_cube(examples, bad):
    x, b = examples[bad]
    message = re.escape(f"example {bad}, ({x}, {b}), lies outside [0, 2^2) x {{0, 1}}")
    with pytest.raises(ValueError, match=message):
        LPNInstance(2, 0.0, examples)
    with pytest.raises(ValueError, match=message):
        gaussian_elimination_parity(examples, 2)
    with pytest.raises(ValueError, match=message):
        gaussian_elimination_parity(iter(examples), 2)


@pytest.mark.parametrize("bad", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("malformed", [(2,), (2, 1, 0), 3, ()], ids=repr)
def test_lpn_instance_and_elimination_refuse_an_example_that_is_not_a_pair(malformed, bad):
    examples = [(1, 0), (2, 1), (4, 0), (8, 1), (3, 1)]
    examples[bad] = malformed
    message = re.escape(f"example {bad}, {malformed!r}, is not an (x, b) pair")
    with pytest.raises(ValueError, match=message):
        LPNInstance(4, 0.0, tuple(examples))
    with pytest.raises(ValueError, match=message):
        gaussian_elimination_parity(examples, 4)


def test_lpn_instance_refuses_a_long_example_beside_a_short_one():
    # (1, 0, 1) and (0,) hold four ints, so a flat read of 2m ints would fill
    # and pair the rest off by one
    for examples, bad in ((((1, 0, 1), (0,), (2, 1)), 0), (((2, 1), (0,), (1, 0, 1)), 1)):
        with pytest.raises(ValueError, match=re.escape(f"example {bad}, {examples[bad]!r}, is not an (x, b) pair")):
            LPNInstance(4, 0.0, examples)


def test_lpn_instance_refuses_a_bad_example_before_the_embedding_reads_it(monkeypatch):
    # a label of 5 was embedded as outcome 9 and decoded back to 5, and a
    # one-int example ended inside the embedding in a bare unpacking error
    import paulisq.learners as learners

    monkeypatch.setattr(learners, "parity_measurement", lambda *args: pytest.fail("the embedding ran"))
    for examples, message in (
        (((1, 5), (2, 0)), "example 0, (1, 5), lies outside [0, 2^2) x {0, 1}"),
        (((1,),), "example 0, (1,), is not an (x, b) pair"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_lpn_as_state_learning(LPNInstance(2, 0.0, examples))


def test_lpn_instance_keeps_its_checked_examples_as_a_tuple_of_pairs():
    instance = LPNInstance(3, 0.1, [[5, 1], (2, 0)], secret=1)
    assert instance.examples == ((5, 1), (2, 0))
    assert type(instance.examples) is tuple and all(type(e) is tuple for e in instance.examples)
    assert exhaustive_lpn_solver(instance).ties == exhaustive_lpn_solver(LPNInstance(3, 0.1, instance.examples)).ties


def test_exhaustive_solver_agrees_with_elimination_noiseless():
    rng = substream(58, "ml0")
    instance = generate_lpn_instance(10, 60, 0.0, rng)
    ml = exhaustive_lpn_solver(instance)
    assert ml.best == instance.secret
    assert ml.disagreements == 0
    assert gaussian_elimination_parity(instance.examples, 10) == instance.secret


def test_exhaustive_solver_noisy_planted():
    rng = substream(59, "ml")
    hits = 0
    for trial in range(10):
        instance = generate_lpn_instance(12, 600, 0.1, rng)
        ml = exhaustive_lpn_solver(instance)
        if ml.best == instance.secret and len(ml.ties) == 1:
            hits += 1
        assert abs(ml.disagreements / 600 - 0.1) < 0.06
    assert hits == 10


def test_exhaustive_solver_empty_instance_ties_everything():
    instance = LPNInstance(4, 0.0, (), secret=0)
    ml = exhaustive_lpn_solver(instance)
    assert ml.disagreements == 0
    assert len(ml.ties) == 16
    # 2^17 candidates span two tie chunks
    assert exhaustive_lpn_solver(LPNInstance(17, 0.0, ())).ties == tuple(range(1 << 17))


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_exhaustive_solver_ties_do_not_depend_on_the_chunk(chunk, monkeypatch):
    import paulisq.learners as learners

    instance = generate_lpn_instance(8, 12, 0.3, substream(63, "chunks"))
    counts = _brute_force_sweep(8, instance.examples)
    monkeypatch.setattr(learners, "TIE_CHUNK", chunk)
    ml = exhaustive_lpn_solver(instance)
    assert len(ml.ties) > 1
    assert ml.ties == tuple(int(y) for y in np.flatnonzero(counts == counts.min()))


def _walsh_hadamard_block_loop(v):
    """A per-block int64 butterfly loop, the reference for the float32 transform."""
    h = 1
    m = len(v)
    while h < m:
        for start in range(0, m, 2 * h):
            a = v[start : start + h].copy()
            b = v[start + h : start + 2 * h].copy()
            v[start : start + h] = a + b
            v[start + h : start + 2 * h] = a - b
        h *= 2


def _signed_histogram(rng, n, total):
    """A signed example histogram on 2^n entries whose absolute values sum to
    `total`, inside the float32 kernel's exact domain when total < 2^24."""
    hist = np.zeros(1 << n, dtype=np.int64)
    x = rng.integers(0, 1 << n, size=min(total, 1 << 20))
    np.add.at(hist, x, rng.choice([-1, 1], size=len(x)))
    # pile the rest onto three entries, away from zero, to reach the total
    rest = total - int(np.abs(hist).sum())
    for y, share in zip(rng.integers(0, 1 << n, size=3), (rest // 2, rest // 3, rest - rest // 2 - rest // 3)):
        hist[y] += share if hist[y] >= 0 else -share
    return hist


def test_walsh_hadamard_matches_block_loop_for_every_n_up_to_20():
    # entries are example counts: every partial sum is an integer bounded by
    # sum |v| < 2^24, where float32 is exact whatever the summation order
    rng = np.random.default_rng(61)
    for n in range(21):
        total = int(rng.integers(0, EXACT_SWEEP_EXAMPLES)) if n != 20 else EXACT_SWEEP_EXAMPLES - 1
        want = _signed_histogram(rng, n, total)
        assert np.abs(want).sum() == total
        got = _walsh_hadamard(want.astype(np.float32))
        _walsh_hadamard_block_loop(want)
        assert got.dtype == np.float32 and len(got) == 1 << n
        assert np.array_equal(got.astype(np.int64), want), n


def test_exhaustive_solver_matches_per_candidate_count_with_repeated_examples():
    # 200 examples on 6 bits repeat example vectors, so the histogram sums
    instance = generate_lpn_instance(6, 200, 0.2, substream(62, "repeats"))
    counts = [sum(((x & y).bit_count() & 1) != b for x, b in instance.examples) for y in range(64)]
    ml = exhaustive_lpn_solver(instance)
    assert ml.disagreements == min(counts)
    assert ml.ties == tuple(y for y in range(64) if counts[y] == min(counts))


def test_exhaustive_solver_budget():
    instance = LPNInstance(SWEEP_LIMIT + 1, 0.0, ((1, 1),))
    with pytest.raises(BudgetExceeded, match=f"exceeds budget 2\\^{SWEEP_LIMIT}"):
        exhaustive_lpn_solver(instance)


class _UnbuiltExamples:
    """A sequence that has a length but whose examples were never built."""

    def __init__(self, length):
        self.length = length

    def __len__(self):
        return self.length

    def __iter__(self):
        raise AssertionError("the examples were read")

    __getitem__ = __iter__


def test_exhaustive_solver_refuses_inexact_example_counts_before_reading_them(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the sweep allocated")

    monkeypatch.setattr(np, "zeros", no_allocation)
    # an LPNInstance would read every example as it is built
    instance = SimpleNamespace(n=SWEEP_LIMIT, eta=0.1, examples=_UnbuiltExamples(EXACT_SWEEP_EXAMPLES))
    with pytest.raises(BudgetExceeded, match="2\\^24"):
        exhaustive_lpn_solver(instance)


def _brute_force_sweep(n, examples):
    """Disagreement count of every candidate secret, counted example by example."""
    y = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.int64)
    for x, b in examples:
        parity = x & y
        for shift in (8, 4, 2, 1):
            parity ^= parity >> shift
        counts += (parity & 1) != b
    return counts


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_exhaustive_solver_matches_brute_force_with_repeats_and_ties(data):
    n = data.draw(st.integers(0, 10), label="n")
    # a small pool of example vectors makes repeats and ties common
    pool = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6), label="pool")
    xs = st.sampled_from(pool) | st.integers(0, (1 << n) - 1)
    examples = tuple(data.draw(st.lists(st.tuples(xs, st.integers(0, 1)), max_size=300), label="examples"))
    counts = _brute_force_sweep(n, examples)
    ml = exhaustive_lpn_solver(LPNInstance(n, 0.1, examples))
    best = int(counts.min())
    assert ml.disagreements == best
    assert ml.ties == tuple(int(y) for y in np.flatnonzero(counts == best))
    assert ml.best == ml.ties[0]
    if not examples:
        assert ml.ties == tuple(range(1 << n))


def test_solving_embedded_dataset_equals_solving_raw():
    # threshold the embedded measurement labels back to parity bits and solve:
    # example-for-example the same instance, so the same secret comes back
    rng = substream(60, "equiv")
    instance = generate_lpn_instance(9, 500, 0.08, rng)
    embedded = make_lpn_as_state_learning(instance)
    recovered_examples = decode_state_learning_dataset(embedded, 9)
    via_embedding = exhaustive_lpn_solver(
        LPNInstance(9, instance.eta, tuple(recovered_examples))
    )
    direct = exhaustive_lpn_solver(instance)
    assert via_embedding.best == direct.best == instance.secret
