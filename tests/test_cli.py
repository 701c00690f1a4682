"""Experiment runner: determinism, config handling, exit codes."""

import copy
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

import paulisq
from paulisq.cli import (
    COMMANDS,
    ExperimentConfig,
    build_parser,
    config_from_args,
    distribution_from_descriptor,
    grid_step,
    main,
    noise_from_descriptor,
    run_experiment,
)
from paulisq.learners import EXACT_SWEEP_EXAMPLES, SWEEP_LIMIT
from paulisq.oracle import BoundedChannelNoise, ClassificationNoise, NoNoise
from paulisq.pconcept import HaarSingleQubitProduct, UniformParity, UniformPauli


def strip_meta(report):
    out = copy.deepcopy(report)
    out.pop("meta")
    return out


def test_config_round_trip():
    config = ExperimentConfig(
        experiment="learn-product", n=3, epsilon=0.25, seed=11, trials=2,
        noise={"kind": "classification", "eta": 0.1},
    )
    assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_unknown_fields_rejected():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({"experiment": "lpn", "bogus": 1})
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"n": 2})


def test_descriptor_parsing():
    assert distribution_from_descriptor({"kind": "uniform_pauli", "n": 2}) == UniformPauli(2)
    assert distribution_from_descriptor({"kind": "uniform_parity", "n": 3}) == UniformParity(3)
    assert distribution_from_descriptor({"kind": "haar_product", "n": 1}) == HaarSingleQubitProduct(1)
    d = distribution_from_descriptor({"kind": "finite", "items": [["+Z", 0.5], ["-Z", 0.5]]})
    assert sum(w for _, w in d.items) == 1.0
    assert isinstance(noise_from_descriptor(None), NoNoise)
    assert noise_from_descriptor({"kind": "classification", "eta": 0.2}) == ClassificationNoise(0.2)
    bounded = noise_from_descriptor({"kind": "bounded_channel", "eta": 0.01})
    assert isinstance(bounded, BoundedChannelNoise)
    assert bounded.eta_diamond == pytest.approx(0.02)
    with pytest.raises(ValueError):
        noise_from_descriptor({"kind": "mystery", "eta": 0.0})


def test_grid_step_properties():
    assert grid_step(0.01, 0.0) == 1.0
    for epsilon in (0.25, 0.01):
        for eta in (0.1, 0.5, 0.9):
            delta = grid_step(epsilon, eta)
            steps = round(eta / delta)
            assert steps * delta == pytest.approx(eta)  # grid lands on eta_upper
            assert delta <= (epsilon**0.5) * (1 - eta) / 2 + 1e-12


def test_learn_product_determinism_across_runs_and_jobs():
    grid = {"noise": {"kind": "depolarizing", "eta": 0.5}, "grid_search": True, "trials": 2}
    for extra in ({}, grid):
        data = {"experiment": "learn-product", "n": 2, "epsilon": 0.25, "seed": 7, "trials": 4, **extra}
        first = run_experiment(ExperimentConfig.from_dict(data))
        second = run_experiment(ExperimentConfig.from_dict(data))
        assert strip_meta(first) == strip_meta(second)
        parallel = run_experiment(ExperimentConfig.from_dict({**data, "jobs": 2}))
        first_body = strip_meta(first)
        parallel_body = strip_meta(parallel)
        first_body["config"].pop("jobs")
        parallel_body["config"].pop("jobs")
        assert first_body == parallel_body


def test_serial_runs_never_import_the_process_pool():
    src = os.path.dirname(os.path.dirname(os.path.abspath(paulisq.__file__)))
    code = "import sys, paulisq, paulisq.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_lpn_determinism():
    config = ExperimentConfig(experiment="lpn", n=10, lpn_eta=0.1, lpn_m=300, seed=3, trials=5)
    assert strip_meta(run_experiment(config)) == strip_meta(run_experiment(config))


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["noise-demo", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    capsys.readouterr()


def test_cli_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n": 2, "trials": 3, "epsilon": 0.25, "seed": 1}))
    code = main(["learn-product", "--config", str(cfg), "--seed", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["seed"] == 2  # flag overrides file
    assert report["config"]["trials"] == 3


def test_cli_parser_reads_noise_flags():
    args = build_parser().parse_args(
        ["learn-product", "--n", "2", "--noise", "classification", "--eta", "0.25"]
    )
    config = config_from_args(args)
    assert config.noise == {"kind": "classification", "eta": 0.25}


def test_sda_command_reports_exact_rationals():
    report = run_experiment(ExperimentConfig(experiment="sda", n=1, seed=0))
    assert report["passed"]
    assert report["results"]["average_correlation"] == {"num": 1, "den": 4}
    assert report["results"]["pairwise_bound"]["sda_value"] == {"num": 6, "den": 1}


def test_verify_lemmas_small_run():
    report = run_experiment(
        ExperimentConfig(experiment="verify-lemmas", n=1, seed=5, samples=50_000)
    )
    assert report["passed"]
    assert report["results"]["stabilizer_count"] == 6


def test_lpn_near_boundary_records_spectrum_without_recovery_claim():
    report = run_experiment(
        ExperimentConfig(experiment="lpn", n=8, lpn_eta=0.49, lpn_m=600, seed=4, trials=5)
    )
    assert report["passed"]  # only the bijection is asserted near the boundary
    names = [a["name"] for a in report["assertions"]]
    assert "secret_recovery_rate" not in names
    assert all("disagreement_rate" in row for row in report["results"]["trials"])


def test_learn_product_with_known_depolarizing_rate():
    report = run_experiment(
        ExperimentConfig(
            experiment="learn-product",
            n=2,
            epsilon=0.01,
            seed=6,
            trials=3,
            noise={"kind": "depolarizing", "eta": 0.5},
        )
    )
    assert report["passed"]
    assert report["results"]["max_loss"] <= 0.01


def test_learn_product_with_bounded_channel():
    report = run_experiment(
        ExperimentConfig(
            experiment="learn-product",
            n=2,
            epsilon=0.25,
            seed=6,
            trials=3,
            noise={"kind": "bounded_channel", "eta": 0.005},
        )
    )
    assert report["passed"]


@pytest.mark.parametrize("noise", [
    {"kind": "classification", "eta": 0.3},
    {"kind": "depolarizing", "eta": 0.6},
    {"kind": "bounded_channel", "eta": 0.02},
    {"kind": "malicious", "eta": 0.05},
], ids=lambda noise: noise["kind"])
def test_basis_target_queries_through_the_noise_models_correction(noise):
    # uncorrected, classification noise at 0.3 and depolarizing noise at 0.6
    # pull every answer into the dead zone of the basis learner
    report = run_experiment(
        ExperimentConfig(experiment="learn-product", n=3, target="basis", seed=2, trials=3, noise=noise)
    )
    assert report["passed"] and all(r["recovered"] and r["queries"] == 3 for r in report["results"]["trials"])


@pytest.mark.parametrize("tau, refused", [(0.5, False), (0.4, True), (0.1, True)])
def test_bounded_channel_margin_is_checked_against_the_configured_tau(tau, refused):
    # learn-product reads tau as the product learner's tolerance, and the margin 4 eta = 0.4 must stay below it
    config = {"experiment": "learn-product", "n": 2, "trials": 1, "tau": tau, "noise": {"kind": "bounded_channel", "eta": 0.1}}
    if refused:
        with pytest.raises(ValueError, match=f"margin 4 eta = 0.4 is not below the learner's tolerance {tau}"):
            ExperimentConfig.from_dict(config)
    else:
        assert run_experiment(ExperimentConfig.from_dict(config))["results"]["trials"][0]["queries"] == 6


def test_noise_demo_custom_distribution():
    report = run_experiment(
        ExperimentConfig(
            experiment="noise-demo",
            seed=2,
            distribution={"kind": "uniform_parity", "n": 2},
        )
    )
    assert report["passed"]
    assert "custom_distribution_round_trip_gap" in report["results"]


def test_lpn_instance_file_round_trip(tmp_path):
    import json as _json

    from paulisq.learners import generate_lpn_instance, lpn_instance_to_json
    from paulisq.streams import substream

    instance = generate_lpn_instance(10, 50, 0.0, substream(12, "fixture"))
    path = tmp_path / "instance.json"
    path.write_text(_json.dumps(lpn_instance_to_json(instance)))
    report = run_experiment(
        ExperimentConfig(experiment="lpn", lpn_file=str(path), seed=0, trials=1)
    )
    assert report["passed"]
    assert report["results"]["recovered"] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["learn-product", "--noise", "bogus"], "invalid choice: 'bogus'"),
        (["learn-product", "--policy", "bogus"], "invalid choice: 'bogus'"),
        (["learn-product", "--noise", "classification"], "--eta is required"),
        (["learn-product", "--noise", "classification", "--eta", "0.7"], "[0, 1/2)"),
        (["learn-product", "--trials", "0"], "trials must be at least 1"),
        (["lpn", "--n", "0"], "n must be at least 1"),
        (["lpn", "--jobs", "0"], "jobs must be at least 1"),
        (["verify-lemmas", "--n", "4"], "verify-lemmas supports n <= 3"),
        (["sda", "--n", "3"], "sda supports n <= 2"),
        (["lpn", "--n", str(SWEEP_LIMIT + 1), "--lpn-eta", "0.1"], f"noisy lpn supports n <= {SWEEP_LIMIT}"),
        (["lpn", "--n", "65"], "lpn supports n <= 64"),
        (["learn-product", "--target", "basis", "--n", "65"], "basis target supports n <= 64"),
        (["verify-lemmas", "--samples", "0"], "samples must be at least 1, got 0"),
        (["verify-lemmas", "--samples", "-5"], "samples must be at least 1, got -5"),
        (["learn-product", "--n", "2", "--eta", "0.3"], "--eta needs --noise"),
        (["learn-product", "--epsilon", "0"], "epsilon must lie in (0, 1], got 0.0"),
        (["learn-product", "--epsilon", "2"], "epsilon must lie in (0, 1], got 2.0"),
        (["lpn", "--n", "40", "--lpn-eta", "-0.1"], "lpn_eta must lie in [0, 1/2), got -0.1"),
        (["lpn", "--lpn-eta", "0.5"], "lpn_eta must lie in [0, 1/2), got 0.5"),
        (["lpn", "--lpn-m", "0"], "lpn_m must be at least 1, got 0"),
        (["lpn", "--lpn-m", "-5"], "lpn_m must be at least 1, got -5"),
        (["verify-lemmas", "--n", "1", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["lpn", "--seed", "-5"], "seed must be non-negative, got -5"),
        (["learn-product", "--n", "2", "--noise", "bounded_channel", "--eta", "0.1"],
         "bounded_channel margin 4 eta = 0.4 is not below the learner's tolerance 0.025"),
        (["learn-product", "--target", "basis", "--n", "3", "--noise", "bounded_channel", "--eta", "0.03"],
         "bounded_channel margin 4 eta = 0.12 is not below the learner's tolerance 0.0833"),
        # a margin equal to the tolerance leaves the learner nothing
        (["learn-product", "--n", "2", "--noise", "bounded_channel", "--eta", "0.00625"],
         "bounded_channel margin 4 eta = 0.025 is not below the learner's tolerance 0.025"),
    ],
)
def test_cli_rejects_bad_input_with_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("paulisq") and message in err.splitlines()[-1]


def test_basis_target_learns_at_64_qubits():
    report = run_experiment(ExperimentConfig(experiment="learn-product", target="basis", n=64, trials=1))
    assert report["passed"]
    assert report["results"]["trials"][0]["queries"] == 64


def _noisy_over_cap_file():
    from paulisq.learners import generate_lpn_instance, lpn_instance_to_json
    from paulisq.streams import substream

    instance = generate_lpn_instance(SWEEP_LIMIT + 1, 5, 0.1, substream(3, "fixture"))
    return json.dumps(lpn_instance_to_json(instance))


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file or directory"),
        ('{"n": 3, "eta": 0.0, "examples": [["0101", 1]]}', "'0101' is not an 3-bit string"),
        ('{"n": 3, "eta": 0.0, "examples": [["010", 1]', "JSONDecodeError"),
        (json.dumps({"n": 65, "eta": 0.0, "examples": [["1" * 65, 1]]}), "lpn supports n <= 64, got n = 65"),
        (_noisy_over_cap_file(), f"noisy lpn supports n <= {SWEEP_LIMIT}, got n = {SWEEP_LIMIT + 1}"),
    ],
    ids=["missing", "bad-bits", "bad-json", "n65", "noisy-over-cap"],
)
def test_lpn_file_is_checked_at_the_boundary(content, message, tmp_path, capsys):
    path = tmp_path / "instance.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(experiment="lpn", lpn_file=str(path))
    with pytest.raises(SystemExit) as exit_info:
        main(["lpn", "--lpn-file", str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("paulisq") and message in err.splitlines()[-1]


@pytest.mark.parametrize("eta", [0.0, 0.1], ids=["noiseless", "noisy"])
def test_empty_lpn_file_is_a_usage_error(eta, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 3, "eta": eta, "examples": []}))
    message = f"LPN instance {path} has no examples"
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(experiment="lpn", lpn_file=str(path))
    with pytest.raises(SystemExit) as exit_info:
        main(["lpn", "--lpn-file", str(path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if message in line] == [err.splitlines()[-1]]


@pytest.mark.parametrize("eta", [0.0, 0.1], ids=["noiseless", "noisy"])
def test_lpn_file_label_outside_0_1_is_a_usage_error(eta, tmp_path, capsys):
    path = tmp_path / "label.json"
    path.write_text(json.dumps({"n": 2, "eta": eta, "examples": [["10", 1], ["01", 2]]}))
    with pytest.raises(SystemExit) as exit_info:
        main(["lpn", "--lpn-file", str(path)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "example 1, (2, 2), lies outside [0, 2^2) x {0, 1}" in err.splitlines()[-1]


def test_noisy_lpn_example_count_is_checked_at_the_boundary(monkeypatch, capsys):
    # the float32 sweep is exact below 2^24 examples; elimination has no such bound
    import paulisq.cli as cli

    message = f"noisy lpn supports fewer than 2^24 examples, got m = {EXACT_SWEEP_EXAMPLES}"
    ExperimentConfig(experiment="lpn", n=4, lpn_eta=0.1, lpn_m=EXACT_SWEEP_EXAMPLES - 1)
    ExperimentConfig(experiment="lpn", n=4, lpn_m=EXACT_SWEEP_EXAMPLES)
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(experiment="lpn", n=4, lpn_eta=0.1, lpn_m=EXACT_SWEEP_EXAMPLES)
    # a file's example count is checked from its length; a range is never
    # built, and the stand-in is not an LPNInstance, which checks every example
    instance = SimpleNamespace(n=4, eta=0.1, examples=range(EXACT_SWEEP_EXAMPLES))
    monkeypatch.setattr(cli, "_load_lpn_instance", lambda path: instance)
    for argv in (
        ["lpn", "--n", "4", "--lpn-eta", "0.1", "--lpn-m", str(EXACT_SWEEP_EXAMPLES)],
        ["lpn", "--lpn-file", "instance.json"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("paulisq") and message in err.splitlines()[-1]


def test_noisy_lpn_recovers_the_secret_at_24_qubits():
    report = run_experiment(ExperimentConfig(experiment="lpn", n=24, lpn_eta=0.1, lpn_m=2000, seed=5, trials=1))
    assert report["passed"]
    assert report["results"]["recovered"] == 1


def test_cli_noise_none_needs_no_eta():
    args = build_parser().parse_args(["learn-product", "--noise", "none"])
    assert config_from_args(args).noise == {"kind": "none", "eta": 0.0}


@pytest.mark.parametrize(
    "data, message",
    [
        ({"trials": 0}, "trials must be at least 1"),
        ({"n": -1}, "n must be at least 1"),
        ({"jobs": 0}, "jobs must be at least 1"),
        ({"noise": {"kind": "mystery", "eta": 0.1}}, "unknown noise kind"),
        ({"noise": {"kind": "depolarizing"}}, "needs an eta"),
        ({"policy": {"kind": "mystery"}}, "unknown policy kind"),
        ({"trials": "3"}, "config field 'trials' must be int, got '3'"),
        ({"n": None}, "config field 'n' must be int, got None"),
        ({"samples": 2.5}, "config field 'samples' must be int or None, got 2.5"),
        ({"tau": 0}, "tau must be positive, got 0"),
        ({"tau": -0.5}, "tau must be positive, got -0.5"),
    ],
)
def test_config_file_rejects_bad_values(data, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict({"experiment": "learn-product", **data})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    (field,) = data
    # noise-demo once ran a zero tau as its 0.01 default; a value of the wrong
    # JSON type is refused first, and any other value of a field that the
    # subcommand does not read is refused as unread
    for command in ("learn-product", "verify-lemmas", "noise-demo"):
        read = field in COMMANDS[command].reads or message.startswith("config field")
        expected = message if read else f"experiment {command!r} does not read {field!r}"
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(cfg)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and expected in err.splitlines()[-1]


@pytest.mark.parametrize(
    "distribution, message",
    [
        ({"kind": "bogus", "n": 2}, "unknown distribution kind 'bogus'"),
        ({"kind": "uniform_pauli", "n": 0}, "needs an int n >= 1, got 0"),
        ({"kind": "finite", "items": [["Z", 0.5]]}, "weights sum to 0.5, not 1"),
        ({"kind": "haar_product"}, "'haar_product' needs an int n >= 1, got None"),
        ({"kind": "uniform_pauli", "n": 9}, "uniform_pauli distribution supports n <= 6, got n = 9"),
        ({"kind": "uniform_parity", "n": 26}, "uniform_parity distribution supports n <= 16, got n = 26"),
        ({"kind": "finite", "items": [["Z", 0.5], ["XX", 0.5]]}, "all act on one qubit count"),
        ({"kind": "finite", "items": [["Z", 2.0], ["X", -1.0]]}, "weights must lie in [0, 1], got 2.0"),
        ({"kind": "finite", "items": [["Z", float("nan")]]}, "weights must lie in [0, 1], got nan"),
    ],
    ids=["unknown-kind", "zero-qubits", "weights-sum-to-half", "haar-without-n", "pauli-over-budget",
         "parity-over-cap", "mixed-qubit-counts", "negative-weight", "nan-weight"],
)
def test_noise_demo_distribution_is_checked_at_the_boundary(distribution, message, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"distribution": distribution}))
    with pytest.raises(SystemExit) as exit_info:
        main(["noise-demo", "--config", str(cfg)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err.splitlines()[-1]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"policy": {"kind": "empirical", "samples": 40, "smaples": 3}}, "policy kind 'empirical' does not read 'smaples'"),
        ({"noise": {"kind": "depolarizing", "eta": 0.2, "etaa": 0.9}}, "noise kind 'depolarizing' does not read 'etaa'"),
        ({"policy": {"kind": "exact", "seed": 3}}, "policy kind 'exact' does not read 'seed'"),
        ({"distribution": {"kind": "uniform_parity", "n": 2, "items": []}},
         "distribution kind 'uniform_parity' does not read 'items'"),
        ({"distribution": {"kind": "finite", "items": [["Z", 1.0]], "n": 1}}, "distribution kind 'finite' does not read 'n'"),
        ({"policy": {"kind": "empirical", "samples": 2.5}}, "policy 'samples' must be int or None, got 2.5"),
        ({"policy": {"kind": "random_within_tau", "seed": "x"}}, "policy 'seed' must be int, got 'x'"),
        ({"policy": {"kind": "empirical", "seed": 1.0}}, "policy 'seed' must be int, got 1.0"),
        ({"policy": {"kind": "random_within_tau", "seed": -1}}, "within-tau seed must be non-negative, got -1"),
        ({"policy": {"kind": "empirical", "seed": -1}}, "empirical seed must be non-negative, got -1"),
        ({"noise": {"kind": "classification", "eta": "x"}}, "noise 'eta' must be float, got 'x'"),
        ({"noise": {"kind": "bounded_channel", "eta": True}}, "noise 'eta' must be float, got True"),
    ],
    ids=["empirical-typo", "depolarizing-typo", "exact-seed", "parity-items", "finite-n", "fractional-samples",
         "string-seed", "float-seed", "negative-within-tau-seed", "negative-empirical-seed", "string-eta", "bool-eta"],
)
def test_descriptor_keys_and_values_are_checked_at_the_boundary(data, message, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    command = "noise-demo" if "distribution" in data else "learn-product"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", str(cfg)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err and message in err.splitlines()[-1]


def test_descriptors_take_every_key_their_kind_reads(tmp_path, capsys):
    data = {
        "n": 1, "trials": 1, "epsilon": 0.5, "noise": {"kind": "none", "eta": 0.0},
        "policy": {"kind": "empirical", "samples": None, "seed": 3},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    assert main(["learn-product", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["policy"] == data["policy"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_one_sample_verify_lemmas_prints_strict_json(capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        main(["verify-lemmas", "--n", "1", "--samples", "1"])
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert all(row["std_error"] == 0.0 for row in report["results"]["haar_moment"])


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in-process."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("jobs, trials, workers", [(64, 2, [2]), (3, 5, [3]), (8, 1, [])])
def test_the_pool_asks_for_no_more_workers_than_trials(jobs, trials, workers, monkeypatch):
    import concurrent.futures

    from paulisq.cli import _run_trials

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "workers", [])
    config = ExperimentConfig(experiment="learn-product", trials=trials, jobs=jobs)
    rows = _run_trials(lambda config, trial: {"trial": trial}, config)
    assert rows == [{"trial": k} for k in range(trials)]
    assert _RecordingPool.workers == workers


@pytest.mark.parametrize("samples", [0, -3])
def test_empirical_policy_needs_a_sample(samples, tmp_path, capsys):
    from paulisq.oracle import EmpiricalFromSamples

    with pytest.raises(ValueError, match="empirical samples must be at least 1"):
        EmpiricalFromSamples(samples=samples)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"policy": {"kind": "empirical", "samples": samples}}))
    with pytest.raises(SystemExit) as exit_info:
        main(["learn-product", "--config", str(cfg)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "samples" in line] == [err.splitlines()[-1]]


def test_every_table_kind_parses_from_the_command_line():
    from paulisq.cli import NOISE_KINDS, POLICY_KINDS, policy_from_descriptor

    parser = build_parser()
    for kind in NOISE_KINDS:
        # a bounded channel's margin 4 eta must stay below the default tolerance 0.025
        eta = "0.0" if kind == "none" else "0.005"
        config = config_from_args(parser.parse_args(["learn-product", "--noise", kind, "--eta", eta]))
        make, _ = NOISE_KINDS[kind]
        assert type(noise_from_descriptor(config.noise)) is type(make({"kind": kind, "eta": float(eta)}))
    for kind in POLICY_KINDS:
        config = config_from_args(parser.parse_args(["learn-product", "--policy", kind]))
        assert policy_from_descriptor(config.policy, 0) is not None


def _lpn_file(tmp_path, n, m, eta, seed):
    from paulisq.learners import generate_lpn_instance, lpn_instance_to_json
    from paulisq.streams import substream

    path = tmp_path / "instance.json"
    path.write_text(json.dumps(lpn_instance_to_json(generate_lpn_instance(n, m, eta, substream(seed, "fixture")))))
    return str(path)


def test_lpn_file_is_read_once_and_jobs_agree(tmp_path, monkeypatch, capsys):
    import paulisq.cli as cli

    path = _lpn_file(tmp_path, 8, 200, 0.1, 63)
    loads = []
    original = cli.lpn_instance_from_json
    monkeypatch.setattr(cli, "lpn_instance_from_json", lambda data: loads.append(1) or original(data))
    bodies = []
    for jobs in ("1", "2"):
        main(["lpn", "--lpn-file", path, "--trials", "5", "--jobs", jobs])
        bodies.append({k: v for k, v in json.loads(capsys.readouterr().out).items() if k in ("results", "assertions")})
        if jobs == "1":
            assert len(loads) == 1
    assert bodies[0] == bodies[1]


def test_lpn_file_with_a_rate_outside_zero_to_half_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"n": 2, "eta": 0.7, "examples": [["10", 1]]}))
    with pytest.raises(SystemExit) as exit_info:
        main(["lpn", "--lpn-file", str(path)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "LPN noise rate must lie in [0, 1/2), got 0.7" in err.splitlines()[-1]


def test_lpn_file_rate_decides_the_recovery_assertion(tmp_path, capsys):
    # at eta = 0.47 recovery is not claimed, whether the rate comes from a flag or a file
    path = _lpn_file(tmp_path, 8, 400, 0.47, 64)
    assert main(["lpn", "--lpn-file", path, "--trials", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [a["name"] for a in report["assertions"]] == ["round_trip_bijection"]


@pytest.mark.parametrize(
    "flags, data",
    [
        (["--n", "9"], {"n": 9}),
        (["--lpn-m", "5"], {"lpn_m": 5}),
        (["--lpn-eta", "0.3"], {"lpn_eta": 0.3}),
    ],
    ids=["n", "lpn_m", "lpn_eta"],
)
def test_lpn_file_refuses_the_size_flags_its_instance_sets(flags, data, tmp_path, capsys):
    # each once ran on the file's 6-bit instance and recorded the flag's value
    path = _lpn_file(tmp_path, 6, 30, 0.0, 65)
    (field,) = data
    expected = f"experiment 'lpn' does not read {field!r} with an lpn_file, whose instance sets it"
    with pytest.raises(ValueError, match=re.escape(expected)):
        ExperimentConfig(experiment="lpn", lpn_file=path, **data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"lpn_file": path, **data}))
    for argv in (["lpn", "--lpn-file", path, *flags], ["lpn", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--trials", "1"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1].endswith(expected)
    # at their defaults they are taken, and the file's instance is solved
    assert main(["lpn", "--lpn-file", path, "--n", "2", "--lpn-eta", "0.0", "--trials", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["results"]["recovered"] == 1


def test_noise_demo_refuses_tau_without_a_distribution(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tau": 0.5}))
    with pytest.raises(SystemExit) as exit_info:
        main(["noise-demo", "--config", str(cfg)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].endswith("experiment 'noise-demo' does not read 'tau' without a distribution")
    # with a distribution, tau is the round trip's tolerance
    cfg.write_text(json.dumps({"tau": 0.5, "distribution": {"kind": "haar_product", "n": 2}}))
    assert main(["noise-demo", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["tau"] == 0.5 and "custom_distribution_round_trip_gap" in report["results"]


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["--target", "basis", "--epsilon", "0.9"], {"target": "basis", "epsilon": 0.9},
         "experiment 'learn-product' does not read 'epsilon' with a basis target"),
        # tau is set in a config file only
        (None, {"target": "basis", "tau": 0.1}, "experiment 'learn-product' does not read 'tau' with a basis target"),
        (None, {"noise": {"kind": "depolarizing", "eta": 0.3}, "grid_search": True, "tau": 0.5},
         "experiment 'learn-product' does not read 'tau' with grid_search, whose learners set their own tolerance"),
        (["--noise", "none", "--eta", "0.3"], {"noise": {"kind": "none", "eta": 0.3}},
         "noise kind 'none' does not read 'eta' but the 0.0 that --noise none records, got 0.3"),
    ],
    ids=["basis-epsilon", "basis-tau", "grid-search-tau", "none-eta"],
)
def test_learn_product_refuses_a_setting_its_run_does_not_read(argv, data, message, tmp_path, capsys):
    # each once exited 0 with a report that recorded the setting
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_dict({"experiment": "learn-product", **data})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    for flags in ([] if argv is None else [argv]) + [["--config", str(cfg)]]:
        with pytest.raises(SystemExit) as exit_info:
            main(["learn-product", *flags, "--trials", "1"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err and err.splitlines()[-1].endswith(message)


def test_no_noise_takes_the_eta_that_its_flag_records(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    for data in ({"kind": "none", "eta": 0.0}, {"kind": "none"}):
        cfg.write_text(json.dumps({"noise": data, "trials": 1}))
        assert main(["learn-product", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["noise"] == data
    for eta in ([], ["--eta", "0.0"]):
        assert main(["learn-product", "--noise", "none", *eta, "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["noise"] == {"kind": "none", "eta": 0.0}


_NO_SEARCH = "experiment 'learn-product' does not read 'grid_search' without depolarizing noise and a non-basis target"


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["learn-product", "--noise", "classification", "--eta", "0.1", "--grid-search"], None, _NO_SEARCH),
        (["lpn", "--grid-search"], None, "unrecognized arguments: --grid-search"),
        (["learn-product", "--target", "basis", "--noise", "depolarizing", "--eta", "0.3", "--grid-search"],
         None, _NO_SEARCH),
        (["learn-product"], {"noise": {"kind": "depolarizing", "eta": 0.3}, "grid_search": True, "eta_upper": 1.0},
         "eta_upper must lie in [0, 1), got 1.0"),
        (["learn-product"], {"noise": {"kind": "depolarizing", "eta": 0.3}, "eta_upper": 0.5},
         "experiment 'learn-product' does not read 'eta_upper' without grid_search"),
    ],
    ids=["classification", "lpn", "basis-target", "eta-upper-1", "eta-upper-without-search"],
)
def test_grid_search_options_only_where_a_search_runs(argv, data, message, tmp_path, capsys):
    if data is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data))
        argv = argv + ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err.splitlines()[-1]


SUBCOMMAND_FLAGS = {
    "verify-lemmas": ["--config", "--seed", "--out", "--n", "--samples"],
    "learn-product": ["--config", "--seed", "--out", "--n", "--trials", "--jobs", "--epsilon", "--target",
                      "--noise", "--policy", "--grid-search", "--eta"],
    "lpn": ["--config", "--seed", "--out", "--n", "--trials", "--jobs", "--lpn-m", "--lpn-eta", "--lpn-file"],
    "sda": ["--config", "--seed", "--out", "--n"],
    "noise-demo": ["--config", "--seed", "--out"],
}


def test_each_subcommand_offers_the_flags_of_the_fields_it_reads():
    import argparse

    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {
        name: [flag for action in p._actions for flag in action.option_strings if flag not in ("-h", "--help")]
        for name, p in subparsers.choices.items()
    }
    assert offered == SUBCOMMAND_FLAGS
    assert sum(map(len, offered.values())) == 33


@pytest.mark.parametrize(
    "command, unread, data",
    [
        ("verify-lemmas", ["--trials", "3"], {"trials": 3}),
        ("learn-product", ["--lpn-eta", "0.1"], {"samples": 5}),
        ("lpn", ["--noise", "depolarizing", "--eta", "0.4"], {"noise": {"kind": "depolarizing", "eta": 0.4}}),
        ("sda", ["--trials", "3"], {"jobs": 3}),
        ("noise-demo", ["--n", "5"], {"n": 5}),
    ],
)
def test_an_unread_flag_or_config_field_is_a_usage_error(command, unread, data, tmp_path, capsys):
    # each of these once ran and wrote a report whose config claimed it
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seed", "1", *unread])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == "paulisq: error: unrecognized arguments: " + " ".join(unread)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", str(cfg)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    (field,) = data
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1].endswith(f"experiment {command!r} does not read {field!r}")


def test_the_constructor_refuses_unread_fields_but_takes_their_defaults():
    with pytest.raises(ValueError, match="experiment 'lpn' does not read 'noise'"):
        ExperimentConfig(experiment="lpn", noise={"kind": "depolarizing", "eta": 0.4})
    with pytest.raises(ValueError, match="experiment 'sda' does not read 'trials'"):
        ExperimentConfig(experiment="sda", trials=7)
    # a report's config block holds every field, at its default where unread
    for name in COMMANDS:
        block = ExperimentConfig(experiment=name).to_dict()
        assert ExperimentConfig.from_dict(block) == ExperimentConfig(experiment=name)
    with pytest.raises(ValueError, match="unknown experiment 'bogus'"):
        ExperimentConfig(experiment="bogus")
