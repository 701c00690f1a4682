"""Golden reports: `results` and `assertions` of small seeded runs, pinned
exactly.

The fixture covers every noise kind, every response policy, the basis
target, the noise-rate grid search, LPN with and without noise, `sda` and
`noise-demo`.  A refactor of the oracle or the runner must leave every
report bit-identical.  To re-record after a deliberate change to reports,
run `PYTHONPATH=src python tests/test_golden_reports.py --write`; it prints
the names of the reports whose body changed.
"""

import json
import pathlib
import re
import shlex
import sys
from dataclasses import fields

import pytest

from paulisq.cli import COMMANDS, ExperimentConfig, build_parser, config_from_args, main, run_experiment

FIXTURE = pathlib.Path(__file__).with_name("golden_reports.json")
WORKFLOW = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"

_PRODUCT = {"experiment": "learn-product", "n": 2, "epsilon": 0.25, "seed": 3, "trials": 2}


def _product(**extra) -> dict:
    return {**_PRODUCT, **extra}


def _empirical(noise: dict | None) -> dict:
    return _product(trials=1, noise=noise, policy={"kind": "empirical", "samples": 40})


def _basis(**extra) -> dict:
    # a basis target reads no epsilon
    return {key: value for key, value in _product(n=3, target="basis", **extra).items() if key != "epsilon"}


CONFIGS = {
    "product-none": _product(noise={"kind": "none", "eta": 0.0}),
    "product-classification": _product(noise={"kind": "classification", "eta": 0.2}),
    "product-depolarizing": _product(noise={"kind": "depolarizing", "eta": 0.5}),
    "product-bounded-channel": _product(noise={"kind": "bounded_channel", "eta": 0.005}),
    "product-malicious": _product(noise={"kind": "malicious", "eta": 0.05}),
    "policy-exact": _product(policy={"kind": "exact"}),
    "policy-random-within-tau": _product(
        noise={"kind": "classification", "eta": 0.1}, policy={"kind": "random_within_tau"}
    ),
    "policy-adversarial": _product(
        noise={"kind": "depolarizing", "eta": 0.3}, policy={"kind": "adversarial"}
    ),
    "empirical-none": _empirical(None),
    "empirical-classification": _empirical({"kind": "classification", "eta": 0.2}),
    "empirical-depolarizing": _empirical({"kind": "depolarizing", "eta": 0.5}),
    "empirical-bounded-channel": _empirical({"kind": "bounded_channel", "eta": 0.005}),
    "empirical-malicious": _empirical({"kind": "malicious", "eta": 0.3}),
    "target-basis": _basis(policy={"kind": "adversarial"}),
    "target-basis-classification": _basis(noise={"kind": "classification", "eta": 0.1}),
    "target-pure-bounded-tau": _product(
        target="pure", tau=0.1, noise={"kind": "bounded_channel", "eta": 0.01}
    ),
    "grid-search": _product(
        trials=1, grid_search=True, noise={"kind": "depolarizing", "eta": 0.5}
    ),
    "lpn-noiseless": {"experiment": "lpn", "n": 8, "seed": 5, "trials": 3},
    "lpn-noisy": {"experiment": "lpn", "n": 6, "lpn_eta": 0.1, "lpn_m": 150, "seed": 5, "trials": 3},
    "sda-n1": {"experiment": "sda", "n": 1, "seed": 0},
    "noise-demo": {"experiment": "noise-demo", "seed": 2},
    "noise-demo-parity": {
        "experiment": "noise-demo", "seed": 2, "distribution": {"kind": "uniform_parity", "n": 2},
    },
    "verify-lemmas-n1": {"experiment": "verify-lemmas", "n": 1, "seed": 4, "samples": 2000},
}


def _body(config: dict) -> dict:
    report = run_experiment(ExperimentConfig.from_dict(config))
    # a JSON round trip, so that tuples compare equal to the stored lists
    return json.loads(json.dumps({k: report[k] for k in ("results", "assertions")}))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_config(golden):
    assert sorted(golden) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(golden, name):
    assert _body(CONFIGS[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_block_run_through_the_cli_reproduces_the_report(golden, name, tmp_path, capsys):
    # the block holds every field, unread ones at their defaults, which --config takes
    block = run_experiment(ExperimentConfig.from_dict(CONFIGS[name]))["config"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(block))
    main([block["experiment"], "--config", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert report["config"] == block
    assert {k: report[k] for k in ("results", "assertions")} == golden[name]


class _RecordingConfig(ExperimentConfig):
    """An ExperimentConfig that adds the name of each attribute read to
    `read`, once the test sets it after construction."""

    def __getattribute__(self, name):
        read = object.__getattribute__(self, "__dict__").get("read")
        if read is not None:
            read.add(name)
        return object.__getattribute__(self, name)


def _smoke_configs() -> dict:
    """The config of each report that the CI smoke step writes, by its command line."""
    commands = re.findall(r'python -m paulisq (.+?) > "\$RUNNER_TEMP/[\w-]+\.json"', WORKFLOW.read_text())
    return {argv: config_from_args(build_parser().parse_args(shlex.split(argv))).to_dict() for argv in commands}


def test_the_smoke_step_is_found():
    assert len(_smoke_configs()) == 12


@pytest.mark.parametrize("data", [*CONFIGS.values(), *_smoke_configs().values()], ids=[*CONFIGS, *_smoke_configs()])
def test_every_recorded_setting_is_read(data):
    # serial, so that every trial reads the one recording config
    config = _RecordingConfig.from_dict({**data, "jobs": 1})
    config.read = set()
    COMMANDS[data["experiment"]].run(config)
    read = set(config.read)
    # the instance is what __post_init__ read from the file
    if "lpn_instance" in read:
        read.add("lpn_file")
    unread = [
        f.name for f in fields(ExperimentConfig)
        if f.name not in read | {"experiment"} and getattr(config, f.name) != f.default
    ]
    assert unread == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    bodies = {k: _body(v) for k, v in CONFIGS.items()}
    FIXTURE.write_text(json.dumps(bodies, indent=1) + "\n")
    changed = [k for k in bodies if old.get(k) != bodies[k]]
    print(f"changed: {', '.join(changed)}" if changed else "no report changed")
