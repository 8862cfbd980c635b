"""Golden answers: the shipped configs give the recorded CSVs byte for byte
below the ``# generated`` line, so a speed-up that moves a single bit fails
here.  A change that means to move an answer regenerates the file it moves,
with the command of its entry in GOLDEN, for example

    PYTHONPATH=src python -m repliq simulate --config experiments/response_time.cfg \\
        --jobs 3000 --runs 3 --out tests/golden/response_time.csv

and names every changed file and value in CHANGES.md."""

import pathlib

import pytest

from repliq.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

SIMULATE = ["simulate", "--jobs", "3000", "--runs", "3"]
GOLDEN = {
    "example1_simulate": SIMULATE,
    "maxrate_p_sweep": SIMULATE,
    "response_time": SIMULATE,
    "mdp_k5_identical": ["mdp"],
}


def _body(data):
    head, _, body = data.partition(b"\n")
    assert head.startswith(b"# generated"), head
    return body


def test_every_golden_file_has_a_config():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_reproduces_its_golden_file(tmp_path, name):
    command, *flags = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    config = ROOT / "experiments" / f"{name}.cfg"
    assert main([command, "--config", str(config), *flags, "--out", str(out)]) == 0
    expected = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert _body(out.read_bytes()) == _body(expected)
