"""Byte-for-byte guard on the Monte Carlo, step-function and exact-law reports.

Each command runs in-process and the sha256 of its stdout is compared with a
recorded hash.  The Monte Carlo and float step-function hashes were recorded
before the draws moved to raw generator words and the float step function lost
its Python loops.  The exact growth tables (n <= 64, priced on the rational
walk law) and the rational indicator norm were recorded before the walk law
became a single ``Fraction`` step function and the norms one dispatch.  Those
rewrites promise the same bytes, so any change in a hash here is a change of
results, not of speed.

The hashes were recorded with NumPy 2.4 on x86-64 Linux.  NumPy pins the PCG64
streams and the samplers used here, but the float norms pass through libm, so
another platform may differ in the last bit.  To print the current hashes, run
``python tests/test_output_bytes.py``.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from rispaces.cli import main

# a two-atom custom law: +-1.5 with equal mass
CUSTOM_CSV = "-1.5\n1.5\n"


def _step_file() -> dict:
    """A float step function with exact ties, zero-length pieces and near-equal chains."""
    rnd = random.Random(20240607)
    cuts = sorted(rnd.random() for _ in range(299))
    cuts[10] = cuts[11]  # a zero-length piece
    bps = [0.0, *cuts, 1.0]
    values = [rnd.expovariate(1.0) for _ in range(300)]
    values[20:24] = [values[19]] * 4  # exact ties
    for i in range(40, 60):  # a chain drifting by under one tolerance per step
        values[i] = values[39] * (1.0 + 0.9e-15 * (i - 39))
    for i in range(80, 90):  # a chain alternating around its anchor
        values[i] = values[79] * (1.0 + (-1) ** i * 0.6e-15)
    return {"breakpoints": bps, "values": values}


# (id, argv); "{custom}" and "{step}" name files written by the test
COMMANDS = [
    ("mc-rademacher-odd", ["mc", "--space", "orlicz:np:2", "--sampler", "rademacher",
                           "--n", "7", "--trials", "2001", "--m", "256", "--seed", "5"]),
    ("mc-rademacher-even", ["mc", "--space", "lpq:2:1", "--sampler", "rademacher",
                            "--n", "64", "--trials", "3000", "--m", "512", "--seed", "6"]),
    ("mc-signed-half", ["mc", "--space", "lorentz:power:0.5", "--sampler", "signed:0.5",
                        "--n", "33", "--trials", "2001", "--m", "256", "--seed", "7"]),
    ("mc-signed-third", ["mc", "--space", "marcinkiewicz:logpow:2",
                         "--sampler", "signed:0.3333333333333333",
                         "--n", "16", "--trials", "2000", "--m", "256", "--seed", "8"]),
    ("mc-gauss", ["mc", "--space", "marcinkiewicz:gauss", "--sampler", "gauss",
                  "--n", "9", "--trials", "2000", "--m", "2000", "--seed", "9"]),
    ("mc-custom", ["mc", "--space", "orlicz:np:1", "--sampler", "custom:{custom}",
                   "--n", "5", "--trials", "1999", "--m", "256", "--seed", "10"]),
    ("growth-mc-signed", ["growth", "--space", "lpq:1.5:1.2", "--mode", "mc",
                          "--sampler", "signed:0.25", "--ns", "8,16,32,64",
                          "--trials", "2000", "--m", "256", "--seed", "11"]),
    ("norm-step", ["norm", "--space", "marcinkiewicz:logpow:2", "--step", "{step}"]),
    ("growth-exact-orlicz", ["growth", "--space", "orlicz:np:2", "--ns", "8,16,32,64",
                             "--seed", "0"]),
    ("growth-exact-marcinkiewicz", ["growth", "--space", "marcinkiewicz:logpow:2",
                                    "--ns", "8,16,32,64", "--seed", "0"]),
    ("norm-indicator-third", ["norm", "--space", "lpq:2:1", "--indicator", "1/3"]),
]

EXPECTED = {
    "mc-rademacher-odd": "5f626f6c1a03daa661cbe41f6559ca6af40a73e113dafd22a7d4c7b3332ad992",
    "mc-rademacher-even": "861b016ca25281bcb85efad161e9b1ec2ca8915b0256e6ca91ac6967c898ef55",
    "mc-signed-half": "c93aae7c950a289a1b49306658640f725f4afda32805aa770f36eb2946c81575",
    "mc-signed-third": "ea5eca0242761c73532abaab029484d8776badf8de0d6cffcf3fe5cf9a343b2f",
    "mc-gauss": "c1a3dfef6212f328f5332633907db23b2f882b1272568bbfeb325ad758f13b03",
    "mc-custom": "b6bb8b2e46972221b8b1a051c2f7f0e4430033517e5d5dec8cce8f3b4785db20",
    "growth-mc-signed": "59d5e94ef2184bb002418a45660c8d229606679939f02c92c3e708c21497954c",
    "norm-step": "267bb1a8995052536efc94c74e8e59376fc753d4e9c601949209e02655faf95e",
    "growth-exact-orlicz": "a8695fe223c66762168d0bc2d535b90154b495be7072b7900f59ce509de3c141",
    "growth-exact-marcinkiewicz": "58e65683e1d28535cacab06a9f8713a0bfa35faf078118954d367beee4da03f7",
    "norm-indicator-third": "2c5c6b4e9095d6f70066a5b220a5814265b3562fcb09409b509e53e38bfe13f0",
}


def _run(argv, tmp: Path) -> bytes:
    custom, step = tmp / "atoms.csv", tmp / "step.json"
    custom.write_text(CUSTOM_CSV)
    step.write_text(json.dumps(_step_file()))
    argv = [a.format(custom=custom, step=step) for a in argv] + ["--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("cid, argv", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_report_bytes_unchanged(tmp_path, cid, argv):
    assert hashlib.sha256(_run(argv, tmp_path)).hexdigest() == EXPECTED[cid]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        for cid, argv in COMMANDS:
            print(f'    "{cid}": "{hashlib.sha256(_run(argv, Path(d))).hexdigest()}",')
