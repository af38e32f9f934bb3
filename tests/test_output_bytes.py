"""Byte-for-byte guard on the Monte Carlo, step-function, exact-law, layer and series-probe reports,
and on the Gaussian self-similarity ratio.

Each command runs in-process and the sha256 of its stdout is compared with a
recorded hash; each self-similarity ratio is compared by its ``repr``.  The
Monte Carlo and float step-function hashes were recorded before the draws moved
to raw generator words and the float step function lost its Python loops.  The exact growth tables (n <= 64, priced on the rational
walk law) and the rational indicator norm were recorded before the walk law
became a single ``Fraction`` step function and the norms one dispatch.  The
rational step-file norms, one per family, were recorded while exact step
functions still kept their data in tuples, before they moved to NumPy object
arrays.  The Kruglov series probes were recorded while every t still summed
one N-term array, before the walk moved to bounded chunks with an early stop.
The growth tables priced on walk layers (n > 64: Lorentz and Lpq up to 2^20
steps, Orlicz on odd n, Marcinkiewicz up to 2^14) were recorded while the
layers came from the whole binomial row and the four cores evaluated plain
array expressions, before the half row and the in-place cores.  Two more
walk-layer tables, Lorentz with the Gaussian generator and Lpq with (p, q) =
(1.5, 1.2), were recorded while the Lorentz and Lpq cores still took the whole
law as two arrays, before they read it as a stream of chunks.  The Orlicz
tables at p = 1 and 4, the Marcinkiewicz table with the Gaussian generator and
the ``repr`` of the Gaussian self-similarity ratios (even and odd n, so both
the squarings and the mixed products) were recorded while ``exp_lp`` clamped its
exponent at 745, the Gaussian inverse ran on the whole array and each FFT
product held its operands through the inverse transform, before those changed.
The Lorentz, Orlicz and Lpq norms of the float step file were recorded while
float step functions still merged adjacent values within 1e-15 relative,
before they merged exact ties only.  Three more Kruglov probes (a verdict set
by a t that crosses after another one in n, a stop and an N/4 point off chunk edges, and a
t of 1e-300) were recorded while the t's still walked side by side sharing
each chunk's log n!, before each t walked alone.
Those rewrites promise the same bytes, so any change in a hash here is a change of
results, not of speed.

The hashes were recorded with NumPy 2.4 on x86-64 Linux with AVX-512.  NumPy pins
the PCG64 streams and the samplers used here, but picks its float64 ``exp``, ``log``
and ``power`` kernels by CPU at import, and its AVX-512 kernels differ from glibc in
the last bit on some inputs.  Measured with those kernels off
(``NPY_DISABLE_CPU_FEATURES=X86_V4``, as on an x86-64 host without AVX-512), 9 of the
33 commands and all 6 ``repr``s move in their last digits: most values by 1-10 ulp,
some by up to 327, and a fit's q and residual, which amplify such moves, by more.  The
AVX2 and SSE4.2 classes agree on all 33 commands but not on 4 of the ``repr``s.
pytest's ``numpy exp kernel:`` header line names the class a run used.  To print the
current hashes, run ``python tests/test_output_bytes.py``.
"""

import hashlib
import json
import random
import tempfile
from pathlib import Path

import pytest

from rispaces.experiments import gaussian_selfsimilarity_check
from conftest import run_main

# a two-atom custom law: +-1.5 with equal mass
CUSTOM_CSV = "-1.5\n1.5\n"
# an exact step function given as rational strings, one piece worth zero
RATIONAL_STEP = {"breakpoints": ["0", "1/7", "2/7", "1/2", "1"], "values": ["3", "1/3", "5/2", "0"]}


def _step_file() -> dict:
    """A float step function with exact ties, zero-length pieces and near-equal chains."""
    rnd = random.Random(20240607)
    cuts = sorted(rnd.random() for _ in range(299))
    cuts[10] = cuts[11]  # a zero-length piece
    bps = [0.0, *cuts, 1.0]
    values = [rnd.expovariate(1.0) for _ in range(300)]
    values[20:24] = [values[19]] * 4  # exact ties
    for i in range(40, 60):  # a chain drifting by 0.9e-15 relative per step
        values[i] = values[39] * (1.0 + 0.9e-15 * (i - 39))
    for i in range(80, 90):  # a chain alternating around its first value
        values[i] = values[79] * (1.0 + (-1) ** i * 0.6e-15)
    return {"breakpoints": bps, "values": values}


# (id, argv); "{custom}", "{step}" and "{rational}" name files written by the test
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
    ("norm-step-lorentz", ["norm", "--space", "lorentz:power:0.5", "--step", "{step}"]),
    ("norm-step-orlicz", ["norm", "--space", "orlicz:np:2", "--step", "{step}"]),
    ("norm-step-lpq", ["norm", "--space", "lpq:2:1", "--step", "{step}"]),
    ("growth-exact-orlicz", ["growth", "--space", "orlicz:np:2", "--ns", "8,16,32,64",
                             "--seed", "0"]),
    ("growth-exact-marcinkiewicz", ["growth", "--space", "marcinkiewicz:logpow:2",
                                    "--ns", "8,16,32,64", "--seed", "0"]),
    ("norm-indicator-third", ["norm", "--space", "lpq:2:1", "--indicator", "1/3"]),
    ("norm-rational-lorentz", ["norm", "--space", "lorentz:power:0.5", "--step", "{rational}"]),
    ("norm-rational-marcinkiewicz", ["norm", "--space", "marcinkiewicz:logpow:2",
                                     "--step", "{rational}"]),
    ("norm-rational-orlicz", ["norm", "--space", "orlicz:np:2", "--step", "{rational}"]),
    ("norm-rational-lpq", ["norm", "--space", "lpq:2:1", "--step", "{rational}"]),
    ("kruglov-logpow2", ["kruglov", "--psi", "logpow:2"]),
    ("kruglov-invsqrtlog-divergent", ["kruglov", "--psi", "invsqrtlog"]),
    ("kruglov-power1-inconclusive", ["kruglov", "--psi", "power:1", "--max-terms", "8"]),
    ("kruglov-gauss-off-chunk-edges", ["kruglov", "--psi", "gauss", "--max-terms", "65539"]),
    ("kruglov-power-tiny-t", ["kruglov", "--psi", "power:0.5", "--max-terms", "16387"]),
    ("classify-invsqrtlog-kruglov", ["classify", "--psi", "invsqrtlog", "--with-kruglov"]),
    ("growth-layers-lorentz", ["growth", "--space", "lorentz:power:0.5",
                               "--ns", "16384,65536,262144,1048576"]),
    ("growth-layers-lpq", ["growth", "--space", "lpq:2:1", "--ns", "16384,65536,262144,1048576"]),
    ("growth-layers-lorentz-gauss", ["growth", "--space", "lorentz:gauss",
                                     "--ns", "16384,65536,262144,1048576"]),
    ("growth-layers-lpq-1.5-1.2", ["growth", "--space", "lpq:1.5:1.2",
                                   "--ns", "16384,65536,262144,1048576"]),
    ("growth-layers-orlicz-odd", ["growth", "--space", "orlicz:np:2", "--ns", "65,129,1025,4097"]),
    ("growth-layers-marcinkiewicz", ["growth", "--space", "marcinkiewicz:logpow:2",
                                     "--ns", "128,256,512,1024,2048,4096,8192,16384"]),
    ("growth-layers-orlicz-np1", ["growth", "--space", "orlicz:np:1",
                                  "--ns", "4096,16384,65536,262144"]),
    ("growth-layers-orlicz-np4", ["growth", "--space", "orlicz:np:4",
                                  "--ns", "4096,16384,65536,262144"]),
    ("growth-layers-marcinkiewicz-gauss", ["growth", "--space", "marcinkiewicz:gauss",
                                           "--ns", "4096,16384,65536,262144"]),
]
# every other command exits 0
EXIT_CODES = {"kruglov-power1-inconclusive": 1}

EXPECTED = {
    "mc-rademacher-odd": "5f626f6c1a03daa661cbe41f6559ca6af40a73e113dafd22a7d4c7b3332ad992",
    "mc-rademacher-even": "861b016ca25281bcb85efad161e9b1ec2ca8915b0256e6ca91ac6967c898ef55",
    "mc-signed-half": "c93aae7c950a289a1b49306658640f725f4afda32805aa770f36eb2946c81575",
    "mc-signed-third": "ea5eca0242761c73532abaab029484d8776badf8de0d6cffcf3fe5cf9a343b2f",
    "mc-gauss": "c1a3dfef6212f328f5332633907db23b2f882b1272568bbfeb325ad758f13b03",
    "mc-custom": "b6bb8b2e46972221b8b1a051c2f7f0e4430033517e5d5dec8cce8f3b4785db20",
    "growth-mc-signed": "59d5e94ef2184bb002418a45660c8d229606679939f02c92c3e708c21497954c",
    "norm-step": "267bb1a8995052536efc94c74e8e59376fc753d4e9c601949209e02655faf95e",
    "norm-step-lorentz": "d7a7b91391d98f03f3ab52d5afc3ab96735e6bebe943f32ff0bc2a14dd9a152a",
    "norm-step-orlicz": "85c4948b2337c5079cd39a86f771091f18d3d80f143f1d76af18cbfee880f5d3",
    "norm-step-lpq": "35b106c6015874ae33399af5e0b8e01b5c9358158ebded3740282ad03af019ac",
    "growth-exact-orlicz": "a8695fe223c66762168d0bc2d535b90154b495be7072b7900f59ce509de3c141",
    "growth-exact-marcinkiewicz": "58e65683e1d28535cacab06a9f8713a0bfa35faf078118954d367beee4da03f7",
    "norm-indicator-third": "2c5c6b4e9095d6f70066a5b220a5814265b3562fcb09409b509e53e38bfe13f0",
    "norm-rational-lorentz": "0124ba7266c2250ec526fa6a048276b6ed56159bf19927ea617eaae7f1035000",
    "norm-rational-marcinkiewicz": "85d855e754de320aedc49110a14e016ce3464609c2d85cad11e153a6bd891b86",
    "norm-rational-orlicz": "39a217e4f5ec39be09d926865a10ee07d2d4e67b599307050a8a57f35e2a9f89",
    "norm-rational-lpq": "9709a5a8d801ebd6e2f429acefaabbbccedbb3967256162b78bdeefa0ea99396",
    "kruglov-logpow2": "0b06ddc8ced6e63d75c30ea9dfcdf4509023ec543cf32eba2662f6c3daba034c",
    "kruglov-invsqrtlog-divergent": "1d975751146489bbed53df0c68ab00f49b44b62fbfe711f2fc81558f0ee24beb",
    "kruglov-power1-inconclusive": "45a3327b3fe828327eca1522d275ebdbc350789bf93d50d9479ff0d160de5871",
    "kruglov-gauss-off-chunk-edges": "0117a9f9bba61fdc1cb7f895e5ca0e6f57318444d9e43ded8fd9a2ee327d81dc",
    "kruglov-power-tiny-t": "e75951d7d6a48ea08a02c4627348a36bb888ac87659bd45df1c8fc7176798557",
    "classify-invsqrtlog-kruglov": "941ee652eb39fe6420ae69168d47ce54524b2ace2a79356987b7cb91b611505e",
    "growth-layers-lorentz": "47314abdd31e0bce5c3dc7f3858e33be68e27a807e6e4abac02b887cfd5797fc",
    "growth-layers-lpq": "9380ebeae6b65595b1bf4dd3962ba1134b461c373ea1b16a29124278ff4a0043",
    "growth-layers-lorentz-gauss": "e3fabb85e3e9aa7a35094ca917918e2d6b70da0539552a335877b7e065302ff4",
    "growth-layers-lpq-1.5-1.2": "a83559d3b19a27cb5393a1ad1e5c69bfed850b1f6de542413c75eb704a10385c",
    "growth-layers-orlicz-odd": "6c199c21bb68f419e98a0558dc8972a44e5c017dbe1a39118b2460acd1bf393d",
    "growth-layers-marcinkiewicz": "afa7113d249f3ab90f0eb1e537b48ebbf3c926be115bf601f6e5dfe033749049",
    "growth-layers-orlicz-np1": "9470b29ae87985f01929ab113a4b19c9778ee20459a8e6f0dc13e769d78400dd",
    "growth-layers-orlicz-np4": "61ed1d6dc21d77908191bcf025c1cfaf21c563aa5613d071d08f3196e7e956fb",
    "growth-layers-marcinkiewicz-gauss": "4a0bb1b3b59102749ee15f8eb29c8f18eb77a9050f5b758334bb593037a2e6f6",
}

# repr of gaussian_selfsimilarity_check(n, grid_size); the odd n multiply the
# running power into the result as well as squaring it
SELFSIMILARITY = {
    (2, 2**12): "1.4141699133539172",
    (3, 2**12): "1.7319577688956875",
    (5, 2**12): "2.235881729637845",
    (7, 2**12): "2.6454859384084743",
    (3, 2**16): "1.732045698639024",
    (5, 2**16): "2.236057290685284",
}


def _run(cid, argv, tmp: Path) -> bytes:
    custom, step, rational = tmp / "atoms.csv", tmp / "step.json", tmp / "rational.json"
    custom.write_text(CUSTOM_CSV)
    step.write_text(json.dumps(_step_file()))
    rational.write_text(json.dumps(RATIONAL_STEP))
    argv = [a.format(custom=custom, step=step, rational=rational) for a in argv]
    code, out, _ = run_main(*argv, "--format", "json")
    assert code == EXIT_CODES.get(cid, 0)
    return out.encode()


@pytest.mark.parametrize("cid, argv", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_report_bytes_unchanged(tmp_path, cid, argv):
    assert hashlib.sha256(_run(cid, argv, tmp_path)).hexdigest() == EXPECTED[cid]


@pytest.mark.parametrize("n, grid_size", SELFSIMILARITY, ids=[f"{n}-{g}" for n, g in SELFSIMILARITY])
def test_selfsimilarity_repr_unchanged(n, grid_size):
    assert repr(gaussian_selfsimilarity_check(n, grid_size)) == SELFSIMILARITY[n, grid_size]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        for cid, argv in COMMANDS:
            print(f'    "{cid}": "{hashlib.sha256(_run(cid, argv, Path(d))).hexdigest()}",')
    for n, grid_size in SELFSIMILARITY:
        print(f'    ({n}, {grid_size}): "{gaussian_selfsimilarity_check(n, grid_size)!r}",')
