"""Golden bytes of the certificate and iterate outputs.

The first nine certificate digests were recorded from the scalar (pure Python
float) certificate code, and the last four from the row-by-row sweep writer.
Any change in the last bit of a printed value -- for example squaring with
x * x instead of the libm pow behind Python's x ** 2 -- changes them.
"""

import hashlib
import io

import numpy as np
import pytest

from qvisolve import FlowConfig, integrate, make_l2_example
from qvisolve import cli
from qvisolve.cli import main
from qvisolve.csvio import flow_to_csv
from qvisolve.problems import default_problem_suite
from qvisolve.core import VARIANTS

L2_20 = '{"family": "l2_example", "n": 20}'

CERTIFY = ["certify", "--L", "3", "--rho", "1", "--l", "0.1", "--lambda", "0.1"]

GOLDEN = {
    "certify-json": (
        CERTIFY,
        "146bfb4faad10910b1cf8fceb5acac614336e99e4a9cee5e62d2df86a13fcec6"),
    "certify-csv": (
        CERTIFY + ["--format", "csv"],
        "27454bff55c4022a2b4a1d5efc2cfba82434e65771dc60ae16b90ea58282b9d1"),
    "certify-beta-json": (
        CERTIFY + ["--beta", "0.2"],
        "cdaa72dd2e870b9db7d5dbee90e2c0f6aade6474dc7c5def5eb2b4f5f6494684"),
    "certify-beta-csv": (
        CERTIFY + ["--beta", "0.2", "--format", "csv"],
        "02f822395b5acbb26ca4528287b49dc33c09e416ef1e0b43448abd8e3b14b30a"),
    # at these step sizes x * x and pow(x, 2) round (lam*L)^2 (the first two)
    # or ((1+theta)(1+lam*L))^2 (the last two) differently in the last bit
    "sweep-square-rounding": (
        ["sweep", "--L", "2.5", "--rho", "0.7", "--l", "0.1",
         "--lambda-grid", "0.105683,0.195503,0.004013,0.005947"],
        "25d6778e98344c07c67f70a09ffef034247f27d82b0a9e50bd11ac13778e9cd7"),
    # l = 4 makes discrete_rhs NaN and beta = 2 makes moving_rhs NaN
    "sweep-beta": (
        ["sweep", "--L", "2.5", "--rho", "0.7", "--lambda-grid", "0.01:1.5:7",
         "--l-grid", "0:4:5", "--beta-grid", "0:2:3"],
        "9563aaf6de0a12c03f0776db6ef629b1e458115d304361ae610fea41abb47c03"),
    # each cell fails the first of the l, lambda and beta checks it breaks
    "sweep-error-cells": (
        ["sweep", "--L", "3", "--rho", "1", "--lambda-grid=-0.1,0.1",
         "--l-grid=-1,0.1", "--beta-grid=-1,0.2"],
        "4e46e360f467fbb1dc533e3e3f6da82054321462af9496f7d00ff8b60c7a0fd7"),
    "sweep-rho-above-L": (
        ["sweep", "--L", "1", "--rho", "2", "--lambda-grid", "0.1,0.2", "--l-grid", "0,0.1"],
        "ba74410ef2ae4f34ec6c6afa9ee94c7b30c342b8472091449d6ae9c52a9146f6"),
    # valid constants whose gamma = L/rho overflows: every cell reads
    # "error: gamma must be >= 1 and finite; got inf"
    "sweep-gamma-overflow": (
        ["sweep", "--L", "1", "--rho", "1e-320", "--lambda-grid", "0.1,0.2"],
        "6558faa57c33bb1fb56289a311d123478ace928f9761e20261cbd68f66f8ed95"),
    # the size of one certificate sweep of the benchmark: 40 x 10 x 10 cells
    "sweep-benchmark-size": (
        ["sweep", "--L", "2.7", "--rho", "1.3", "--lambda-grid", "0.01:1:40",
         "--l-grid", "0:0.45:10", "--beta-grid", "0:0.45:10"],
        "2d0b972ff8ee64afb48145604658cc3b6bccc38a87effd62d9c2398ce5ad618d"),
    # signed zeros and repeats on every axis; a NaN or infinite beta is an error cell
    "sweep-signed-zeros-nonfinite-beta": (
        ["sweep", "--L", "3", "--rho", "1", "--lambda-grid=-0.0,0.1,0.2",
         "--l-grid=0,-0.0,0", "--beta-grid=0,-0.0,nan,inf,0.3"],
        "1b8912a4f7a6f5f7bb5d46676f1f474efabc38c97905a81900ac33ca585e5adf"),
    # a repeated lambda, error cells on both axes, and two lambdas whose
    # solves end in numeric_failure
    "sweep-problem-grid": (
        ["sweep", "--L", "3", "--rho", "1", "--lambda-grid=0.05,-0.1,0.1,0.8,0.1,5",
         "--l-grid=0,-1,0.1,0.2", "--problem", L2_20, "--max-iter", "200"],
        "92fc06f73997be418d8158eb0c0e983671ab01a0d329f29dd3025647ee07b5ad"),
    # the solver config is rejected: every valid cell reports the error but
    # keeps its certificate columns
    "sweep-problem-config-error": (
        ["sweep", "--L", "3", "--rho", "1", "--lambda-grid=0.05,0.1",
         "--l-grid=0,0.1", "--problem", L2_20, "--tol=-1"],
        "3a9521f19b8f9602bd3b274997d2e3de236abe0e323cd72e4bc24e8b864b5d4c"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_certificate_output_bytes(capsys, name):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# ------------------------------------------------------------- iterate outputs
#
# Digests of the solve, compare and flow CSVs of every default-suite problem,
# recorded when every trace still held all of its iterates. They pin that
# keeping only the final iterate (and the flow endpoint) changes no byte.

SUITE = default_problem_suite()
START = ["--x0", "geometric", "--lambda", "0.1"]
FLOW = ["--h", "0.1", "--t-end", "3"]
ALPHA = ["--alpha", "0:1,1:0.5"]


def iterate_cases():
    cases = {}
    for i in range(len(SUITE)):
        problem = ["--problem", str(i)] + START
        for variant in VARIANTS:
            cases[f"solve-{i}-{variant}"] = ["solve", *problem, "--variant", variant]
        cases[f"compare-{i}"] = ["compare", *problem]
        for scheme in ("euler", "rk4"):
            flow = ["flow", *problem, *FLOW, "--scheme", scheme]
            cases[f"flow-{i}-{scheme}"] = flow
            cases[f"flow-{i}-{scheme}-alpha"] = flow + ALPHA
        cases[f"flow-{i}-euler-coords"] = ["flow", *problem, *FLOW, "--coords"]
    return cases


ITERATE_CASES = iterate_cases()

ITERATE_GOLDEN = {
    "solve-0-tseng":
        "55c7edf9f036b097bdc71046f1e919236cd87e2a38c0b0fd823b72f2bba6828d",
    "solve-0-gradient_projection":
        "e803e72fb4fbba9ffd5bf27fd89f6ad8577985c936eed1802d26521b2a381a01",
    "solve-0-extragradient":
        "1f199a9a64a75349d5f1319df931153d63f05fc2f2998cbc0683b3806af1f34b",
    "compare-0":
        "5c075ce9586e1ecfcfdb713e0e37e591dc52177cbd4f5388a50271c5129b57fd",
    "flow-0-euler":
        "72d408194475d0327d7763d029ce39c361fad9e9ce4626fbede52af2d74b6aa0",
    "flow-0-euler-alpha":
        "64f0cc9ba316112216e07aae88f572f4ff74f18594d71005868c3f3d72ad3248",
    "flow-0-rk4":
        "8fe2005186e85b6958a6a29a508e0a10862ab4a57008db3f3642b5759234eeeb",
    "flow-0-rk4-alpha":
        "ddea23178c18e5096e99e3070c77c56345bf9e19dbe0774a5cdb2e1a47ce456c",
    "flow-0-euler-coords":
        "2672ee8e24c88370c573400899217f4872f21f95760300e6b4d62bb78835dab2",
    "solve-1-tseng":
        "f2cce492ab1eda70f189a2d0240381bc2a8d02f21a686385ba7aa974557c3626",
    "solve-1-gradient_projection":
        "fed86222f5ed29ef6e127a1412036e3b4dd7651d612f6b31043379a685a78208",
    "solve-1-extragradient":
        "49a76d64a3accf924bfc24a36fb8919396973457feecf664c69e3e04f1f606eb",
    "compare-1":
        "93285a7da14f749855c69d783c3baf0613fddb1d6558601b64e2b82a80e7046f",
    "flow-1-euler":
        "26690334cb0bea1dfff5de32b5501223bd696831e54af9104d274a82efa00a21",
    "flow-1-euler-alpha":
        "6eadf420727225bc897220ba274f14adec2d53e309929e68072ed07d8bd2b58f",
    "flow-1-rk4":
        "d52e5407bdda2bcbeecc65f2f0932346a2ded18c451aa50efe75cfeb72e9fea7",
    "flow-1-rk4-alpha":
        "1690f73e387884a8d2c4d0fe878059f0b9c14708e257d7b1043b7cc49c487414",
    "flow-1-euler-coords":
        "3736e8f3f3cefb032a585ac2b27c0b17e730444b2985b37e11d011ad841d167b",
    "solve-2-tseng":
        "954efbfa3d1f9df12ae87419a04a28dd52dfc8785e74274a65bcbc56deb3f7cb",
    "solve-2-gradient_projection":
        "0cc6948a4960ffa3bf6dc36b324841ffb0ed24f58e47c784d7441b3d3b8cf2c7",
    "solve-2-extragradient":
        "732dd2fc5f1e4ec22c4a6a118795ec1ea2d551d309ea7228a7d6fbec353d28ff",
    "compare-2":
        "36a578ad91f4603c425a5341533cfe4a5e7806d7dd3a55bd281d8fc198eff768",
    "flow-2-euler":
        "bc9d23d575049442a226e80fe9cbc526f76f2a22388999022fa427ec5e374e20",
    "flow-2-euler-alpha":
        "3ecbb0ff3ea60418fc498cb4d1bc22abae1485d3ce5dd7f1df3a8beb311835a8",
    "flow-2-rk4":
        "c20f4855035c21f1e152b18b68c5df60c2b2c449ba8729f3d2672e973e8636a6",
    "flow-2-rk4-alpha":
        "3d384766df9d32b24b68ece805364d5222e4e7e36f6ed3d182e479498d9db40c",
    "flow-2-euler-coords":
        "336c4c110bbe26504ab04818ad37e85a72bc49edb643674f01fe029b35f57180",
    "solve-3-tseng":
        "9e59f243c1e759d10f3a5b37dc880deb6bb9aaea0d7f9b8bba2a224a41d63cea",
    "solve-3-gradient_projection":
        "deb483ba2c6bdfa19a241553740312c9d6441939bc76c0f3041ef74cba82c74a",
    "solve-3-extragradient":
        "0db8b2d4baaa3f81cee62e4fac236fdb305317fd58412e0371bce29ddde759b6",
    "compare-3":
        "be507023de0f5d94fd4d08ae01871413332835204b80b290ed019ebeaae021c0",
    "flow-3-euler":
        "65379d898421b1c93f458151cfc713cf0a7401a249d45c187b43be41400a5713",
    "flow-3-euler-alpha":
        "c3e1c592772a8ad7391aeb5a9503d9b533d53475a73dbb9fc661267697bdab73",
    "flow-3-rk4":
        "db99729d71f167fee3592036fde379ed96a0e59311672ade98ad1cc21fb00bdc",
    "flow-3-rk4-alpha":
        "c2db875204f23af08357ee5473b1ba41463d2cd30f006bd2368d24d791509d64",
    "flow-3-euler-coords":
        "18366025dce3c599e8cfe3998fa36da72cfc396df0df8db228c183ff1a162b7f",
    "solve-4-tseng":
        "9b0b49cd1a7192b4ba602c20045ec33d1a9494509db9095bf9613a23d0520527",
    "solve-4-gradient_projection":
        "74ddc0368e6683ffddd91e517e6ef24fed3fb040db5d617dd4d26004a2545e31",
    "solve-4-extragradient":
        "3ec9b51951fade4cca9d63e92c0a2f8f898ed48f0121463c8b3c1b456d749a06",
    "compare-4":
        "dd54ec42c0c555875bfd8e747e2efc69bf3efb33ead1c3fb6fb3c92e7cac3e9b",
    "flow-4-euler":
        "7a88c87d037a838d8385c6a0ce9bb7fbb010556829fd9dc86ecd2344d6385edf",
    "flow-4-euler-alpha":
        "7db5e0503a9ac85eb78c4f48616089a46e556bfd37ac68847682653b10547b5d",
    "flow-4-rk4":
        "34a6be63a337e945fa0c447a8ddd03b1fa7161cacbc54064505e0b9609a201ec",
    "flow-4-rk4-alpha":
        "6bddf554c52fc83bc58705b3ce2687a0356bedaec148b8f39d0ac857246de8ea",
    "flow-4-euler-coords":
        "2c18622a0ed782433b9368aa28d9ac8ecd838e7dce39aa5c400c3aad2a59581e",
}


def suite_problem(spec):
    return SUITE[int(spec)]


@pytest.mark.parametrize("name", list(ITERATE_CASES))
def test_iterate_output_bytes(capsys, monkeypatch, name):
    monkeypatch.setattr(cli, "load_problem", suite_problem)
    assert main(ITERATE_CASES[name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ITERATE_GOLDEN[name]


def l2_flow_csv():
    """Euler flow of l2 at n = 8192 from a dense start, the largest dim at
    which V is bitwise the same however many states are reduced together."""
    n = 8192
    trace = integrate(make_l2_example(n), 1.0 / (1.0 + np.arange(n)),
                      FlowConfig(lam=0.1, h=0.1, t_end=3))
    out = io.StringIO()
    flow_to_csv(trace, out)
    return out.getvalue()


L2_FLOW_GOLDEN = "dc390fee36782af6d697557fe5b99349de4bca3f5170679afd344f41eb4c4965"


def test_l2_flow_bytes_at_dim_8192():
    assert hashlib.sha256(l2_flow_csv().encode("utf-8")).hexdigest() == L2_FLOW_GOLDEN
