"""Golden bytes of the certificate outputs.

The digests were recorded from the scalar (pure Python float) certificate
code. Any change in the last bit of a printed value -- for example squaring
with x * x instead of the libm pow behind Python's x ** 2 -- changes them.
"""

import hashlib

import pytest

from qvisolve.cli import main

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
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_certificate_output_bytes(capsys, name):
    argv, digest = GOLDEN[name]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
