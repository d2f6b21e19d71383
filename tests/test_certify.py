import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvisolve import ValidationError, certify
from qvisolve.certify import (
    Certificate,
    ProblemConstants,
    best_lambda,
    certificate_table,
    full_certificate,
)

from oracles import certificate_oracle, rel_err

EXAMPLE = ProblemConstants(L=3.0, rho=1.0, l=0.1, lam=0.1)

finite_L = st.floats(min_value=0.05, max_value=50.0)
fractions = st.floats(min_value=0.01, max_value=1.0)
small_l = st.floats(min_value=0.0, max_value=3.0)


# --------------------------------------------------------------------- theta

def test_theta_example_constants():
    # frozen from the 50-digit oracle: 0.1 + sqrt(0.89)
    assert full_certificate(EXAMPLE).theta == pytest.approx(1.0433981132056603811, rel=1e-14)


def test_theta_vanishes_at_unit_step():
    assert full_certificate(ProblemConstants(L=1.0, rho=1.0, l=0.0, lam=1.0)).theta == 0.0


def test_theta_small_lambda_limit():
    th = full_certificate(ProblemConstants(L=3.0, rho=1.0, l=0.1, lam=1e-12)).theta
    assert th == pytest.approx(1.1, abs=1e-9)


@given(finite_L, fractions, small_l, fractions)
def test_radicand_identity(L, ratio, l, lam_frac):
    rho = L * ratio
    lam = lam_frac * 3.0 / L
    c = ProblemConstants(L=L, rho=rho, l=l, lam=lam)
    direct = full_certificate(c).radicand
    via_identity = (1.0 - lam * rho) ** 2 + lam**2 * (L**2 - rho**2)
    assert direct == pytest.approx(via_identity, rel=1e-12, abs=1e-12)
    assert direct >= -1e-15


def test_radicand_minimized_at_vertex():
    # the quadratic 1 - 2 lam rho + lam^2 L^2 has its vertex at lam = rho / L^2
    L, rho = 3.0, 1.0
    vertex = rho / L**2
    at_vertex = full_certificate(ProblemConstants(L=L, rho=rho, l=0.0, lam=vertex)).radicand
    for eps in (1e-3, 1e-2, 0.1):
        for lam in (vertex - eps * vertex, vertex + eps * vertex):
            c = ProblemConstants(L=L, rho=rho, l=0.0, lam=lam)
            assert full_certificate(c).radicand >= at_vertex


# ---------------------------------------------------------- existence bounds

def uniqueness_bounds(gamma):
    """The (strict, relaxed) bounds on l: the table's existence_bound and
    nesterov_bound at L = gamma, rho = 1."""
    table = certificate_table(gamma, 1.0, 0.0, 0.1)
    return table["existence_bound"], table["nesterov_bound"]


def test_existence_bounds_values():
    assert uniqueness_bounds(1.0) == (1.0, 1.0)
    strict, relaxed = uniqueness_bounds(2.0)
    assert strict == pytest.approx(0.13397459621556135324, rel=1e-14)
    assert relaxed == 0.5
    strict, relaxed = uniqueness_bounds(3.0)
    assert strict == pytest.approx(0.057190958417936634132, rel=1e-14)
    assert relaxed == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_existence_bounds_reject_gamma_below_one():
    with pytest.raises(ValidationError):
        uniqueness_bounds(0.99)


@given(st.floats(min_value=1.0, max_value=100.0))
def test_strict_bound_below_relaxed(gamma):
    strict, relaxed = uniqueness_bounds(gamma)
    assert strict <= relaxed + 1e-15


def test_strict_bound_nonincreasing_in_gamma():
    strict, _ = uniqueness_bounds(np.linspace(1.0, 20.0, 200))
    assert np.all(np.diff(strict) <= 1e-15)


# ------------------------------------------------------------ full_certificate

def test_certificate_example_constants():
    cert = full_certificate(EXAMPLE)
    # frozen 50-digit oracle values
    assert cert.Lambda == pytest.approx(0.65641754716735849547, rel=1e-13)
    assert cert.mu == pytest.approx(-1.0614175471673584955, rel=1e-13)
    assert cert.rate_r == pytest.approx(10.179389279233362288, rel=1e-13)
    assert cert.discrete_rhs == pytest.approx(1.046948949045872028, rel=1e-13)
    assert cert.Lambda + 2.0 == pytest.approx(2.6564175471673584955, rel=1e-13)
    assert not cert.continuous_ok
    assert not cert.discrete_ok
    assert not cert.existence_ok  # l = 0.1 > 0.0572
    assert cert.nesterov_ok       # l = 0.1 <= 1/3
    assert cert.radicand_ok
    assert cert.moving_rhs is None and not cert.moving_ok


def test_certificate_small_lambda_limit():
    # theta -> 1, Lambda -> 0+, r -> 6 as lambda -> 0 with L = rho = 1, l = 0
    cert = full_certificate(ProblemConstants(L=1.0, rho=1.0, l=0.0, lam=1e-12))
    assert cert.theta == pytest.approx(1.0, abs=1e-9)
    assert cert.Lambda == pytest.approx(0.0, abs=1e-9)
    assert cert.rate_r == pytest.approx(6.0, abs=1e-9)
    assert not cert.continuous_ok
    assert not cert.discrete_ok
    assert not cert.moving_ok


def test_discrete_rhs_at_unit_l():
    cert = full_certificate(ProblemConstants(L=1.0, rho=1.0, l=1.0, lam=0.5))
    assert cert.discrete_rhs == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-15)


def test_discrete_rhs_maximized_at_unit_l():
    values = []
    for l in np.linspace(0.0, 3.0, 301):
        cert = full_certificate(ProblemConstants(L=2.0, rho=1.0, l=float(l), lam=0.1))
        values.append(cert.discrete_rhs)
    top = int(np.argmax(values))
    assert np.linspace(0.0, 3.0, 301)[top] == pytest.approx(1.0)
    assert values[top] == pytest.approx(math.sqrt(5.0) - 1.0, rel=1e-15)


def test_moving_certificate_fields():
    cert = full_certificate(ProblemConstants(L=1.0, rho=1.0, l=0.6, lam=0.5, beta=0.3))
    # 2*sqrt(1 - 0.09 + 0.3) - 1 = 2*1.1 - 1
    assert cert.moving_rhs == pytest.approx(1.2, rel=1e-15)
    # condition uses theta with l = 2*beta: (1 + 0.6 + 0.5)(1 + 0.5) = 3.15 > 1.2
    assert not cert.moving_ok


def test_certificate_matches_oracle_on_random_tuples():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        L = rng.uniform(0.1, 10.0)
        rho = L * rng.uniform(0.01, 1.0)
        l = rng.uniform(0.0, 3.0)
        lam = rng.uniform(1e-6, 3.0 / L)
        cert = full_certificate(ProblemConstants(L=L, rho=rho, l=l, lam=lam))
        ref = certificate_oracle(L, rho, l, lam)
        for name in ("gamma", "radicand", "theta", "mu", "Lambda", "rate_r",
                     "existence_bound", "nesterov_bound", "discrete_rhs"):
            assert rel_err(getattr(cert, name), ref[name]) <= 1e-12, name


def test_scalar_certificate_matches_broadcast_table():
    # full_certificate takes certificate_table's scalar path; each field has
    # the bits of the same entry of the table computed over arrays, at
    # ordinary and at overflowing magnitudes, with and without beta
    rng = np.random.default_rng(77)
    n = 2000
    L = 10.0 ** rng.uniform(-200, 200, n)
    rho = L * rng.uniform(1e-3, 1.0, n)
    l = rng.choice([0.0, 0.5, 1e200], n) * rng.uniform(0.0, 2.0, n)
    lam = 10.0 ** rng.uniform(-200, 200, n)
    beta = np.where(rng.random(n) < 0.5, np.nan, rng.uniform(0.0, 2.0, n))
    table = certify.certificate_table(L, rho, l, lam, beta)
    for i in range(n):
        b = None if math.isnan(beta[i]) else float(beta[i])
        cert = full_certificate(ProblemConstants(L=float(L[i]), rho=float(rho[i]),
                                                 l=float(l[i]), lam=float(lam[i]), beta=b))
        for name in certify._FLOAT_FIELDS + certify._FLAG_FIELDS:
            value = getattr(cert, name)
            if value is None:
                assert name == "moving_rhs" and b is None
                continue
            expected = table[name][i]
            assert np.array(value, dtype=expected.dtype).tobytes() == expected.tobytes(), (i, name)


# column -> sha256 of certificate_table's bytes over _pin_tuples(), recorded
# before certificate_table lost its numpy-scalar path. theta and moving_rhs
# hold NaNs (negative radicands), whose sign bit the digests pin too.
TABLE_DIGESTS = {
    "gamma": "93acef9b0c56f095b9c2b6d311d2773aefbae6a03ec83ea52c78834f02ccd9e7",
    "theta": "fd0d097b93ef47e9fdc74776b4ba186168ddf237c59da1e664ce9164a9c7f1ad",
    "radicand": "d7e389642e2d38dc20afa779125a05d2444e455bad8f80a7572c8a4d02ab274c",
    "mu": "1ad29ccc7eb5a7b2f0b9413dc652a97a47d2fb2b5468678fd2b270670d05ba1e",
    "Lambda": "72081c153dbf7a1059e301454f2b3ac2538a402af252607f221b1e49055db36e",
    "rate_r": "ba2d6153960b2749055726bea3ca2391b60657064f3f17009261a9dd1ebbedcb",
    "existence_bound": "e84823afea04486847067d1c4c67c61190d19f752898b6ac903ad93a73d3e33c",
    "nesterov_bound": "b60e8a1b8bb45c4226321e78cf53ffc4ef4d06944e32bf1a34ad1f90438d37d7",
    "discrete_rhs": "a9da099b8507d213742af6c8d1d47710408a692c7d1adffe79e7f9e0dc233455",
    "moving_rhs": "b16b74334ecff0596e5d348b91c7faaf44b629609e3d962552b045674e806d01",
    "f_lipschitz": "027d14b8a944d3c5923ff5cbe2f5fe4481f0ed44c62c54bb648f6c7bf8489e1c",
    "existence_ok": "a117f56bf0acb24620d9515814bdec6dde19295e602e05879959b4e4ef757339",
    "nesterov_ok": "a6946c3931a17941d9b1b90aef89c60fd0c5c6f437d5135ca6c4860175272643",
    "continuous_ok": "28b4f41a7f3ee6d8cc87272db6e09c6d3566551fd4d18702b041a21658272a85",
    "discrete_ok": "28b4f41a7f3ee6d8cc87272db6e09c6d3566551fd4d18702b041a21658272a85",
    "moving_ok": "28b4f41a7f3ee6d8cc87272db6e09c6d3566551fd4d18702b041a21658272a85",
    "radicand_ok": "d99a6f78258037f1afc38d01f116dd809e3ec94c67adafb44d0b4fb510b3197c",
}
# field -> sha256 of the full_certificate values over the same tuples, each
# value hashed as np.array(value).tobytes() and None as b"None". A field holds
# its table column's bits, so the digests are the table's, except moving_rhs:
# None where beta is NaN.
CERTIFICATE_DIGESTS = {
    **{name: TABLE_DIGESTS[name] for name in certify._FLOAT_FIELDS + certify._FLAG_FIELDS},
    "moving_rhs": "7177542a1f278e3cce7b9478c882d0d8e5b84ff8366e25045f826aa627599c8a",
}


def _pin_tuples(n=20_000):
    """Seeded valid tuples: L and lambda over 10^+-300, l at five scales (0,
    1e-300 up to 1e200), beta NaN (no moving set) or in [0, 2), which gives a
    NaN moving_rhs above the golden ratio."""
    rng = np.random.default_rng(14)
    L = 10.0 ** rng.uniform(-300.0, 300.0, n)
    rho = L * rng.uniform(1e-3, 1.0, n)
    l = rng.choice([0.0, 0.1, 1.0, 1e200, 1e-300], n) * rng.uniform(0.0, 2.0, n)
    lam = 10.0 ** rng.uniform(-300.0, 300.0, n)
    beta = np.where(rng.random(n) < 0.5, np.nan, rng.uniform(0.0, 2.0, n))
    return L, rho, l, lam, beta


def test_table_columns_pinned():
    table = certificate_table(*_pin_tuples())
    assert {name: hashlib.sha256(col.tobytes()).hexdigest()
            for name, col in table.items()} == TABLE_DIGESTS


def test_full_certificate_fields_pinned():
    hashes = {name: hashlib.sha256() for name in CERTIFICATE_DIGESTS}
    for L, rho, l, lam, beta in zip(*(a.tolist() for a in _pin_tuples())):
        cert = full_certificate(ProblemConstants(L, rho, l, lam,
                                                 None if math.isnan(beta) else beta))
        for name, h in hashes.items():
            value = getattr(cert, name)
            h.update(b"None" if value is None else np.array(value).tobytes())
    assert {name: h.hexdigest() for name, h in hashes.items()} == CERTIFICATE_DIGESTS


def test_rate_below_one_implies_positive_mu():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        L = rng.uniform(0.1, 10.0)
        rho = L * rng.uniform(0.01, 1.0)
        l = rng.uniform(0.0, 3.0)
        lam = rng.uniform(1e-6, 3.0 / L)
        cert = full_certificate(ProblemConstants(L=L, rho=rho, l=l, lam=lam))
        if cert.rate_r < 1.0:
            assert cert.mu > 0.0


def test_discrete_flag_matches_threshold_form():
    # discrete_ok iff (1+theta)(1+lam L) < discrete_rhs (for l in the range
    # where the threshold is real)
    rng = np.random.default_rng(77)
    for _ in range(500):
        L = rng.uniform(0.1, 10.0)
        rho = L * rng.uniform(0.01, 1.0)
        l = rng.uniform(0.0, 3.0)
        lam = rng.uniform(1e-6, 3.0 / L)
        cert = full_certificate(ProblemConstants(L=L, rho=rho, l=l, lam=lam))
        product = (1.0 + cert.theta) * (1.0 + lam * L)
        assert cert.discrete_ok == (product < cert.discrete_rhs)


def test_uniqueness_flags_at_unit_gamma():
    # l = 0 satisfies both uniqueness bounds even in the degenerate gamma = 1
    # limiting case (where only the convergence flags are false)
    cert = full_certificate(ProblemConstants(L=1.0, rho=1.0, l=0.0, lam=1e-12))
    assert cert.existence_ok and cert.nesterov_ok and cert.radicand_ok


def test_condition_equivalence_on_random_tuples():
    # [(1+theta)(1+lam L) + 1]^2 < 4 - l^2 + 2 l  iff  (1+theta)^2 (1+lam L)^2 < 2 mu
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        L = rng.uniform(0.1, 10.0)
        rho = L * rng.uniform(0.01, 1.0)
        l = rng.uniform(0.0, 3.0)
        lam = rng.uniform(1e-6, 3.0 / L)
        c = ProblemConstants(L=L, rho=rho, l=l, lam=lam)
        th = full_certificate(c).theta
        mu = 0.5 - l * l / 2.0 - th + l - lam * L - lam * L * th
        product = (1.0 + th) * (1.0 + lam * L)
        squared_form = (product + 1.0) ** 2 < 4.0 - l * l + 2.0 * l
        mu_form = product**2 < 2.0 * mu
        assert squared_form == mu_form


# ----------------------------------------------------------------- validation

def test_constants_validation_messages():
    with pytest.raises(ValidationError, match="rho exceeds L"):
        ProblemConstants(L=1.0, rho=2.0, l=0.0, lam=0.1)
    with pytest.raises(ValidationError):
        ProblemConstants(L=1.0, rho=1.0, l=-0.1, lam=0.1)
    with pytest.raises(ValidationError):
        ProblemConstants(L=1.0, rho=1.0, l=0.0, lam=0.0)
    with pytest.raises(ValidationError):
        ProblemConstants(L=1.0, rho=1.0, l=0.0, lam=0.1, beta=-1.0)
    with pytest.raises(ValidationError, match="gamma must be >= 1 and finite, got inf"):
        ProblemConstants(L=1.0, rho=1e-320, l=0.0, lam=0.1)


def test_constant_errors_give_each_cell_its_first_failed_check():
    # gamma = 1e10 / 1e-320 overflows, so every cell fails at least that check
    errors = certify.constant_errors(1e10, 1e-320, [0.1, -1.0], [0.0, math.nan], [None, -1.0])
    assert errors.shape == (2, 2, 2)
    lam_ok, lam_bad = errors
    assert lam_ok[0, 0].startswith("gamma")
    assert lam_ok[0, 1].startswith("beta")
    assert lam_bad[0, 1].startswith("lambda")  # lambda comes before beta
    assert all(cell.startswith("l must") for cell in errors[:, 1].ravel())  # l before lambda
    for (i, j, k), error in np.ndenumerate(errors):
        lam, l, beta = (0.1, -1.0)[i], (0.0, math.nan)[j], (None, -1.0)[k]
        with pytest.raises(ValidationError) as exc:
            ProblemConstants(L=1e10, rho=1e-320, l=l, lam=lam, beta=beta)
        assert str(exc.value) == error
    assert np.equal(certify.constant_errors(3.0, 1.0, [0.1], [0.0, 0.1], [None]), None).all()


def test_certificate_serialization_round_trip():
    cert = full_certificate(ProblemConstants(L=3.0, rho=1.0, l=0.1, lam=0.1, beta=0.2))
    text = json.dumps(cert.to_dict())
    again = Certificate.from_dict(json.loads(text))
    assert again == cert


@pytest.mark.parametrize("name,value,message", [
    ("discrete_ok", "false", "discrete_ok must be true or false, got 'false'"),
    ("radicand_ok", 1, "radicand_ok must be true or false, got 1"),
    ("moving_ok", None, "moving_ok must be true or false, got None"),
    ("theta", True, "theta must be a number, got True"),
    ("theta", "abc", "theta must be a number, got 'abc'"),
    ("gamma", [1], r"gamma must be a number, got \[1\]"),
    ("moving_rhs", "1.2", "moving_rhs must be a number, got '1.2'"),
])
def test_certificate_from_dict_rejects_a_bad_field(name, value, message):
    doc = full_certificate(EXAMPLE).to_dict()
    doc[name] = value
    with pytest.raises(ValidationError, match="^certificate field " + message):
        Certificate.from_dict(doc)


@pytest.mark.parametrize("name", certify._FLOAT_FIELDS + certify._FLAG_FIELDS)
def test_certificate_from_dict_rejects_a_missing_field(name):
    doc = full_certificate(EXAMPLE).to_dict()
    del doc[name]
    with pytest.raises(ValidationError, match=f"^certificate field {name} is missing$"):
        Certificate.from_dict(doc)


# ---------------------------------------------------------------- best_lambda

def test_best_lambda_identity_constants():
    lam, cert = best_lambda(1.0, 1.0, 0.0, grid=10001)
    upper = 20.0
    assert 0.0 < lam <= upper
    assert cert.rate_r >= 1.0
    # brute force over the same documented grid
    grid = np.geomspace(upper * 1e-6, upper, 10001)
    rates = [full_certificate(ProblemConstants(L=1.0, rho=1.0, l=0.0, lam=float(g))).rate_r
             for g in grid]
    assert min(rates) >= 1.0
    best = int(np.argmin(rates))
    assert lam == pytest.approx(float(grid[best]), rel=1e-15)
    assert cert.rate_r == pytest.approx(rates[best], rel=1e-15)


def test_best_lambda_example_constants():
    lam, cert = best_lambda(3.0, 1.0, 0.1, grid=1001)
    assert 0.0 < lam <= 20.0 / 9.0
    assert math.isfinite(cert.rate_r)
    assert cert.rate_r >= 1.0


def test_best_lambda_rejects_small_grid():
    with pytest.raises(ValidationError):
        best_lambda(1.0, 1.0, 0.0, grid=1)


def test_best_lambda_deterministic():
    a = best_lambda(2.0, 0.5, 0.05, grid=501)
    b = best_lambda(2.0, 0.5, 0.05, grid=501)
    assert a[0] == b[0] and a[1] == b[1]


@pytest.mark.parametrize("L,rho,l", [
    (1e-200, 1e-200, 0.0),  # L*L underflows to 0
    (5e-324, 5e-324, 0.0),
    (1e200, 1.0, 0.0),  # L*L overflows: the grid end is 0
    (1e150, 1e-20, 0.0),  # the grid end is positive, 1e-6 of it is 0
    (0.0, 1.0, 0.0),
    (1.0, 2.0, 0.0),  # rho > L
    (1.0, 1.0, -0.1),
    (math.nan, 1.0, 0.0),
    (1.0, math.nan, 0.0),
    (1.0, 1.0, math.nan),
])
def test_best_lambda_rejects_bad_constants(L, rho, l):
    with pytest.raises(ValidationError):
        best_lambda(L, rho, l)


@pytest.mark.parametrize("L,rho,l,lam_hex,rate_hex", [
    (3.0, 1.0, 0.1, "0x1.2a42f961f79b9p-19", "0x1.9ae279f546a1ap+2"),
    (1.0, 1.0, 0.0, "0x1.4f8b588e368f0p-16", "0x1.8001f74edf12ap+2"),
    (2.7, 0.9, 0.3, "0x1.4b66dc33f6acdp-19", "0x1.d8535677cc7a8p+2"),
])
def test_best_lambda_frozen_bits(L, rho, l, lam_hex, rate_hex):
    # recorded from the per-lambda scalar loop this grid search replaced
    lam, cert = best_lambda(L, rho, l)
    assert (lam.hex(), cert.rate_r.hex()) == (lam_hex, rate_hex)


@pytest.mark.parametrize("rates", [
    [math.nan, 3.0, 1.0, math.nan, 1.0],
    [2.0, math.nan, 1.0, 1.0, math.nan],
    [2.0, 2.0, math.nan, 3.0, 2.0],
    [1.0, math.nan, math.nan, math.nan, math.nan],
])
def test_best_lambda_pick_matches_scalar_loop(monkeypatch, rates):
    # the pick of a scan that keeps a rate only when it is < the best so far
    best = 0
    for i, r in enumerate(rates):
        if r < rates[best]:
            best = i
    real = certify.certificate_table

    def with_rates(*args):
        table = real(*args)
        table["rate_r"] = np.array(rates)
        return table

    monkeypatch.setattr(certify, "certificate_table", with_rates)
    lam, cert = best_lambda(1.0, 1.0, 0.0, grid=len(rates))
    assert lam == np.geomspace(20.0 * 1e-6, 20.0, len(rates))[best]
    assert cert.rate_r == rates[best] or (math.isnan(rates[best]) and math.isnan(cert.rate_r))


def test_certificate_overflow_is_infinite_not_an_error():
    # (lam*L)^2 overflows; the radicand and theta are then +inf
    cert = full_certificate(ProblemConstants(L=1.0, rho=1.0, l=0.0, lam=1e200))
    assert cert.radicand == math.inf and cert.theta == math.inf
    assert not (cert.continuous_ok or cert.discrete_ok)
