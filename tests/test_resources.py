"""Resource-estimate formulas against a frozen high-precision oracle.

The pinned table below was computed independently with mpmath at 40
significant digits; every fractional pulse count sits well away from an
integer boundary, so the ceiled counts are compared exactly.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from blindprep.cli import CSV_HEADER, main
from blindprep.errors import EstimationError, InputError
from blindprep.resources import (
    ExperimentParams,
    ResourceRow,
    _count,
    _per_second,
    estimate,
    repetition_factor,
    sweep,
    transmittance,
)
from helpers import reference_estimate

K_PIN = 54482.32993426837691671741

# length_km -> (T, p1_lower, p1_asym, N_coded, N_direct, N_asym, ceil(k)*N_direct,
#               E_coded, E_direct_k, E_asym)
ORACLE = {
    0: (
        0.045,
        0.5307985257524424357,
        0.5562539330831108038,
        41050078,
        1627856,
        1516101,
        88690478448,
        24.360489643893003,
        0.01127516749823724,
        659.58666342150028,
    ),
    50: (
        0.0045,
        0.5232208890784010259,
        0.5495528652057817870,
        410852874,
        16630652,
        15445934,
        906087812916,
        2.4339613114158233,
        0.0011036457898950973,
        64.741957333237343,
    ),
    100: (
        0.00045,
        0.5224650806421586556,
        0.5488857289989298114,
        4108885145,
        166662923,
        154746496,
        9080296033809,
        0.24337501894324671,
        0.00011012856808595923,
        6.4621818642019526,
    ),
    200: (
        4.5e-6,
        0.5223819635008614397,
        0.5488123769900685626,
        410892439793,
        16670217571,
        15477810883,
        908243463920793,
        0.0024337269395946576,
        1.1010263654231031e-6,
        0.064608619885538629,
    ),
}


# --------------------------------------------------------------- validation ----


def test_default_params_are_consistent():
    p = ExperimentParams()
    assert p.p_mu + p.p_nu1 + p.p_nu2 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "bad",
    [
        dict(mu=0.0),
        dict(mu=1.5),
        dict(nu1=0.0),
        dict(nu1=0.7),  # above mu
        dict(nu2=0.01),  # the bound needs a vacuum second decoy
        dict(p_mu=0.5),  # probabilities no longer sum to 1
        dict(err_rate=0.0),
        dict(err_rate=1.0),
        dict(eps_fail=0.0),
        dict(successes=0),
        dict(t_source=0.0),
        dict(eta_det=1.5),
        dict(alpha_db_km=-0.1),
        dict(block_overhead=-1.0),
        dict(rep_rate_hz=0.0),
        dict(y0_dark=1.0),
        dict(successes=10**400),  # beyond float range
    ],
)
def test_parameter_validation_rejects(bad):
    with pytest.raises(InputError):
        ExperimentParams(**bad)


def test_negative_length_is_rejected():
    with pytest.raises(InputError):
        transmittance(-1.0, ExperimentParams())


# ------------------------------------------------------------------ formulas ----


@pytest.mark.parametrize("length", sorted(ORACLE))
def test_transmittance_matches_oracle(length):
    p = ExperimentParams()
    assert transmittance(length, p) == pytest.approx(ORACLE[length][0], rel=1e-12)


def _mp_p1_lower(t, p):
    """The weak+vacuum decoy bound at transmittance t, in 40-digit mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        t, y0, mu, nu1 = (mp.mpf(x) for x in (t, p.y0_dark, p.mu, p.nu1))

        def gain(x):
            return y0 + 1 - mp.exp(-x * t)

        y1 = mu / (mu * nu1 - nu1**2) * (
            gain(nu1) * mp.exp(nu1)
            - gain(mu) * mp.exp(mu) * nu1**2 / mu**2
            - (mu**2 - nu1**2) / mu**2 * y0
        )
        return y1 * mu * mp.exp(-mu) / gain(mu)


def _mp_pulses(t, p1, p):
    """The unceiled direct pulse count at transmittance t and fraction p1, in
    40-digit mpmath, checked to sit well away from an integer."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s = mp.mpf(p.successes)
        raw = (s / mp.mpf(t)) * mp.log(mp.mpf(p.eps_fail) / s) / (
            mp.mpf(p.p_mu) * mp.mpf(p.mu) * mp.log(1 - mp.mpf(p1))
        )
        assert 0.01 < raw - mp.floor(raw) < 0.99
        return int(mp.ceil(raw))


def test_gain_is_dark_yield_plus_detection():
    # Q_x = Y0 + 1 - exp(-x T) has no CSV column; it feeds p1_lower
    p = ExperimentParams(y0_dark=0.01)
    row = estimate(0.0, p)
    assert row.p1_lower == pytest.approx(float(_mp_p1_lower(row.t, p)), rel=1e-12)


@pytest.mark.parametrize("length", sorted(ORACLE))
def test_single_photon_bounds_match_oracle(length):
    # the asymptotic fraction has no CSV column; it feeds n_asym
    p = ExperimentParams()
    row = estimate(length, p)
    assert row.p1_lower == pytest.approx(ORACLE[length][1], rel=1e-12)
    assert row.n_asym == _mp_pulses(row.t, ORACLE[length][2], p)


def test_asymptotic_dominates_the_lower_bound():
    # a larger single-photon fraction needs fewer pulses
    p = ExperimentParams()
    for length in sorted(ORACLE):
        row = estimate(length, p)
        assert row.n_asym < row.n_direct


def test_asymptotic_fraction_at_unit_transmittance():
    # with Y0 = 0 and T = 1 the fraction reduces to mu e^-mu / (1 - e^-mu)
    mp = pytest.importorskip("mpmath")
    p = ExperimentParams(t_source=1.0, eta_det=1.0)
    row = estimate(0.0, p)
    assert row.t == 1.0
    with mp.workdps(40):
        mu = mp.mpf(p.mu)
        p1_inf = mu * mp.exp(-mu) / (1 - mp.exp(-mu))
    assert float(p1_inf) == pytest.approx(0.72982152909652248, rel=1e-12)
    assert row.n_asym == _mp_pulses(1.0, p1_inf, p)


def test_repetition_factor_matches_oracle():
    assert repetition_factor(ExperimentParams()) == pytest.approx(K_PIN, rel=1e-12)
    assert math.ceil(repetition_factor(ExperimentParams())) == 54483


@pytest.mark.parametrize("length", sorted(ORACLE))
def test_pulse_counts_match_oracle_exactly(length):
    p = ExperimentParams()
    row = estimate(length, p)
    _, _, _, n_coded, n_direct, n_asym, k_n_direct, _, _, _ = ORACLE[length]
    assert row.n_coded == n_coded
    assert row.n_direct == n_direct
    assert row.n_asym == n_asym
    assert row.k_n_direct == k_n_direct


@pytest.mark.parametrize("length", sorted(ORACLE))
def test_efficiencies_match_oracle(length):
    row = estimate(length, ExperimentParams())
    _, _, _, _, _, _, _, e_coded, e_direct_k, e_asym = ORACLE[length]
    assert row.e_coded == pytest.approx(e_coded, rel=1e-12)
    assert row.e_direct_k == pytest.approx(e_direct_k, rel=1e-12)
    assert row.e_asym == pytest.approx(e_asym, rel=1e-12)


def test_coded_block_overhead_is_linear_in_c():
    # N_coded - N_direct must equal ceil-free (S / T) * C to within rounding
    p = ExperimentParams()
    row = estimate(0.0, p)
    assert row.n_coded - row.n_direct == pytest.approx(
        p.successes / row.t * p.block_overhead, abs=1.0
    )


def test_efficiency_guards_positive_pulses():
    with pytest.raises(EstimationError, match="positive pulse count"):
        _per_second(0, ExperimentParams()._priced.rate)


@pytest.mark.parametrize(
    "successes",
    [
        69500,  # ceil(k) * N_d is an int beyond float range
        71500,  # k itself overflows to inf
        74500,  # (1 - e)^S underflows to 0
    ],
)
def test_huge_success_counts_raise_estimation_error(successes):
    p = ExperimentParams(successes=successes)
    with pytest.raises(EstimationError):
        estimate(0.0, p)


def test_pulses_needed_rejects_nonsense():
    for raw in (-1e12, 0.0, math.inf, math.nan):  # -1e12: a forced negative budget
        with pytest.raises(EstimationError, match="non-physical"):
            _count(raw)


# --------------------------------------------------------------- degeneracy ----


# Past ~15400 km the fiber factor 10^(-alpha L / 10) underflows float64 and
# the transmittance is exactly zero: no detected events, nothing to estimate.
OPAQUE_KM = 20000.0


def test_opaque_channel_raises():
    p = ExperimentParams()
    assert transmittance(OPAQUE_KM, p) == 0.0
    with pytest.raises(EstimationError, match="^no detected signal events at T = 0: channel is "):
        estimate(OPAQUE_KM, p)


def test_dark_counts_alone_still_give_a_bound():
    # an opaque fiber with a dark-count floor still detects *something*,
    # and both bounds stay meaningful rather than dividing by zero: the
    # estimate fails only at the T <= 0 check, which comes after them
    p = ExperimentParams(y0_dark=1e-5)
    with pytest.raises(EstimationError, match=r"^transmittance is 0\.0: channel is opaque$"):
        estimate(OPAQUE_KM, p)


def test_repetition_factor_once_one_minus_e_to_the_s_rounds_to_one():
    # (1 - e)^S and (1 - e^2)^S both round to 1.0 here, so 1 - (1 - e)^S is 0
    # in floats; mpmath at 50 digits gives the quotient
    mp = pytest.importorskip("mpmath")
    p = ExperimentParams(err_rate=1e-20)
    with mp.workdps(50):
        e, s = mp.mpf("1e-20"), p.successes
        want = mp.log(1 - (1 - e**2) ** s) / mp.log(1 - (1 - e) ** s)
    assert repetition_factor(p) == pytest.approx(float(want), rel=1e-12)
    assert estimate(0.0, p).k == repetition_factor(p)


@pytest.mark.parametrize(
    "fields, length",
    [
        ({"err_rate": 1e-200}, 0.0),  # e^2 underflows to 0
        ({"mu": 1e-200, "nu1": 1e-201}, 0.0),  # mu nu1 - nu1^2 and mu^2 underflow
        ({"y0_dark": 1e-7}, OPAQUE_KM),  # dark counts pass the bound, but T = 0
    ],
)
def test_underflowing_inputs_raise_estimation_error(fields, length):
    with pytest.raises(EstimationError):
        estimate(length, ExperimentParams(**fields))


def test_pulse_count_survives_an_underflowing_eps_over_s():
    # eps_fail / S = 1e-330 underflows to 0 in floats; e = 1e-35 keeps k finite
    mp = pytest.importorskip("mpmath")
    p = ExperimentParams(eps_fail=1e-300, successes=10**30, err_rate=1e-35)
    row = estimate(0.0, p)
    with mp.workdps(50):
        want = (p.successes / mp.mpf(row.t)) * mp.log(mp.mpf("1e-330")) / (
            mp.mpf(p.p_mu) * mp.mpf(p.mu) * mp.log(1 - mp.mpf(row.p1_lower))
        )
    assert row.n_direct == pytest.approx(float(want), rel=1e-12)


def test_sweep_marks_failed_rows_and_keeps_good_ones():
    p = ExperimentParams()
    rows = sweep([0.0, 50.0], p)
    assert [r[0] for r in rows] == [0.0, 50.0]
    assert all(row is not None and err is None for _, row, err in rows)

    rows = sweep([0.0, OPAQUE_KM], p)
    length, row, err = rows[1]
    assert rows[0][1] is not None
    assert length == OPAQUE_KM
    assert row is None
    assert "opaque" in err


# ------------------------------------------------- priced once per params ----


# name -> overrides: each reaches a different path or error of the chain
REFERENCE_PARAMS = {
    "defaults": {},
    "dark_yield": {"y0_dark": 1e-7},
    "tiny_intensities": {"mu": 1e-150, "nu1": 1e-151},  # p1 leaves (0, 1)
    # e^-mu rounds to 1, so at 0.1 km p1 passes while p1_inf rounds to 1
    "asymptotic_fraction_rounds_to_one": {"mu": 1e-18, "nu1": 5e-19},
    # eps / S underflows to 0 (the log-difference path); k stays finite
    "eps_over_s_underflows": {"eps_fail": 1e-300, "successes": 10**30, "err_rate": 1e-35},
    # as above, but (1 - e)^S underflows and k raises after the pulse counts
    "eps_over_s_underflows_k_raises": {"eps_fail": 1e-300, "successes": 10**30},
    "mu_underflows": {"mu": 1e-200, "nu1": 1e-201},  # the decoy bound's guard
    "e_squared_underflows": {"err_rate": 1e-200},
    "k_n_direct_beyond_float": {"successes": 69500},
    "k_overflows": {"successes": 71500},
    "bare_underflows": {"successes": 74500},
}
REFERENCE_LENGTHS = (0, 0.1, 50.0, 200.0, OPAQUE_KM)


def _outcome(compute):
    try:
        row = compute()
    except EstimationError as exc:
        return "error", str(exc)
    return "row", [repr(value) for value in vars(row).values()]


@pytest.mark.parametrize("length", REFERENCE_LENGTHS)
@pytest.mark.parametrize("name", sorted(REFERENCE_PARAMS))
def test_estimate_keeps_the_reference_bits(name, length):
    p = ExperimentParams(**REFERENCE_PARAMS[name])
    want = _outcome(lambda: reference_estimate(length, p))
    assert _outcome(lambda: estimate(length, p)) == want
    # a second call reads the terms the first one priced
    assert _outcome(lambda: estimate(length, p)) == want


def test_reference_grid_reaches_every_error():
    reached = set()
    for overrides in REFERENCE_PARAMS.values():
        p = ExperimentParams(**overrides)
        for length in REFERENCE_LENGTHS:
            kind, value = _outcome(lambda: reference_estimate(length, p))
            if kind == "error":
                reached.add(value)
    starts = (
        "no detected signal events",  # opaque channel
        "intensities mu",  # the decoy guard
        "single-photon bound left",  # p1 outside (0, 1)
        "asymptotic single-photon fraction left",  # p1_inf outside (0, 1)
        "transmittance is",  # dark counts pass the bound, but T = 0
        "error rate",  # e^2 underflows
        "repetition factor overflows",  # k overflows
        "pulse count is too large",  # ceil(k) N_d beyond float
    )
    assert all(any(m.startswith(start) for m in reached) for start in starts)
    assert all(m.startswith(starts) for m in reached)


def _reference_csv(lengths, p):
    lines = []
    for length in lengths:
        kind, value = _outcome(lambda: reference_estimate(float(length), p))
        cells = value if kind == "row" else [repr(float(length))] + ["NA"] * CSV_HEADER.count(",")
        lines.append(",".join(cells))
    return lines


@pytest.mark.parametrize(
    "config, overrides",
    [
        ("Y0 = 1e-7\n", REFERENCE_PARAMS["dark_yield"]),
        ("epsilon = 1e-300\nS = " + str(10**30) + "\ne = 1e-35\n",
         REFERENCE_PARAMS["eps_over_s_underflows"]),
    ],
)
def test_config_sweep_keeps_the_reference_csv(capsys, tmp_path, config, overrides):
    path = tmp_path / "params.cfg"
    path.write_text(config, encoding="utf-8")
    argv = ["resources", "--lmax", "20000", "--step", "250", "--config", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    lengths = [i * 250.0 for i in range(81)]
    assert out[1:] == _reference_csv(lengths, ExperimentParams(**overrides))
    assert out[-1].endswith(",NA")  # the grid reaches the opaque fiber


def test_replaced_params_price_their_own_terms():
    p = ExperimentParams()
    estimate(50.0, p)  # prices p's terms
    changed = dataclasses.replace(p, mu=0.5)
    fresh = ExperimentParams(mu=0.5)
    for length in REFERENCE_LENGTHS:
        assert _outcome(lambda: estimate(length, changed)) == _outcome(
            lambda: estimate(length, fresh)
        )
    assert estimate(50.0, changed) != estimate(50.0, p)


def test_pricing_leaves_eq_hash_and_repr_alone():
    p, q = ExperimentParams(y0_dark=1e-7), ExperimentParams(y0_dark=1e-7)
    before = (hash(p), repr(p))
    sweep([0.0, 50.0], p)
    assert (hash(p), repr(p)) == before
    assert p == q and hash(p) == hash(q)


@pytest.mark.parametrize(
    "overrides, needle",
    [({"successes": 71500}, "repetition factor"), ({"err_rate": 1e-200}, "squared")],
)
def test_a_raising_repetition_factor_raises_on_every_call(overrides, needle):
    p = ExperimentParams(**overrides)
    for _ in range(2):
        with pytest.raises(EstimationError, match=needle):
            estimate(0.0, p)
        with pytest.raises(EstimationError, match=needle):
            repetition_factor(p)


def test_a_row_holds_exactly_the_csv_fields():
    row = estimate(0.0, ExperimentParams())
    assert list(vars(row)) == [f.name for f in dataclasses.fields(ResourceRow)]
    assert len(vars(row)) == CSV_HEADER.count(",") + 1
