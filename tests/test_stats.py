"""Tests for the KS machinery and ensemble summaries."""
import json

import numpy as np
import pytest

from siegelbm import (
    EmptySample,
    PathEnsemble,
    ShapeMismatch,
    compare_ensembles,
    ks_two_sample,
    moment_report,
)
from siegelbm.stats import exact_sum_cosh_mean


def _ensemble(samples, beta=2.0, times=None, stopped_at=None, reasons=None):
    samples = np.asarray(samples, dtype=float)
    n, m, d = samples.shape
    if times is None:
        times = np.linspace(0.0, 1.0, m)
    if stopped_at is None:
        stopped_at = np.full(n, np.nan)
    if reasons is None:
        reasons = [None] * n
    return PathEnsemble(
        meta={"dim": d, "beta": beta},
        times=np.asarray(times, dtype=float),
        samples=samples,
        stopped_at=np.asarray(stopped_at, dtype=float),
        stop_reason=list(reasons),
        rejections=np.zeros(n, dtype=np.int64),
    )


def test_ks_identical_samples():
    x = np.array([0.1, 0.5, 0.9, 1.4])
    res = ks_two_sample(x, x.copy())
    assert res.statistic == 0.0
    assert not res.reject


def test_ks_disjoint_samples():
    res = ks_two_sample(np.arange(50), np.arange(50) + 100.0, alpha=0.01)
    assert res.statistic == 1.0
    assert res.reject


def test_ks_known_statistic_and_threshold():
    # interleaved steps: the empirical cdfs differ by exactly 1/3
    res = ks_two_sample([1.0, 2.0, 3.0], [1.5, 2.5, 3.5], alpha=0.05)
    np.testing.assert_allclose(res.statistic, 1.0 / 3.0, atol=1e-15)
    c = np.sqrt(-0.5 * np.log(0.05 / 2.0))
    np.testing.assert_allclose(res.threshold, c * np.sqrt(6.0 / 9.0), rtol=1e-12)
    assert res.n_x == 3 and res.n_y == 3


def test_ks_result_to_dict():
    res = ks_two_sample([1.0, 2.0], [1.0, 2.0], alpha=0.02)
    d = res.to_dict()
    assert d == {
        "statistic": res.statistic,
        "threshold": res.threshold,
        "reject": res.reject,
        "alpha": 0.02,
        "n_x": 2,
        "n_y": 2,
    }


def test_ks_errors():
    with pytest.raises(EmptySample):
        ks_two_sample([], [1.0])
    with pytest.raises(EmptySample):
        ks_two_sample([1.0], [])
    with pytest.raises(ValueError):
        ks_two_sample([1.0], [2.0], alpha=0.0)
    with pytest.raises(ValueError):
        ks_two_sample([1.0], [2.0], alpha=1.0)


def test_ks_calibration_under_null():
    # same-law pairs should reject at roughly the nominal rate; with 200
    # repetitions at alpha = 0.01 anything past 6 rejections signals a
    # miscalibrated threshold (measured 4 with this seed)
    rng = np.random.default_rng(909)
    rej = sum(
        ks_two_sample(
            rng.standard_normal(5000), rng.standard_normal(5000), alpha=0.01
        ).reject
        for _ in range(200)
    )
    assert 0 <= rej <= 6


def test_compare_identical_ensembles():
    rng = np.random.default_rng(5)
    samples = np.abs(rng.standard_normal((300, 2, 2))) + 0.5
    samples.sort(axis=-1)
    a = _ensemble(samples)
    b = _ensemble(samples.copy())
    rep = compare_ensembles(a, b, alpha=0.01)
    assert rep["t"] == 1.0
    assert rep["per_test_alpha"] == pytest.approx(0.01 / 4.0)
    assert rep["n_a"] == 300 and rep["n_b"] == 300
    assert rep["paths_a"] == rep["paths_b"] == 300 and rep["stopped_a"] == rep["stopped_b"] == 0
    names = [r["name"] for r in rep["tests"]]
    assert names == ["sigma_1", "sigma_2", "sum_cosh"]
    assert all(r["statistic"] == 0.0 for r in rep["tests"])
    assert not rep["any_reject"]


def test_compare_detects_shifted_law():
    rng = np.random.default_rng(6)
    base = np.abs(rng.standard_normal((2000, 2, 1))) + 0.5
    a = _ensemble(base)
    b = _ensemble(base + 0.4)
    rep = compare_ensembles(a, b, alpha=0.01)
    assert rep["any_reject"]


def test_compare_respects_requested_time():
    rng = np.random.default_rng(7)
    base = np.abs(rng.standard_normal((500, 2, 1))) + 0.5
    other = base.copy()
    other[:, 1, :] += 5.0
    rep = compare_ensembles(_ensemble(base), _ensemble(other), alpha=0.01, t=0.0)
    assert rep["t"] == 0.0
    assert not rep["any_reject"]


def test_compare_skips_stopped_paths():
    rng = np.random.default_rng(8)
    base = np.abs(rng.standard_normal((400, 2, 1))) + 0.5
    wrecked = base.copy()
    wrecked[:100, 1, :] = np.nan
    stopped = np.full(400, np.nan)
    stopped[:100] = 0.5
    reasons = ["chamber-exit"] * 100 + [None] * 300
    a = _ensemble(base)
    b = _ensemble(wrecked, stopped_at=stopped, reasons=reasons)
    rep = compare_ensembles(a, b, alpha=0.01)
    assert rep["n_a"] == 400 and rep["n_b"] == 300
    # the survivors agree in law, but a quarter of b's paths are lost
    assert not any(test["reject"] for test in rep["tests"])
    assert (rep["paths_a"], rep["stopped_a"], rep["paths_b"], rep["stopped_b"]) == (400, 0, 400, 100)
    assert rep["stop_fraction"]["reject"] and rep["any_reject"]


def _with_stops(samples, stopped):
    samples = samples.copy()
    samples[:stopped, 1:, :] = np.nan
    stopped_at = np.full(samples.shape[0], np.nan)
    stopped_at[:stopped] = 0.5
    return _ensemble(samples, stopped_at=stopped_at,
                     reasons=["chamber-exit"] * stopped + [None] * (samples.shape[0] - stopped))


def test_stop_fraction_test_statistic():
    base = np.abs(np.random.default_rng(12).standard_normal((100, 2, 1))) + 0.5
    rep = compare_ensembles(_with_stops(base, 10), _with_stops(base, 20), alpha=0.01)
    stops = rep["stop_fraction"]
    # pooled p = 0.15: z = (0.1 - 0.2) / sqrt(0.15 * 0.85 * (1/100 + 1/100))
    assert stops["statistic"] == pytest.approx(0.1 / np.sqrt(0.15 * 0.85 * 0.02), rel=1e-12)
    # dim + 2 = 3 tests share alpha = 0.01
    assert stops["alpha"] == rep["per_test_alpha"] == pytest.approx(0.01 / 3.0)
    # the two-sided normal quantile at 0.01 / 3
    assert stops["threshold"] == pytest.approx(2.935199469, rel=1e-9)
    assert not stops["reject"]
    assert (rep["stopped_a"], rep["stopped_b"]) == (10, 20)


def test_stop_fraction_without_stops_does_not_reject():
    base = np.abs(np.random.default_rng(13).standard_normal((50, 2, 1))) + 0.5
    rep = compare_ensembles(_ensemble(base), _ensemble(base + 1e-3), alpha=0.01)
    assert rep["stop_fraction"]["statistic"] == 0.0
    assert not rep["stop_fraction"]["reject"]
    assert (rep["stopped_a"], rep["stopped_b"]) == (0, 0)


def test_compare_names_the_empty_sample_time():
    rng = np.random.default_rng(11)
    base = np.abs(rng.standard_normal((50, 3, 1))) + 0.5
    wrecked = base.copy()
    wrecked[:, 1:, :] = np.nan
    b = _ensemble(wrecked, stopped_at=np.full(50, 0.25), reasons=["chamber-exit"] * 50)
    with pytest.raises(EmptySample, match=r"no surviving paths at sample time t=0\.5$"):
        compare_ensembles(_ensemble(base), b, t=0.5)


def test_compare_shape_mismatches():
    rng = np.random.default_rng(9)
    a = _ensemble(np.abs(rng.standard_normal((50, 2, 1))))
    with pytest.raises(ShapeMismatch):
        compare_ensembles(a, _ensemble(np.abs(rng.standard_normal((50, 2, 2)))))
    with pytest.raises(ShapeMismatch):
        compare_ensembles(
            a, _ensemble(np.abs(rng.standard_normal((50, 2, 1))), times=[0.0, 2.0])
        )
    with pytest.raises(ShapeMismatch):
        compare_ensembles(
            a, _ensemble(np.abs(rng.standard_normal((50, 2, 1))), beta=4.0)
        )
    with pytest.raises(ShapeMismatch):
        compare_ensembles(
            a, _ensemble(np.abs(rng.standard_normal((50, 2, 1)))), t=0.37
        )


def test_compare_infinite_beta_matches():
    rng = np.random.default_rng(10)
    base = np.abs(rng.standard_normal((50, 2, 1)))
    a = _ensemble(base, beta=np.inf)
    b = _ensemble(base.copy(), beta=np.inf)
    assert not compare_ensembles(a, b)["any_reject"]


def test_moment_report_structure():
    # two paths, one stops after the first sample; growth rate of an exact
    # exponential in mean sum cosh should be recovered by the fit
    times = np.array([0.0, 0.5, 1.0])
    samples = np.full((2, 3, 2), np.nan)
    samples[0] = [[0.5, 1.0], [0.6, 1.1], [0.7, 1.2]]
    samples[1, 0] = [0.5, 1.0]
    stopped = np.array([np.nan, 0.25])
    rep = moment_report(
        _ensemble(samples, times=times, stopped_at=stopped, reasons=[None, "domain-exit"])
    )
    assert rep["n_paths"] == 2
    assert rep["stop_reasons"] == {"domain-exit": 1}
    assert [r["n_live"] for r in rep["rows"]] == [2, 1, 1]
    assert [r["n_stopped"] for r in rep["rows"]] == [0, 1, 1]
    row0 = rep["rows"][0]
    np.testing.assert_allclose(row0["coord_mean"], [0.5, 1.0])
    np.testing.assert_allclose(
        row0["sum_cosh_mean"], np.cosh(0.5) + np.cosh(1.0), rtol=1e-12
    )
    assert row0["sum_cosh_se"] == 0.0
    assert row0["min_sigma1"] == 0.5
    np.testing.assert_allclose(row0["min_gap"], 0.5, atol=1e-15)
    assert "growth" in rep and "rate" in rep["growth"]


def test_moment_report_growth_rate():
    # mean sum cosh grown as e^{0.75 t} exactly: the fitted rate matches
    times = np.linspace(0.0, 1.0, 5)
    sig = np.arccosh(np.exp(0.75 * times))
    samples = sig[None, :, None].repeat(3, axis=0)
    rep = moment_report(_ensemble(samples, times=times))
    np.testing.assert_allclose(rep["growth"]["rate"], 0.75, rtol=1e-10)
    assert rep["rows"][0]["min_gap"] is None


def test_moment_report_empty_growth():
    samples = np.array([[[0.4]]])
    rep = moment_report(_ensemble(samples, times=[0.0]))
    assert "growth" not in rep
    assert rep["rejections"] == 0


def _log_sum_cosh(sig):
    """log sum cosh over the last axis as log sum e^{+-sigma} - log 2."""
    return np.logaddexp.reduce(np.concatenate([sig, -sig], axis=-1), axis=-1) - np.log(2.0)


def test_moment_report_past_the_float_range():
    # five paths of sigma = (1, c + u), |u| < 1/2: sum cosh and its moments
    # are finite at c = 300; its squares overflow at c = 400; its sum
    # overflows at c = 709 while its mean does not; its mean passes the
    # float range at c = 800
    rng = np.random.default_rng(5)
    centres = np.array([1.0, 300.0, 400.0, 709.0, 800.0])
    samples = np.stack([np.ones((5, 5)), centres + rng.uniform(-0.5, 0.5, (5, 5))], axis=-1)
    rep = moment_report(_ensemble(samples, times=np.arange(5.0)))
    rows = rep["rows"]
    for j in (0, 1):
        # nothing overflows: the direct formulas, bit for bit
        sum_cosh = np.sum(np.cosh(samples[:, j]), axis=-1)
        assert rows[j]["sum_cosh_mean"] == float(np.mean(sum_cosh))
        assert rows[j]["sum_cosh_se"] == float(np.std(sum_cosh, ddof=1) / np.sqrt(5))
    # scaling by a power of two is exact, so it gives the reference moments
    for j in (2, 3):
        scaled = np.sum(np.ldexp(np.cosh(samples[:, j]), -600), axis=-1)
        assert rows[j]["sum_cosh_mean"] == pytest.approx(np.ldexp(np.mean(scaled), 600), rel=1e-12)
        se = np.ldexp(np.std(scaled, ddof=1) / np.sqrt(5), 600)
        assert rows[j]["sum_cosh_se"] == pytest.approx(se, rel=1e-12)
    assert rows[4]["sum_cosh_mean"] is None and rows[4]["sum_cosh_se"] is None
    # the growth fit runs on log means that do not overflow
    log_means = [np.logaddexp.reduce(_log_sum_cosh(samples[:, j])) - np.log(5) for j in range(5)]
    assert rep["growth"]["rate"] == pytest.approx(np.polyfit(np.arange(5.0), log_means, 1)[0], rel=1e-12)
    json.dumps(rep, allow_nan=False)


def test_compare_sum_cosh_past_the_float_range():
    # sigma near 1,000, where sum cosh overflows: the KS test on it sees
    # the order of log sum cosh
    rng = np.random.default_rng(6)
    xa, xb = (1000.0 + np.cumsum(np.abs(rng.standard_normal((40, 1, 2))), axis=-1) for _ in range(2))
    test = compare_ensembles(_ensemble(xa), _ensemble(xb + 0.3))["tests"][-1]
    ref = ks_two_sample(_log_sum_cosh(xa[:, 0]), _log_sum_cosh(xb[:, 0] + 0.3), alpha=test["alpha"])
    assert test["name"] == "sum_cosh" and test["statistic"] == ref.statistic > 0


def test_compare_sum_cosh_keeps_its_statistic():
    # where sum cosh is finite, its log orders the paths as it does
    rng = np.random.default_rng(7)
    xa, xb = (np.cumsum(np.abs(rng.standard_normal((200, 1, 3))), axis=-1) for _ in range(2))
    test = compare_ensembles(_ensemble(xa), _ensemble(xb))["tests"][-1]
    ref = ks_two_sample(np.sum(np.cosh(xa[:, 0]), axis=-1), np.sum(np.cosh(xb[:, 0]), axis=-1), alpha=test["alpha"])
    assert test["statistic"] == ref.statistic


def test_exact_sum_cosh_mean():
    # e^{(n/2 + 1/beta) t} sum cosh sigma_0; at beta = inf and n = 1 it is
    # the deterministic flow's cosh sigma_t = cosh sigma_0 e^{t/2}
    assert exact_sum_cosh_mean([1.0], np.inf, 0.5) == pytest.approx(np.cosh(1.0) * np.exp(0.25), rel=1e-15)
    assert exact_sum_cosh_mean((0.1, 0.2), 1.0, 0.5) == pytest.approx(
        (np.cosh(0.1) + np.cosh(0.2)) * np.exp(1.0), rel=1e-15
    )
    assert exact_sum_cosh_mean(np.array([0.5, 1.0, 1.5]), 2.0, 0.0) == pytest.approx(
        np.sum(np.cosh([0.5, 1.0, 1.5])), rel=1e-15
    )
