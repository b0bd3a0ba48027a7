"""End-to-end tests of the command line driver."""
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from siegelbm import (
    ConfigInvalid,
    SimConfig,
    config_from_dict,
    ensembles_equal,
    read_jsonl,
    simulate_particle_paths,
)
from siegelbm.cli import __version__, _check_comparable, check_identities, main


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


_MEAN_CURV = {
    "n": 1,
    "beta": "inf",
    "sigma0": [1.0],
    "t_final": 1.0,
    "dt": 1e-3,
    "n_paths": 1,
    "seed": 0,
    "scheme": "mean-curvature",
}


# t = 2,000 at n = 2: sum cosh passes the float range from t = 800 on
_LONG_HORIZON = {
    "n": 2,
    "beta": 2.0,
    "sigma0": [1.0, 2.0],
    "t_final": 2000.0,
    "dt": 0.5,
    "n_paths": 20,
    "seed": 3,
    "scheme": "particle",
    "sample_times": 400,
}


def test_simulate_long_horizon_summary(tmp_path, capsys):
    # the summary's sum cosh moments used to overflow into Infinity and
    # NaN, with a NaN growth rate; past the float range they are null
    cfg = _write(tmp_path, "cfg.json", _LONG_HORIZON)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "summary.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    summary = json.loads(text)
    assert np.isfinite(summary["growth"]["rate"])
    assert [r["sum_cosh_mean"] is None for r in summary["rows"]] == [False] * 4 + [True] * 7
    assert "growth rate: nan" not in capsys.readouterr().out


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__ == "0.1.0"


def test_simulate_mean_curvature(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", _MEAN_CURV)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "mean-curvature: 1 paths" in stdout
    assert (out / "trajectories.jsonl").exists()
    assert (out / "hist_sigma_1.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    final = summary["rows"][-1]
    # deterministic radial flow: cosh sigma_t = cosh(1) e^{t/2}
    np.testing.assert_allclose(
        final["coord_mean"][0], 1.5858511817917849, atol=1e-9
    )
    assert final["n_live"] == 1 and final["n_stopped"] == 0
    assert summary["events"] == []
    hist = (out / "hist_sigma_1.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count"
    assert len(hist) == 33


def test_simulate_jsonl_roundtrip(tmp_path):
    raw = {
        "n": 2,
        "beta": 2.0,
        "sigma0": [0.8, 1.6],
        "t_final": 0.05,
        "dt": 0.01,
        "n_paths": 64,
        "seed": 21,
        "scheme": "particle",
    }
    cfg = _write(tmp_path, "cfg.json", raw)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    loaded = read_jsonl(out / "trajectories.jsonl")
    direct = simulate_particle_paths(config_from_dict(raw))
    assert ensembles_equal(loaded, direct)


def test_simulate_threads_byte_identical(tmp_path):
    raw = {
        "n": 2,
        "beta": 2.0,
        "sigma0": [0.8, 1.6],
        "t_final": 0.03,
        "dt": 0.01,
        "n_paths": 600,
        "seed": 33,
        "scheme": "particle",
    }
    cfg = _write(tmp_path, "cfg.json", raw)
    for threads, sub in ((1, "one"), (4, "four")):
        rc = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / sub),
             "--threads", str(threads)]
        )
        assert rc == 0
    a = (tmp_path / "one" / "trajectories.jsonl").read_bytes()
    b = (tmp_path / "four" / "trajectories.jsonl").read_bytes()
    assert a == b


_BASE = {
    "n": 2,
    "beta": 2.0,
    "sigma0": [0.8, 1.6],
    "t_final": 0.05,
    "dt": 0.01,
    "n_paths": 4,
    "seed": 1,
    "scheme": "particle",
}

_CONFIG_ERRORS = [
    ({"n": 0}, "n"),
    ({"beta": -1.0}, "beta"),
    ({"scheme": "warp"}, "scheme"),
    ({"sigma0": [1.6, 0.8]}, "sigma0"),
    ({"dt": 0.007}, "dt"),
    ({"bogus": 1}, "bogus"),
    ({"cutoff": {"k": 1.0, "K": 1.0}, "scheme": "matrix"}, "cutoff"),
    # above the matrix scheme's disk chart ceiling 2 artanh(1 - 1e-12) ~ 28.32
    ({"scheme": "matrix", "sigma0": [20.0, 28.5]}, "sigma0"),
    # outside the cutoff's support: S(sigma0) = -10.9 is below -2k = -4
    ({"sigma0": [0.05, 0.1], "cutoff": {"k": 2.0, "K": 2.0}}, "cutoff"),
    ({"sample_times": [0.0, 0.0504]}, "sample_times"),
    # no starting frame: the matrix ensemble holds sigma alone
    ({"scheme": "matrix", "q0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, "q0"),
    ({"sigma0": [0.8]}, "sigma0"),
    ({"sigma0": [0.0, 1.6]}, "sigma0"),
    ({"scheme": "sphere-radius", "sigma0": [0.5, 1.0]}, "sigma0"),
    ({"scheme": "sphere-point", "sigma0": [-0.5]}, "sigma0"),
    ({"seed": -1}, "seed"),
    ({"seed": 2**63}, "seed"),
    ({"beta": "2"}, "beta"),
    ({"beta": True}, "beta"),
    # past the float range, so infinite
    ({"t_final": 10**400}, "t_final"),
    ({"cutoff": {"k": -1.0, "K": 1.0}}, "cutoff"),
    ({"sample_times": "0.05"}, "sample_times"),
]
# the fields that only a JSON file can hold
_JSON_ONLY = {"bogus", "q0"}
# JSON forms of a field that SimConfig does not take: an empty list, a
# stride and a cutoff object
_JSON_FORM_ERRORS = [
    ({"sample_times": []}, "sample_times"),
    ({"sample_times": 0}, "sample_times"),
    ({"sample_times": -3}, "sample_times"),
    ({"cutoff": {"k": 1.0}}, "cutoff"),
    ({"cutoff": [1.0, 2.0]}, "cutoff"),
]


@pytest.mark.parametrize("patch, fieldname", _CONFIG_ERRORS + _JSON_FORM_ERRORS)
def test_simulate_config_errors(tmp_path, capsys, patch, fieldname):
    cfg = _write(tmp_path, "cfg.json", {**_BASE, **patch})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {fieldname}:")


def test_config_that_is_not_an_object_is_refused(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", [_BASE])
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "config error: config: must be a JSON object\n"
    with pytest.raises(ConfigInvalid, match="^config: must be a JSON object"):
        config_from_dict([_BASE])


def test_cutoff_false_turns_the_default_cutoff_off():
    # a particle config at beta < 2 takes the (50, 50) cutoff unless it
    # says false
    base = dict(_BASE, beta=1.0)
    assert config_from_dict(dict(base, cutoff=None)).cutoff == (50.0, 50.0)
    assert config_from_dict(dict(base, cutoff=False)).cutoff is None


def test_dyson_start_may_be_negative():
    cfg = config_from_dict(dict(_BASE, scheme="dyson", sigma0=[-0.5, 0.5]))
    assert cfg.sigma0.tolist() == [-0.5, 0.5]


# json reads NaN, Infinity and -Infinity as floats; each is refused by name
_NON_FINITE_VALUES = [float("nan"), float("inf"), float("-inf")]
_NON_FINITE_FIELDS = [
    pytest.param("sigma0", lambda v: [0.8, v], id="sigma0-last"),
    pytest.param("sigma0", lambda v: [v, 1.6], id="sigma0-first"),
    pytest.param("gap_floor", lambda v: v, id="gap_floor"),
    pytest.param("t_final", lambda v: v, id="t_final"),
    pytest.param("dt", lambda v: v, id="dt"),
    pytest.param("sample_times", lambda v: [0.0, v], id="sample_times"),
]


@pytest.mark.parametrize("value", _NON_FINITE_VALUES, ids=str)
@pytest.mark.parametrize("fieldname, patch", _NON_FINITE_FIELDS)
def test_simulate_refuses_non_finite_numbers(tmp_path, capsys, fieldname, patch, value):
    raw = {**_BASE, fieldname: patch(value)}
    with pytest.raises(ConfigInvalid, match=f"^{fieldname}:"):
        config_from_dict(raw)
    cfg = _write(tmp_path, "cfg.json", raw)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {fieldname}:")


def _library_form(patch: dict) -> dict:
    """A JSON patch as SimConfig keyword arguments: a cutoff object becomes
    its (k, K) pair."""
    cutoff = patch.get("cutoff")
    return {**patch, "cutoff": (cutoff["k"], cutoff["K"])} if cutoff else patch


@pytest.mark.parametrize(
    "patch, fieldname",
    [case for case in _CONFIG_ERRORS if case[1] not in _JSON_ONLY]
    + [
        pytest.param({fieldname: make(value)}, fieldname, id=f"{field.id}-{value}")
        for field in _NON_FINITE_FIELDS
        for fieldname, make in [field.values]
        for value in _NON_FINITE_VALUES
    ],
)
def test_sim_config_refuses_what_the_cli_refuses(patch, fieldname):
    # one validator: a config built in code, or changed by replace, is
    # refused on the same field as the same config read from JSON
    kwargs = _library_form(patch)
    with pytest.raises(ConfigInvalid, match=f"^{fieldname}: "):
        SimConfig(**{**_BASE, **kwargs})
    with pytest.raises(ConfigInvalid, match=f"^{fieldname}: "):
        replace(SimConfig(**_BASE), **kwargs)


def test_infinite_beta_stays_legal(tmp_path):
    # 1e400 is past the float range: json reads it as infinity
    p = tmp_path / "cfg.json"
    p.write_text('{"n": 1, "beta": 1e400, "sigma0": [1.0], "t_final": 0.01, "dt": 0.01,'
                 ' "n_paths": 1, "seed": 0, "scheme": "particle"}')
    assert config_from_dict(json.loads(p.read_text())).beta == np.inf
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 0


def test_simulate_rejects_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    # a UTF-16 byte-order mark used to escape as a raw UnicodeDecodeError
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    if command == "simulate":
        argv = ["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]
    else:
        argv = _small_compare_pair(tmp_path)
        argv[argv.index("--config-b") + 1] = str(bad)
    assert main(argv) == 1
    assert capsys.readouterr().err == "config error: config: not UTF-8 text\n"
    assert not list(tmp_path.rglob("trajectories.jsonl"))


def test_simulate_missing_file_is_io_error(tmp_path, capsys):
    rc = main(
        ["simulate", "--config", str(tmp_path / "absent.json"),
         "--out", str(tmp_path / "o")]
    )
    assert rc == 3
    assert "io error" in capsys.readouterr().err


def test_compare_agreement(tmp_path, capsys):
    base = {
        "n": 1,
        "beta": 2.0,
        "sigma0": [1.2],
        "t_final": 0.05,
        "dt": 0.01,
        "n_paths": 300,
    }
    ca = _write(tmp_path, "a.json", dict(base, scheme="matrix", seed=101))
    cb = _write(tmp_path, "b.json", dict(base, scheme="particle", seed=102))
    rc = main(
        ["compare", "--config-a", ca, "--config-b", cb, "--out", str(tmp_path / "cmp")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "no distinguishable difference" in out
    assert "stopped by t: a 0/300 b 0/300: z=0.000" in out
    rep = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
    assert not rep["any_reject"]
    assert (rep["stopped_a"], rep["paths_a"], rep["stopped_b"], rep["paths_b"]) == (0, 300, 0, 300)
    assert not rep["stop_fraction"]["reject"]
    assert {rep["scheme_a"], rep["scheme_b"]} == {"matrix", "particle"}
    assert (tmp_path / "cmp" / "a" / "summary.json").exists()
    assert (tmp_path / "cmp" / "b" / "summary.json").exists()


def test_compare_detects_cutoff_bias(tmp_path, capsys):
    # the entropy cutoff rescales drift and noise, so a tight cutoff makes
    # the particle law measurably different from the matrix law
    base = {
        "n": 1,
        "beta": 2.0,
        "sigma0": [1.0],
        "t_final": 0.1,
        "dt": 0.01,
        "n_paths": 400,
    }
    ca = _write(tmp_path, "a.json", dict(base, scheme="matrix", seed=101))
    cb = _write(
        tmp_path, "b.json",
        dict(base, scheme="particle", seed=102, cutoff={"k": 0.5, "K": 0.3}),
    )
    rc = main(
        ["compare", "--config-a", ca, "--config-b", cb, "--out", str(tmp_path / "cmp")]
    )
    assert rc == 2
    assert "laws differ" in capsys.readouterr().out


def test_compare_config_mismatch(tmp_path, capsys):
    base = {
        "n": 1,
        "beta": 2.0,
        "sigma0": [1.2],
        "t_final": 0.05,
        "dt": 0.01,
        "n_paths": 20,
        "seed": 1,
    }
    ca = _write(tmp_path, "a.json", dict(base, scheme="matrix"))
    cb = _write(tmp_path, "b.json", dict(base, scheme="particle", t_final=0.1))
    rc = main(
        ["compare", "--config-a", ca, "--config-b", cb, "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    assert "t_final" in capsys.readouterr().err
    cc = _write(tmp_path, "c.json", dict(base, scheme="particle"))
    rc = main(
        ["compare", "--config-a", cc, "--config-b", cc, "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    assert "scheme" in capsys.readouterr().err


def _small_compare_pair(tmp_path):
    base = {
        "n": 1,
        "beta": 2.0,
        "sigma0": [1.2],
        "t_final": 0.05,
        "dt": 0.01,
        "n_paths": 20,
    }
    ca = _write(tmp_path, "a.json", dict(base, scheme="matrix", seed=1))
    cb = _write(tmp_path, "b.json", dict(base, scheme="particle", seed=2))
    return ["compare", "--config-a", ca, "--config-b", cb, "--out", str(tmp_path / "cmp")]


@pytest.mark.parametrize("alpha", ["0", "-1", "1.5"])
def test_compare_rejects_alpha_outside_unit_interval(tmp_path, capsys, alpha):
    rc = main(_small_compare_pair(tmp_path) + ["--alpha", alpha])
    assert rc == 1
    assert "config error: alpha:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("trajectories.jsonl"))


def test_compare_rejects_t_off_grid_before_running(tmp_path, capsys):
    rc = main(_small_compare_pair(tmp_path) + ["--t", "0.033"])
    assert rc == 1
    assert "config error: t=0.033 is not on the sample grid" in capsys.readouterr().err
    assert not list(tmp_path.rglob("trajectories.jsonl"))


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_rejects_threads_below_one(tmp_path, capsys, command, threads):
    if command == "simulate":
        argv = ["simulate", "--config", _write(tmp_path, "cfg.json", _MEAN_CURV),
                "--out", str(tmp_path / "out")]
    else:
        argv = _small_compare_pair(tmp_path)
    assert main(argv + ["--threads", threads]) == 1
    assert "config error: threads:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("trajectories.jsonl"))


def test_check_identities_cli(tmp_path, capsys):
    rc = main(["check-identities", "--n-max", "2", "--out", str(tmp_path / "idn")])
    assert rc == 0
    assert "all identities hold" in capsys.readouterr().out
    rep = json.loads((tmp_path / "idn" / "identities.json").read_text())
    assert rep["all_pass"]
    assert rep["c_n"] == [1, 5]


def test_package_runs_as_module_without_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "siegelbm", "check-identities", "--n-max", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "all identities hold" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_check_identities_rejects_large_n(capsys):
    assert main(["check-identities", "--n-max", "9"]) == 1
    assert "n_max" in capsys.readouterr().err


def test_check_identities_rejects_negative_seed(capsys):
    assert main(["check-identities", "--seed", "-1"]) == 1
    assert "config error: seed:" in capsys.readouterr().err


def test_compare_accepts_infinite_beta_on_both_sides():
    base = dict(_MEAN_CURV, n_paths=4)
    del base["scheme"]
    ca = config_from_dict(dict(base, scheme="matrix"))
    cb = config_from_dict(dict(base, scheme="particle"))
    assert ca.beta == cb.beta == np.inf
    _check_comparable(ca, cb)
    with pytest.raises(ConfigInvalid, match="beta"):
        _check_comparable(ca, config_from_dict(dict(base, scheme="particle", beta=2.0)))


# each compared field: a value that differs from _BASE's, and how the
# refusal prints the two values, as plain Python numbers
_DIFFERING = {
    "n": (1, "2 vs 1"),
    "beta": (1.0, "2.0 vs 1.0"),
    "sigma0": ([0.8, 1.7], "(0.8, 1.6) vs (0.8, 1.7)"),
    "t_final": (0.1, "0.05 vs 0.1"),
    "dt": (0.005, "0.01 vs 0.005"),
    "n_paths": (5, "4 vs 5"),
    "sample_times": ([0.0, 0.02, 0.05], "(0.0, 0.05) vs (0.0, 0.02, 0.05)"),
    "gap_floor": (1e-5, "1e-06 vs 1e-05"),
}


@pytest.mark.parametrize("name, value", [(k, v) for k, (v, _) in _DIFFERING.items()])
def test_compare_refuses_configs_that_differ(name, value):
    # every field but the scheme, the seed and the cutoff must match
    a = config_from_dict(dict(_BASE, scheme="matrix"))
    b = replace(a, scheme="particle", seed=2, cutoff=(50.0, 50.0))
    _check_comparable(a, b)
    changed = replace(b, **{name: value}, **({"sigma0": [0.8]} if name == "n" else {}))
    with pytest.raises(ConfigInvalid) as info:
        _check_comparable(a, changed)
    assert str(info.value) == f"{name}: configs must match (got {_DIFFERING[name][1]})"


def test_compare_passes_at_infinite_beta(tmp_path, capsys):
    # at beta = inf sigma is deterministic and both schemes take the same
    # mean-curvature step, so their samples agree and KS reads D = 0
    base = {"n": 2, "beta": "inf", "sigma0": [1.0, 2.0], "t_final": 0.1, "dt": 1e-3, "n_paths": 64}
    ca = _write(tmp_path, "a.json", dict(base, scheme="matrix", seed=1))
    cb = _write(tmp_path, "b.json", dict(base, scheme="particle", seed=2))
    rc = main(["compare", "--config-a", ca, "--config-b", cb, "--out", str(tmp_path / "cmp")])
    assert rc == 0, capsys.readouterr().out
    rep = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
    assert rep["tests"] and all(test["statistic"] == 0.0 for test in rep["tests"])


def test_check_identities_function():
    rep = check_identities(1, seed=7)
    names = {c["name"] for c in rep["checks"]}
    assert names == {
        "laplacian_identity",
        "drift_gradient_agreement",
        "gradient_finite_difference",
        "frame_gram",
        "cross_ratio_factorization",
        "cross_ratio_spectrum_range",
        "orbit_volume",
    }
    assert rep["all_pass"]
