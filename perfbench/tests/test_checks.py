"""Self-tests of the benchmark's references and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Every check must pass on the program's real output and fail on a
deliberately corrupted copy of it.  Kept out of the tier-1 suite, which
collects only tests/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import dkpscatter as dk

import checks
import reference
import workloads

ROOT = Path(__file__).resolve().parents[2]


# --- references ---------------------------------------------------------

@pytest.mark.parametrize("a,b,energy", [(5.0, 3.0, 1e8), (5.0, 0.01, 1e4),
                                        (500.0, 1.0, 2.5), (5.0, 1e6, 2.5)])
def test_elementary_form_matches_gamma_form(a, b, energy):
    elem = reference.rt_elementary(a, b, 1.0, energy, dps=60)
    gamma = reference.rt_gamma(a, b, 1.0, energy, dps=60)
    for x, y in zip(elem, gamma):
        assert abs(x - y) <= mp.mpf("1e-25") * abs(y)


def test_reference_waves_solve_the_field_equation():
    a, b, m, energy, x = 5.0, 3.0, 1.0, 2.5, 0.3
    with mp.workdps(30):
        waves = {k: reference.wave(k, a, b, m, energy, x)
                 for k in workloads.PROFILE_KINDS}
        # incident + reflected = transmitted
        assert abs(waves["incident"] + waves["reflected"] - waves["transmitted"]) < 1e-25
        for kind in workloads.PROFILE_KINDS:
            d2 = mp.diff(lambda t: reference.wave(kind, a, b, m, energy, t), x, 2)
            w = energy - a * mp.tanh(b * mp.mpf(x))
            assert abs(d2 + (w * w - m * m) * waves[kind]) < 1e-20


def test_band_labels():
    assert [checks.band(3.0, 1.0, e) for e in (5.0, 3.0, 0.0, -3.0, -5.0)] == \
        ["I", "II", "III", "IV", "V"]
    assert checks.band(3.0, 1.0, 4.0 + 5e-10) == "boundary"


# --- closed form: point and spectrum ------------------------------------

def _flipped_mu(a, b, m, energy):
    """R and T with the sign of mu flipped before the connection
    coefficients, as `dkpscatter verify --flip-mu-sign` does."""
    k = dk.kinematics(dk.Potential(a, b), dk.Particle(m), energy)
    k = k._replace(mu=-k.mu)
    coeffs = dk.connection_coefficients(k)
    refl = abs(coeffs.C / coeffs.A) ** 2
    return refl, (k.mu.real / k.nu.real) / abs(coeffs.A) ** 2


def _point_flagged(a, b, m, energy, region, refl, trans):
    bad, _ = checks.check_rt_table(a, m, energy, region, refl, trans, refl + trans - 1.0)
    return bool(bad) or not checks.rt_error(a, b, m, energy, refl, trans) \
        <= checks.REFERENCE_TOL


@pytest.mark.parametrize("energy", [5.5, 1.0, -1.5, -6.5])
def test_point_checks(energy):
    a, b, m = 3.0, 1.7, 1.0
    res = dk.scattering_coefficients(dk.Potential(a, b), dk.Particle(m), energy)
    assert not _point_flagged(a, b, m, energy, res.region.token, res.R, res.T)
    assert _point_flagged(a, b, m, energy, res.region.token, *_flipped_mu(a, b, m, energy))
    assert _point_flagged(a, b, m, energy, res.region.token, res.R + 1e-6, res.T)
    wrong = "III" if res.region.token != "III" else "I"
    assert _point_flagged(a, b, m, energy, wrong, res.R, res.T)


def test_point_evanescent_band_must_be_exact():
    a, m = 3.0, 1.0
    assert not checks.check_rt_table(a, m, 3.0, "II", 1.0, 0.0, 0.0)[0]
    assert checks.check_rt_table(a, m, 3.0, "II", 1.0 + 1e-12, 0.0, 1e-12)[0]
    assert checks.check_rt_table(a, m, -3.0, "IV", 1.0, 1e-300, 1e-300)[0]


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    rng = np.random.default_rng(7)
    op = workloads.WORKLOADS["spectrum"].round(rng)[0]
    op = dict(op, steps=241)      # the same construction, coarser grid
    out = str(tmp_path_factory.mktemp("sweep") / "sweep.csv")
    ctx = workloads.Context(str(Path(out).parent))
    rc, stderr = ctx.run_cli(
        ["sweep", "--a", repr(op["a"]), "--b", repr(op["b"]), "--m", repr(op["m"]),
         "--emin", repr(op["emin"]), "--emax", repr(op["emax"]),
         "--steps", str(op["steps"]), "--out", out])
    assert rc == 0
    table, errors = checks.parse_sweep(out)
    assert not errors
    return op, table, stderr


def _sweep_flagged(op, table, stderr):
    if checks.check_sweep(op, table, stderr):
        return True
    return any(not checks.rt_error(op["a"], op["b"], op["m"], e, r, t)
               <= checks.REFERENCE_TOL
               for e, r, t in zip(table["E"], table["R"], table["T"]))


def _edited(table, column, i, delta=None, drop=False):
    table = {k: v.copy() for k, v in table.items()}
    if drop:
        return {k: np.delete(v, i) for k, v in table.items()}
    table[column][i] += delta
    return table


def test_sweep_passes_and_skips_thresholds(sweep):
    op, table, stderr = sweep
    assert not _sweep_flagged(op, table, stderr)
    assert len(table["E"]) == op["steps"] - 4
    assert stderr.count("skipping") == 4
    assert set(table["region"]) == {"I", "II", "III", "IV", "V"}


@pytest.mark.parametrize("region", ["I", "II", "III", "IV", "V"])
@pytest.mark.parametrize("column", ["E", "R", "T", "D"])
def test_sweep_value_moved(sweep, region, column):
    op, table, stderr = sweep
    i = list(table["region"]).index(region) + 3
    assert _sweep_flagged(op, _edited(table, column, i, 1e-6), stderr)


@pytest.mark.parametrize("where", [0, 100, -1])
def test_sweep_row_dropped(sweep, where):
    op, table, stderr = sweep
    assert _sweep_flagged(op, _edited(table, None, where, drop=True), stderr)


def test_sweep_flipped_mu(sweep):
    op, table, stderr = sweep
    table = {k: v.copy() for k, v in table.items()}
    for i, region in enumerate(table["region"]):
        if region in ("I", "III", "V"):
            refl, trans = _flipped_mu(op["a"], op["b"], op["m"], table["E"][i])
            table["R"][i], table["T"][i] = refl, trans
            table["D"][i] = refl + trans - 1.0
    assert _sweep_flagged(op, table, stderr)


def test_spectrum_failing_slice_is_seed_independent():
    spectrum = workloads.WORKLOADS["spectrum"]
    first = spectrum.round(np.random.default_rng(1))
    second = spectrum.round(np.random.default_rng(2))
    assert [op["expect_fail"] for op in first] == [op["expect_fail"] for op in second]
    assert [op for op in first if op["expect_fail"]] == \
        [op for op in second if op["expect_fail"]]


# --- oracle -------------------------------------------------------------

def test_oracle_checks():
    op = {"a": 5.0, "b": 3.0, "m": 1.0, "E": 2.5}
    res = dk.numeric_rt(dk.Potential(5.0, 3.0), dk.Particle(1.0), 2.5)
    out = {"R": res.R, "T": res.T, "D": res.unitarity_defect, "steps": res.steps}
    errors, err = checks.check_oracle(op, out)
    assert not errors and err < 1e-8
    refl, trans = _flipped_mu(5.0, 3.0, 1.0, 2.5)
    assert checks.check_oracle(op, dict(out, R=refl, T=trans, D=refl + trans - 1.0))[0]
    assert checks.check_oracle(op, dict(out, R=out["R"] + 2e-6, D=out["D"] + 2e-6))[0]
    assert checks.check_oracle(op, dict(out, D=out["D"] + 1e-6))[0]


# --- waves --------------------------------------------------------------

@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    rng = np.random.default_rng(11)
    op = workloads.WORKLOADS["profile"].round(rng)[1]       # a band III wave
    ctx = workloads.Context(str(tmp_path_factory.mktemp("profile")))
    out = workloads.WORKLOADS["profile"].execute(op, ctx)
    waves = {}
    for kind, res in out["waves"].items():
        assert res["rc"] == 0
        waves[kind], errors = checks.parse_wave(res["csv"])
        assert not errors
    return op, waves


def _wave_flagged(op, kind, wave, row):
    return bool(checks.check_wave(op, kind, wave)) or \
        not checks.wave_reference_error(op, kind, wave, [row]) <= checks.REFERENCE_TOL


def _changed(wave, key, i, delta):
    wave = {k: v.copy() for k, v in wave.items()}
    wave[key][i] += delta
    return wave


@pytest.mark.parametrize("kind", workloads.PROFILE_KINDS)
def test_wave_passes(profile, kind):
    op, waves = profile
    assert not checks.check_wave(op, kind, waves[kind])
    rows = checks.reference_rows(len(waves[kind]["x"]), 16)
    assert checks.wave_reference_error(op, kind, waves[kind], rows) < 1e-10


@pytest.mark.parametrize("kind", workloads.PROFILE_KINDS)
@pytest.mark.parametrize("i", [0, 57, 100, 199])
def test_wave_theta_perturbed(profile, kind, i):
    op, waves = profile
    size = np.abs(waves[kind]["theta"]).max()
    assert checks.check_wave(op, kind, _changed(waves[kind], "theta", i, 1e-4 * size))


@pytest.mark.parametrize("kind", workloads.PROFILE_KINDS)
@pytest.mark.parametrize("key", ["x", "psi", "phi", "theta"])
def test_wave_value_moved(profile, kind, key):
    op, waves = profile
    assert _wave_flagged(op, kind, _changed(waves[kind], key, 120, 1e-6), 120)


@pytest.mark.parametrize("kind", workloads.PROFILE_KINDS)
@pytest.mark.parametrize("i", [0, 100, 199])
def test_wave_row_dropped(profile, kind, i):
    op, waves = profile
    wave = {k: np.delete(v, i) for k, v in waves[kind].items()}
    assert checks.check_wave(op, kind, wave)


def test_wave_mpmath_catches_a_consistent_rescale(profile):
    # scaling all three components keeps every local relation intact;
    # only the comparison with mpmath sees it
    op, waves = profile
    wave = {k: v * (1 + 1e-6) if k != "x" else v
            for k, v in waves["incident"].items()}
    assert not checks.check_wave(op, "incident", wave)
    assert _wave_flagged(op, "incident", wave, 120)


# --- the command --------------------------------------------------------

def _run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_traced_run_reports_every_layer_metric():
    proc = _run(ROOT, "--workload", "point", "--seed", "3", "--seconds", "1",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["kernels.lgamma_c.calls_per_item"] > 0
    assert values["specfun.hyp2f1.calls_per_item"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "spectrum", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
