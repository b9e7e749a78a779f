"""End-to-end acceptance battery.

Each test exercises one headline guarantee of the package at its contractual
tolerance and emits a single PASS/FAIL line (repeated in the terminal summary).
"""

import time

import numpy as np

from dkpscatter import (
    Particle,
    Potential,
    Region,
    component_residuals,
    hyp2f1,
    log_gamma,
    numeric_rt,
    scattering_coefficients,
    step_rt,
    trilinear_residual,
)
from dkpscatter.cli import main as cli_main
from dkpscatter._kernels import gauss_series

RESULT_LINES: list[str] = []

POT = Potential(a=5.0, b=3.0)
PAR = Particle(m=1.0)


def _criterion(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    RESULT_LINES.append(line)
    print(line)
    assert ok, line


def _interior_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n points strictly inside (lo, hi), evenly spaced."""
    return np.linspace(lo, hi, n + 2)[1:-1]


def test_c01_unitarity_grid():
    # |R+T-1| <= 1e-8 on 500 energies in (1.01, 10), away from thresholds
    energies = [float(e) for e in _interior_grid(1.01, 10.0, 500)
                if abs(e - 4.0) > 1e-3 and abs(e - 6.0) > 1e-3]
    assert len(energies) == 500
    start = time.perf_counter()
    worst = max(abs(scattering_coefficients(POT, PAR, e).unitarity_defect)
                for e in energies)
    elapsed = time.perf_counter() - start
    _criterion("unitarity-grid", worst <= 1e-8 and elapsed < 5.0,
               f"max |R+T-1| = {worst:.3e} over {len(energies)} energies "
               f"(limit 1e-8) in {elapsed:.2f}s (limit 5s)")


def test_c02_amplified_reflection_band():
    # every energy sampled in (1.05, 3.95) reflects more than it receives
    energies = _interior_grid(1.05, 3.95, 150)
    start = time.perf_counter()
    results = [scattering_coefficients(POT, PAR, float(e)) for e in energies]
    elapsed = time.perf_counter() - start
    ok = all(r.R > 1.0 and r.T < 0.0 for r in results)
    min_r = min(r.R for r in results)
    max_t = max(r.T for r in results)
    _criterion("amplified-reflection", ok and elapsed < 2.0,
               f"min R = {min_r:.6f} (> 1), max T = {max_t:.6f} (< 0) over "
               f"{len(results)} energies in {elapsed:.2f}s (limit 2s)")


def test_c03_total_reflection_bands():
    # single-evanescent-channel bands: R = 1 to 1e-8 and T exactly 0
    energies = np.concatenate([_interior_grid(4.05, 5.95, 50),
                               _interior_grid(-5.95, -4.05, 50)])
    results = [scattering_coefficients(POT, PAR, float(e)) for e in energies]
    worst_r = max(abs(r.R - 1.0) for r in results)
    t_exact = all(r.T == 0.0 for r in results)
    _criterion("total-reflection", worst_r <= 1e-8 and t_exact,
               f"max |R-1| = {worst_r:.1e} (limit 1e-8), T == 0 exactly on "
               f"{len(results)} energies: {t_exact}")


def test_c04_two_route_agreement():
    # closed form vs direct integration, 1e-6 absolute, both open bands
    energies = [float(e) for e in np.concatenate(
        [np.linspace(1.2, 3.8, 10), np.linspace(6.2, 9.8, 10)])]
    start = time.perf_counter()
    worst = 0.0
    for e in energies:
        ana = scattering_coefficients(POT, PAR, e)
        num = numeric_rt(POT, PAR, e)
        worst = max(worst, abs(ana.R - num.R), abs(ana.T - num.T))
    elapsed = time.perf_counter() - start
    _criterion("two-route-agreement", worst <= 1e-6 and elapsed < 30.0,
               f"max |closed - integrated| = {worst:.3e} over "
               f"{len(energies)} energies (limit 1e-6) in {elapsed:.1f}s "
               "(limit 30s)")


def test_c05_sharp_step_limit():
    # steep profile (b = 1e4) must land on the abrupt-step closed form
    sharp = Potential(a=5.0, b=1e4)
    energies = (1.5, 2.0, 2.5, 3.0, 3.5, 6.5, 7.0, 7.5, 8.0, 8.5)
    worst = max(abs(scattering_coefficients(sharp, PAR, e).R
                    - step_rt(5.0, 1.0, e).R) for e in energies)
    spot = step_rt(5.0, 1.0, 2.5).R
    spot_ok = abs(spot - 3.5768222247683066) <= 1e-12 and abs(spot - 3.5766) <= 1e-3
    _criterion("sharp-step-limit", worst <= 1e-4 and spot_ok,
               f"max |R(b=1e4) - R_step| = {worst:.2e} over {len(energies)} "
               f"energies (limit 1e-4); R_step(2.5) = {spot:.6f}")


def test_c06_free_particle():
    # a = 0 must scatter nothing, to within 1e-12, for 20 (b, E) pairs
    pairs = [(b, e) for b in (0.5, 1.0, 3.0, 7.0)
             for e in (1.5, 2.0, 3.0, 5.0, 8.0)]
    worst_r = worst_t = 0.0
    for b, e in pairs:
        res = scattering_coefficients(Potential(0.0, b), PAR, e)
        worst_r = max(worst_r, res.R)
        worst_t = max(worst_t, abs(res.T - 1.0))
    _criterion("free-particle", worst_r <= 1e-12 and worst_t <= 1e-12,
               f"max R = {worst_r:.1e}, max |T-1| = {worst_t:.1e} over "
               f"{len(pairs)} (b, E) pairs (limit 1e-12)")


def test_c07_matrix_algebra():
    # the defining trilinear product relation across all 64 index triples
    worst = trilinear_residual()
    _criterion("matrix-algebra", worst <= 1e-14,
               f"max trilinear residual = {worst:.2e} over 64 triples "
               "(limit 1e-14)")


def test_c08_component_relations():
    # middle component exact; derivative components converge at order two
    positions = (-1.5, -0.6, 0.3, 1.1, 2.0)
    energies = (2.5, 7.0, 8.5)
    worst_phi = 0.0
    ratios = []
    for e in energies:
        for x in positions:
            worst_phi = max(worst_phi, component_residuals(
                x, "transmitted", POT, PAR, e, 1e-4).r_phi)
            coarse = component_residuals(x, "transmitted", POT, PAR, e, 1e-3)
            fine = component_residuals(x, "transmitted", POT, PAR, e, 5e-4)
            ratios.append(coarse.r_theta / fine.r_theta)
            ratios.append(coarse.r_kg / fine.r_kg)
    ratio_ok = all(3.5 <= r <= 4.5 for r in ratios)
    _criterion("component-relations", worst_phi <= 1e-10 and ratio_ok,
               f"max middle-component residual = {worst_phi:.1e} (limit "
               f"1e-10); {len(ratios)} halving ratios in [{min(ratios):.2f}, "
               f"{max(ratios):.2f}] (need [3.5, 4.5])")


def test_c09_special_function_identities():
    gamma_dev = abs(np.exp(2.0 * log_gamma(complex(1.0, 1.0)).real)
                    - np.pi / np.sinh(np.pi))
    log2_dev = abs(hyp2f1(1.0, 1.0, 2.0, -1.0) - np.log(2.0))
    rng = np.random.default_rng(7)
    path_dev = 0.0
    checked = 0
    while checked < 60:
        a = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
        b = complex(rng.uniform(-2, 2), rng.uniform(-3, 3))
        c = complex(rng.uniform(0.5, 3), rng.uniform(-3, 3))
        if (c - a - b).real <= 0.05:
            continue
        z = rng.uniform(-1.0, -0.5)
        (direct,), _, _ = gauss_series(a, b, c, np.array([z]))
        mapped = hyp2f1(a, b, c, z)  # the Pfaff branch
        path_dev = max(path_dev, abs(direct - mapped) / abs(direct))
        checked += 1
    ok = gamma_dev <= 1e-10 and log2_dev <= 1e-10 and path_dev <= 1e-9
    _criterion("special-function-identities", ok,
               f"|G(1+i)|^2 dev {gamma_dev:.1e}, series ln2 dev {log2_dev:.1e} "
               f"(limits 1e-10); path consistency {path_dev:.1e} over "
               f"{checked} parameter sets (limit 1e-9)")


def test_c10_profile_shape(tmp_path):
    # sweep output: amplification exactly on the inner band, flat blocked
    # band, monotone high-energy falloff; peak pinned by the integrator
    band_csv = tmp_path / "band.csv"
    tail_csv = tmp_path / "tail.csv"
    base = ["sweep", "--a", "5", "--b", "3", "--m", "1"]
    assert cli_main(base + ["--emin", "1.01", "--emax", "10", "--steps", "500",
                            "--out", str(band_csv)]) == 0
    assert cli_main(base + ["--emin", "20", "--emax", "200", "--steps", "100",
                            "--out", str(tail_csv)]) == 0

    rows = [line.split(",") for line in
            band_csv.read_text().strip().splitlines()[1:]]
    assert len(rows) == 500
    amplified_iff_inner = all(
        (float(r[1]) > 1.0) == (r[4] == Region.III.token) for r in rows)
    blocked_band_flat = all(
        r[1] == "1.0" for r in rows if r[4] == Region.II.token)

    peak = max(rows, key=lambda r: float(r[1]))
    num = numeric_rt(POT, PAR, float(peak[0]))
    peak_dev = abs(float(peak[1]) - num.R)

    tail = [float(line.split(",")[1]) for line in
            tail_csv.read_text().strip().splitlines()[1:]]
    assert len(tail) == 100
    monotone = all(hi > lo for hi, lo in zip(tail[:-1], tail[1:]))

    ok = amplified_iff_inner and blocked_band_flat and monotone \
        and peak_dev <= 1e-6
    _criterion("profile-shape", ok,
               f"R > 1 exactly on the inner band: {amplified_iff_inner}; "
               f"blocked band pinned at 1: {blocked_band_flat}; "
               f"falloff monotone on [20, 200]: {monotone}; "
               f"peak R = {peak[1]} rechecked by integration to {peak_dev:.1e}")
