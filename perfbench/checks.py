"""Output checks.  Each check returns a list of failure messages (empty when
the output is correct) and leaves the mpmath comparisons, which are costly,
to the `*_reference` functions, which return the worst scaled error.

Nothing here imports dkpscatter: bands, grids and references are derived
from the inputs alone.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

import reference

GUARD = 1e-9             # the program's default threshold guard
UNITARITY = 1e-8         # |R + T - 1| on the closed form
REFERENCE_TOL = 1e-8     # closed form and waves against mpmath, scaled
ORACLE_TOL = 1e-6        # |dR|, |dT| of the integration oracle against mpmath
ORACLE_UNITARITY = 1e-7
# finite-difference checks of the waves: five-point stencils err by at most
# h^4/5 psi^(5) (first derivative, one-sided at the ends) and h^4/90 psi^(6)
# (second, centred); with K the largest local scale (wave number plus the 2b
# of the step), |psi^(n)| <= K^n max|psi|; real waves stay below 5% of that
# bound.
ROUNDOFF = 1e-12


def bands(a, m, energy) -> np.ndarray:
    """Band labels from the thresholds +-a+-m alone (arrays broadcast)."""
    a, m, energy = np.asarray(a, float), np.asarray(m, float), np.asarray(energy, float)
    guarded = np.min([np.abs(energy - c) for c in (-a - m, -a + m, a - m, a + m)],
                     axis=0) <= GUARD
    nu_open = np.abs(energy + a) > m
    mu_open = np.abs(energy - a) > m
    top = np.abs(a) + m
    label = np.where(nu_open & mu_open,
                     np.where(energy > top, "I", np.where(energy < -top, "V", "III")),
                     np.where(nu_open, "II", np.where(mu_open, "IV", "boundary")))
    return np.where(guarded, "boundary", label)


def band(a: float, m: float, energy: float) -> str:
    return str(bands(a, m, energy))


def check_rt_table(a, m, energy, region, refl, trans, defect):
    """R/T outputs of the closed form, one per row (arrays broadcast).
    Returns the rows that fail and messages for the first few."""
    energy, refl, trans, defect = (np.atleast_1d(np.asarray(v, float))
                                   for v in (energy, refl, trans, defect))
    want = np.atleast_1d(bands(a, m, energy))
    region = np.atleast_1d(np.asarray(region))
    evanescent = (want == "II") | (want == "IV")
    rules = (
        ("region label differs from the band of +-a+-m", region != want),
        ("unitarity_defect is not R+T-1", defect != refl + trans - 1.0),
        ("band II/IV without exact R = 1, T = 0",
         evanescent & ((refl != 1.0) | (trans != 0.0))),
        (f"|R+T-1| > {UNITARITY}",
         ~evanescent & ~(np.abs(refl + trans - 1.0) <= UNITARITY)),
        ("band III without R > 1, T < 0",
         (want == "III") & ~((refl > 1.0) & (trans < 0.0))),
    )
    bad = np.zeros(energy.shape, bool)
    messages = []
    for text, rows in rules:
        bad |= rows
        for i in np.flatnonzero(rows)[:3]:
            messages.append(f"E={float(energy[i])!r}: {text} "
                            f"(R={float(refl[i])!r}, T={float(trans[i])!r})")
    return bad, messages


def rt_error(a: float, b: float, m: float, energy: float, refl: float,
             trans: float) -> float:
    """Worst of |dR|, |dT| against mpmath, scaled by max(1, |R|, |T|)."""
    if band(a, m, energy) in ("II", "IV"):
        ref_r, ref_t = 1.0, 0.0
    else:
        ref_r, ref_t = reference.rt_elementary(a, b, m, energy)
    scale = max(1.0, abs(float(ref_r)), abs(float(ref_t)))
    return float(max(abs(refl - ref_r), abs(trans - ref_t))) / scale


def _read_csv(path: str, header: str) -> tuple[list[list[str]], list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "" or lines[0] != header:
        return [], [f"{path}: bad header or missing final newline"]
    return [line.split(",") for line in lines[1:-1]], []


SWEEP_HEADER = "E,R,T,unitarity_defect,region"


def parse_sweep(path: str):
    rows, errors = _read_csv(path, SWEEP_HEADER)
    if errors:
        return None, errors
    try:
        table = {"region": np.array([row[4] for row in rows]),
                 **dict(zip(("E", "R", "T", "D"),
                            np.array([row[:4] for row in rows], dtype=float)
                            .reshape(-1, 4).T))}
    except (ValueError, IndexError) as exc:
        return None, [f"{path}: unparsable row ({exc})"]
    return table, []


def check_sweep(op: dict, table: dict, stderr: str) -> list[str]:
    """A sweep table: exactly the grid minus the guarded energies, in order,
    each row a correct R/T output, one stderr notice per skipped energy."""
    grid = np.linspace(op["emin"], op["emax"], op["steps"])
    kept = grid[bands(op["a"], op["m"], grid) != "boundary"]
    skipped = len(grid) - len(kept)
    errors = []
    if not np.array_equal(table["E"], kept):
        errors.append(f"sweep rows are not the grid minus the {skipped} guarded "
                      f"energies ({len(table['E'])} rows, {len(kept)} expected)")
    notices = sum(line.startswith("skipping E = ") for line in stderr.splitlines())
    if notices != skipped:
        errors.append(f"{notices} skip notices for {skipped} guarded energies")
    _, messages = check_rt_table(op["a"], op["m"], table["E"], table["region"],
                                 table["R"], table["T"], table["D"])
    return errors + messages


def check_oracle(op: dict, out: dict) -> tuple[list[str], float]:
    """numeric_rt against mpmath; returns failures and the scaled error."""
    a, b, m, energy = op["a"], op["b"], op["m"], op["E"]
    where = f"a={a!r} b={b!r} m={m!r} E={energy!r}"
    errors = []
    if band(a, m, energy) not in ("I", "III", "V"):
        errors.append(f"{where}: not in a band with both channels open")
        return errors, math.inf
    ref_r, ref_t = reference.rt_elementary(a, b, m, energy)
    d_r, d_t = float(abs(out["R"] - ref_r)), float(abs(out["T"] - ref_t))
    if not (d_r <= ORACLE_TOL and d_t <= ORACLE_TOL):
        errors.append(f"{where}: |dR| = {d_r:.2e}, |dT| = {d_t:.2e} against mpmath")
    if not abs(out["R"] + out["T"] - 1.0) <= ORACLE_UNITARITY:
        errors.append(f"{where}: |R+T-1| = {abs(out['R'] + out['T'] - 1.0):.2e}")
    if out["D"] != out["R"] + out["T"] - 1.0:
        errors.append(f"{where}: unitarity_defect is not R+T-1")
    if not out["steps"] > 0:
        errors.append(f"{where}: {out['steps']} integration steps")
    scale = max(1.0, abs(float(ref_r)), abs(float(ref_t)))
    return errors, max(d_r, d_t) / scale


WAVE_HEADER = "x,re_psi,im_psi,re_phi,im_phi,re_theta,im_theta"


def parse_wave(path: str):
    rows, errors = _read_csv(path, WAVE_HEADER)
    if errors:
        return None, errors
    try:
        arr = np.array(rows, dtype=float)
    except ValueError as exc:
        return None, [f"{path}: unparsable row ({exc})"]
    if arr.ndim != 2 or arr.shape[1] != 7:
        return None, [f"{path}: wrong column count"]
    return {"x": arr[:, 0], "psi": arr[:, 1] + 1j * arr[:, 2],
            "phi": arr[:, 3] + 1j * arr[:, 4],
            "theta": arr[:, 5] + 1j * arr[:, 6]}, []


def check_wave(op: dict, kind: str, wave: dict) -> list[str]:
    """A sampled wave: the grid, phi = (E - V) psi / m on every row, and,
    by five-point differences, theta = (i/m) psi' and the Klein-Gordon
    equation psi'' + ((E - V)^2 - m^2) psi = 0 at every interior row."""
    a, b, m, energy = op["a"], op["b"], op["m"], op["E"]
    x, psi, phi, theta = wave["x"], wave["psi"], wave["phi"], wave["theta"]
    grid = np.linspace(op["xmin"], op["xmax"], op["samples"])
    if x.shape != grid.shape or not np.array_equal(x, grid):
        return [f"{kind}: x is not the {op['samples']}-point grid"]
    if not (np.isfinite(psi).all() and np.isfinite(phi).all()
            and np.isfinite(theta).all()):
        return [f"{kind}: non-finite samples"]
    errors = []
    w = energy - a * np.tanh(b * x)
    phi_err = np.abs(phi - w * psi / m)
    phi_tol = ROUNDOFF * (abs(energy) + abs(a)) * np.abs(psi) / m + 1e-300
    if (phi_err > phi_tol).any():
        i = int(np.argmax(phi_err / phi_tol))
        errors.append(f"{kind}: phi != (E-V) psi/m at x={x[i]!r} "
                      f"(error {phi_err[i]:.2e})")

    h = x[1] - x[0]
    scale = float(np.sqrt(np.abs(w * w - m * m)).max()) + 2.0 * b
    size = float(np.abs(psi).max())
    trunc = (h * scale) ** 4
    theta_err = np.abs(theta - 1j * first_derivative(psi, h) / m)
    theta_tol = (trunc / 5.0 * scale + 1e2 * ROUNDOFF / h) * size / m
    if (theta_err > theta_tol).any():
        i = int(np.argmax(theta_err))
        errors.append(f"{kind}: theta != (i/m) psi' at x={x[i]!r} "
                      f"({theta_err.max():.2e} > {theta_tol:.2e})")
    p = psi
    d2 = (-p[:-4] + 16 * p[1:-3] - 30 * p[2:-2] + 16 * p[3:-1] - p[4:]) / (12 * h * h)
    kg_err = np.abs(d2 + (w[2:-2] ** 2 - m * m) * p[2:-2])
    kg_tol = (trunc / 90.0 * scale ** 2 + 1e3 * ROUNDOFF / h ** 2) * size
    if (kg_err > kg_tol).any():
        i = int(np.argmax(kg_err)) + 2
        errors.append(f"{kind}: Klein-Gordon residual at x={x[i]!r} "
                      f"({kg_err.max():.2e} > {kg_tol:.2e})")
    return errors


def first_derivative(f: np.ndarray, h: float) -> np.ndarray:
    """Five-point differences: centred inside, one-sided on the two rows at
    each end (errors h^4/30, h^4/20 and h^4/5 times f^(5))."""
    d = np.empty_like(f)
    d[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / 12
    d[0] = (-25 * f[0] + 48 * f[1] - 36 * f[2] + 16 * f[3] - 3 * f[4]) / 12
    d[1] = (-3 * f[0] - 10 * f[1] + 18 * f[2] - 6 * f[3] + f[4]) / 12
    d[-1] = (25 * f[-1] - 48 * f[-2] + 36 * f[-3] - 16 * f[-4] + 3 * f[-5]) / 12
    d[-2] = (3 * f[-1] + 10 * f[-2] - 18 * f[-3] + 6 * f[-4] - f[-5]) / 12
    return d / h


def reference_rows(n: int, count: int) -> list[int]:
    """A fixed subsample: `count` row indices evenly spaced through n rows."""
    return [int(i) for i in np.unique(np.linspace(0, n - 1, count).astype(int))]


def wave_reference_error(op: dict, kind: str, wave: dict, rows) -> float:
    """Worst error of psi and theta against mpmath over the given rows,
    each scaled by its largest magnitude on the grid.  The reference theta
    is (i/m) times the mpmath derivative of psi."""
    a, b, m, energy = op["a"], op["b"], op["m"], op["E"]
    x = wave["x"]
    psi_size = float(np.abs(wave["psi"]).max())
    theta_size = float(np.abs(wave["theta"]).max())
    worst = 0.0
    for i in rows:
        def psi(t):
            return reference.wave(kind, a, b, m, energy, t)
        with mp.workdps(reference.DPS):
            ref = complex(psi(float(x[i])))
            theta = complex(1j * mp.diff(psi, mp.mpf(float(x[i]))) / m)
        worst = max(worst, abs(wave["psi"][i] - ref) / psi_size,
                    abs(wave["theta"][i] - theta) / theta_size)
    return float(worst)


def digits(worst_error: float) -> float:
    """Correct significant digits: -log10 of the worst scaled error, capped
    at 16."""
    if worst_error <= 1e-16:
        return 16.0
    return -math.log10(worst_error)
