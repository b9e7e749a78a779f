"""The four workloads: seeded inputs, one operation each, and its items.

Inputs come only from the seed (and, for the kept-failing slices, from
nothing at all), so a run replays exactly.  Every workload is a sequence of
whole rounds; a round has a fixed number of operations and a fixed band mix,
and every operation in it draws fresh parameters.

The program is reached only through ``dkpscatter.cli.main(argv)``,
``dkpscatter.scattering_coefficients`` and ``dkpscatter.numeric_rt`` (plus the
``Potential`` / ``Particle`` constructors), looked up on the package at call
time so that a traced run sees the same calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

# spectrum: a = 3m and the window [-6m, 6m] on 2401 points put every
# threshold +-a+-m exactly on a grid point (400, 800, 1600, 2000), so each
# sweep has 400 rows in each of bands V and I, 399 in each of IV and II,
# 799 in III, and 4 guarded energies that must be skipped.
SWEEP_STEPS = 2401
SWEEP_RATIO = 3.0
SWEEP_HALF_WIDTH = 6.0
SPECTRUM_ROUND = 9
# kept failing: the log-Gamma route loses unitarity at large nu.
SPECTRUM_FAILING = {"a": 5.0, "b": 3.0, "m": 1.0, "emin": 1e7, "emax": 1e8}

POINT_BANDS = ("I", "I", "II", "III", "III", "III", "III", "IV", "V", "V")

CROSSCHECK_BANDS = ("I", "III", "V", "III")
CROSSCHECK_Q = (2.5, 3.5)

PROFILE_SAMPLES = 200
PROFILE_HALF_SPAN = 2.0          # grid is b x in [-2, 2]
PROFILE_Q = (2.0, 3.0)
PROFILE_BANDS = ("I", "III") * 4
PROFILE_KINDS = ("incident", "reflected", "transmitted")
# kept failing: band II at 2|mu| = 1, where the z -> 1/z inversion of the
# incident and reflected waves meets Gamma poles.
PROFILE_FAILING = {"a": 5.0, "b": 0.2, "m": 1.0, "E": 5.0 + math.sqrt(0.96)}


def _band_energy(rng: np.random.Generator, band: str, a: float, m: float,
                 margin: float) -> float:
    """An energy inside `band` of the step (a > m), at least margin * m away
    from every threshold."""
    if band == "I":
        return a + m + m * rng.uniform(margin, 2.0)
    if band == "V":
        return -(a + m + m * rng.uniform(margin, 2.0))
    if band == "III":
        return rng.uniform(-a + m * (1 + margin), a - m * (1 + margin))
    if band == "II":
        return a - m + 2 * m * rng.uniform(margin, 1 - margin)
    if band == "IV":
        return -(a - m + 2 * m * rng.uniform(margin, 1 - margin))
    raise ValueError(band)


class Context:
    """Where an operation writes its files, and the callable that stands for
    ``dkpscatter.cli.main`` (the traced run wraps it in a span)."""

    def __init__(self, tmpdir: str, cli_main=None):
        import dkpscatter
        import dkpscatter.cli

        self.dk = dkpscatter
        self.tmpdir = tmpdir
        self.cli_main = cli_main or dkpscatter.cli.main
        self.serial = 0

    def path(self, stem: str) -> str:
        self.serial += 1
        return os.path.join(self.tmpdir, f"{self.serial:06d}-{stem}.csv")

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = self.cli_main(argv)
        return rc, err.getvalue()


class Workload:
    name = ""
    key = 0              # seed stream of this workload
    cli_span = None      # span name of the cli.main call, if any
    tail_pct = 75.0      # percentile reported as op_tail_ms
    warmup_ops = 2
    flush_ops = 64       # records kept in memory before they go to disk
    digits_ops = 0       # leading operations whose outputs set `digits`

    def round(self, rng: np.random.Generator) -> list[dict]:
        raise NotImplementedError

    def execute(self, op: dict, ctx: Context) -> dict:
        """Run one operation; the returned record holds what the checks
        need.  Called inside the timed region, so it does nothing else."""
        raise NotImplementedError


class Spectrum(Workload):
    name, key, cli_span = "spectrum", 1, "cli.sweep"
    tail_pct = 75.0
    digits_ops = 20

    def _sweep(self, rng):
        m = float(rng.uniform(0.5, 2.0))
        a = SWEEP_RATIO * m
        b = float(math.exp(rng.uniform(math.log(0.5), math.log(8.0))))
        w = SWEEP_HALF_WIDTH * m
        return {"a": a, "b": b, "m": m, "emin": -w, "emax": w,
                "steps": SWEEP_STEPS, "expect_fail": False}

    def round(self, rng):
        ops = [self._sweep(rng) for _ in range(SPECTRUM_ROUND)]
        ops.append(dict(SPECTRUM_FAILING, steps=SWEEP_STEPS, expect_fail=True))
        return ops

    def execute(self, op, ctx):
        out = ctx.path("sweep")
        argv = ["sweep", "--a", repr(op["a"]), "--b", repr(op["b"]),
                "--m", repr(op["m"]), "--emin", repr(op["emin"]),
                "--emax", repr(op["emax"]), "--steps", str(op["steps"]),
                "--out", out]
        rc, err = ctx.run_cli(argv)
        return {"rc": rc, "stderr": err, "csv": out}


class Point(Workload):
    name, key = "point", 2
    tail_pct = 99.0
    warmup_ops = 2000
    flush_ops = 1000
    digits_ops = 4000

    def round(self, rng):
        ops = []
        for band in POINT_BANDS:
            m = float(rng.uniform(0.5, 2.0))
            a = float(m * rng.uniform(1.5, 4.0))
            b = float(math.exp(rng.uniform(math.log(0.5), math.log(8.0))))
            energy = float(_band_energy(rng, band, a, m, 0.05))
            ops.append({"a": a, "b": b, "m": m, "E": energy, "band": band,
                        "expect_fail": False})
        return ops

    def execute(self, op, ctx):
        dk = ctx.dk
        res = dk.scattering_coefficients(dk.Potential(op["a"], op["b"]),
                                         dk.Particle(op["m"]), op["E"])
        return {"region": res.region.token, "R": res.R, "T": res.T,
                "D": res.unitarity_defect}


class Crosscheck(Workload):
    name, key = "crosscheck", 3
    tail_pct = 95.0
    warmup_ops = 3
    flush_ops = 256
    digits_ops = 120

    def round(self, rng):
        ops = []
        for band in CROSSCHECK_BANDS:
            m = float(rng.uniform(0.5, 2.0))
            a = float(m * rng.uniform(2.0, 4.0))
            energy = float(_band_energy(rng, band, a, m, 0.2))
            # cost grows with |E|/b: bound (|E| + a)/b to a narrow window
            b = float((abs(energy) + a) / rng.uniform(*CROSSCHECK_Q))
            ops.append({"a": a, "b": b, "m": m, "E": energy, "band": band,
                        "expect_fail": False})
        return ops

    def execute(self, op, ctx):
        dk = ctx.dk
        res = dk.numeric_rt(dk.Potential(op["a"], op["b"]),
                            dk.Particle(op["m"]), op["E"])
        return {"R": res.R, "T": res.T, "D": res.unitarity_defect,
                "steps": res.steps}


class Profile(Workload):
    name, key, cli_span = "profile", 4, "cli.wavefunction"
    tail_pct = 90.0
    digits_ops = 12

    def round(self, rng):
        ops = []
        for band in PROFILE_BANDS:
            m = float(rng.uniform(0.5, 2.0))
            a = float(m * rng.uniform(2.0, 4.0))
            energy = float(_band_energy(rng, band, a, m, 0.2))
            b = float((abs(energy) + a) / rng.uniform(*PROFILE_Q))
            ops.append({"a": a, "b": b, "m": m, "E": energy, "band": band,
                        "expect_fail": False})
        ops.append(dict(PROFILE_FAILING, band="II", expect_fail=True))
        for op in ops:
            span = PROFILE_HALF_SPAN / op["b"]
            op.update(xmin=-span, xmax=span, samples=PROFILE_SAMPLES)
        return ops

    def execute(self, op, ctx):
        common = ["--a", repr(op["a"]), "--b", repr(op["b"]),
                  "--m", repr(op["m"]), "--E", repr(op["E"]),
                  "--xmin", repr(op["xmin"]), "--xmax", repr(op["xmax"]),
                  "--samples", str(op["samples"])]
        waves = {}
        for kind in PROFILE_KINDS:
            out = ctx.path(kind)
            rc, err = ctx.run_cli(["wavefunction", *common, "--kind", kind,
                                   "--out", out])
            waves[kind] = {"rc": rc, "stderr": err, "csv": out}
        return {"waves": waves}


WORKLOADS = {w.name: w for w in (Spectrum(), Point(), Profile(), Crosscheck())}
