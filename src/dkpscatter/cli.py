"""Command-line interface.

Subcommands: point, sweep, regions, wavefunction, verify.  Exit status 0 on
success, 1 on a runtime/physics failure (boundary energy, failed verification,
unwritable output), 2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from typing import Iterable, Iterator, Sequence, get_args

import numpy as np

from . import __version__
from .algebra import beta_matrices, trilinear_residual
from .errors import BoundaryEnergyError, DkpScatterError, RangeError
from .oracle import numeric_rt
from .scattering import (
    BOUNDARY_EPS,
    Particle,
    Potential,
    ScatteringTable,
    critical_energies,
    scattering_table,
    step_rt,
)
from .wavefield import Kind, component_residuals, wave_profile

__all__ = ["main"]

_CSV_BLOCK = 4096


def _fmt12(value: complex | float) -> str:
    """12 significant digits; complex rendered as re+imj only when the
    imaginary part is nonzero."""
    if isinstance(value, complex):
        if value.imag == 0.0:
            return f"{value.real:.12g}"
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return f"{value:.12g}"


def _csv(header: str, cols: Sequence[np.ndarray], *text: Sequence[str]) -> Iterator[str]:
    """CSV text, _CSV_BLOCK rows at a time so that no column is held as a list:
    floats as repr, the shortest round-trip representation, then text columns."""
    yield header + "\n"
    for lo in range(0, len(cols[0]), _CSV_BLOCK):
        block = slice(lo, lo + _CSV_BLOCK)
        rows = zip(*(map(repr, col[block].tolist()) for col in cols),
                   *(col[block] for col in text))
        yield "\n".join(map(",".join, rows)) + "\n"


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write text (UTF-8) to stdout or to a file, one write per chunk; a file
    that fails mid-write is removed rather than left partial."""
    if out_path is None:
        sys.stdout.writelines(chunks)
        return
    fh = open(out_path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException:
        os.remove(out_path)
        raise


def _table(pot: Potential, par: Particle, energies: Sequence[float]) -> ScatteringTable:
    """scattering_table, raising the error of its first energy that is not ok."""
    table = scattering_table(pot, par, energies)
    if not table.ok.all():
        raise table.error(int(np.argmin(table.ok)))
    return table


def _cmd_point(args: argparse.Namespace) -> int:
    pot, par = Potential(args.a, args.b), Particle(args.m)
    table = _table(pot, par, (args.E,))
    refl, trans = table.R[0].item(), table.T[0].item()
    print(f"E = {_fmt12(args.E)}")
    print(f"region = {table.region[0].token}")
    print(f"nu = {_fmt12(table.nu[0].item())}")
    print(f"mu = {_fmt12(table.mu[0].item())}")
    print(f"R = {_fmt12(refl)}")
    print(f"T = {_fmt12(trans)}")
    print(f"R+T-1 = {_fmt12(refl + trans - 1.0)}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    pot, par = Potential(args.a, args.b), Particle(args.m)
    if args.steps < 2:
        raise DkpScatterError("sweep needs at least 2 steps")
    # also false for a NaN or infinite bound, and where emax - emin overflows
    if not 0.0 < args.emax - args.emin < math.inf:
        raise DkpScatterError("sweep needs emin < emax, a finite distance apart")
    energies = np.linspace(args.emin, args.emax, args.steps)
    table = scattering_table(pot, par, energies)
    # skip lines in grid order, up to the first energy with another error
    for i in np.flatnonzero(~table.ok).tolist():
        err = table.error(i)
        if not isinstance(err, BoundaryEnergyError):
            raise err
        print(f"skipping E = {_fmt12(float(energies[i]))}: within boundary guard",
              file=sys.stderr)
    keep = table.ok
    refl, trans = table.R[keep], table.T[keep]
    _emit(_csv("E,R,T,unitarity_defect,region",
               (energies[keep], refl, trans, refl + trans - 1.0), table.tokens[keep]),
          args.out)
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    # the bands depend on a and m only, and their labels on the order of the
    # thresholds: IV (E + a closed) lies below II for a > 0, and the middle
    # band has both channels open only for |a| > m
    pot, par = Potential(args.a, 1.0), Particle(args.m)
    crits = critical_energies(pot, par)
    if math.isinf(crits[0]) or math.isinf(crits[-1]):
        raise RangeError(f"thresholds +-a +- m overflow at a={pot.a}, m={par.m}")
    print("boundaries: " + " ".join(_fmt12(c) for c in crits))
    lower, upper = ("IV", "II") if pot.a > 0 else ("II", "IV")
    middle = "III" if abs(pot.a) > par.m else "boundary"
    print(f"V: E < {_fmt12(crits[0])}")
    for token, lo, hi in zip((lower, middle, upper), crits, crits[1:]):
        if hi - lo <= 2 * BOUNDARY_EPS:
            print(f"(degenerate band at E = {_fmt12(lo)}: empty)")
        else:
            print(f"{token}: {_fmt12(lo)} < E < {_fmt12(hi)}")
    print(f"I: E > {_fmt12(crits[-1])}")
    return 0


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    pot, par = Potential(args.a, args.b), Particle(args.m)
    if args.samples < 2:
        raise DkpScatterError("wavefunction needs at least 2 samples")
    if not 0.0 < args.xmax - args.xmin < math.inf:
        raise DkpScatterError("wavefunction needs xmin < xmax, a finite distance apart")
    xs = np.linspace(args.xmin, args.xmax, args.samples)
    psi, phi, theta = wave_profile(xs, args.kind, pot, par, args.E)
    _emit(_csv("x,re_psi,im_psi,re_phi,im_phi,re_theta,im_theta",
               (xs, psi.real, psi.imag, phi.real, phi.imag, theta.real, theta.imag)),
          args.out)
    return 0


class _Verifier:
    def __init__(self) -> None:
        self.total = self.failures = 0

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.total += 1
        self.failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _cmd_verify(args: argparse.Namespace) -> int:
    pot = Potential(a=5.0, b=3.0)
    par = Particle(m=1.0)
    v = _Verifier()

    table = _table(pot, par, np.concatenate([np.linspace(lo, hi, 40) for lo, hi in (
        (6.2, 9.8), (-3.8, 3.8), (-9.8, -6.2))]))
    worst = float(np.abs(table.R + table.T - 1.0).max())
    v.check("unitarity", worst <= 1e-10,
            f"max |R+T-1| = {worst:.3e} over propagating bands (limit 1e-10)")

    energies = (1.5, 2.5, 3.5, 0.0, -2.0, 6.5, 7.0, 8.5)
    table = _table(pot, par, energies)
    refl, trans = table.R, table.T
    if args.flip_mu_sign:
        # debug path: negating mu turns the closed form's (R, T) into (1/R, -T/R)
        refl, trans = 1.0 / refl, -trans / refl
    num = [numeric_rt(pot, par, energy) for energy in energies]
    worst = np.abs(np.array([refl, trans]).T - [(n.R, n.T) for n in num]).max()
    v.check("oracle-equivalence", worst <= 1e-6,
            f"max |analytic - integrated| = {worst:.3e} over {len(energies)} "
            "energies (limit 1e-6)")

    energies = (2.5, 3.0, 7.0, 8.0)
    table = _table(Potential(a=5.0, b=1e4), par, energies)
    ref = [step_rt(5.0, 1.0, energy) for energy in energies]
    worst = np.abs(np.array([table.R, table.T]).T - [(r.R, r.T) for r in ref]).max()
    v.check("step-limit", worst <= 1e-4,
            f"max |tanh(b=1e4) - sharp step| = {worst:.3e} (limit 1e-4)")

    betas = beta_matrices()
    tri = trilinear_residual(betas)
    b0 = betas.beta0
    cube = float(np.abs(b0 @ b0 @ b0 - b0).max())
    rank = int(np.linalg.matrix_rank(b0))
    trace = abs(complex(np.trace(b0)))
    ok = tri <= 1e-13 and cube <= 1e-13 and rank == 6 and trace <= 1e-13
    v.check("matrix-algebra", ok,
            f"trilinear {tri:.1e}, cube {cube:.1e}, rank {rank}, trace {trace:.1e}")

    free = Potential(a=0.0, b=1.0)
    res_free = component_residuals(0.7, "transmitted", free, Particle(m=1.0), 2.0, 1e-4)
    res_full = component_residuals(0.3, "transmitted", pot, par, 7.0, 1e-4)
    ok = max(res_free) <= 1e-6 and res_full.r_phi == 0.0 \
        and res_full.r_theta <= 1e-5 and res_full.r_kg <= 1e-4
    v.check("component-residuals", ok,
            f"free max {max(res_free):.2e} (limit 1e-6), "
            f"full (r_phi={res_full.r_phi:.1e}, r_theta={res_full.r_theta:.2e}, "
            f"r_kg={res_full.r_kg:.2e})")

    table = _table(pot, par, (5.0, -5.0))
    (r2, r4), (t2, t4) = table.R.tolist(), table.T.tolist()
    v.check("evanescent-bands", r2 == 1.0 and t2 == 0.0 and r4 == 1.0 and t4 == 0.0,
            f"region II (R,T)=({r2},{t2}), region IV (R,T)=({r4},{t4})")

    if v.failures:
        print(f"{v.failures} of {v.total} checks failed")
        return 1
    print(f"all {v.total} checks passed")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes every float literal after an option as its
    value: argparse's own pattern takes -5 and -.5 but reads -1e-05, -inf and
    -nan as option names.  The subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dkpscatter",
        description="Spin-one scattering on the smooth step V(x) = a tanh(bx)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pot(p: argparse.ArgumentParser) -> None:
        p.add_argument("--a", type=float, required=True, help="step height a")
        p.add_argument("--b", type=float, required=True, help="step steepness b > 0")
        p.add_argument("--m", type=float, required=True, help="particle mass m > 0")

    p = sub.add_parser("point", help="R and T at one energy")
    add_pot(p)
    p.add_argument("--E", type=float, required=True, help="energy")
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("sweep", help="R(E), T(E) table over an energy window")
    add_pot(p)
    p.add_argument("--emin", type=float, required=True)
    p.add_argument("--emax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True,
                   help="number of energy samples (endpoints included)")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("regions", help="energy-band boundaries and labels")
    p.add_argument("--a", type=float, required=True, help="step height a")
    p.add_argument("--m", type=float, required=True, help="particle mass m > 0")
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("wavefunction", help="sampled wave components on a grid")
    add_pot(p)
    p.add_argument("--E", type=float, required=True, help="energy")
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--kind", choices=get_args(Kind), required=True)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("verify", help="self-check battery")
    p.add_argument("--flip-mu-sign", action="store_true",
                   help="debug: negate mu in the analytic route "
                        "(verification must then fail)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DkpScatterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
