"""High-precision references made with mpmath, independent of dkpscatter.

nu, mu and lam are computed here from (a, b, m, E) with the conventions of
the paper: nu = sqrt((E+a)^2 - m^2)/(2b) carrying the sign of E + a, mu
likewise with E - a, an evanescent channel on the positive-imaginary branch,
and lam the root of lam^2 - lam + a^2/b^2 = 0 with Re lam >= 1/2.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def _half_wavenumber(excess, m, b):
    disc = excess * excess - m * m
    if disc > 0:
        return mp.sign(excess) * mp.sqrt(disc) / (2 * b)
    return mp.mpc(0, mp.sqrt(-disc) / (2 * b))


def momenta(a: float, b: float, m: float, energy: float):
    """(nu, mu, lam) at the working precision."""
    a, b, m, energy = (mp.mpf(v) for v in (a, b, m, energy))
    nu = _half_wavenumber(energy + a, m, b)
    mu = _half_wavenumber(energy - a, m, b)
    disc = b * b - 4 * a * a
    if disc >= 0:
        lam = (b + mp.sqrt(disc)) / (2 * b)
    else:
        lam = mp.mpc(mp.mpf(1) / 2, mp.sqrt(-disc) / (2 * b))
    return nu, mu, lam


def rt_elementary(a: float, b: float, m: float, energy: float,
                  dps: int = DPS) -> tuple[float, float]:
    """R and T for both channels open, in the elementary closed form

        S = sin^2(pi lam)
        R = (S + sinh^2 pi(nu - mu)) / (S + sinh^2 pi(nu + mu))
        T = sinh(2 pi nu) sinh(2 pi mu) / (S + sinh^2 pi(nu + mu)),

    scaled by exp(-2 pi (|nu| + |mu|)) so that large arguments cannot
    overflow.  Returns mpf values."""
    with mp.workdps(dps):
        nu, mu, lam = momenta(a, b, m, energy)
        if mp.im(nu) != 0 or mp.im(mu) != 0:
            raise ValueError("both channels must propagate")
        nu, mu = mp.re(nu), mp.re(mu)
        big = 2 * mp.pi * (abs(nu) + abs(mu))

        def scaled_sinh_sq(y):          # sinh^2(pi y) * exp(-big)
            return (mp.exp(2 * mp.pi * abs(y) - big)
                    * (1 - mp.exp(-2 * mp.pi * abs(y))) ** 2 / 4)

        s = mp.re(mp.sin(mp.pi * lam) ** 2) * mp.exp(-big)
        den = s + scaled_sinh_sq(nu + mu)
        refl = (s + scaled_sinh_sq(nu - mu)) / den
        trans = (mp.sign(nu) * mp.sign(mu)
                 * (1 - mp.exp(-4 * mp.pi * abs(nu)))
                 * (1 - mp.exp(-4 * mp.pi * abs(mu))) / 4) / den
        return +refl, +trans


def _coefficient_args(nu, mu, lam):
    alpha, gamma = 1j * nu, 1j * mu
    a1, b1, c1 = alpha + lam - gamma, alpha + lam + gamma, 1 + 2 * alpha
    a2, b2, c2 = -alpha + lam + gamma, -alpha + lam - gamma, 1 - 2 * alpha
    return (a1, b1, c1, a2, b2, c2)


def connection(nu, mu, lam):
    """Log of the connection coefficients A and C of the incident-side
    expansion, A = G(1-b1+a1) G(1-c1) / (G(1-c1+a1) G(1-b1)) and
    C = G(1-a2+b2) G(1-c2) / (G(1-c2+b2) G(1-a2))."""
    a1, b1, c1, a2, b2, c2 = _coefficient_args(nu, mu, lam)
    lg = mp.loggamma
    log_a = lg(1 - b1 + a1) + lg(1 - c1) - lg(1 - c1 + a1) - lg(1 - b1)
    log_c = lg(1 - a2 + b2) + lg(1 - c2) - lg(1 - c2 + b2) - lg(1 - a2)
    return log_a, log_c


def rt_gamma(a: float, b: float, m: float, energy: float,
             dps: int = DPS) -> tuple[float, float]:
    """R = |C/A|^2 and T = (mu/nu)/|A|^2 through log-Gamma."""
    with mp.workdps(dps):
        nu, mu, lam = momenta(a, b, m, energy)
        log_a, log_c = connection(nu, mu, lam)
        refl = mp.exp(2 * (mp.re(log_c) - mp.re(log_a)))
        trans = mp.re(mu) / mp.re(nu) * mp.exp(-2 * mp.re(log_a))
        return +refl, +trans


def wave(kind: str, a: float, b: float, m: float, energy: float, x):
    """psi of the incident, reflected or transmitted wave at x, at the
    working precision (so that mpmath.diff can raise it):

        transmitted  e^{2ib mu x} (1+t)^lam  F(a1, b2; 1-2 i mu; -t),  t = e^{-2bx}
        incident   A e^{2ib nu x} (1+s)^lam  F(a1, b1; c1; -s),        s = e^{2bx}
        reflected  C e^{-2ib nu x} (1+s)^lam F(a2, b2; c2; -s)
    """
    nu, mu, lam = momenta(a, b, m, energy)
    a1, b1, c1, a2, b2, c2 = _coefficient_args(nu, mu, lam)
    b, x = mp.mpf(b), mp.mpf(x)
    if kind == "transmitted":
        t = mp.exp(-2 * b * x)
        return (mp.exp(2j * b * mu * x + lam * mp.log1p(t))
                * mp.hyp2f1(a1, b2, 1 + a1 - b1, -t))
    log_a, log_c = connection(nu, mu, lam)
    s = mp.exp(2 * b * x)
    if kind == "incident":
        return (mp.exp(log_a + 2j * b * nu * x + lam * mp.log1p(s))
                * mp.hyp2f1(a1, b1, c1, -s))
    if kind == "reflected":
        return (mp.exp(log_c - 2j * b * nu * x + lam * mp.log1p(s))
                * mp.hyp2f1(a2, b2, c2, -s))
    raise ValueError(kind)
