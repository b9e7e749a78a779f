"""mpmath ground truth for the tests, free of dkpscatter and numpy: the band
of an energy, R and T by the elementary form and by the log-Gamma route, and
the three waves.  Each takes the doubles (a, b, m, E) of V(x) = a tanh(bx),
forms E +- a and E +- a -+ m exactly, and works at digits(a, b, m, E)."""

import math

import mpmath as mp


def digits(a, b, m, energy):
    """40, two per decade of (|E| + 2|a| + m)/b and the decades |nu| - |mu|
    cancels, (|E| + |a|)^2/|aE|; at least 50."""
    extra = 2.0 * max(0.0, math.log10(abs(energy) + 2.0 * abs(a) + m) - math.log10(b))
    if a and energy:
        extra += max(0.0, 2.0 * math.log10(abs(energy) + abs(a))
                     - math.log10(abs(a)) - math.log10(abs(energy)))
    return max(50, int(40 + extra))


def band(a, m, energy):
    """The band token: "boundary" within 1e-9 of a threshold (as doubles) or
    with no channel open, |E +- a| > m; with both open I, V or III by the
    signs of E +- a; with only E + a open II, with only E - a IV."""
    if any(abs(energy - ec) <= 1e-9 for ec in (-a - m, -a + m, a - m, a + m)):
        return "boundary"
    w_nu, w_mu = mp.fadd(energy, a, exact=True), mp.fsub(energy, a, exact=True)
    nu_open, mu_open = abs(w_nu) > m, abs(w_mu) > m
    if nu_open and mu_open:
        return "I" if min(w_nu, w_mu) > 0 else "V" if max(w_nu, w_mu) < 0 else "III"
    return "II" if nu_open else "IV" if mu_open else "boundary"


def kinematics(a, b, m, energy):
    """nu, mu (imaginary in a closed channel), lam, and b^2 - 4a^2."""

    def half_wavenumber(w):
        excess = mp.fsub(w, m, exact=True) * mp.fadd(w, m, exact=True)
        root = mp.sqrt(abs(excess)) / (2 * b)
        return mp.sign(w) * root if excess > 0 else 1j * root

    disc = mp.fsub(mp.fmul(b, b, exact=True), mp.fmul(2 * a, 2 * a, exact=True), exact=True)
    lam = (b + mp.sqrt(disc)) / (2 * b)  # 1/2 + i kappa for disc < 0
    return (half_wavenumber(mp.fadd(energy, a, exact=True)),
            half_wavenumber(mp.fsub(energy, a, exact=True)), lam, disc)


def _interior(nu, mu, lam):
    """The parameters of the two interior solutions, log A and log C."""
    al, ga = 1j * nu, 1j * mu
    a1, b1, c1 = al + lam - ga, al + lam + ga, 1 + 2 * al
    a2, b2, c2 = -al + lam + ga, -al + lam - ga, 1 - 2 * al
    lg = mp.loggamma
    log_a = lg(1 - b1 + a1) + lg(1 - c1) - lg(1 - c1 + a1) - lg(1 - b1)
    log_c = lg(1 - a2 + b2) + lg(1 - c2) - lg(1 - c2 + b2) - lg(1 - a2)
    return (a1, b1, c1), (a2, b2, c2), log_a, log_c


def elementary_rt(a, b, m, energy):
    """R and T (mpf), both channels open, by the elementary closed form."""
    with mp.workdps(digits(a, b, m, energy)):
        nu, mu, lam, disc = kinematics(a, b, m, energy)
        if disc < 0:
            s = mp.cosh(mp.pi * lam.imag) ** 2
        else:
            s = mp.sin(mp.pi * 2 * a * a / (b * (b + mp.sqrt(disc)))) ** 2
        den = s + mp.sinh(mp.pi * (nu + mu)) ** 2
        return ((s + mp.sinh(mp.pi * (nu - mu)) ** 2) / den,
                mp.sinh(2 * mp.pi * nu) * mp.sinh(2 * mp.pi * mu) / den)


def gamma_rt(a, b, m, energy):
    """R = |C/A|^2 and T = (mu/nu)/|A|^2 (mpf), both channels open."""
    with mp.workdps(digits(a, b, m, energy)):
        nu, mu, lam, _ = kinematics(a, b, m, energy)
        _, _, log_a, log_c = _interior(nu, mu, lam)
        return (mp.exp(2 * (mp.re(log_c) - mp.re(log_a))),
                mu / nu * mp.exp(-2 * mp.re(log_a)))


def wave(kind, a, b, m, energy, x):
    """(psi, theta = (i/m) psi') of a wave at x, as complex."""
    with mp.workdps(digits(a, b, m, energy)):
        nu, mu, lam, _ = kinematics(a, b, m, energy)
        (a1, b1, c1), (a2, b2, c2), log_a, log_c = _interior(nu, mu, lam)
        # log amplitude, wave number, side of z = -e^{2 side b x}, parameters
        amp, k, side, params = {"incident": (log_a, nu, 1, (a1, b1, c1)),
                                "reflected": (log_c, -nu, 1, (a2, b2, c2)),
                                "transmitted": (0, mu, -1, (a1, b2, 1 + a1 - b1))}[kind]

        def psi(x):
            u = mp.exp(2 * side * b * x)
            return mp.exp(amp + 2j * b * k * x + lam * mp.log1p(u)) * mp.hyp2f1(*params, -u)

        x = mp.mpf(x)
        return complex(psi(x)), complex(1j * mp.diff(psi, x) / m)
