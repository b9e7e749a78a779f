"""Command-line interface: output formats, exit codes, file handling, and the
self-check battery."""

import contextlib
import io
import math
import subprocess
import sys

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from mp_reference import band

from dkpscatter import Particle, Potential, scattering_coefficients, wavefunction
from dkpscatter import cli, scattering
from dkpscatter.cli import _build_parser, _emit, _Verifier, main

POINT_ARGS = ["point", "--a", "5", "--b", "3", "--m", "1", "--E", "7"]
SWEEP_ARGS = ["sweep", "--a", "5", "--b", "3", "--m", "1"]
WAVE_ARGS = ["wavefunction", "--a", "5", "--b", "3", "--m", "1", "--E", "7",
             "--kind", "incident"]
# (lo, hi, count) that a grid command rejects: too few points, an empty
# window, a NaN or infinite bound, and a width that overflows (the last three
# made np.linspace warn, a traceback under error::RuntimeWarning)
BAD_GRIDS = [
    ("-1", "1", "1"),
    ("2", "2", "5"),
    ("nan", "1", "3"),
    ("-1", "inf", "3"),
    ("-inf", "1", "3"),
    ("-1e308", "1e308", "3"),
]


def _parse_point(out: str) -> dict:
    pairs = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(" = ")
        pairs[key] = val
    return pairs


class TestPoint:
    def test_output_fields(self, capsys):
        assert main(POINT_ARGS) == 0
        pairs = _parse_point(capsys.readouterr().out)
        assert pairs["E"] == "7"
        assert pairs["region"] == "I"
        res = scattering_coefficients(Potential(5.0, 3.0), Particle(1.0), 7.0)
        assert abs(float(pairs["R"]) - res.R) <= 1e-11
        assert abs(float(pairs["T"]) - res.T) <= 1e-11
        assert abs(float(pairs["nu"]) - 1.993043457183566) <= 1e-11
        assert abs(float(pairs["mu"]) - 0.2886751345948129) <= 1e-12
        assert abs(float(pairs["R+T-1"])) <= 1e-11

    def test_evanescent_momentum_rendered_complex(self, capsys):
        assert main(["point", "--a", "5", "--b", "3", "--m", "1", "--E", "5"]) == 0
        pairs = _parse_point(capsys.readouterr().out)
        assert pairs["mu"].endswith("j")
        assert pairs["R"] == "1" and pairs["T"] == "0"

    def test_one_energy_decision(self, monkeypatch, capsys):
        # nu and mu come from the call that gives R and T: one table, counted
        # at the name the CLI imported and at the one the library calls
        calls = []
        table = scattering.scattering_table
        counted = lambda *args: calls.append(args) or table(*args)  # noqa: E731
        monkeypatch.setattr(scattering, "scattering_table", counted)
        monkeypatch.setattr(cli, "scattering_table", counted)
        assert main(POINT_ARGS) == 0
        assert len(calls) == 1

    def test_boundary_energy_fails(self, capsys):
        assert main(["point", "--a", "5", "--b", "3", "--m", "1", "--E", "6"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_bad_mass_fails(self, capsys):
        assert main(["point", "--a", "5", "--b", "3", "--m", "-1", "--E", "7"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_header_and_roundtrip(self, capsys):
        args = SWEEP_ARGS + ["--emin", "6.5", "--emax", "9.5", "--steps", "4"]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "E,R,T,unitarity_defect,region"
        assert len(lines) == 5
        pot, par = Potential(5.0, 3.0), Particle(1.0)
        for line in lines[1:]:
            fields = line.split(",")
            res = scattering_coefficients(pot, par, float(fields[0]))
            # repr round-trip: the parsed floats must be bitwise identical
            assert float(fields[1]) == res.R
            assert float(fields[2]) == res.T
            assert fields[4] == res.region.token

    def test_blocked_band_rows_exact(self, capsys):
        args = SWEEP_ARGS + ["--emin", "4.2", "--emax", "5.8", "--steps", "3"]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[1] == "1.0" and fields[2] == "0.0"
            assert fields[4] == "II"

    def test_guarded_energies_logged_and_skipped(self, capsys):
        args = SWEEP_ARGS + ["--emin", "3.9999999996",
                             "--emax", "4.0000000004", "--steps", "3"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines() == ["E,R,T,unitarity_defect,region"]
        skips = [l for l in captured.err.splitlines() if l.startswith("skipping E = ")]
        assert len(skips) == 3
        assert "within boundary guard" in skips[0]

    def test_typed_error_after_guarded_energy(self, tmp_path, capsys):
        # E = 3.9999999996 is guarded, then nu = E/(2b) overflows at E = 5e9
        # with b = 1e-300: the skip line comes first, then the error, and no
        # file is written
        target = tmp_path / "sweep.csv"
        args = ["sweep", "--a", "5", "--b", "1e-300", "--m", "1",
                "--emin", "3.9999999996", "--emax", "1e10",
                "--steps", "3", "--out", str(target)]
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            "skipping E = 3.9999999996: within boundary guard",
            "error: kinematics out of floating-point range at E=5000000002.0, "
            "a=5.0, b=1e-300, m=1.0",
        ]
        assert not target.exists()

    def test_output_file_byte_stable(self, tmp_path):
        first = tmp_path / "sweep1.csv"
        second = tmp_path / "sweep2.csv"
        args = SWEEP_ARGS + ["--emin", "1.1", "--emax", "3.9", "--steps", "7"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        blob = first.read_bytes()
        assert blob == second.read_bytes()
        assert b"\r" not in blob and blob.endswith(b"\n")

    def test_unwritable_output_path(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "sweep.csv"
        args = SWEEP_ARGS + ["--emin", "6.5", "--emax", "9.5", "--steps", "3",
                             "--out", str(target)]
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err
        assert not target.exists()

    def test_degenerate_window_rejected(self, capsys):
        args = SWEEP_ARGS + ["--emin", "3.0", "--emax", "2.0", "--steps", "5"]
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lo,hi,count", BAD_GRIDS)
    def test_bad_grid_rejected(self, tmp_path, capsys, lo, hi, count):
        target = tmp_path / "sweep.csv"
        args = SWEEP_ARGS + [f"--emin={lo}", f"--emax={hi}", "--steps", count,
                             "--out", str(target)]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: sweep needs ")
        assert not target.exists()


class TestRegions:
    def test_band_listing(self, capsys):
        assert main(["regions", "--a", "2", "--m", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "boundaries: -3 -1 1 3",
            "V: E < -3",
            "IV: -3 < E < -1",
            "III: -1 < E < 1",
            "II: 1 < E < 3",
            "I: E > 3",
        ]

    def test_coalesced_thresholds(self, capsys):
        # a = m: the superradiant band closes to a point
        assert main(["regions", "--a", "1", "--m", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "boundaries: -2 0 0 2"
        assert "(degenerate band at E = 0: empty)" in lines

    @pytest.mark.parametrize("a,m,edge,middle", [
        # -a - m - 1 rounded onto -a - m: band V came out empty, III unbounded
        ("1e17", "1", "1e+17", "III"),
        # (E +- a)^2 overflowed where a band was labelled: status 1
        ("1e200", "1", "1e+200", "III"), ("1", "1e200", "1e+200", "boundary")])
    def test_far_thresholds(self, capsys, a, m, edge, middle):
        assert main(["regions", "--a", a, "--m", m]) == 0
        empty = "(degenerate band at E = {}: empty)"
        assert capsys.readouterr().out.splitlines() == [
            f"boundaries: -{edge} -{edge} {edge} {edge}", f"V: E < -{edge}",
            empty.format(f"-{edge}"), f"{middle}: -{edge} < E < {edge}",
            empty.format(edge), f"I: E > {edge}"]

    def test_infinite_thresholds(self, capsys):
        # a + m overflows: an error line and status 1, not "E < -inf"
        assert main(["regions", "--a", "1.7e308", "--m", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_a=st.floats(-300.0, 300.0), log_m=st.floats(-300.0, 300.0),
           log_ratio=st.floats(-3.0, 3.0), sign=st.sampled_from([1.0, -1.0]),
           kind=st.sampled_from(["free", "ratio", "m", "0"]))
    def test_labels_follow_band_rule(self, log_a, log_m, log_ratio, sign, kind):
        # |a| and m log-uniform over 1e+-300, apart or within 1e3, |a| = m or
        # a = 0; each label is the band of a point inside it
        m = 10.0 ** log_m
        a = sign * {"free": 10.0 ** log_a, "ratio": m * 10.0 ** log_ratio,
                    "m": m, "0": 0.0}[kind]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["regions", f"--a={a!r}", f"--m={m!r}"]) == 0
        lines = out.getvalue().splitlines()
        crits = scattering.critical_energies(Potential(a, 1.0), Particle(m))
        assert len(lines) == 6
        assert band(a, m, crits[0] - max(1.0, -crits[0])) == lines[1].split(":")[0] == "V"
        assert band(a, m, crits[3] + max(1.0, crits[3])) == lines[5].split(":")[0] == "I"
        for line, lo, hi in zip(lines[2:5], crits, crits[1:]):
            if hi - lo <= 2e-9:
                assert line == f"(degenerate band at E = {cli._fmt12(lo)}: empty)"
            else:
                assert band(a, m, lo + 0.5 * (hi - lo)) == line.split(":")[0]


class TestWavefunctionCommand:
    @pytest.mark.parametrize("kind", ["incident", "reflected", "transmitted"])
    def test_rows_match_library(self, capsys, kind):
        args = ["wavefunction", "--a", "5", "--b", "3", "--m", "1", "--E", "7",
                "--xmin", "-1", "--xmax", "1", "--samples", "5",
                "--kind", kind]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,re_psi,im_psi,re_phi,im_phi,re_theta,im_theta"
        assert len(lines) == 6
        pot, par = Potential(5.0, 3.0), Particle(1.0)
        for line in lines[1:]:
            f = [float(v) for v in line.split(",")]
            trip = wavefunction(f[0], kind, pot, par, 7.0)
            assert complex(f[1], f[2]) == trip.psi
            assert complex(f[3], f[4]) == trip.phi
            assert complex(f[5], f[6]) == trip.theta

    def test_failure_mid_grid_leaves_no_file(self, tmp_path, capsys):
        # the last samples fall outside the overflow window
        target = tmp_path / "wave.csv"
        args = ["wavefunction", "--a", "5", "--b", "3", "--m", "1", "--E", "7",
                "--xmin", "0", "--xmax", "150", "--samples", "5",
                "--kind", "transmitted", "--out", str(target)]
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("lo,hi,count", BAD_GRIDS)
    def test_bad_grid_rejected(self, tmp_path, capsys, lo, hi, count):
        target = tmp_path / "wave.csv"
        args = WAVE_ARGS + [f"--xmin={lo}", f"--xmax={hi}", "--samples", count,
                            "--out", str(target)]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: wavefunction needs ")
        assert not target.exists()

    def test_unknown_kind_is_usage_error(self):
        args = ["wavefunction", "--a", "5", "--b", "3", "--m", "1", "--E", "7",
                "--xmin", "0", "--xmax", "1", "--samples", "3",
                "--kind", "sideways"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2


def _band_energy(band, a, m, margin, u):
    """An energy in band I, III or V of the step (a > m), margin m from the
    thresholds, at the fraction u of its range."""
    if band == "III":
        edge = a - m * (1.0 + margin)
        return -edge + 2.0 * edge * u
    energy = a + m + m * (margin + (2.0 - margin) * u)
    return energy if band == "I" else -energy


def _run(argv):
    """(exit status, stdout, stderr) of main, a usage error included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _status(argv):
    return _run(argv)[0]


class TestBenchmarkFamilies:
    """The parameter families of the benchmark's workloads: every command
    exits with status 0 or 1 there, and no exception leaves main."""

    # the examples of the test without the @example below
    @seed(int("9cf3b8ca2189c0cf026d52baf3db62a20dbb41f10b0c315169bb52fb7da88a3e"
              "7ca9b79b88f1ef3bb207793e69e31354", 16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.floats(0.5, 2.0), ratio=st.floats(2.0, 4.0),
           band=st.sampled_from(["I", "III"]), u=st.floats(0.0, 1.0),
           q=st.floats(2.0, 3.0))
    # E = -5.4117553133448126e-05, whose repr has an exponent; the benchmark
    # draws it as (a, b, m, E) = (5.237878843209809, 1.8343617591921515,
    # 1.4091910276461166, E)
    @example(m=1.4091910276461166, ratio=3.716940244758053, band="III",
             u=0.49999237103922023, q=2.8554525488307796)
    def test_wavefunction(self, m, ratio, band, u, q):
        a = m * ratio
        energy = _band_energy(band, a, m, 0.2, u)
        b = (abs(energy) + a) / q
        span = 2.0 / b
        for kind in ("incident", "reflected", "transmitted"):
            assert _status(["wavefunction", "--a", repr(a), "--b", repr(b),
                            "--m", repr(m), "--E", repr(energy),
                            "--xmin", repr(-span), "--xmax", repr(span),
                            "--samples", "200", "--kind", kind]) in (0, 1)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(m=st.floats(0.5, 2.0), log_b=st.floats(math.log(0.5), math.log(8.0)))
    def test_sweep(self, m, log_b):
        # a = 3m on [-6m, 6m], with a grid point on every threshold
        assert _status(["sweep", "--a", repr(3.0 * m), "--b", repr(math.exp(log_b)),
                        "--m", repr(m), "--emin", repr(-6.0 * m),
                        "--emax", repr(6.0 * m), "--steps", "241"]) in (0, 1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=st.floats(0.5, 2.0), ratio=st.floats(1.5, 4.0),
           log_b=st.floats(math.log(0.5), math.log(8.0)),
           band=st.sampled_from(["I", "II", "III", "IV", "V"]), u=st.floats(0.0, 1.0))
    def test_point(self, m, ratio, log_b, band, u):
        a = m * ratio
        if band in ("II", "IV"):
            energy = a - m + 2.0 * m * (0.05 + 0.9 * u)
            energy = energy if band == "II" else -energy
        else:
            energy = _band_energy(band, a, m, 0.05, u)
        assert _status(["point", "--a", repr(a), "--b", repr(math.exp(log_b)),
                        "--m", repr(m), "--E", repr(energy)]) in (0, 1)


class TestEmit:
    def test_mid_write_failure_removes_file(self, tmp_path):
        target = tmp_path / "partial.csv"

        def rows():
            yield "header"
            raise RuntimeError("source died")

        with pytest.raises(RuntimeError):
            _emit(rows(), str(target))
        assert not target.exists()


class TestVerify:
    def test_full_battery_passes(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            "PASS unitarity", "PASS oracle-equivalence", "PASS step-limit",
            "PASS matrix-algebra", "PASS component-residuals",
            "PASS evanescent-bands"]
        assert "over 8 energies" in lines[1]
        assert lines[-1] == "all 6 checks passed"

    def test_deliberate_sign_error_is_caught(self, capsys):
        assert main(["verify", "--flip-mu-sign"]) == 1
        out = capsys.readouterr().out
        assert "FAIL oracle-equivalence" in out
        assert out.count("PASS") == 5
        assert out.endswith("1 of 6 checks failed\n")

    def test_checks_are_counted(self, capsys):
        v = _Verifier()
        for ok in (True, False, True):
            v.check("c", ok, "detail")
        assert (v.total, v.failures) == (3, 1)
        assert capsys.readouterr().out.splitlines() == [
            "PASS c: detail", "FAIL c: detail", "PASS c: detail"]


class TestParserReuse:
    def test_outputs_do_not_change_across_calls(self, tmp_path, capsys):
        # the parser is built once per process: commands, failures and usage
        # errors in one process give what each gives on its own
        runs = [
            POINT_ARGS,
            SWEEP_ARGS + ["--emin", "3.9", "--emax", "4.1", "--steps", "5"],
            ["regions", "--a", "2", "--m", "1"],
            ["point", "--a", "5", "--b", "3", "--m", "1", "--E", "6"],
            ["wavefunction", "--a", "5", "--b", "3", "--m", "1", "--E", "7",
             "--xmin", "-1", "--xmax", "1", "--samples", "3", "--kind", "incident"],
        ]

        def run(argv):
            rc = main(argv)
            captured = capsys.readouterr()
            return rc, captured.out, captured.err

        first = [run(argv) for argv in runs]
        assert [rc for rc, _, _ in first] == [0, 0, 0, 1, 0]
        again = []
        for argv in reversed(runs):
            with pytest.raises(SystemExit) as exc:
                main(["point", "--a", "5", "--b", "3", "--m", "1"])
            assert exc.value.code == 2
            capsys.readouterr()
            again.append(run(argv))
        assert again[::-1] == first
        assert _build_parser() is _build_parser()


class TestUsage:
    def test_missing_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["point", "--a", "5", "--b", "3", "--m", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--quick"],
        ["regions", "--a", "5", "--m", "1", "--b", "3"],
    ])
    def test_removed_option(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dkpscatter.cli"] + POINT_ARGS,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "R = " in proc.stdout
        assert "region = I" in proc.stdout


# a command that is valid with a finite value of its last option
FLOAT_COMMANDS = {
    "--a": ["regions", "--m", "1", "--a"],
    "--b": ["point", "--a", "5", "--m", "1", "--E", "7", "--b"],
    "--m": ["regions", "--a", "5", "--m"],
    "--E": ["point", "--a", "5", "--b", "3", "--m", "1", "--E"],
    "--emin": SWEEP_ARGS + ["--emax", "9", "--steps", "3", "--emin"],
    "--emax": SWEEP_ARGS + ["--emin", "-9", "--steps", "3", "--emax"],
    "--xmin": WAVE_ARGS + ["--xmax", "1", "--samples", "2", "--xmin"],
    "--xmax": WAVE_ARGS + ["--xmin", "-1", "--samples", "2", "--xmax"],
}


class TestNegativeFloats:
    """Every float option takes every float literal as its value, negative ones
    in exponent form, -inf and -nan included: usage errors (status 2) are for
    malformed commands, not for values."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(option=st.sampled_from(sorted(FLOAT_COMMANDS)), x=st.floats())
    @example(option="--E", x=-1e-05)
    @example(option="--emin", x=-1e20)
    @example(option="--xmin", x=-1e-05)
    @example(option="--E", x=-math.inf)
    def test_never_a_usage_error(self, option, x):
        argv = FLOAT_COMMANDS[option] + [repr(x)]
        assert _run(argv)[0] in (0, 1)
        parsed = getattr(_build_parser().parse_args(argv), option[2:])
        assert parsed == x or (math.isnan(parsed) and math.isnan(x))

    @pytest.mark.parametrize("literal", ["-1e-05", "-.5", "-2.5E+0", "-inf", "-nan",
                                         "-Infinity"])
    def test_same_as_attached_value(self, literal):
        # --E -1e-05 reads as --E=-1e-05; a non-finite energy is a typed error
        head = ["point", "--a", "5", "--b", "3", "--m", "1"]
        separate, attached = _run(head + ["--E", literal]), _run(head + [f"--E={literal}"])
        assert separate == attached
        rc, out, err = separate
        if math.isfinite(float(literal)):
            assert (rc, err) == (0, "") and "region = III" in out
        else:
            assert rc == 1 and err.startswith("error: ")

    def test_option_names_still_rejected(self):
        # a value that is no float literal is still read as an option name
        assert _run(["point", "--a", "5", "--b", "3", "--m", "1", "--E", "-x"])[0] == 2
