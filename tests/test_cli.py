import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import denoise1d
from denoise1d import cli, diffusion
from denoise1d import (
    CouplingParams,
    EnergySpec,
    Family,
    FamilySpec,
    Role,
    Signal1D,
    StepSizeMode,
    chain,
    check_range_preservation,
    count_sign_changes,
    iterate_shrinkage,
    make_diffusion_block,
    make_role_function,
    max_stable_tau,
    minimize_by_diffusion,
    translate,
)
from denoise1d.cli import (
    NoiseModel,
    add_noise,
    generate_signal,
    main,
    read_signal_csv,
    write_signal_csv,
)
from denoise1d.diffusion import _STEP_BUDGET, _last, _lipschitz, _states

SRC = os.path.dirname(os.path.dirname(os.path.abspath(denoise1d.__file__)))
METHODS = ("diffusion", "wavelet", "variational", "resnet")


class TestGenerateSignal:
    def test_spike(self):
        np.testing.assert_array_equal(
            generate_signal("spike", 5).values, [0.0, 0.0, 1.0, 0.0, 0.0]
        )

    def test_step(self):
        np.testing.assert_array_equal(generate_signal("step", 4).values, [0.0, 0.0, 1.0, 1.0])

    def test_sine(self):
        n = 16
        got = generate_signal("sine", n).values
        np.testing.assert_allclose(got, np.sin(2 * np.pi * np.arange(n) / n), atol=0)

    def test_piecewise_levels(self):
        got = generate_signal("piecewise", 8, params=(0.0, 1.0)).values
        np.testing.assert_array_equal(got, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_piecewise_needs_a_sample_per_level(self):
        with pytest.raises(ValueError, match="N >= 5"):
            generate_signal("piecewise", 3, params=(1.0, 2.0, 3.0, 4.0, 5.0))
        np.testing.assert_array_equal(generate_signal("piecewise", 3, params=(1.0, 2.0, 3.0)).values, [1, 2, 3])

    def test_piecewise_with_fewer_samples_than_levels_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        argv = ["generate", "--kind", "piecewise", "--n", "3", "--levels", "1,2,3,4,5", "--out", str(out)]
        assert main(argv) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_levels_are_rejected(self):
        with pytest.raises(ValueError, match="finite and nonempty"):
            generate_signal("piecewise", 8, params=())

    @pytest.mark.parametrize("kind", ("spike", "step", "sine"))
    @pytest.mark.parametrize("params", ((5.0, 6.0), ()))
    def test_params_of_a_kind_without_levels_are_rejected(self, kind, params):
        with pytest.raises(ValueError, match=f"{kind} takes no params"):
            generate_signal(kind, 8, params=params)

    @pytest.mark.parametrize("argv,err", [
        (["--kind", "step", "--levels", "5,6"], "--kind step does not read --levels"),
        (["--kind", "sine", "--levels="], "--kind sine does not read --levels"),
        (["--kind", "piecewise", "--levels="], "piecewise levels must be finite and nonempty"),
        (["--kind", "piecewise", "--levels", ""], "piecewise levels must be finite and nonempty"),
    ])
    def test_levels_it_cannot_use_are_a_usage_error(self, tmp_path, capsys, argv, err):
        out = tmp_path / "g.csv"
        assert main(["generate", "--n", "8", "--out", str(out)] + argv) == 1
        assert capsys.readouterr() == ("", f"usage error: {err}\n")
        assert os.listdir(tmp_path) == []

    def test_bad_inputs(self):
        with pytest.raises(Exception):
            generate_signal("spike", 0)
        with pytest.raises(Exception):
            generate_signal("sawtooth", 5)


class TestAddNoise:
    def test_none_returns_input(self):
        u = Signal1D([1.0, 2.0])
        assert add_noise(u, NoiseModel()) is u

    def test_same_seed_is_reproducible(self):
        u = Signal1D(np.zeros(50))
        a = add_noise(u, NoiseModel("gaussian", 0.3), seed=7)
        b = add_noise(u, NoiseModel("gaussian", 0.3), seed=7)
        np.testing.assert_array_equal(a.values, b.values)
        c = add_noise(u, NoiseModel("gaussian", 0.3), seed=8)
        assert np.any(c.values != a.values)

    def test_zero_sigma_is_identity(self):
        u = Signal1D([1.0, 2.0])
        out = add_noise(u, NoiseModel("gaussian", 0.0), seed=1)
        np.testing.assert_array_equal(out.values, u.values)

    def test_uniform_bounds(self):
        u = Signal1D(np.zeros(1000))
        out = add_noise(u, NoiseModel("uniform", 0.5), seed=3)
        assert np.all(np.abs(out.values) <= 0.5)

    def test_negative_level_rejected(self):
        with pytest.raises(Exception):
            NoiseModel("gaussian", -1.0)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        u = Signal1D(rng.normal(size=64), h=0.5)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, u)
        back = read_signal_csv(path)
        np.testing.assert_array_equal(back.values, u.values)
        assert back.h == u.h

    def test_header_is_optional(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.5\n-2.25\n")
        u = read_signal_csv(path)
        np.testing.assert_array_equal(u.values, [1.5, -2.25])
        assert u.h == 1.0


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["denoise", "--method", "nonsense"]) == 1
        assert main(["generate", "--kind", "spike", "--n", "0", "--out", "x.csv"]) == 1

    def test_io_error_is_2(self, tmp_path):
        assert (
            main(
                ["denoise", "--method", "diffusion", "--input",
                 str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv"),
                 "--time", "0.25"]
            )
            == 2
        )

    def test_stability_violation_is_3(self, tmp_path):
        sig = tmp_path / "f.csv"
        assert main(["generate", "--kind", "spike", "--n", "5", "--out", str(sig)]) == 0
        code = main(
            ["denoise", "--method", "diffusion", "--input", str(sig),
             "--out", str(tmp_path / "o.csv"), "--steps", "3", "--tau", "0.75"]
        )
        assert code == 3

    @pytest.mark.parametrize("method", ("diffusion", "wavelet", "variational", "resnet"))
    def test_negative_steps_are_usage_errors(self, tmp_path, method):
        sig = tmp_path / "f.csv"
        out = tmp_path / "o.csv"
        main(["generate", "--kind", "step", "--n", "8", "--out", str(sig)])
        args = ["denoise", "--method", method, "--input", str(sig), "--out", str(out)]
        assert main(args + ["--steps", "-3"]) == 1
        assert not out.exists()
        assert main(args + ["--steps", "0"]) == (1 if method == "variational" else 0)

    @pytest.mark.parametrize("points", ("nan", "inf", "1.0,-inf", "nan,inf", "-inf"))
    def test_non_finite_translate_points_are_usage_errors(self, capsys, points):
        assert main(["translate", "--to", "activation", "--at", points]) == 1
        assert capsys.readouterr().out == ""

    def test_non_ascii_input_is_io_error(self, tmp_path, capsys):
        sig = tmp_path / "f.csv"
        sig.write_bytes("1.0\n\u00e9\n".encode("utf-8"))
        code = main(["denoise", "--method", "diffusion", "--input", str(sig),
                     "--out", str(tmp_path / "o.csv"), "--time", "0.25"])
        assert code == 2
        assert capsys.readouterr().err.startswith("i/o error:")

    def test_noise_without_seed_is_usage_error(self, tmp_path):
        sig = tmp_path / "f.csv"
        main(["generate", "--kind", "spike", "--n", "5", "--out", str(sig)])
        code = main(
            ["noise", "--input", str(sig), "--out", str(tmp_path / "n.csv"),
             "--noise", "gaussian", "--sigma", "0.1"]
        )
        assert code == 1


def _denoise(method, *flags):
    return ("denoise", "--method", method) + flags


# One bad flag per case: the argv after --input/--out(dir), the usage
# error line, and whether the check fires before the input is opened
# (then a missing input does not change the error).
FLAG_CASES = {
    "family": (_denoise("diffusion", "--time", "1", "--family", "nope"),
               "unknown family 'nope'", True),
    "tau-negative": (_denoise("diffusion", "--time", "1", "--tau", "-1"),
                     "tau must be positive and finite, got -1.0", True),
    "tau-nan": (_denoise("diffusion", "--time", "1", "--tau", "nan"),
                "tau must be positive and finite, got nan", True),
    "noise-no-sigma": (_denoise("diffusion", "--time", "1", "--noise", "gaussian", "--seed", "1"),
                       "gaussian noise needs --sigma", True),
    "noise-no-seed": (_denoise("diffusion", "--time", "1", "--noise", "gaussian", "--sigma", "0.1"),
                      "a seed is mandatory when noise is added", True),
    "neither-time-nor-steps": (_denoise("diffusion"),
                               "give exactly one of stopping time and step count", True),
    "both-time-and-steps": (_denoise("diffusion", "--time", "1", "--steps", "2"),
                            "give exactly one of stopping time and step count", True),
    "steps-negative": (_denoise("diffusion", "--steps", "-1"),
                       "diffusion needs --steps >= 0, got -1", True),
    "variational-steps-0": (_denoise("variational", "--steps", "0"),
                            "variational needs --steps >= 1, got 0", True),
    "wavelet-time": (_denoise("wavelet", "--time", "1"),
                     "method 'wavelet' needs --steps, not --time", True),
    "compare-family": (("compare", "--family", "nope"), "unknown family 'nope'", True),
    "compare-tau-negative": (("compare", "--tau", "-1"),
                             "tau must be positive and finite, got -1.0", True),
    "compare-tau-nan": (("compare", "--tau", "nan"), "tau must be positive and finite, got nan", True),
    "compare-steps-0": (("compare", "--steps", "0"), "variational needs --steps >= 1, got 0", True),
    "compare-steps-negative": (("compare", "--steps", "-1"),
                               "diffusion needs --steps >= 0, got -1", True),
    "stability-family": (("stability", "--family", "nope"), "unknown family 'nope'", True),
    "stability-steps-0": (("stability", "--steps", "0"),
                          "stability needs --steps >= 1, got 0", True),
    "stability-steps-negative": (("stability", "--steps", "-1"),
                                 "stability needs --steps >= 1, got -1", True),
    "stability-tau-negative": (("stability", "--tau", "-1"),
                               "tau must be positive and finite, got -1.0", True),
    "stability-tau-nan": (("stability", "--tau", "nan"),
                          "tau must be positive and finite, got nan", True),
    "seed-negative": (_denoise("diffusion", "--time", "1", "--noise", "uniform",
                               "--amplitude", "0.1", "--seed", "-3"),
                      "--seed must be nonnegative, got -3", True),
    "noise-command-no-seed": (("noise", "--noise", "gaussian", "--sigma", "0.1"),
                              "a seed is mandatory when noise is added", True),
    "noise-command-no-sigma": (("noise", "--noise", "uniform", "--seed", "1"),
                               "uniform noise needs --amplitude", True),
    "noise-command-seed-negative": (("noise", "--noise", "gaussian", "--sigma", "0.1",
                                     "--seed", "-1"),
                                    "--seed must be nonnegative, got -1", True),
    "noise-command-seed-unread": (("noise", "--seed", "-3"),
                                  "--noise none does not read --seed", True),
    "noise-command-sigma-unread": (("noise", "--sigma", "0.1"),
                                   "--noise none does not read --sigma", True),
    "noise-command-uniform-sigma": (("noise", "--noise", "uniform", "--amplitude", "0.1",
                                     "--sigma", "0.2", "--seed", "1"),
                                    "--noise uniform does not read --sigma", True),
    "seed-unread": (_denoise("diffusion", "--steps", "2", "--seed", "5"),
                    "--noise none does not read --seed", True),
    "gaussian-amplitude": (_denoise("diffusion", "--time", "1", "--noise", "gaussian",
                                    "--sigma", "0.1", "--amplitude", "0.1", "--seed", "1"),
                           "--noise gaussian does not read --amplitude", True),
}


class TestFlagContract:
    @pytest.mark.parametrize("case", FLAG_CASES)
    def test_one_bad_flag(self, tmp_path, capsys, case):
        argv, line, before_read = FLAG_CASES[case]
        sig = tmp_path / "f.csv"
        main(["generate", "--kind", "step", "--n", "8", "--out", str(sig)])
        out_flag = "--outdir" if argv[0] == "compare" else "--out"
        for inp in (sig, tmp_path / "missing.csv") if before_read else (sig,):
            capsys.readouterr()
            code = main([argv[0], "--input", str(inp), out_flag, str(tmp_path / "out")]
                        + list(argv[1:]))
            assert (code, capsys.readouterr().err) == (1, f"usage error: {line}\n")
            assert os.listdir(tmp_path) == ["f.csv"]


class TestNegativeLists:
    @pytest.mark.parametrize("points", ("-1.5,2", "-1e-3", "-.5,-2", "-1", "2,-3"))
    def test_at_with_a_space_parses_like_at_equals(self, capsys, points):
        argv = ["translate", "--family", "perona-malik", "--to", "activation"]
        assert main(argv + [f"--at={points}"]) == 0
        glued = capsys.readouterr()
        assert main(argv + ["--at", points]) == 0
        assert capsys.readouterr() == glued
        assert len(glued.out.split()) == len(points.split(","))

    def test_levels_with_a_space_parses_like_levels_equals(self, tmp_path):
        for name, levels in (("a.csv", ["--levels=-1,2"]), ("b.csv", ["--levels", "-1,2"]),
                             ("c.csv", ["--lev", "-1,2"]), ("d.csv", ["--leve", "-1,2"])):
            argv = ["generate", "--kind", "piecewise", "--n", "8", "--out", str(tmp_path / name)]
            assert main(argv + levels) == 0
        for name in ("b.csv", "c.csv", "d.csv"):
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / name).read_bytes()
        np.testing.assert_array_equal(read_signal_csv(tmp_path / "b.csv").values, [-1] * 4 + [2] * 4)

    @pytest.mark.parametrize("argv,flag", [
        (["translate", "--to", "activation", "--at"], "--at"),
        (["translate", "--to", "activation", "--at", "--family", "x"], "--at"),
        (["translate", "--to", "activation", "--at", "-h"], "--at"),
        (["generate", "--kind", "piecewise", "--n", "8", "--out", "g.csv", "--levels"], "--levels"),
        (["generate", "--kind", "piecewise", "--n", "8", "--levels", "--out", "g.csv"], "--levels"),
    ])
    def test_a_missing_value_is_still_a_usage_error(self, tmp_path, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"usage error: argument {flag}: expected one argument\n")
        assert os.listdir(tmp_path) == []


class TestDenoiseCommand:
    @pytest.mark.parametrize("out,report,link", [
        ("./x.csv", "x.csv", None),
        ("x.csv", "{tmp}/x.csv", None),
        ("sub/../x.csv", "./x.csv", None),
        ("x.csv", None, "x.csv.report"),  # the default report path links to the output
    ])
    def test_a_report_that_would_overwrite_the_output_is_a_usage_error(
            self, tmp_path, capsys, monkeypatch, out, report, link):
        monkeypatch.chdir(tmp_path)
        os.mkdir("sub")
        write_signal_csv("f.csv", generate_signal("sine", 16))
        if link:
            os.symlink("x.csv", link)
        argv = ["denoise", "--method", "diffusion", "--input", "f.csv", "--out", out, "--time", "1"]
        if report:
            argv += ["--report", report.format(tmp=tmp_path)]
        before = sorted(os.listdir(tmp_path))
        assert main(argv) == 1
        assert "would overwrite --out" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == before and os.listdir("sub") == []
        # The paths are checked before the input is read: a missing input
        # is not an i/o error here.
        assert main([a.replace("f.csv", "missing.csv") for a in argv]) == 1

    def test_zero_time_returns_the_input(self, tmp_path):
        sig = tmp_path / "f.csv"
        out = tmp_path / "o.csv"
        main(["generate", "--kind", "sine", "--n", "32", "--out", str(sig)])
        assert (
            main(["denoise", "--method", "diffusion", "--input", str(sig),
                  "--out", str(out), "--time", "0"]) == 0
        )
        np.testing.assert_array_equal(read_signal_csv(out).values, read_signal_csv(sig).values)
        assert (tmp_path / "o.csv.report").exists()  # report written by default

    @pytest.mark.parametrize("method", ("diffusion", "wavelet", "variational", "resnet"))
    def test_each_method_runs_and_reports(self, tmp_path, method):
        sig = tmp_path / "f.csv"
        out = tmp_path / "o.csv"
        rep = tmp_path / "rep.txt"
        main(["generate", "--kind", "step", "--n", "24", "--out", str(sig)])
        args = ["denoise", "--method", method, "--input", str(sig), "--out", str(out),
                "--family", "perona-malik", "--report", str(rep), "--steps", "8"]
        if method == "diffusion":
            args = args[:-2] + ["--time", "2.0"]
        assert main(args) == 0
        result = read_signal_csv(out)
        assert len(result) == 24
        report = dict(line.split("=", 1) for line in rep.read_text().splitlines())
        assert report["range_ok"] == "true"

    def test_seeded_noise_then_denoise_is_deterministic(self, tmp_path):
        sig = tmp_path / "f.csv"
        main(["generate", "--kind", "sine", "--n", "40", "--out", str(sig)])
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(
                ["denoise", "--method", "diffusion", "--input", str(sig),
                 "--out", str(out), "--time", "1.0", "--family", "charbonnier",
                 "--noise", "gaussian", "--sigma", "0.1", "--seed", "123"]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestTranslateCommand:
    def test_perona_malik_flux_value(self, capsys):
        code = main(
            ["translate", "--family", "perona-malik", "--to", "activation", "--at", "1.0"]
        )
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert abs(printed - math.exp(-0.5)) < 1e-15

    def test_multiple_points(self, capsys):
        code = main(
            ["translate", "--family", "truncated-tv", "--from-role", "diffusivity",
             "--to", "shrinkage", "--at", "0.5,2.0"]
        )
        assert code == 0
        vals = [float(s) for s in capsys.readouterr().out.split()]
        assert vals == [0.0, 1.0]  # soft shrinkage with theta = 1


class TestStabilityCommand:
    def test_report_lines(self, tmp_path, capsys):
        sig = tmp_path / "f.csv"
        main(["generate", "--kind", "spike", "--n", "9", "--out", str(sig)])
        code = main(["stability", "--input", str(sig), "--tau", "0.25", "--steps", "20"])
        assert code == 0
        out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert out["range_ok"] == "true"
        assert out["sign_stable"] == "true"
        assert float(out["tau_sign"]) == float(out["tau_maxmin"]) / 2.0

    def test_unstable_exits_3(self, tmp_path, capsys):
        sig = tmp_path / "f.csv"
        main(["generate", "--kind", "spike", "--n", "3", "--out", str(sig)])
        assert main(["stability", "--input", str(sig), "--tau", "0.75", "--steps", "10"]) == 3


class TestCompareCommand:
    def test_spike_constant_family_all_methods_agree(self, tmp_path, capsys):
        sig = tmp_path / "f.csv"
        main(["generate", "--kind", "spike", "--n", "5", "--out", str(sig)])
        outdir = tmp_path / "cmp"
        code = main(
            ["compare", "--input", str(sig), "--outdir", str(outdir),
             "--family", "constant", "--tau", "0.25", "--steps", "1"]
        )
        assert code == 0
        deltas = dict(
            line.split("=", 1)
            for line in (outdir / "deltas.txt").read_text().splitlines()
        )
        assert float(deltas["delta_max"]) <= 1e-12
        ref = read_signal_csv(outdir / "diffusion.csv")
        np.testing.assert_array_equal(ref.values, [0.0, 0.25, 0.5, 0.25, 0.0])

    def test_byte_identical_reruns(self, tmp_path):
        sig = tmp_path / "f.csv"
        main(["generate", "--kind", "piecewise", "--n", "20", "--out", str(sig)])
        blobs = []
        for name in ("c1", "c2"):
            outdir = tmp_path / name
            assert (
                main(["compare", "--input", str(sig), "--outdir", str(outdir),
                      "--family", "perona-malik", "--tau", "0.25", "--steps", "4"]) == 0
            )
            blobs.append(
                b"".join(
                    (outdir / f).read_bytes()
                    for f in ("diffusion.csv", "wavelet.csv", "variational.csv",
                              "resnet.csv", "deltas.txt")
                )
            )
        assert blobs[0] == blobs[1]


def _read_per_line(path):
    # The line-at-a-time parser that read_signal_csv replaced; the
    # reference for its contract.
    h = 1.0
    samples = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("h="):
                    h = float(body[2:])
                continue
            samples.append(float(line))
    return Signal1D(np.array(samples), h)


def _written_per_line(u):
    # The bytes of the line-at-a-time writer that write_signal_csv replaced.
    return (f"# h={u.h:.17g}\n" + "".join(f"{v:.17g}\n" for v in u.values)).encode("ascii")


def _report(path):
    with open(path, encoding="ascii") as fh:
        return dict(line.split("=", 1) for line in fh.read().splitlines())


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
csv_lines = st.one_of(
    finite_floats.map(repr),
    finite_floats.map("{:.17g}".format),
    st.sampled_from(["", "  ", "# h=0.5", "  #h=2 ", "# comment", "#", "\t# h=1e-3"]),
)


class TestCsvContract:
    @pytest.mark.parametrize("values", [
        [-0.0, 0.0], [5e-324, -2.2250738585072014e-308, 1e-310], [1e308, -1e308],
        [0.1, 1.0 / 3.0, 123456789.0],
    ])
    def test_write_matches_the_per_line_bytes(self, tmp_path, values):
        u = Signal1D(values, h=0.1)
        path = tmp_path / "o.csv"
        write_signal_csv(path, u)
        assert path.read_bytes() == _written_per_line(u)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_floats, min_size=1, max_size=40),
           st.floats(min_value=1e-6, max_value=1e6))
    def test_write_then_read_is_exact(self, values, h):
        u = Signal1D(values, h)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "o.csv")
            write_signal_csv(path, u)
            with open(path, "rb") as fh:
                assert fh.read() == _written_per_line(u)
            back = read_signal_csv(path)
        np.testing.assert_array_equal(back.values, u.values)
        assert back.h == u.h

    @settings(max_examples=100, deadline=None)
    @given(st.lists(csv_lines, min_size=1, max_size=30), st.sampled_from(["\n", "\r\n", "\r"]),
           st.sampled_from(["", "  ", "\t"]))
    def test_read_matches_the_per_line_parser(self, lines, newline, pad):
        text = newline.join(pad + line + pad for line in lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.csv")
            with open(path, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
            try:
                want = _read_per_line(path)
            except ValueError as exc:  # no samples
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    read_signal_csv(path)
                return
            got = read_signal_csv(path)
        np.testing.assert_array_equal(got.values, want.values)
        assert got.h == want.h

    def test_headers_blanks_and_whitespace_anywhere(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"  1.5 \r\n\r\n# h=0.5\n-2\n\t3e-310\n  # h=0.25  \n4\n")
        u = read_signal_csv(path)
        np.testing.assert_array_equal(u.values, [1.5, -2.0, 3e-310, 4.0])
        assert u.h == 0.25

    @pytest.mark.parametrize("text", [
        "1\nabc\n2\n",
        "1\n# h=x\nabc\n",
        "abc\n# h=x\n",
        "# h=0.5\n1\n2,3\n",
    ])
    def test_the_first_bad_token_is_reported(self, tmp_path, capsys, text):
        sig = tmp_path / "f.csv"
        sig.write_text(text)
        with pytest.raises(ValueError) as want:
            _read_per_line(sig)
        code = main(["denoise", "--method", "diffusion", "--input", str(sig),
                     "--out", str(tmp_path / "o.csv"), "--time", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {want.value}\n"

    def test_non_ascii_is_still_an_io_error(self, tmp_path, capsys):
        sig = tmp_path / "f.csv"
        sig.write_bytes(b"1.0\n" * 5000 + "é\n".encode("utf-8"))
        code = main(["denoise", "--method", "wavelet", "--input", str(sig),
                     "--out", str(tmp_path / "o.csv"), "--steps", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("i/o error: 'ascii' codec can't decode")

    def test_non_ascii_after_a_bad_token_in_a_long_file_is_an_io_error(self, tmp_path, capsys):
        # The file is decoded whole before the first block is parsed.
        sig = tmp_path / "f.csv"
        body = b"0.12345678901234567\n" * (cli._CSV_BLOCK // 10)
        sig.write_bytes(body + b"abc\n" + body + "\u00e9\n".encode("utf-8"))
        code = main(["denoise", "--method", "diffusion", "--input", str(sig),
                     "--out", str(tmp_path / "o.csv"), "--steps", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("i/o error:")
        assert sorted(os.listdir(tmp_path)) == ["f.csv"]


csv_blocks = st.sampled_from((1, 2, 7, 40))
csv_lines_and_bad_tokens = st.one_of(csv_lines, st.sampled_from(["abc", "1,2", "# h=x", "0x1p3"]))


class TestCsvBlocks:
    """Reading and writing in blocks, with the block sizes patched small
    so that every block edge shows up in a short file, against the
    per-line parser and writer."""

    @settings(max_examples=200, deadline=None)
    @given(csv_blocks, st.lists(csv_lines_and_bad_tokens, min_size=0, max_size=30),
           st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", "  ", "\t"]))
    def test_read_matches_the_per_line_parser(self, block, lines, newline, pad):
        text = newline.join(pad + line + pad for line in lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.csv")
            with open(path, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
            try:
                want = _read_per_line(path)
            except ValueError as exc:  # a bad token, or no samples
                with mock.patch.object(cli, "_CSV_BLOCK", block), \
                        pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    read_signal_csv(path)
                return
            with mock.patch.object(cli, "_CSV_BLOCK", block):
                got = read_signal_csv(path)
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
        assert got.h == want.h

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((1, 2, 3, 5)), st.lists(finite_floats, min_size=1, max_size=40),
           st.floats(min_value=1e-6, max_value=1e6))
    def test_write_matches_the_per_line_bytes(self, chunk, values, h):
        u = Signal1D(values, h)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "o.csv")
            with mock.patch.object(diffusion, "_CHUNK", chunk):
                write_signal_csv(path, u)
            with open(path, "rb") as fh:
                assert fh.read() == _written_per_line(u)

    def test_three_blocks_at_the_real_sizes(self, tmp_path):
        u = Signal1D(np.random.default_rng(4).normal(size=2 * diffusion._CHUNK + 5), 0.5)
        path = tmp_path / "o.csv"
        write_signal_csv(path, u)
        assert path.read_bytes() == _written_per_line(u)
        assert path.stat().st_size > 3 * cli._CSV_BLOCK
        back = read_signal_csv(path)
        assert np.array_equal(back.values.view(np.int64), u.values.view(np.int64))
        assert back.h == 0.5

    @staticmethod
    def traced_peak(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_at_1e5_samples(self, tmp_path):
        u = Signal1D(np.random.default_rng(5).normal(size=100_000))
        path = tmp_path / "o.csv"
        assert self.traced_peak(lambda: write_signal_csv(path, u)) <= 2 << 20
        assert self.traced_peak(lambda: read_signal_csv(path)) <= 6 << 20


class TestGradientOverflow:
    @pytest.fixture
    def overflowing(self, tmp_path):
        sig = tmp_path / "f.csv"
        sig.write_text("1e308\n-1e308\n0\n")
        return sig

    @pytest.mark.parametrize("method", METHODS + ("diffusion --time",))
    def test_fails_cleanly_before_writing(self, tmp_path, capsys, overflowing, method):
        out = tmp_path / "o.csv"
        args = ["denoise", "--method", method.split()[0], "--input", str(overflowing),
                "--out", str(out)]
        args += ["--time", "1"] if "--time" in method else ["--steps", "2", "--tau", "0.1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "usage error: the input's gradients overflow float64; rescale the signal\n"
        assert not out.exists()
        assert not (tmp_path / "o.csv.report").exists()

    def test_stability_and_compare_too(self, tmp_path, capsys, overflowing):
        assert main(["stability", "--input", str(overflowing)]) == 1
        assert main(["compare", "--input", str(overflowing), "--outdir", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err.count("gradients overflow") == 2
        assert not (tmp_path / "c").exists()


    def test_a_grid_span_that_overflows_fails_without_a_warning(self, tmp_path):
        # 2 max|fd| = 1e308 is finite, but the Lipschitz grid spans 2e308.
        sig, out = tmp_path / "f.csv", tmp_path / "o.csv"
        sig.write_text("0\n5e307\n")
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        args = ["denoise", "--method", "diffusion", "--steps", "1", "--input", str(sig), "--out", str(out)]
        run = subprocess.run([sys.executable, "-m", "denoise1d.cli", *args], env=env, capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stderr == "usage error: the input's gradients overflow float64; rescale the signal\n"
        assert not out.exists()

    def test_a_bound_that_underflows_fails_without_a_traceback(self, tmp_path):
        # h^2/(4L) underflows to 0.0, so --time 1 needs infinitely many steps.
        sig, out = tmp_path / "f.csv", tmp_path / "o.csv"
        sig.write_text("# h=1e-200\n0\n1\n0\n")
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        args = ["denoise", "--method", "diffusion", "--time", "1", "--input", str(sig), "--out", str(out)]
        run = subprocess.run([sys.executable, "-m", "denoise1d.cli", *args], env=env, capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stderr == "usage error: stopping time 1.0 needs a step count that overflows float64\n"
        assert not out.exists()

    def test_a_grid_span_just_below_the_overflow_still_runs(self, tmp_path):
        sig, out = tmp_path / "f.csv", tmp_path / "o.csv"
        sig.write_text("0\n4e307\n")
        assert main(["denoise", "--method", "diffusion", "--steps", "1", "--input", str(sig), "--out", str(out)]) == 0
        assert out.exists()


class TestVariationalStepsWithTheGivenTau:
    def test_a_tau_on_the_bound_runs_like_diffusion(self, tmp_path):
        # A seeded input whose max-min bound tau has (m*tau)/m > tau for
        # some m: the guard of alpha/m with alpha = m*tau would refuse it.
        spec = FamilySpec(Family.TRUNCATED_QUADRATIC)
        phi = translate(make_role_function(spec, Role.REGULARISER), Role.ACTIVATION)
        for seed in range(100):
            f = Signal1D(np.random.default_rng(seed).uniform(0.0, 4.0, 8))
            tau = max_stable_tau(_lipschitz(phi, f), 1.0, StepSizeMode.MAXMIN)
            m = next((m for m in range(2, 12) if (m * tau) / m > tau), None)
            if m is not None:
                break
        else:
            pytest.fail("no seeded input has a bound that rounds up")
        sig, out = tmp_path / "f.csv", tmp_path / "o.csv"
        write_signal_csv(sig, f)
        base = ["denoise", "--input", str(sig), "--out", str(out), "--family",
                spec.family.value, "--steps", str(m), "--tau", repr(tau), "--mode", "maxmin"]
        assert main(base + ["--method", "diffusion"]) == 0
        assert main(base + ["--method", "variational"]) == 0
        np.testing.assert_array_equal(read_signal_csv(out).values,
                                      _last(_states(f.values, phi, tau, m, 1.0), f).values)
        assert float(_report(str(out) + ".report")["tau_used"]) == tau


class TestReportComesFromTheRun:
    @pytest.mark.parametrize("family", ("perona-malik", "truncated-tv", "truncated-quadratic"))
    @pytest.mark.parametrize("steps,share", [(1, 1.0), (6, 0.5), (5, 0.3)])
    def test_diffusion_report_is_the_stability_report(self, tmp_path, family, steps, share):
        sig = tmp_path / "f.csv"
        main(["generate", "--kind", "piecewise", "--n", "31", "--out", str(sig)])
        f = read_signal_csv(sig)
        phi = make_role_function(FamilySpec(Family(family)), Role.ACTIVATION)
        tau = share * max_stable_tau(_lipschitz(phi, f), 1.0, StepSizeMode.MAXMIN)
        common = ["--input", str(sig), "--family", family, "--tau", repr(tau),
                  "--steps", str(steps)]
        assert main(["denoise", "--method", "diffusion", "--out", str(tmp_path / "o.csv"),
                     "--mode", "maxmin"] + common) == 0
        assert main(["stability", "--out", str(tmp_path / "s.txt")] + common) == 0
        assert (tmp_path / "o.csv.report").read_bytes() == (tmp_path / "s.txt").read_bytes()

    @staticmethod
    def expect(report, f, states, L, tau):
        assert report["steps"] == str(len(states))
        assert float(report["lipschitz"]) == L
        assert float(report["tau_used"]) == tau
        counts = [count_sign_changes(u) for u in states]
        assert report["sign_changes_per_step"] == ",".join(map(str, counts))
        ok, worst = check_range_preservation(f, states)
        assert float(report["worst_overshoot"]) == worst
        assert report["range_ok"] == ("true" if ok else "false")

    def run(self, tmp_path, method, f, family, steps, tau):
        sig, out = tmp_path / "f.csv", tmp_path / "o.csv"
        write_signal_csv(sig, f)
        assert main(["denoise", "--method", method, "--input", str(sig), "--out", str(out),
                     "--family", family, "--steps", str(steps), "--tau", str(tau),
                     "--mode", "maxmin"]) == 0
        return _report(str(out) + ".report"), read_signal_csv(out).values

    def test_wavelet_reports_its_own_steps(self, tmp_path):
        f = Signal1D(np.where(np.arange(50) > 24, 1.0, 0.0))
        phi = make_role_function(FamilySpec(Family.TRUNCATED_QUADRATIC), Role.ACTIVATION)
        L = _lipschitz(phi, f)
        tau = max_stable_tau(L, 1.0, StepSizeMode.MAXMIN)
        shrink = translate(phi, Role.SHRINKAGE, CouplingParams(tau=tau))
        report, out = self.run(tmp_path, "wavelet", f, "truncated-quadratic", 7, tau)
        states = [iterate_shrinkage(f, shrink, k) for k in range(1, 8)]
        self.expect(report, f, states, L, tau)
        np.testing.assert_array_equal(out, states[-1].values)

    def test_shrinkage_parts_from_diffusion_beyond_the_bound(self, tmp_path):
        # Beyond the bound the shrinkage states and the diffusion states
        # part by rounding, and the sign-change counts tell them apart;
        # the CLI refuses such a tau for wavelet as for every method.
        f = Signal1D(np.where(np.arange(50) > 24, 1.0, 0.0))
        phi = make_role_function(FamilySpec(Family.TRUNCATED_QUADRATIC), Role.ACTIVATION)
        shrink = translate(phi, Role.SHRINKAGE, CouplingParams(tau=0.75))
        assert [count_sign_changes(iterate_shrinkage(f, shrink, k)) for k in range(1, 8)] != [
            count_sign_changes(_last(_states(f.values, phi, 0.75, k, 1.0), f))
            for k in range(1, 8)]
        sig, out = tmp_path / "f.csv", tmp_path / "o.csv"
        write_signal_csv(sig, f)
        assert main(["denoise", "--method", "wavelet", "--input", str(sig), "--out", str(out),
                     "--family", "truncated-quadratic", "--steps", "7", "--tau", "0.75",
                     "--mode", "maxmin"]) == 3
        assert not out.exists()

    def test_variational_reports_its_own_steps(self, tmp_path):
        f = generate_signal("piecewise", 40)
        psi = make_role_function(FamilySpec(Family.CHARBONNIER), Role.REGULARISER)
        states = [minimize_by_diffusion(f, EnergySpec(psi, alpha=k * 0.125), k)
                  for k in range(1, 5)]
        report, out = self.run(tmp_path, "variational", f, "charbonnier", 4, 0.125)
        self.expect(report, f, states, _lipschitz(translate(psi, Role.ACTIVATION), f), 0.125)
        np.testing.assert_array_equal(out, states[-1].values)

    def test_resnet_reports_its_own_blocks(self, tmp_path):
        f = generate_signal("sine", 33)
        phi = make_role_function(FamilySpec(Family.PERONA_MALIK), Role.ACTIVATION)
        blocks = [make_diffusion_block(phi, 0.25, 1.0)] * 5
        states = [chain(blocks[:k], f) for k in range(1, 6)]
        report, out = self.run(tmp_path, "resnet", f, "perona-malik", 5, 0.25)
        self.expect(report, f, states, _lipschitz(phi, f), 0.25)
        np.testing.assert_array_equal(out, states[-1].values)

    @pytest.mark.parametrize("method", ("diffusion --time", "diffusion", "wavelet", "resnet"))
    def test_no_steps_report_no_steps(self, tmp_path, method):
        sig, out = tmp_path / "f.csv", tmp_path / "o.csv"
        main(["generate", "--kind", "sine", "--n", "16", "--out", str(sig)])
        args = ["denoise", "--method", method.split()[0], "--input", str(sig), "--out", str(out)]
        args += ["--time", "0"] if "--time" in method else ["--steps", "0"]
        assert main(args) == 0
        report = _report(str(out) + ".report")
        assert report["steps"] == "0"
        assert report["sign_changes_per_step"] == ""
        assert report["sign_changes_out"] == report["sign_changes_in"]
        assert report["worst_overshoot"] == "0"
        assert report["range_ok"] == "true"
        assert out.read_bytes() == sig.read_bytes()


class TestOneGuard:
    """Every --steps method checks --tau against the --mode bound for L."""

    @pytest.fixture
    def signal(self, tmp_path):
        sig = tmp_path / "f.csv"
        main(["generate", "--kind", "piecewise", "--n", "31", "--out", str(sig)])
        return sig

    @staticmethod
    def bound(method, sig, mode):
        spec = FamilySpec(Family.PERONA_MALIK)
        phi = make_role_function(spec, Role.ACTIVATION)
        if method == "variational":
            phi = translate(make_role_function(spec, Role.REGULARISER), Role.ACTIVATION)
        L = _lipschitz(phi, read_signal_csv(sig))
        return L, max_stable_tau(L, 1.0, StepSizeMode(mode))

    @staticmethod
    def denoise(method, sig, out, tau, mode):
        return main(["denoise", "--method", method, "--input", str(sig), "--out", str(out),
                     "--family", "perona-malik", "--steps", "3", "--tau", repr(tau),
                     "--mode", mode])

    @pytest.mark.parametrize("mode", ("maxmin", "sign-stable"))
    @pytest.mark.parametrize("method", METHODS)
    def test_one_ulp_above_the_bound_exits_3(self, tmp_path, capsys, signal, method, mode):
        L, bound = self.bound(method, signal, mode)
        tau = float(np.nextafter(bound, np.inf))
        out = tmp_path / "o.csv"
        assert self.denoise(method, signal, out, tau, mode) == 3
        assert capsys.readouterr().err == (
            f"stability violation: tau = {tau:g} violates the {mode} bound {bound:g} "
            f"(L = {L:g})\n")
        assert not out.exists()
        assert not (tmp_path / "o.csv.report").exists()

    @pytest.mark.parametrize("mode", ("maxmin", "sign-stable"))
    @pytest.mark.parametrize("method", METHODS)
    def test_on_the_bound_exits_0(self, tmp_path, signal, method, mode):
        _, bound = self.bound(method, signal, mode)
        out = tmp_path / "o.csv"
        assert self.denoise(method, signal, out, bound, mode) == 0
        assert float(_report(str(out) + ".report")["tau_used"]) == bound


class TestIgnoredFlagsAreGone:
    def test_denoise_alpha_is_a_usage_error(self, tmp_path):
        sig = tmp_path / "f.csv"
        main(["generate", "--kind", "step", "--n", "8", "--out", str(sig)])
        assert main(["denoise", "--method", "variational", "--input", str(sig),
                     "--out", str(tmp_path / "o.csv"), "--steps", "2",
                     "--alpha", "0.5"]) == 1
        assert not (tmp_path / "o.csv").exists()

    def test_generate_seed_is_a_usage_error(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["generate", "--kind", "step", "--n", "8", "--seed", "1",
                     "--out", str(out)]) == 1
        assert not out.exists()


class TestStepBudget:
    """A run that needs more than the step budget exits 3 at once, names
    the m it needed and writes no file."""

    def over_budget(self, tmp_path, capsys, values, args, m):
        sig = tmp_path / "f.csv"
        sig.write_text("".join(f"{v!r}\n" for v in values))
        out = tmp_path / "o.csv"
        start = time.perf_counter()
        code = main(args + ["--input", str(sig), "--out", str(out)])
        assert time.perf_counter() - start < 5.0
        assert code == 3
        assert f"m = {m} steps" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["f.csv"]

    @pytest.mark.parametrize("values,family", (([1.0, 1.0, 1.0], "constant"),
                                               ([1.0], "perona-malik")))
    def test_a_flat_or_one_sample_signal_diffused_to_1e9(self, tmp_path, capsys, values, family):
        self.over_budget(tmp_path, capsys, values,
                         ["denoise", "--method", "diffusion", "--time", "1e9",
                          "--family", family], 4_000_000_000)

    @pytest.mark.parametrize("method", METHODS)
    def test_steps_above_the_budget(self, tmp_path, capsys, method):
        m = _STEP_BUDGET + 1
        self.over_budget(tmp_path, capsys, [0.0, 1.0, 0.5],
                         ["denoise", "--method", method, "--steps", str(m)], m)

    def test_a_time_whose_step_count_overflows_is_a_usage_error(self, tmp_path, capsys):
        # T/tau_max is inf for T = 1e308; a finite count above the budget exits 3.
        sig, out = tmp_path / "f.csv", tmp_path / "o.csv"
        sig.write_text("0.0\n1.0\n0.5\n0.25\n")
        args = ["denoise", "--method", "diffusion", "--input", str(sig), "--out", str(out),
                "--family", "perona-malik", "--time"]
        assert main(args + ["1e308"]) == 1
        assert capsys.readouterr().err == ("usage error: stopping time 1e+308 needs a step "
                                           "count that overflows float64\n")
        assert main(args + ["1e300"]) == 3
        assert capsys.readouterr().err.startswith("stability violation: the run needs m = ")
        assert sorted(os.listdir(tmp_path)) == ["f.csv"]

    def test_compare_and_stability_too(self, tmp_path, capsys):
        sig = tmp_path / "f.csv"
        sig.write_text("0.0\n1.0\n")
        m = str(_STEP_BUDGET + 1)
        assert main(["compare", "--input", str(sig), "--outdir", str(tmp_path / "cmp"),
                     "--steps", m]) == 3
        assert main(["stability", "--input", str(sig), "--steps", m]) == 3
        missing = str(tmp_path / "missing.csv")
        assert main(["compare", "--input", missing, "--outdir", str(tmp_path / "cmp"),
                     "--steps", m]) == 3
        assert main(["stability", "--input", missing, "--steps", m]) == 3
        assert capsys.readouterr().out == ""
        assert sorted(os.listdir(tmp_path)) == ["f.csv"]
