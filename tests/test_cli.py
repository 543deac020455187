import math

import numpy as np
import pytest

from denoise1d import Signal1D
from denoise1d.cli import (
    NoiseModel,
    add_noise,
    generate_signal,
    main,
    read_signal_csv,
    write_signal_csv,
)


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

    @pytest.mark.parametrize("points", ("nan", "inf", "1.0,-inf", "nan,inf"))
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


class TestDenoiseCommand:
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
