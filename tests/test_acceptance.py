"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as the
criteria execute.
"""

import math
import zlib

import numpy as np
import pytest

from denoise1d import (
    CouplingParams,
    EnergySpec,
    Family,
    FamilySpec,
    Role,
    Signal1D,
    apply_block,
    discrete_energy,
    energy_gradient,
    estimate_lipschitz,
    eval_family,
    euler_lagrange_residual,
    explicit_step,
    make_diffusion_block,
    make_role_function,
    minimize_by_diffusion,
    shift_invariant_step,
    tikhonov_solve_oracle,
    translate,
    truncated_tv_via_relu,
)
from denoise1d.cli import main, read_signal_csv
from denoise1d.stability import _count_sign_changes

ALL_FAMILIES = tuple(Family)
ALL_ROLES = (Role.DIFFUSIVITY, Role.REGULARISER, Role.SHRINKAGE, Role.ACTIVATION)
COUPLING = CouplingParams(tau=0.25, alpha=0.25, h=1.0)


def _report(criterion, description, ok, detail=""):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_dictionary_closure():
    """All 6 families through all 12 translation cells match the closed
    forms: 1e-12 on algebraic paths, 1e-6 on quadrature paths."""
    r = np.linspace(-10.0, 10.0, 100)
    worst_alg = worst_quad = 0.0
    for family in ALL_FAMILIES:
        spec = FamilySpec(family)
        for src in ALL_ROLES:
            for dst in ALL_ROLES:
                if src is dst:
                    continue
                got = translate(make_role_function(spec, src), dst, COUPLING)(r)
                want = make_role_function(spec, dst)(r)
                err = float(np.max(np.abs(got - want)))
                if dst is Role.REGULARISER:
                    worst_quad = max(worst_quad, err)
                else:
                    worst_alg = max(worst_alg, err)
    ok = worst_alg <= 1e-12 and worst_quad <= 1e-6
    _report(1, "dictionary closure over 72 cells",
            ok, f"algebraic {worst_alg:.2e} <= 1e-12, quadrature {worst_quad:.2e} <= 1e-6")


def test_criterion_2_wavelet_diffusion_equivalence():
    """One cycle-spun Haar shrinkage step equals one explicit diffusion
    step with the translated activation (tau=1/4, h=1), 1000 random
    signals of lengths 2..128 per family, deviation <= 1e-12."""
    worst = 0.0
    for family in ALL_FAMILIES:
        shrink = make_role_function(FamilySpec(family), Role.SHRINKAGE)
        phi = translate(shrink, Role.ACTIVATION, COUPLING)
        rng = np.random.default_rng(zlib.crc32(family.value.encode()))
        for _ in range(1000):
            u = Signal1D(rng.uniform(-1.0, 1.0, int(rng.integers(2, 129))))
            a = shift_invariant_step(u, shrink).values
            b = explicit_step(u, phi, 0.25).values
            worst = max(worst, float(np.max(np.abs(a - b))))
    _report(2, "wavelet step == diffusion step for all six families",
            worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_3_block_equivalence():
    """Diffusion blocks reproduce the explicit step to 1e-14 on 1000
    random signals per family."""
    worst = 0.0
    for family in ALL_FAMILIES:
        phi = make_role_function(FamilySpec(family), Role.ACTIVATION)
        block = make_diffusion_block(phi, 0.25, 1.0)
        rng = np.random.default_rng(zlib.crc32(family.value.encode()) + 1)
        for _ in range(1000):
            f = Signal1D(rng.uniform(0.0, 1.0, int(rng.integers(1, 65))))
            a = apply_block(block, f).values
            b = explicit_step(f, phi, 0.25).values
            worst = max(worst, float(np.max(np.abs(a - b))))
    _report(3, "residual block == explicit step for all six families",
            worst <= 1e-14, f"max deviation {worst:.2e}")


def test_criterion_4_network_stability():
    """Chains of 10^4 diffusion blocks: the max-min bound preserves the
    input range (slack 1e-12) on 100 random signals; the halved bound
    keeps the sign-change count non-increasing at every layer.  A step
    50% above the bound breaks the range within 10 steps."""
    n_signals = 100
    depth = 10_000

    # Range preservation at tau = h^2/(2L), nonmonotone activation.
    phi_pm = make_role_function(FamilySpec(Family.PERONA_MALIK), Role.ACTIVATION)
    L = estimate_lipschitz(phi_pm, 4.0, 1_000_001)
    block = make_diffusion_block(phi_pm, 0.5 / L, 1.0)
    rng = np.random.default_rng(404)
    worst_overshoot = 0.0
    for _ in range(n_signals):
        u = Signal1D(rng.uniform(0.0, 1.0, 16))
        lo = float(np.min(u.values))
        hi = float(np.max(u.values))
        for _ in range(depth):
            u = apply_block(block, u)
        worst_overshoot = max(
            worst_overshoot, float(np.max(u.values)) - hi, lo - float(np.min(u.values))
        )
    range_ok = worst_overshoot <= 1e-12

    # Sign stability at tau = h^2/(4L), checked at every layer.
    phi_tv = make_role_function(FamilySpec(Family.TRUNCATED_TV), Role.ACTIVATION)
    L_tv = estimate_lipschitz(phi_tv, 4.0, 1_000_001)
    block_tv = make_diffusion_block(phi_tv, 0.25 / L_tv, 1.0)
    rng = np.random.default_rng(405)
    sign_ok = True
    for _ in range(n_signals):
        u = Signal1D(rng.uniform(-1.0, 1.0, 16))
        prev = _count_sign_changes(u.values)
        for _ in range(depth):
            u = apply_block(block_tv, u)
            cur = _count_sign_changes(u.values)
            if cur > prev:
                sign_ok = False
                break
            prev = cur
        if not sign_ok:
            break

    # The nonmonotone activation is sign stable too (shorter chain).
    block_pm_sign = make_diffusion_block(phi_pm, 0.25 / L, 1.0)
    rng = np.random.default_rng(406)
    for _ in range(50):
        u = Signal1D(rng.uniform(-1.0, 1.0, 16))
        prev = _count_sign_changes(u.values)
        for _ in range(1000):
            u = apply_block(block_pm_sign, u)
            cur = _count_sign_changes(u.values)
            if cur > prev:
                sign_ok = False
                break
            prev = cur

    # Negative control: 1.5x the max-min bound must overshoot.
    phi_id = make_role_function(FamilySpec(Family.CONSTANT), Role.ACTIVATION)
    bad = make_diffusion_block(phi_id, 0.75, 1.0)
    u = Signal1D([0.0, 1.0, 0.0])
    escaped = False
    for _ in range(10):
        u = apply_block(bad, u)
        if float(np.min(u.values)) < 0.0 or float(np.max(u.values)) > 1.0:
            escaped = True
            break

    ok = range_ok and sign_ok and escaped
    _report(4, "10^4-block chains stable; 1.5x bound unstable",
            ok,
            f"overshoot {worst_overshoot:.2e} <= 1e-12, sign stable {sign_ok}, "
            f"violation witness {escaped}")


def test_criterion_5_variational_oracle_residual():
    """The direct Tikhonov solve satisfies the Euler-Lagrange equation
    to 1e-10."""
    rng = np.random.default_rng(505)
    psi = make_role_function(FamilySpec(Family.CONSTANT), Role.REGULARISER)
    worst = 0.0
    for _ in range(50):
        f = Signal1D(rng.uniform(0.0, 1.0, int(rng.integers(2, 65))))
        alpha = float(rng.uniform(0.05, 2.0))
        u = tikhonov_solve_oracle(f, alpha)
        res = euler_lagrange_residual(u, f, EnergySpec(psi=psi, alpha=alpha))
        worst = max(worst, float(np.max(np.abs(res.values))))
    _report(5, "oracle Euler-Lagrange residual", worst <= 1e-10, f"max {worst:.2e} <= 1e-10")


def test_criterion_5_variational_hand_case():
    """f = (0, 1), alpha = 1/4 has the exact minimiser (1/6, 5/6)."""
    u = tikhonov_solve_oracle(Signal1D([0.0, 1.0]), 0.25)
    err = float(np.max(np.abs(u.values - np.array([1.0 / 6.0, 5.0 / 6.0]))))
    _report(5, "hand case (1/6, 5/6)", err <= 1e-12, f"max dev {err:.2e}")


def test_criterion_5_convergence_ratio():
    """Doubling m from 4 to 256 must shrink the distance to the oracle
    by a factor <= 0.75 per doubling.

    The distance does shrink monotonically, but it converges to the
    fixed gap between the diffusion flow at time alpha and the implicit
    minimiser, so the per-doubling ratio climbs towards 1 instead of
    staying below 0.75.  The criterion is kept as stated; see the
    companion monotone-decrease test in tests/test_variational.py for
    the part of the claim that holds.
    """
    rng = np.random.default_rng(506)
    f = Signal1D(rng.uniform(0.0, 1.0, 32))
    psi = make_role_function(FamilySpec(Family.CONSTANT), Role.REGULARISER)
    spec = EnergySpec(psi=psi, alpha=0.25)
    oracle = tikhonov_solve_oracle(f, 0.25).values
    ms = (4, 8, 16, 32, 64, 128, 256)
    errs = [
        float(np.max(np.abs(minimize_by_diffusion(f, spec, m).values - oracle)))
        for m in ms
    ]
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    ok = all(r <= 0.75 for r in ratios)
    _report(5, "oracle convergence ratio <= 0.75 per doubling (m = 4..256)",
            ok, "ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_6_gradient_check():
    """Analytic energy gradient vs central differences, 1e-5 relative,
    100 random (u, f) pairs for each of the six regularisers."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for family in ALL_FAMILIES:
        spec = EnergySpec(
            psi=make_role_function(
                FamilySpec(family, contrast=0.5, threshold=0.3), Role.REGULARISER
            ),
            alpha=0.7,
        )
        for _ in range(100):
            n = int(rng.integers(2, 10))
            u = Signal1D(rng.uniform(0.0, 1.0, n))
            f = Signal1D(rng.uniform(0.0, 1.0, n))
            grad = energy_gradient(u, f, spec)
            fd = np.empty(n)
            d = 1e-6
            for i in range(n):
                up = u.values.copy()
                um = u.values.copy()
                up[i] += d
                um[i] -= d
                fd[i] = (
                    discrete_energy(Signal1D(up), f, spec)
                    - discrete_energy(Signal1D(um), f, spec)
                ) / (2.0 * d)
            denom = np.maximum(np.abs(fd), 1e-3)
            worst = max(worst, float(np.max(np.abs(grad - fd) / denom)))
    _report(6, "energy gradient matches finite differences",
            worst <= 1e-5, f"worst relative error {worst:.2e}")


def test_criterion_7_relu_identity():
    """The two-ReLU form equals the truncated-TV activation to 1e-14 at
    1e5 points."""
    theta = 1.0
    spec = FamilySpec(Family.TRUNCATED_TV, threshold=theta)
    r = np.linspace(-8.0, 8.0, 100_000)
    err = float(np.max(np.abs(truncated_tv_via_relu(theta, r)
                              - eval_family(spec, Role.ACTIVATION, r))))
    _report(7, "truncated-TV activation == two-ReLU form", err <= 1e-14, f"max {err:.2e}")


def test_criterion_8_monotonicity_split():
    """Sampled slopes classify constant/Charbonnier/truncated-TV as
    monotone and Perona-Malik/BFB/quadratic as nonmonotone."""
    monotone = {Family.CONSTANT, Family.CHARBONNIER, Family.TRUNCATED_TV}
    r = np.linspace(-10.0, 10.0, 4001)
    classified = {}
    for family in ALL_FAMILIES:
        vals = make_role_function(FamilySpec(family), Role.ACTIVATION)(r)
        d = np.diff(vals)
        classified[family] = "monotone" if np.min(d) >= -1e-9 else "nonmonotone"
    ok = all(
        classified[f] == ("monotone" if f in monotone else "nonmonotone")
        for f in ALL_FAMILIES
    )
    _report(8, "monotone/nonmonotone split by sampled slopes",
            ok, ", ".join(f"{f.value}={classified[f]}" for f in ALL_FAMILIES))


def test_criterion_9_cli_end_to_end(tmp_path):
    """compare on the spike with the constant family, m=1, tau=1/4:
    cross-method deltas <= 1e-12, exit 0, byte-identical reruns."""
    sig = tmp_path / "spike.csv"
    assert main(["generate", "--kind", "spike", "--n", "5", "--out", str(sig)]) == 0
    blobs = []
    delta_max = None
    codes = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        codes.append(
            main(["compare", "--input", str(sig), "--outdir", str(outdir),
                  "--family", "constant", "--tau", "0.25", "--steps", "1"])
        )
        deltas = dict(
            line.split("=", 1)
            for line in (outdir / "deltas.txt").read_text().splitlines()
        )
        delta_max = float(deltas["delta_max"])
        blobs.append(
            b"".join(
                (outdir / f).read_bytes()
                for f in ("diffusion.csv", "wavelet.csv", "variational.csv",
                          "resnet.csv", "deltas.txt")
            )
        )
    ok = codes == [0, 0] and delta_max <= 1e-12 and blobs[0] == blobs[1]
    _report(9, "CLI compare: deltas <= 1e-12, exit 0, deterministic",
            ok, f"delta_max {delta_max:.2e}, identical bytes {blobs[0] == blobs[1]}")
