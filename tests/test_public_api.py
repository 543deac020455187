"""The public API: the names in ``denoise1d.__all__`` and their signatures.

A simplification must not drop or change a public name unnoticed.
Enums are pinned by their member values, everything else by
``str(inspect.signature(...))`` with object addresses removed.
"""

import enum
import inspect
import re

import denoise1d

PUBLIC = {
    'CouplingParams': "(tau: 'float' = 0.25, alpha: 'float' = 0.25, h: 'float' = 1.0) -> None",
    'DiffusionPlan': "(phi: 'RoleFunction', tau: 'float', steps: 'int', h: 'float', stopping_time: 'float') -> None",
    'EnergySpec': "(psi: 'RoleFunction', alpha: 'float') -> None",
    'Family': ('constant', 'charbonnier', 'truncated-tv', 'perona-malik', 'truncated-bfb', 'truncated-quadratic'),
    'FamilySpec': "(family: 'Family', contrast: 'float' = 1.0, threshold: 'float' = 1.0) -> None",
    'HaarPair': "(scaling: 'float', wavelet: 'float') -> None",
    'ResidualBlock': "(w1: 'np.ndarray', sigma1: 'Callable', w2: 'np.ndarray', sigma2: 'Callable' = <function _identity>, b1: 'np.ndarray' = <factory>, b2: 'np.ndarray' = <factory>) -> None",
    'Role': ('diffusivity', 'regulariser', 'shrinkage', 'activation'),
    'RoleFunction': "(role: 'Role', evaluator: 'Callable', provenance: 'tuple' = ('user-supplied',), derivative: 'Optional[Callable]' = None, breakpoints: 'tuple' = (), constants: 'tuple' = ()) -> None",
    'Signal1D': "(values: 'np.ndarray', h: 'float' = 1.0) -> None",
    'StabilityReport': "(lipschitz: 'float', tau_maxmin: 'float', tau_sign: 'float', tau_used: 'float', steps: 'int', range_ok: 'bool', worst_overshoot: 'float', sign_changes_in: 'int', sign_changes_per_step: 'list' = <factory>, violations: 'list' = <factory>) -> None",
    'StepSizeMode': ('maxmin', 'sign-stable'),
    'analyze': "(f: 'Signal1D', phi: 'RoleFunction', tau: 'float', steps: 'int', slack: 'float' = 1e-12) -> 'StabilityReport'",
    'apply_block': "(block: 'ResidualBlock', f: 'Signal1D') -> 'Signal1D'",
    'backward_diff': "(u: 'Signal1D') -> 'Signal1D'",
    'chain': "(blocks, f: 'Signal1D') -> 'Signal1D'",
    'check_range_preservation': "(f: 'Signal1D', trajectory, slack: 'float' = 1e-12)",
    'count_sign_changes': "(u: 'Signal1D') -> 'int'",
    'diffuse': "(f: 'Signal1D', phi: 'RoleFunction', T: 'float', mode: 'StepSizeMode' = <StepSizeMode.SIGN_STABLE: 'sign-stable'>)",
    'discrete_energy': "(u: 'Signal1D', f: 'Signal1D', spec: 'EnergySpec') -> 'float'",
    'energy_gradient': "(u: 'Signal1D', f: 'Signal1D', spec: 'EnergySpec') -> 'np.ndarray'",
    'estimate_lipschitz': "(f: 'RoleFunction', r_max: 'float', samples: 'int' = 1000001) -> 'float'",
    'euler_lagrange_residual': "(u: 'Signal1D', f: 'Signal1D', spec: 'EnergySpec') -> 'Signal1D'",
    'eval_family': "(spec: 'FamilySpec', role: 'Role', r)",
    'explicit_step': "(u: 'Signal1D', phi: 'RoleFunction', tau: 'float') -> 'Signal1D'",
    'forward_diff': "(u: 'Signal1D') -> 'Signal1D'",
    'iterate_shrinkage': "(f: 'Signal1D', shrink: 'RoleFunction', m: 'int') -> 'Signal1D'",
    'make_diffusion_block': "(phi: 'RoleFunction', tau: 'float', h: 'float') -> 'ResidualBlock'",
    'make_role_function': "(spec: 'FamilySpec', role: 'Role') -> 'RoleFunction'",
    'max_stable_tau': "(L: 'float', h: 'float', mode: 'StepSizeMode') -> 'float'",
    'minimize_by_diffusion': "(f: 'Signal1D', spec: 'EnergySpec', m: 'int') -> 'Signal1D'",
    'relu': '(r)',
    'shift_invariant_step': "(u: 'Signal1D', shrink: 'RoleFunction') -> 'Signal1D'",
    'shrink_pair': "(a: 'float', b: 'float', shrink: 'RoleFunction')",
    'tikhonov_solve_oracle': "(f: 'Signal1D', alpha: 'float') -> 'Signal1D'",
    'translate': "(f: 'RoleFunction', to: 'Role', coupling: 'CouplingParams' = None) -> 'RoleFunction'",
    'truncated_tv_via_relu': "(theta: 'float', r)",
    'user_role_function': "(role, func, name='user-supplied')",
}


def _shape(obj):
    if isinstance(obj, enum.EnumMeta):
        return tuple(m.value for m in obj)
    return re.sub(r" at 0x[0-9a-f]+", "", str(inspect.signature(obj)))


def test_all_names_are_unchanged():
    assert sorted(denoise1d.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 38


def test_every_public_signature_is_unchanged():
    got = {name: _shape(getattr(denoise1d, name)) for name in denoise1d.__all__}
    assert {k: v for k, v in got.items() if PUBLIC.get(k) != v} == {}
