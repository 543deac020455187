"""One state per run, bit for bit.

A run's first step writes a fresh array and every later step overwrites
the state it reads, so a run holds one state.  An m-step run of each of
``diffuse``, ``iterate_shrinkage``, ``minimize_by_diffusion`` and
``chain`` must equal its public single step applied m times, compared as
bit patterns (signed zeros count); the caller's array must be as it was
after every run, also when an evaluator raises partway through a pass;
and no run may hold a second state.  With ``diffusion._CHUNK`` patched to
a few samples, every window seam, halo and part seam shows up in short
signals; the single steps are taken unpatched, each in one window.
"""

import itertools
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoise1d import (
    CouplingParams,
    EnergySpec,
    Family,
    FamilySpec,
    ResidualBlock,
    Role,
    RoleFunction,
    Signal1D,
    apply_block,
    chain,
    diffuse,
    explicit_step,
    iterate_shrinkage,
    make_diffusion_block,
    make_role_function,
    minimize_by_diffusion,
    relu,
    shift_invariant_step,
    translate,
    user_role_function,
)
from denoise1d import diffusion
from denoise1d.diffusion import _lipschitz, max_stable_tau
from denoise1d.nonlinearities import _reentrant

CHUNKS = (1, 2, 3, 8)
WORKERS = (1, 2)


def _sizes(chunk):
    return (1, 2, 16, chunk, chunk + 1, 2 * chunk + 5, 16 * chunk + 3)


# The test evaluators are pure numpy, so they are marked as the package's
# own and run in parts.
@_reentrant
def _in_float32(r):
    return np.tanh(r).astype(np.float32)


@_reentrant
def _in_integers(r):
    return np.rint(4.0 * r).astype(np.int64)


@_reentrant
def _same(r):
    return r


@_reentrant
def _float32_slope(r):
    return (2.0 * np.tanh(r)).astype(np.float32)


ACTIVATIONS = tuple(make_role_function(FamilySpec(f), Role.ACTIVATION) for f in Family) + (
    user_role_function(Role.ACTIVATION, _in_float32),
)
SHRINKAGES = tuple(translate(phi, Role.SHRINKAGE, CouplingParams(tau=0.25)) for phi in ACTIVATIONS[:-1]) + tuple(
    user_role_function(Role.SHRINKAGE, ev) for ev in (_in_float32, _in_integers)
)
# The truncated quadratic jumps at its threshold, so its estimated L is
# huge: diffuse would plan some 1e5 steps, and minimize_by_diffusion
# rejects every m tried here.
SMOOTH = tuple(phi for f, phi in zip(Family, ACTIVATIONS) if f is not Family.TRUNCATED_QUADRATIC) + ACTIVATIONS[-1:]
REGULARISERS = tuple(
    make_role_function(FamilySpec(f), Role.REGULARISER) for f in Family if f is not Family.TRUNCATED_QUADRATIC
) + (RoleFunction(role=Role.REGULARISER, evaluator=lambda r: r * r, derivative=_float32_slope),)
SIGMAS1 = tuple(phi.evaluator for phi in ACTIVATIONS) + (_in_integers,)
SIGMAS2 = (_same, relu, _in_float32, _in_integers)


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _patched(workers, chunk):
    # Two parts from two windows on, when workers is 2.
    return mock.patch.multiple(diffusion, _WORKERS=workers, _CHUNK=chunk, _PART_WINDOWS=1)


def _signal(n, seed, h=1.0):
    return Signal1D(np.random.default_rng(seed).normal(0.0, 0.5, n), h)


def _stepped(f, step, m):
    # The public single step applied m times, each into a fresh array.
    u = f
    for _ in range(m):
        u = step(u)
    return u.values


def _check(f, run, step, m, workers, chunk):
    # run() in parts of windows of chunk samples equals step applied m
    # times, and leaves f's samples as they were.
    kept = f.values.copy()
    with _patched(workers, chunk):
        out = run()
    assert_bit_identical(f.values, kept)
    assert_bit_identical(out.values, _stepped(f, step, m))


SIZE = st.integers(0, len(_sizes(1)) - 1)
SEED = st.integers(0, 2**32 - 1)


class TestRunsEqualSingleSteps:
    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(WORKERS), st.sampled_from(CHUNKS), SIZE, SEED,
        st.sampled_from(SMOOTH), st.sampled_from((0.25, 0.75)), st.sampled_from((1.0, 0.5)),
    )
    def test_diffuse(self, workers, chunk, k, seed, phi, T, h):
        f = _signal(_sizes(chunk)[k], seed, h)
        plans = []

        def run():
            u, plan = diffuse(f, phi, T)
            plans.append(plan)
            return u

        with _patched(workers, chunk):
            run()
        plan = plans[0]
        _check(f, run, lambda u: explicit_step(u, phi, plan.tau), plan.steps, workers, chunk)

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(WORKERS), st.sampled_from(CHUNKS), SIZE, SEED,
        st.sampled_from(SHRINKAGES), st.integers(0, 4),
    )
    def test_iterate_shrinkage(self, workers, chunk, k, seed, shrink, m):
        f = _signal(_sizes(chunk)[k], seed)
        _check(f, lambda: iterate_shrinkage(f, shrink, m), lambda u: shift_invariant_step(u, shrink), m,
               workers, chunk)

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(WORKERS), st.sampled_from(CHUNKS), SIZE, SEED,
        st.sampled_from(REGULARISERS), st.integers(1, 4),
    )
    def test_minimize_by_diffusion(self, workers, chunk, k, seed, psi, m):
        f = _signal(_sizes(chunk)[k], seed)
        spec = EnergySpec(psi, 0.2)
        phi = translate(psi, Role.ACTIVATION)
        _check(f, lambda: minimize_by_diffusion(f, spec, m), lambda u: explicit_step(u, phi, 0.2 / m), m,
               workers, chunk)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(WORKERS), st.sampled_from(CHUNKS), SIZE, SEED, st.data())
    def test_chain(self, workers, chunk, k, seed, data):
        n = _sizes(chunk)[k]
        f = _signal(n, seed)
        weight = st.sampled_from((0.0, 1.0, -1.0, 0.5, -0.3, 2.0))

        def stencil():
            # Any weights, so also asymmetric stencils; or a sparse one of
            # half-width past a window, so that p1 + p2 > _CHUNK.
            if data.draw(st.booleans()):
                p = data.draw(st.integers(0, 3))
                return data.draw(st.lists(weight, min_size=2 * p + 1, max_size=2 * p + 1))
            p = chunk + 1 + data.draw(st.integers(0, 2))
            taps = sorted(data.draw(st.sets(st.integers(0, 2 * p), min_size=1, max_size=3)))
            w = np.zeros(2 * p + 1)
            w[taps] = data.draw(st.lists(weight, min_size=len(taps), max_size=len(taps)))
            return w

        def bias():
            return st.one_of(st.just([]), st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))

        blocks = [
            ResidualBlock(
                w1=stencil(),
                sigma1=data.draw(st.sampled_from(SIGMAS1)),
                w2=stencil(),
                sigma2=data.draw(st.sampled_from(SIGMAS2)),
                b1=data.draw(bias()),
                b2=data.draw(bias()),
            )
            for _ in range(data.draw(st.integers(0, 4)))
        ]
        steps = iter(blocks)
        _check(f, lambda: chain(blocks, f), lambda u: apply_block(next(steps), u), len(blocks), workers, chunk)


class _Stop(Exception):
    pass


def _raising(ev, k):
    # ev, raising on its k-th call in a step (on fewer than 1000 values);
    # the Lipschitz estimate's calls are larger and pass through.
    calls = itertools.count(1)

    @_reentrant
    def raising(r):
        if np.size(r) < 1000 and next(calls) == k:
            raise _Stop
        return ev(r)

    return raising


class TestAnEvaluatorThatRaises:
    """A run that raises partway through a later pass leaves the caller's
    samples as they were: 16 * 8 + 3 samples in windows of 8 are 17
    windows, and a pass makes 17 calls (a block's: one for the samples
    near the window ends and one for each window longer than 2(p1 + p2)),
    so the 23rd call is in the second pass."""

    N, CHUNK, CALL = 16 * 8 + 3, 8, 23

    def _runs(self):
        phi = make_role_function(FamilySpec(Family.PERONA_MALIK), Role.ACTIVATION)
        shrink = translate(phi, Role.SHRINKAGE, CouplingParams(tau=0.25))
        psi = make_role_function(FamilySpec(Family.CHARBONNIER), Role.REGULARISER)
        flux = user_role_function(Role.ACTIVATION, _raising(phi.evaluator, self.CALL))
        haar = user_role_function(Role.SHRINKAGE, _raising(shrink.evaluator, self.CALL))
        psi = RoleFunction(Role.REGULARISER, psi.evaluator, derivative=_raising(psi.derivative, self.CALL))
        energy = EnergySpec(psi, 0.2)
        block = ResidualBlock(w1=[0.0, -1.0, 1.0], sigma1=_raising(phi.evaluator, self.CALL), w2=[-0.2, 0.2, 0.0])
        return {
            "diffuse": lambda f: diffuse(f, flux, 1.0),
            "iterate_shrinkage": lambda f: iterate_shrinkage(f, haar, 3),
            "minimize_by_diffusion": lambda f: minimize_by_diffusion(f, energy, 3),
            "chain": lambda f: chain([block] * 3, f),
        }

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("entry", ("diffuse", "iterate_shrinkage", "minimize_by_diffusion", "chain"))
    def test_the_callers_samples_are_kept(self, entry, workers):
        f = _signal(self.N, 5)
        kept = f.values.copy()
        with _patched(workers, self.CHUNK), pytest.raises(_Stop):
            self._runs()[entry](f)
        assert_bit_identical(f.values, kept)


class TestAtTheRealChunk:
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("windows, extra", [(1, 1), (2, 5), (16, 3)])
    def test_every_entry_point(self, windows, extra, workers):
        f = _signal(windows * diffusion._CHUNK + extra, windows)
        phi = make_role_function(FamilySpec(Family.TRUNCATED_TV), Role.ACTIVATION)
        shrink = translate(phi, Role.SHRINKAGE, CouplingParams(tau=0.25))
        spec = EnergySpec(make_role_function(FamilySpec(Family.CHARBONNIER), Role.REGULARISER), 0.2)
        block = ResidualBlock(w1=[0.5, 0.0, -1.0, 1.0, 0.25], sigma1=phi.evaluator, w2=[-0.2, 0.2, 0.3],
                              b1=np.linspace(-0.1, 0.1, len(f)))
        with mock.patch.object(diffusion, "_WORKERS", workers):
            u, plan = diffuse(f, phi, 0.75)
            runs = [
                (u, lambda v: explicit_step(v, phi, plan.tau), plan.steps),
                (iterate_shrinkage(f, shrink, 3), lambda v: shift_invariant_step(v, shrink), 3),
                (minimize_by_diffusion(f, spec, 3),
                 lambda v: explicit_step(v, translate(spec.psi, Role.ACTIVATION), 0.2 / 3), 3),
                (chain([block] * 3, f), lambda v: apply_block(block, v), 3),
            ]
            for out, step, m in runs:
                assert_bit_identical(out.values, _stepped(f, step, m))


class TestMemory:
    """A run of 6 steps at N = 2^20 (8 MiB per state) holds one state: its
    traced peak is at most one state plus 2 MiB for each part running at
    once, as for a single pass in ``test_windows.TestMemory``."""

    N, STEPS = 1 << 20, 6

    def _runs(self, f):
        phi = make_role_function(FamilySpec(Family.PERONA_MALIK), Role.ACTIVATION)
        shrink = translate(phi, Role.SHRINKAGE, CouplingParams(tau=0.25))
        psi = make_role_function(FamilySpec(Family.CHARBONNIER), Role.REGULARISER)
        L = _lipschitz(phi, f)
        T = 5.5 * max_stable_tau(L, f.h, "sign-stable")  # 6 steps
        return {
            "diffuse": lambda: diffuse(f, phi, T)[0],
            "iterate_shrinkage": lambda: iterate_shrinkage(f, shrink, self.STEPS),
            "minimize_by_diffusion": lambda: minimize_by_diffusion(f, EnergySpec(psi, 0.2), self.STEPS),
            "chain": lambda: chain([make_diffusion_block(phi, 0.2, 1.0)] * self.STEPS, f),
        }

    @pytest.mark.parametrize("workers", WORKERS)
    def test_a_run_holds_one_state(self, workers):
        f = Signal1D(np.random.default_rng(3).normal(0.0, 0.1, self.N))
        with mock.patch.object(diffusion, "_WORKERS", workers):
            assert len(diffusion._parts(self.N)) == workers
            for name, run in self._runs(f).items():
                run()  # any one-time set-up before tracing
                tracemalloc.start()
                try:
                    out = run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert out.values.nbytes == 8 * self.N
                assert peak <= out.values.nbytes + workers * (2 << 20), (name, peak)


class TestSharedObjects:
    """A run binds its temporaries for itself, never on a shared object:
    two runs on one RoleFunction or one block, interleaved step by step or
    on two threads, give the bits each gives alone, at one window and at
    two."""

    SIZES = (16, diffusion._CHUNK + 3)

    @staticmethod
    def _phi():
        return make_role_function(FamilySpec(Family.PERONA_MALIK), Role.ACTIVATION)

    @pytest.mark.parametrize("n", SIZES)
    def test_two_runs_on_one_phi_advanced_alternately(self, n):
        phi = self._phi()
        xs = [_signal(n, seed).values for seed in (1, 2)]
        alone = [[u.copy() for u in diffusion._states(x, phi, 0.2, 5, 1.0)] for x in xs]
        runs = [diffusion._states(x, phi, 0.2, 5, 1.0) for x in xs]
        for k in range(5):
            for run, states in zip(runs, alone):
                assert_bit_identical(next(run), states[k])

    @pytest.mark.parametrize("n", SIZES)
    def test_two_threads_on_one_block_and_one_phi(self, n):
        phi = self._phi()
        block = make_diffusion_block(phi, 0.2, 1.0)
        fs = [_signal(n, seed) for seed in (3, 4)]
        runs = {
            "chain": lambda f: chain([block] * 6, f).values,
            "diffuse": lambda f: diffuse(f, phi, 1.0)[0].values,
        }
        alone = {(name, i): run(f) for name, run in runs.items() for i, f in enumerate(fs)}
        got, errors = {}, []

        def work(name, i):
            try:
                for _ in range(30):
                    got[name, i] = runs[name](fs[i])
                    assert_bit_identical(got[name, i], alone[name, i])
            except BaseException as exc:  # reported on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=key) for key in alone]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert set(got) == set(alone)


def _itself(r):
    return r


def _a_view(r):
    return r[:]


def _a_copy(r):
    return r * 1.0


class TestEvaluatorsThatAlias:
    """An evaluator may return the array it is given, or a view of it: a run
    reuses that array for its next step, so it must be done with the value
    by then.  Each run equals its public single steps applied one by one."""

    EVALUATORS = (_itself, _a_view, _a_copy)
    N, STEPS = 16, 7

    @pytest.mark.parametrize("ev", EVALUATORS)
    def test_flux_run(self, ev):
        f = _signal(self.N, 11)
        phi = user_role_function(Role.ACTIVATION, ev)
        u, plan = diffuse(f, phi, 1.0)
        assert plan.steps > 1
        assert_bit_identical(u.values, _stepped(f, lambda v: explicit_step(v, phi, plan.tau), plan.steps))

    @pytest.mark.parametrize("ev", EVALUATORS)
    def test_haar_run(self, ev):
        f = _signal(self.N, 12)
        shrink = user_role_function(Role.SHRINKAGE, ev)
        assert_bit_identical(iterate_shrinkage(f, shrink, self.STEPS).values,
                             _stepped(f, lambda v: shift_invariant_step(v, shrink), self.STEPS))

    @pytest.mark.parametrize("ev", EVALUATORS)
    def test_block_run(self, ev):
        f = _signal(self.N, 13)
        block = ResidualBlock(w1=[0.5, 0.0, -1.0, 1.0, 0.25], sigma1=ev, w2=[-0.2, 0.2, 0.3], sigma2=ev)
        assert_bit_identical(chain([block] * self.STEPS, f).values,
                             _stepped(f, lambda v: apply_block(block, v), self.STEPS))
