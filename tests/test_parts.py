"""Parts of a long pass: bit for bit, with the caller's state, safe
under fork and nesting, and only for the package's own evaluators.

A pass over more than ``diffusion._CHUNK`` samples runs its windows in
up to ``diffusion._WORKERS`` contiguous parts at once, each of at least
``diffusion._PART_WINDOWS`` windows, when every evaluator it calls is
one the package built.  With these constants patched small, every part
seam and the ring that the wall closes show up in short signals.  The
test evaluators below are marked as the package's own so that they run
in parts.  Outputs are compared as bit patterns with the one-part pass,
so signed zeros count.
"""

import dataclasses
import functools
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import denoise1d
from denoise1d import (
    CouplingParams,
    EnergySpec,
    Family,
    FamilySpec,
    ResidualBlock,
    Role,
    Signal1D,
    euler_lagrange_residual,
    make_role_function,
    relu,
    translate,
    user_role_function,
)
from denoise1d import diffusion
from denoise1d.blocks import _apply
from denoise1d.diffusion import _flux_step
from denoise1d.nonlinearities import _is_reentrant, _reentrant
from denoise1d.shrinkage import _shift_invariant_values

SRC = os.path.dirname(os.path.dirname(os.path.abspath(denoise1d.__file__)))
WORKERS = (1, 2, 3, 4)
CHUNKS = (1, 2, 3, 5)
# Seconds a forked or spawned child may take for a few short passes.
DEADLINE_S = 60.0


@_reentrant
def _offset(r):
    # phi(0) = S(0) = 0.3, so the wall value is not zero.
    return r + 0.3


@_reentrant
def _tanh(r):
    return np.tanh(r)


ACTIVATIONS = tuple(make_role_function(FamilySpec(f), Role.ACTIVATION).evaluator for f in Family) + (
    _offset,
)
SHRINKAGES = tuple(
    translate(make_role_function(FamilySpec(f), Role.ACTIVATION), Role.SHRINKAGE, CouplingParams(tau=0.25)).evaluator
    for f in Family
) + (_offset,)
REGULARISERS = tuple(make_role_function(FamilySpec(f), Role.REGULARISER) for f in Family)
VALUES = st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=64).map(lambda v: np.array(v, dtype=np.float64))


def _parts(workers, chunk, part_windows=1):
    return mock.patch.multiple(diffusion, _WORKERS=workers, _CHUNK=chunk, _PART_WINDOWS=part_windows)


def _by_workers(workers, chunk, kernel):
    # kernel() with `workers` parts, and with one, at the same chunk.
    with _parts(1, chunk):
        one = kernel()
    with _parts(workers, chunk):
        out = kernel()
    return one, out


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBitIdentical:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(WORKERS),
        st.sampled_from(CHUNKS),
        VALUES,
        st.sampled_from(ACTIVATIONS),
        st.sampled_from((0.1, 0.25)),
        st.sampled_from((1.0, 0.5)),
    )
    def test_flux_step(self, workers, chunk, x, ev, tau, h):
        assert_bit_identical(*_by_workers(workers, chunk, lambda: _flux_step(x, ev, tau, h)))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(WORKERS), st.sampled_from(CHUNKS), VALUES, st.sampled_from(SHRINKAGES))
    def test_shrinkage_step(self, workers, chunk, x, ev):
        assert_bit_identical(*_by_workers(workers, chunk, lambda: _shift_invariant_values(x, ev)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(WORKERS),
        st.sampled_from(CHUNKS),
        VALUES,
        st.sampled_from(REGULARISERS),
        st.sampled_from((1.0, 0.5)),
        st.data(),
    )
    def test_euler_lagrange_residual(self, workers, chunk, x, psi, h, data):
        f = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=x.size, max_size=x.size))
        u, f, spec = Signal1D(x, h), Signal1D(f, h), EnergySpec(psi=psi, alpha=0.7)
        one, out = _by_workers(workers, chunk, lambda: euler_lagrange_residual(u, f, spec).values)
        assert_bit_identical(one, out)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(WORKERS), st.sampled_from(CHUNKS), VALUES, st.data())
    def test_block(self, workers, chunk, x, data):
        n = x.size
        weight = st.sampled_from((0.0, 1.0, -1.0, 0.5, -0.3, 2.0))

        def stencil(taps):
            return st.lists(weight, min_size=taps, max_size=taps)

        def bias():
            return st.one_of(st.just([]), st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))

        block = ResidualBlock(
            w1=data.draw(stencil(5)),
            sigma1=data.draw(st.sampled_from(ACTIVATIONS)),
            w2=data.draw(st.sampled_from((1, 3, 5)).flatmap(stencil)),
            sigma2=data.draw(st.sampled_from((_reentrant(lambda r: r), relu, _tanh, np.tanh))),
            b1=data.draw(bias()),
            b2=data.draw(bias()),
        )
        assert_bit_identical(*_by_workers(workers, chunk, lambda: _apply(block, x)))

    @pytest.mark.parametrize("family", tuple(Family))
    def test_parts_at_the_real_chunk(self, family):
        rng = np.random.default_rng(list(Family).index(family))
        x = rng.uniform(-4.0, 4.0, 5 * diffusion._CHUNK + 3)
        ev = make_role_function(FamilySpec(family), Role.ACTIVATION).evaluator
        for workers in (2, 3):
            one, out = _by_workers(workers, diffusion._CHUNK, lambda: _flux_step(x, ev, 0.1, 0.5))
            assert_bit_identical(one, out)


class TestPartition:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(WORKERS), st.sampled_from(CHUNKS), st.integers(1, 4), st.integers(1, 64))
    def test_parts_are_the_windows_in_even_contiguous_runs(self, workers, chunk, part_windows, n):
        with _parts(workers, chunk, part_windows):
            parts, windows = diffusion._parts(n), diffusion._windows(n)
        assert [w for part in parts for w in part] == windows
        assert len(parts) == max(1, min(workers, len(windows) // part_windows))
        assert max(map(len, parts)) - min(map(len, parts)) <= 1
        assert len(parts) == 1 or min(map(len, parts)) >= part_windows

    def test_a_pass_over_a_few_windows_stays_in_one_part(self):
        n = 2 * diffusion._PART_WINDOWS * diffusion._CHUNK
        assert len(diffusion._parts(n - diffusion._CHUNK)) == 1
        assert len(diffusion._parts(n)) == min(diffusion._WORKERS, 2)

    def test_one_worker_never_makes_the_pool(self):
        x = np.linspace(-1.0, 1.0, 11) ** 3
        ev = ACTIVATIONS[3]
        block = ResidualBlock(w1=[0.0, -1.0, 1.0], sigma1=ev, w2=[-0.1, 0.1, 0.0])
        f, spec = Signal1D(x), EnergySpec(psi=REGULARISERS[1], alpha=0.5)
        with mock.patch.object(diffusion, "_pool", None), _parts(1, 2):
            _flux_step(x, ev, 0.1, 1.0)
            _shift_invariant_values(x, SHRINKAGES[3])
            euler_lagrange_residual(f, f, spec)
            _apply(block, x)
            assert diffusion._pool is None

    def test_the_pool_has_only_the_threads_a_pass_needs(self):
        x, ev = np.linspace(-1.0, 1.0, 16) ** 3, ACTIVATIONS[3]
        with mock.patch.object(diffusion, "_pool", None), _parts(64, 4):
            threads = []
            for n in (8, 16, 8):  # 2, 4 and 2 parts of one window each
                _flux_step(x[:n], ev, 0.1, 1.0)
                threads.append(diffusion._pool.threads)
        assert threads == [1, 3, 3]


class Marker(Exception):
    pass


class TestCallerState:
    # Eight samples in windows of two: the overflow is in the last window.
    OVERFLOW = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e308, -1e308])

    @pytest.mark.parametrize("workers", (2, 4))
    def test_errstate_raise_reaches_the_last_part(self, workers):
        with _parts(workers, 2), np.errstate(all="raise"), pytest.raises(FloatingPointError):
            _flux_step(self.OVERFLOW, _offset, 0.1, 1.0)

    @pytest.mark.parametrize("workers", (2, 4))
    def test_errstate_ignore_reaches_the_last_part(self, workers):
        with np.errstate(all="ignore"):
            with _parts(1, 2):
                one = _flux_step(self.OVERFLOW, _offset, 0.1, 1.0)
            with _parts(workers, 2), warnings.catch_warnings():
                warnings.simplefilter("error")
                out = _flux_step(self.OVERFLOW, _offset, 0.1, 1.0)
        assert_bit_identical(one, out)

    def test_a_failure_in_the_second_part_reaches_the_caller(self):
        @_reentrant
        def picky(r):
            if np.any(r == 7.0):
                raise Marker
            return _offset(r)

        x = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 7.0, 7.0])  # fd = 7 at sample 4 only
        with _parts(2, 2):
            with pytest.raises(Marker):
                _flux_step(x, picky, 0.1, 1.0)
            y = np.linspace(0.0, 1.0, 8) ** 2
            out = _flux_step(y, _offset, 0.1, 1.0)
        with _parts(1, 2):
            assert_bit_identical(out, _flux_step(y, _offset, 0.1, 1.0))

    def test_the_first_failure_in_part_order_is_raised(self):
        # Part p of four sees fd = p; part 1 fails last in time.
        @_reentrant
        def picky(r):
            p = int(r.max())
            if p == 1:
                time.sleep(0.05)
            if p:
                raise Marker(p)
            return r

        x = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0])
        with _parts(4, 2), pytest.raises(Marker) as err:
            _flux_step(x, picky, 0.1, 1.0)
        assert err.value.args == (1,)

    def test_every_part_has_ended_when_the_caller_raises(self):
        ended = []

        @_reentrant
        def picky(r):
            if r.max() == 0.0:  # the caller's part
                raise Marker
            time.sleep(0.05)
            ended.append(r.size)
            return r

        x = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0])
        with _parts(4, 2), pytest.raises(Marker):
            _flux_step(x, picky, 0.1, 1.0)
        assert ended == [2, 2, 2]


class TestForeignEvaluators:
    # Only evaluators the package builds run on several threads; any other
    # callable, a user's or a wrapper that counts calls, runs on the
    # caller's thread, one window after another.

    def test_the_package_evaluators_are_reentrant(self):
        for family in Family:
            for role in Role:
                rf = make_role_function(FamilySpec(family), role)
                assert _is_reentrant(rf.evaluator)
                for to in Role:
                    assert _is_reentrant(translate(rf, to, CouplingParams(tau=0.25, alpha=0.25)).evaluator)
            psi = make_role_function(FamilySpec(family), Role.REGULARISER)
            assert _is_reentrant(psi.derivative)
        assert _is_reentrant(relu) and _is_reentrant(ResidualBlock(w1=[1.0], sigma1=relu, w2=[1.0]).sigma2)

    def test_other_evaluators_are_not(self):
        phi = make_role_function(FamilySpec(Family.PERONA_MALIK), Role.ACTIVATION)

        @functools.wraps(phi.evaluator)
        def wrapped(r):
            return phi.evaluator(r)

        user = user_role_function(Role.ACTIVATION, lambda r: r + 0.0)
        replaced = dataclasses.replace(phi, evaluator=wrapped)
        for ev in (np.tanh, wrapped, user.evaluator, translate(user, Role.SHRINKAGE, CouplingParams(tau=0.25)).evaluator,
                   translate(replaced, Role.DIFFUSIVITY).evaluator, [].append):
            assert not _is_reentrant(ev)

    def test_a_package_evaluator_runs_in_parts(self):
        x = np.random.default_rng(6).uniform(-4.0, 4.0, 23)
        phi = make_role_function(FamilySpec(Family.CHARBONNIER), Role.ACTIVATION)
        psi = make_role_function(FamilySpec(Family.CHARBONNIER), Role.REGULARISER)
        u, spec = Signal1D(x), EnergySpec(psi=psi, alpha=0.5)
        kernels = (
            lambda: _flux_step(x, phi.evaluator, 0.1, 1.0),
            lambda: _shift_invariant_values(x, translate(phi, Role.SHRINKAGE, CouplingParams(tau=0.25)).evaluator),
            lambda: euler_lagrange_residual(u, u, spec),
            lambda: _apply(ResidualBlock(w1=[0.0, -1.0, 1.0], sigma1=phi.evaluator, w2=[-0.1, 0.1, 0.0]), x),
            lambda: _apply(ResidualBlock(w1=[0.0, -1.0, 1.0], sigma1=relu, w2=[-0.1, 0.1, 0.0], sigma2=relu), x),
        )
        for kernel in kernels:
            with _parts(2, 2), mock.patch.object(diffusion, "_run_parts", wraps=diffusion._run_parts) as run_parts:
                kernel()
            assert [len(call.args[1]) for call in run_parts.call_args_list] == [2]

    def test_a_foreign_evaluator_runs_on_the_callers_thread(self):
        threads = set()

        def seen(fn):
            def ev(r):
                threads.add(threading.get_ident())
                return fn(r)
            return ev

        x = np.random.default_rng(5).uniform(-4.0, 4.0, 23)
        phi = make_role_function(FamilySpec(Family.CHARBONNIER), Role.ACTIVATION).evaluator
        psi = user_role_function(Role.REGULARISER, seen(lambda r: r * r))
        u, spec = Signal1D(x), EnergySpec(psi=psi, alpha=0.5)
        kernels = (
            lambda: _flux_step(x, seen(phi), 0.1, 1.0),
            lambda: _shift_invariant_values(x, seen(phi)),
            lambda: euler_lagrange_residual(u, u, spec).values,
            lambda: _apply(ResidualBlock(w1=[0.0, -1.0, 1.0], sigma1=seen(phi), w2=[-0.1, 0.1, 0.0]), x),
            lambda: _apply(ResidualBlock(w1=[0.0, -1.0, 1.0], sigma1=phi, w2=[-0.1, 0.1, 0.0], sigma2=seen(relu)), x),
        )
        for kernel in kernels:
            one, out = _by_workers(4, 2, kernel)
            assert_bit_identical(one, out)
        assert threads == {threading.get_ident()}


def _wait_or_kill(pid):
    # The child's exit code, or a failure once it has run past the deadline.
    deadline = time.monotonic() + DEADLINE_S
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"the child did not finish within {DEADLINE_S} s")
        time.sleep(0.01)


class TestNoHang:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_repeats_a_multi_part_pass(self):
        x = np.random.default_rng(3).uniform(-4.0, 4.0, 23)
        ev = ACTIVATIONS[3]
        with _parts(2, 4):
            first = _flux_step(x, ev, 0.1, 1.0)
            assert diffusion._pool is not None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
                pid = os.fork()
            if pid == 0:
                code = 3
                try:
                    again = _flux_step(x, ev, 0.1, 1.0)
                    code = 0 if np.array_equal(again.view(np.int64), first.view(np.int64)) else 1
                finally:
                    os._exit(code)
            assert _wait_or_kill(pid) == 0

    def test_an_evaluator_that_runs_a_long_step_finishes(self):
        # In a child process, so that a deadlock fails this test and does
        # not hang the suite.
        code = textwrap.dedent(
            """
            import numpy as np
            from denoise1d import diffusion
            from denoise1d.diffusion import _flux_step
            from denoise1d.nonlinearities import _reentrant

            diffusion._CHUNK, diffusion._PART_WINDOWS = 4, 1

            @_reentrant
            def tanh(r):
                return np.tanh(r)

            @_reentrant
            def nested(r):
                inner = _flux_step(np.linspace(0.0, 1.0, 16) ** 2, tanh, 0.1, 1.0)
                return np.tanh(r) + 0.0 * inner[0]

            x = np.random.default_rng(4).uniform(-4.0, 4.0, 29)
            outs = []
            for workers in (1, 2, 3):
                diffusion._WORKERS = workers
                outs.append(_flux_step(x, nested, 0.1, 1.0))
            assert all(np.array_equal(o.view(np.int64), outs[0].view(np.int64)) for o in outs)
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        run = subprocess.run([sys.executable, "-c", code], env=env, timeout=DEADLINE_S, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
