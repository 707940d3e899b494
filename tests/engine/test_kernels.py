"""Kernel tier: backend selection, and bit-identity with the Python loops.

The compiled kernels consume the same pre-drawn random buffers the
pure-Python loops draw, so a kernel run must be *bit-identical* to the
Python loop — same counts, interaction totals, milestones, convergence
flags.  ``count`` runs the kernel on a native backend and the Python
``JumpChain.advance`` loop under ``REPRO_KERNEL=python``, so its pins
compare the two backends; ``batch-jit`` is pinned against ``batch``.
These tests cover seeds, protocols, slicing, budget exhaustion, and
the forced pure-Python fallback, so the suite passes with no native
toolchain at all.
"""

from __future__ import annotations

import gc
import importlib.util
import pickle
import sys
import tempfile
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from repro.engine import (
    BatchEngine,
    CountBasedEngine,
    JitBatchEngine,
    JitCountEngine,
    KernelBuildError,
    SessionState,
    get_kernels,
    reset_kernels,
    run_trials,
)
from repro.engine.count_based import ChainTables, JumpChain
from repro.engine.jit import KernelJumpChain
from repro.engine.kernels import KERNEL_ENV, _build_cc, _find_cc
from repro.obs import Telemetry, use_telemetry
from repro.protocols import (
    approximate_k_partition,
    leader_election,
    uniform_bipartition,
    uniform_k_partition,
)

_HAS_NUMBA = importlib.util.find_spec("numba") is not None


def _science(result) -> tuple:
    """Everything except engine name and wall time."""
    return (
        result.interactions,
        result.effective_interactions,
        result.converged,
        result.silent,
        tuple(result.final_counts.tolist()),
        tuple(result.tracked_milestones),
    )


@pytest.fixture
def python_backend(monkeypatch):
    """Force the pure-Python kernel backend for one test."""
    monkeypatch.setenv(KERNEL_ENV, "python")
    reset_kernels()
    yield
    reset_kernels()


@pytest.fixture(autouse=True, scope="module")
def _restore_kernels():
    yield
    reset_kernels()


class TestBackendSelection:
    def test_get_kernels_caches(self):
        reset_kernels()
        assert get_kernels() is get_kernels()

    def test_forced_python_backend(self, python_backend):
        kernels = get_kernels()
        assert kernels.backend == "python"
        assert not kernels.native
        assert kernels.compile_seconds == 0.0

    def test_unknown_backend_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "warp-drive")
        reset_kernels()
        with pytest.raises(KernelBuildError, match="warp-drive"):
            get_kernels()
        reset_kernels()

    @pytest.mark.skipif(_HAS_NUMBA, reason="numba is installed")
    def test_forced_numba_raises_without_numba(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numba")
        reset_kernels()
        with pytest.raises(KernelBuildError, match="numba"):
            get_kernels()
        reset_kernels()

    @pytest.mark.skipif(_find_cc() is None, reason="no C compiler on PATH")
    def test_cc_backend_builds_and_is_cached(self):
        first = _build_cc()
        assert first.backend == "cc"
        # Second build loads the cached shared object: no recompilation.
        second = _build_cc()
        assert second.backend == "cc"
        assert second.compile_seconds <= first.compile_seconds + 1.0

    @pytest.mark.skipif(_find_cc() is None, reason="no C compiler on PATH")
    def test_concurrent_first_builds_compile_once(self, monkeypatch, tmp_path):
        # Campaign thread workers all start their first session at once
        # on a cold kernel cache.
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setenv(KERNEL_ENV, "cc")
        reset_kernels()
        telemetry = Telemetry()
        barrier = threading.Barrier(8)
        got: list = []

        def first_session() -> None:
            barrier.wait(timeout=30)
            got.append(get_kernels())

        try:
            with use_telemetry(telemetry):
                threads = [threading.Thread(target=first_session) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            reset_kernels()
        assert len(got) == 8
        assert all(kernels is got[0] for kernels in got)
        assert got[0].backend == "cc"
        assert telemetry.counter("engine.kernel.compiles").value == 1
        cache = list(tmp_path.glob("repro-kernels-*/*"))
        assert [p.suffix for p in cache] == [".so"]  # no scratch left behind

    @pytest.mark.skipif(_HAS_NUMBA, reason="auto would pick numba")
    def test_unusable_kernel_cache_falls_back_to_python(self, monkeypatch, tmp_path):
        # The cache cannot be created under a TMPDIR that is a regular
        # file (permission bits would not stop a root user).  The cc
        # backend is then unavailable and ``count`` runs the Python loop.
        blocked = tmp_path / "not-a-directory"
        blocked.write_text("")
        monkeypatch.setenv("TMPDIR", str(blocked))
        monkeypatch.setattr(tempfile, "tempdir", str(blocked))
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        reset_kernels()
        try:
            result = CountBasedEngine().run(uniform_k_partition(3), 30, seed=0)
            assert get_kernels().backend == "python"
        finally:
            reset_kernels()
        assert result.converged


PROTOCOLS = {
    "k3": (uniform_k_partition(3), 300, "g3"),
    "bipartition": (uniform_bipartition(), 121, "g2"),
    "leader": (leader_election(), 90, None),
}


@contextmanager
def _backend(monkeypatch, backend: str):
    """Force the kernel backend to ``backend`` inside the block; the
    previous ``REPRO_KERNEL`` value is back in force after it."""
    with monkeypatch.context() as patch:
        patch.setenv(KERNEL_ENV, backend)
        reset_kernels()
        try:
            yield
        finally:
            reset_kernels()
    reset_kernels()


def _count_run(backend: str, monkeypatch, **kwargs):
    """A ``count`` run with the kernel backend forced to ``backend``."""
    with _backend(monkeypatch, backend):
        return CountBasedEngine().run(**kwargs)


def _kernel_session(proto, n, **kwargs):
    """A ``count`` session whose chain is a :class:`KernelJumpChain`
    whatever the backend, starting from the same drawn block."""
    session = CountBasedEngine().start(proto, n, **kwargs)
    python_chain = session._chain
    chain = KernelJumpChain(proto, session.counts, session._rng, session._n, draw=False)
    session._rng = chain.apply_capture(python_chain.capture())
    session._chain = chain
    return session


class TestCountTierIdentity:
    """``count`` runs the kernel on a native backend and the Python
    ``JumpChain.advance`` loop under ``REPRO_KERNEL=python``; the two
    must agree bit for bit."""

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_count_tier(self, monkeypatch, name, seed):
        proto, n, track = PROTOCOLS[name]
        kwargs = dict(protocol=proto, n=n, seed=seed, track_state=track)
        python = _count_run("python", monkeypatch, **kwargs)
        native = _count_run("auto", monkeypatch, **kwargs)
        assert _science(native) == _science(python)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_budget_exhaustion_parity(self, monkeypatch, seed):
        proto, n, track = PROTOCOLS["k3"]
        kwargs = dict(
            protocol=proto, n=n, seed=seed, track_state=track, max_interactions=5000
        )
        python = _count_run("python", monkeypatch, **kwargs)
        native = _count_run("auto", monkeypatch, **kwargs)
        assert python.interactions == native.interactions == 5000
        assert _science(native) == _science(python)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_python_backend_identical(self, python_backend, seed):
        # _jump_chain_py is only reachable through a KernelJumpChain
        # built by hand: sessions on the python backend run the loop.
        for proto, n, track in PROTOCOLS.values():
            loop = CountBasedEngine().start(proto, n, seed=seed, track_state=track)
            assert type(loop._chain) is JumpChain
            loop.advance()
            kernel = _kernel_session(proto, n, seed=seed, track_state=track)
            kernel.advance()
            assert _science(kernel.result()) == _science(loop.result())

    @pytest.mark.parametrize("cut", [7, 97])
    def test_sliced_with_snapshots_equals_straight_python_tier(self, monkeypatch, cut):
        proto, n, track = PROTOCOLS["k3"]
        straight = _count_run(
            "python", monkeypatch, protocol=proto, n=n, seed=5, track_state=track
        )
        engine = CountBasedEngine()
        chain_type = KernelJumpChain if get_kernels().native else JumpChain
        session = engine.start(proto, n, seed=5, track_state=track)
        while not session.advance(cut).terminal:
            assert type(session._chain) is chain_type
            blob = session.snapshot().to_bytes()
            session = engine.start(proto, n, seed=99, track_state=track)
            session.restore(SessionState.from_bytes(blob))
        assert type(session._chain) is chain_type
        assert _science(session.result()) == _science(straight)

    def test_count_jit_is_count_under_another_name(self):
        proto, n, track = PROTOCOLS["k3"]
        plain = CountBasedEngine().run(proto, n, seed=4, track_state=track)
        jit = JitCountEngine().run(proto, n, seed=4, track_state=track)
        assert _science(jit) == _science(plain)
        assert (plain.engine, jit.engine) == ("count", "count-jit")
        session = JitCountEngine().start(proto, n, seed=0)
        assert type(session) is type(CountBasedEngine().start(proto, n, seed=0))

    def test_callback_forces_python_loop(self, monkeypatch):
        proto, n, _ = PROTOCOLS["k3"]
        plain = _count_run("python", monkeypatch, protocol=proto, n=n, seed=1)
        for engine in (CountBasedEngine(), JitCountEngine()):
            seen: list[int] = []
            session = engine.start(
                proto, n, seed=1, on_effective=lambda i, c: seen.append(i)
            )
            assert type(session._chain) is JumpChain  # fallback, not the kernel
            session.advance()
            assert _science(session.result()) == _science(plain)
            assert seen[-1] == plain.interactions
            assert len(seen) == plain.effective_interactions

    def test_restored_numpy_bool_flags_become_bools(self):
        # Snapshots of finished count-jit runs taken before the kernel
        # chain reported plain bools carry numpy bools.
        proto, n, _ = PROTOCOLS["k3"]
        session = CountBasedEngine().start(proto, n, seed=2)
        session.advance()
        state = session.snapshot()
        chain = state.extra["chain"]
        for flag in ("converged", "silent", "exhausted"):
            chain[flag] = np.bool_(chain[flag])
        restored = CountBasedEngine().start(proto, n, seed=0)
        restored.restore(SessionState.from_bytes(state.to_bytes()))
        result = restored.result()
        assert type(result.silent) is bool and type(result.converged) is bool
        assert _science(result) == _science(session.result())

    def test_signatureless_predicate_forces_python_loop(self):
        proto = approximate_k_partition(3)
        assert proto.stability_predicate(30) is not None
        assert proto.stability_signature(30) is None
        session = CountBasedEngine().start(proto, 30, seed=0)
        assert type(session._chain) is JumpChain

    def test_kernel_chain_used_when_eligible(self, monkeypatch):
        proto, n, _ = PROTOCOLS["k3"]
        session = CountBasedEngine().start(proto, n, seed=0)
        if get_kernels().native:
            assert isinstance(session._chain, KernelJumpChain)
        else:
            assert type(session._chain) is JumpChain
        with _backend(monkeypatch, "python"):
            session = CountBasedEngine().start(proto, n, seed=0)
        assert type(session._chain) is JumpChain

    @pytest.mark.parametrize("n", [6, 17, 40, 64])
    def test_fig3_points_records_match_across_backends(self, monkeypatch, n):
        proto = uniform_k_partition(4)

        def records(backend: str) -> list[dict]:
            with _backend(monkeypatch, backend):
                trials = run_trials(proto, n, trials=20, engine="count", seed=n)
            out = trials.to_record()["results"]
            for record in out:
                record.pop("elapsed")
            return out

        assert records("auto") == records("python")


class TestChainTables:
    def test_tables_built_once_and_shared(self):
        proto = uniform_k_partition(3)
        a = CountBasedEngine().start(proto, 30, seed=0)._chain
        b = JitCountEngine().start(proto, 30, seed=1)._chain
        c = JumpChain(proto, proto.initial_counts(30).tolist(), None, 30, draw=False)
        assert a.tables is b.tables is c.tables is ChainTables.of(proto, 30)
        assert ChainTables.of(proto, 31) is not a.tables

    def test_tables_are_read_only(self):
        tables = ChainTables.of(uniform_k_partition(3), 30)
        assert isinstance(tables.in1, tuple)
        assert all(isinstance(dirty, tuple) for dirty in tables.affected)
        for array in tables.kernel_arrays:
            assert not array.flags.writeable

    def test_threads_share_tables_without_divergence(self):
        proto = uniform_k_partition(4)
        expected = [
            _science(CountBasedEngine().run(proto, 40, seed=s)) for s in range(16)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(
                    lambda s: _science(CountBasedEngine().run(proto, 40, seed=s)),
                    range(16),
                    timeout=120,
                ))
        finally:
            sys.setswitchinterval(switch)
        assert got == expected

    def test_tables_die_with_their_protocol(self):
        proto = uniform_k_partition(3)
        CountBasedEngine().run(proto, 30, seed=0)
        alive = weakref.ref(proto)
        del proto
        gc.collect()
        assert alive() is None

    def test_protocol_pickles_after_a_run(self):
        proto = uniform_k_partition(3)
        CountBasedEngine().run(proto, 30, seed=0)
        clone = pickle.loads(pickle.dumps(proto))
        assert ChainTables.of(clone, 30) is not ChainTables.of(proto, 30)
        assert _science(CountBasedEngine().run(clone, 30, seed=0)) == _science(
            CountBasedEngine().run(proto, 30, seed=0)
        )


class TestBatchTierIdentity:
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_batch_tier(self, name, seed):
        proto, n, track = PROTOCOLS[name]
        n = min(n, 72)  # the batch tier simulates every null interaction
        plain = BatchEngine().run(
            proto, n, seed=seed, track_state=track, max_interactions=30_000
        )
        jit = JitBatchEngine().run(
            proto, n, seed=seed, track_state=track, max_interactions=30_000
        )
        assert _science(jit) == _science(plain)
        assert jit.engine == "batch-jit"

    @pytest.mark.parametrize("seed", [0, 3])
    def test_budget_exhaustion_parity(self, seed):
        proto, _, track = PROTOCOLS["k3"]
        plain = BatchEngine().run(
            proto, 72, seed=seed, track_state=track, max_interactions=500
        )
        jit = JitBatchEngine().run(
            proto, 72, seed=seed, track_state=track, max_interactions=500
        )
        assert _science(jit) == _science(plain)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_python_backend_identical(self, python_backend, seed):
        proto, _, track = PROTOCOLS["k3"]
        plain = BatchEngine().run(
            proto, 72, seed=seed, track_state=track, max_interactions=30_000
        )
        jit = JitBatchEngine().run(
            proto, 72, seed=seed, track_state=track, max_interactions=30_000
        )
        assert _science(jit) == _science(plain)

    @pytest.mark.parametrize("cut", [13, 512])
    def test_sliced_with_snapshots_equals_straight_python_tier(self, cut):
        proto, _, track = PROTOCOLS["k3"]
        straight = BatchEngine().run(
            proto, 72, seed=5, track_state=track, max_interactions=30_000
        )
        engine = JitBatchEngine()
        session = engine.start(
            proto, 72, seed=5, track_state=track, max_interactions=30_000
        )
        while not session.advance(cut).terminal:
            blob = session.snapshot().to_bytes()
            session = engine.start(
                proto, 72, seed=99, track_state=track, max_interactions=30_000
            )
            session.restore(SessionState.from_bytes(blob))
        assert _science(session.result()) == _science(straight)

    def test_callback_forces_python_loop(self):
        proto, _, _ = PROTOCOLS["k3"]
        session = JitBatchEngine().start(
            proto, 72, seed=1, on_effective=lambda i, c: None
        )
        assert not session._use_kernel


class TestSignatureAgreement:
    """The declarative signature must decide exactly like the predicate
    on every configuration a run visits (including the initial one)."""

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("n_off", [0, 1, 2, 3])
    def test_signature_matches_predicate_along_trajectories(self, name, n_off):
        proto, n, _ = PROTOCOLS[name]
        n = min(n, 60) + n_off
        pred = proto.stability_predicate(n)
        sig = proto.stability_signature(n)
        assert pred is not None and sig is not None

        visited = []

        def watch(i, counts):
            visited.append(list(counts))

        CountBasedEngine().run(
            proto, n, seed=2, on_effective=watch, max_interactions=50_000
        )
        assert visited
        for counts in visited:
            assert sig.evaluate(counts) == pred(counts), counts

    def test_signature_arrays_are_csr(self):
        proto, n, _ = PROTOCOLS["k3"]
        off, idx, want = proto.stability_signature(n).arrays()
        assert off[0] == 0 and off[-1] == len(idx)
        assert len(off) == len(want) + 1
        assert (off[1:] >= off[:-1]).all()
