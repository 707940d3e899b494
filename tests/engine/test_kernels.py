"""Kernel tier: backend selection, and bit-identity with the Python loops.

The compiled kernels consume the same pre-drawn random buffers the
pure-Python loops draw, so a kernel run must be *bit-identical* to the
Python loop — same counts, interaction totals, milestones, convergence
flags.  ``count`` (the jump chain) and ``batch``, ``batch-jit``,
``graph`` and ``agent`` (the one pair loop, on any scheduler) run the
kernel on a native backend and their Python loops under
``REPRO_KERNEL=python``, so the pins compare the two backends.  These tests cover seeds, protocols, schedulers,
slicing, snapshots moved between the loops, budget exhaustion, and the
forced pure-Python fallback, so the suite passes with no native
toolchain at all.
"""

from __future__ import annotations

import ctypes
import gc
import pickle
import re
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
    KernelBuildError,
    SessionState,
    engine_for_scheduler,
    get_kernels,
    build_engine,
    reset_kernels,
    run_trials,
)
from repro.engine.count_based import ChainTables, JumpChain
from repro.engine.jit import KernelJumpChain
from repro.engine.kernels import (
    _C_SOURCE,
    KERNEL_ARGS,
    KERNEL_ENV,
    _build_cc,
    _find_cc,
    address,
    bind_args,
)
from repro.obs import Telemetry, use_telemetry
from repro.protocols import (
    approximate_k_partition,
    graph_bipartition,
    leader_election,
    r_generalized_partition,
    uniform_bipartition,
    uniform_k_partition,
)


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
        with pytest.raises(KernelBuildError) as err:
            get_kernels()
        reset_kernels()
        assert repr("warp-drive") in str(err.value)
        assert str(err.value).endswith("choose auto, cc, python")

    def test_forced_numba_raises_without_numba(self, monkeypatch):
        # The numba backend is gone: a stale REPRO_KERNEL=numba must
        # fail like any unknown value rather than fall back silently.
        monkeypatch.setenv(KERNEL_ENV, "numba")
        reset_kernels()
        with pytest.raises(KernelBuildError, match="numba") as err:
            get_kernels()
        reset_kernels()
        assert str(err.value).endswith("choose auto, cc, python")

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
    "rgen": (r_generalized_partition((1, 2)), 150, "g3"),
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


class TestKernelArguments:
    """The kernels take raw addresses, so ctypes cannot catch an array
    bound to the wrong slot: :data:`KERNEL_ARGS` is the one argument
    list, and these tests pin it to the C source and to the binders."""

    @pytest.mark.parametrize("kernel", sorted(KERNEL_ARGS))
    def test_argument_table_matches_the_c_signature(self, kernel):
        head = re.search(rf"int64_t {kernel}\((.*?)\)\s*{{", _C_SOURCE, re.S)
        params = [" ".join(p.split()) for p in head.group(1).split(",")]
        c_types = {"const int64_t *": np.int64, "int64_t *": np.int64,
                   "const double *": np.float64, "int64_t ": None}
        declared = {}
        for param in params:
            name = param.rsplit("*", 1)[-1].split()[-1]
            declared[name] = c_types[param[: len(param) - len(name)]]
        assert declared == KERNEL_ARGS[kernel]
        assert list(declared) == list(KERNEL_ARGS[kernel])

    @pytest.mark.skipif(_find_cc() is None, reason="no C compiler on PATH")
    @pytest.mark.parametrize("kernel", sorted(KERNEL_ARGS))
    def test_argtypes_put_pointers_exactly_at_array_slots(self, kernel):
        argtypes = getattr(_build_cc(), kernel).argtypes
        assert len(argtypes) == len(KERNEL_ARGS[kernel])
        for ctype, dtype in zip(argtypes, KERNEL_ARGS[kernel].values()):
            assert ctype is (ctypes.c_int64 if dtype is None else ctypes.c_void_p)

    def test_bind_args_rejects_a_misplaced_name(self):
        names = KERNEL_ARGS["pair_block"]
        addrs = {n: 8 for n, dtype in names.items() if dtype is not None}
        scalars = {n: 1 for n, dtype in names.items() if dtype is None}
        assert len(bind_args("pair_block", addrs, **scalars)) == len(names)
        with pytest.raises(TypeError):  # an address in a scalar slot
            bind_args("pair_block", {**addrs, "n_buf": 8},
                      **{k: v for k, v in scalars.items() if k != "n_buf"})
        with pytest.raises(TypeError):  # a scalar in an array slot
            bind_args("pair_block",
                      {k: v for k, v in addrs.items() if k != "buf_a"},
                      **scalars, buf_a=8)
        with pytest.raises(TypeError):  # a missing argument
            bind_args("pair_block", addrs,
                      **{k: v for k, v in scalars.items() if k != "track"})

    def test_address_checks_dtype_and_layout(self):
        assert address(np.zeros(3, dtype=np.int64)) != 0
        assert address(np.zeros(3), np.float64) != 0
        for bad in (np.zeros(3), np.zeros((2, 2), dtype=np.int64),
                    np.zeros(6, dtype=np.int64)[::2]):
            with pytest.raises(TypeError):
                address(bad)

    @pytest.mark.skipif(_find_cc() is None, reason="no C compiler on PATH")
    def test_kernel_chain_binds_its_arrays_by_name(self, monkeypatch):
        proto = uniform_k_partition(3)
        with _backend(monkeypatch, "cc"):
            chain = KernelJumpChain(
                proto, proto.initial_counts(30).tolist(),
                np.random.default_rng(0), 30,
            )
        tables = chain.tables
        table_names = ("in1", "in2", "out1", "out2", "same", "mult",
                       "aff_off", "aff_idx", "sig_off", "sig_idx", "sig_want")
        expected = {
            **{name: address(array)
               for name, array in zip(table_names, tables.kernel_arrays)},
            "counts": address(chain._counts),
            "values": address(chain._weights),
            "rand_buf": address(chain.rand, np.float64),
            "ms_buf": address(chain._ms_buf),
            "reg": address(chain._reg),
            "n_sig": len(tables.kernel_arrays[-1]),
            "nrand": len(chain.rand),
            "R": len(tables.in1),
            "T": tables.T,
            "target": 0, "budget": 0, "track": -1,
        }
        assert chain._args == [expected[name] for name in KERNEL_ARGS["jump_chain"]]
        # The shared template leaves every per-chain buffer NULL.
        own = {"counts", "values", "rand_buf", "ms_buf", "reg", "nrand"}
        assert tables.kernel_args == [
            0 if name in own else expected[name] for name in KERNEL_ARGS["jump_chain"]
        ]


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
        engine = build_engine("count-jit")
        assert type(engine) is CountBasedEngine
        jit = engine.run(proto, n, seed=4, track_state=track)
        assert _science(jit) == _science(plain)
        assert (plain.engine, jit.engine) == ("count", "count-jit")
        session = engine.start(proto, n, seed=0)
        assert type(session) is type(CountBasedEngine().start(proto, n, seed=0))

    def test_callback_forces_python_loop(self, monkeypatch):
        proto, n, _ = PROTOCOLS["k3"]
        plain = _count_run("python", monkeypatch, protocol=proto, n=n, seed=1)
        for engine in (CountBasedEngine(), build_engine("count-jit")):
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

    def test_r_generalized_inherits_the_kernel_chain(self):
        # Its stability is the inner W-partition's signature, so the
        # count session no longer needs the Python loop.
        proto = r_generalized_partition((1, 2))
        assert proto.stability_signature(30) is not None
        session = CountBasedEngine().start(proto, 30, seed=0)
        if get_kernels().native:
            assert isinstance(session._chain, KernelJumpChain)
        else:
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
        b = build_engine("count-jit").start(proto, 30, seed=1)._chain
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


#: The pair-loop engines and the schedules they run here: ``batch`` and
#: its second name on the uniform scheduler, ``graph`` on two
#: graph-restricted ones, and ``agent`` through scheduler objects.
PAIR_ENGINES = {
    "batch": BatchEngine,
    "batch-jit": lambda: build_engine("batch-jit"),
    "graph:cycle": lambda: engine_for_scheduler("graph", "graph:cycle"),
    "graph:regular:4": lambda: engine_for_scheduler("graph", "graph:regular:4"),
    "agent": lambda: build_engine("agent"),
    "agent:roundrobin": lambda: engine_for_scheduler("agent", "roundrobin"),
    "agent:graph:cycle": lambda: engine_for_scheduler("agent", "graph:cycle"),
}
GRAPH_PROTO = graph_bipartition()


def _pair_case(engine: str):
    """``(engine, protocol, n, track)`` of one pair-loop case; the batch
    tier simulates every null interaction, so n stays small."""
    if "graph:" in engine:
        return PAIR_ENGINES[engine](), GRAPH_PROTO, 60, "g1"
    proto, _, track = PROTOCOLS["k3"]
    return PAIR_ENGINES[engine](), proto, 72, track


def _ran_kernel(session) -> bool:
    """Whether the session chose the compiled pair loop (it decides on
    its first advance)."""
    return session.__dict__["_pair_kernel"] is not None


class TestBatchTierIdentity:
    """``batch``, ``batch-jit``, ``graph`` and ``agent`` run the compiled
    pair loop on a native backend and the Python loop under
    ``REPRO_KERNEL=python``; the two must agree bit for bit."""

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_bit_identical_to_batch_tier(self, monkeypatch, name, seed):
        proto, n, track = PROTOCOLS[name]
        n = min(n, 72)  # the batch tier simulates every null interaction
        for engine in ("batch", "batch-jit", "agent"):
            runs = {}
            for backend in ("python", "auto"):
                with _backend(monkeypatch, backend):
                    runs[backend] = PAIR_ENGINES[engine]().run(
                        proto, n, seed=seed, track_state=track,
                        max_interactions=30_000,
                    )
            assert _science(runs["auto"]) == _science(runs["python"]), engine
            assert runs["auto"].engine == engine

    @pytest.mark.parametrize("scheduler", ["graph:cycle", "graph:regular:4"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_graph_bit_identical_across_backends(self, monkeypatch, scheduler, seed):
        runs = {}
        for backend in ("python", "auto"):
            with _backend(monkeypatch, backend):
                runs[backend] = engine_for_scheduler("graph", scheduler).run(
                    GRAPH_PROTO, 60, seed=seed, track_state="g1",
                    max_interactions=2_000_000,
                )
        assert runs["python"].converged
        assert _science(runs["auto"]) == _science(runs["python"])
        assert runs["auto"].engine == "graph"

    @pytest.mark.parametrize("seed", [0, 3])
    def test_budget_exhaustion_parity(self, monkeypatch, seed):
        for engine in PAIR_ENGINES:
            runs = {}
            for backend in ("python", "auto"):
                eng, proto, n, track = _pair_case(engine)
                with _backend(monkeypatch, backend):
                    runs[backend] = eng.run(
                        proto, n, seed=seed, track_state=track,
                        max_interactions=500,
                    )
            assert runs["python"].interactions == runs["auto"].interactions == 500
            assert _science(runs["auto"]) == _science(runs["python"]), engine

    @pytest.mark.parametrize("cut", [13, 512])
    def test_sliced_with_snapshots_equals_straight_python_tier(self, monkeypatch, cut):
        for engine in PAIR_ENGINES:
            eng, proto, n, track = _pair_case(engine)
            kwargs = dict(track_state=track, max_interactions=30_000)
            with _backend(monkeypatch, "python"):
                straight = eng.run(proto, n, seed=5, **kwargs)
            native = get_kernels().native
            session = eng.start(proto, n, seed=5, **kwargs)
            while not session.advance(cut).terminal:
                assert _ran_kernel(session) == native, engine
                blob = session.snapshot().to_bytes()
                session = eng.start(proto, n, seed=99, **kwargs)
                session.restore(SessionState.from_bytes(blob))
            assert _ran_kernel(session) == native, engine
            assert _science(session.result()) == _science(straight), engine

    @pytest.mark.parametrize("engine", sorted(PAIR_ENGINES))
    def test_python_loop_snapshot_restores_into_kernel_session(
        self, monkeypatch, engine
    ):
        eng, proto, n, track = _pair_case(engine)
        kwargs = dict(track_state=track, max_interactions=30_000)
        with _backend(monkeypatch, "python"):
            straight = eng.run(proto, n, seed=8, **kwargs)
            session = eng.start(proto, n, seed=8, **kwargs)
            assert not session.advance(777).terminal
            assert not _ran_kernel(session)
            blob = session.snapshot().to_bytes()
        restored = eng.start(proto, n, seed=0, **kwargs)
        restored.restore(SessionState.from_bytes(blob))
        restored.advance()
        assert _ran_kernel(restored) == get_kernels().native
        assert _science(restored.result()) == _science(straight)

    def test_kernel_path_used_when_native_backend_exists(self, monkeypatch):
        for engine in PAIR_ENGINES:
            eng, proto, n, track = _pair_case(engine)
            session = eng.start(proto, n, seed=0, max_interactions=100)
            session.advance()
            assert _ran_kernel(session) == get_kernels().native, engine
            with _backend(monkeypatch, "python"):
                session = eng.start(proto, n, seed=0, max_interactions=100)
                session.advance()
            assert not _ran_kernel(session), engine
        # A predicate without a signature keeps the Python loop too.
        session = BatchEngine().start(approximate_k_partition(3), 30, seed=0)
        session.advance(100)
        assert not _ran_kernel(session)

    def test_callback_forces_python_loop(self, monkeypatch):
        for engine in PAIR_ENGINES:
            eng, proto, n, _ = _pair_case(engine)
            with _backend(monkeypatch, "python"):
                plain = eng.run(proto, n, seed=1, max_interactions=30_000)
            seen: list[int] = []
            session = eng.start(
                proto, n, seed=1, max_interactions=30_000,
                on_effective=lambda i, c: seen.append(i),
            )
            session.advance()
            assert not _ran_kernel(session), engine
            assert _science(session.result()) == _science(plain), engine
            assert len(seen) == plain.effective_interactions


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
