"""Native-speed kernels for the two hot loops, with graceful fallback.

The jump-chain inner loop (:class:`~repro.engine.count_based.JumpChain`)
and the batch engine's pair-draw/apply loop
(:class:`~repro.engine.batch.BatchSession`) spend their time in tight
integer arithmetic that pure Python executes one bytecode at a time.
This module provides the same two loops as *kernels* — allocation-free
state machines over flat int64/float64 arrays — behind three
interchangeable backends:

``numba``
    :func:`numba.njit`-compiled versions of the Python kernel bodies
    below.  Used when Numba is importable.
``cc``
    The same state machines transcribed to C, compiled once per source
    hash with the system C compiler (``cc``/``gcc``) into a cached
    shared object and called through :mod:`ctypes`.  Used when a C
    compiler is available and Numba is not.
``python``
    The plain-Python kernel bodies themselves.  Always available.  The
    ``count`` engine does not run this jump-chain body: its own
    ``JumpChain.advance`` loop is 2-2.5x faster in pure Python, so a
    non-native backend selects that loop instead.  The body stays as
    the reference the tests pin against the loop and as the Numba
    source.

Backend selection is automatic (``numba`` → ``cc`` → ``python``) and
can be forced with the ``REPRO_KERNEL`` environment variable; forcing
an unavailable backend fails loudly instead of silently degrading.

Bit-identity discipline
-----------------------
Kernels never draw randomness.  They consume the pre-drawn buffers the
sessions already own (and already snapshot) and return
:data:`KERNEL_REFILL` when a buffer runs dry; the Python wrapper — the
sole owner of the ``numpy`` Generator — refills at exactly the stream
positions the pure-Python tier would have and re-enters.  Combined with
exact integer weight arithmetic (all prefix sums stay far below 2**53,
so the ``double`` comparisons below are exact) and the shared libm
``log``/``log1p``, a kernel-tier run is bit-identical to its Python
tier: same counts, same interaction totals, same milestones, same
consumed random stream.  The sliced-session parity tests compare the
two tiers end to end, and ``conform diff`` drives the jit sessions'
data structures against the name-level oracle.

The declarative stability test consumed here is
:class:`~repro.core.protocol.StabilitySignature` in CSR form
(``sig_off``/``sig_idx``/``sig_want``); an empty signature means
"silence is the stability criterion".
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from math import log, log1p
from pathlib import Path

import numpy as np

from ..obs.instruments import record_kernel_compile

__all__ = [
    "KernelSet",
    "KernelBuildError",
    "get_kernels",
    "reset_kernels",
    "KERNEL_REFILL",
    "KERNEL_PAUSE",
    "KERNEL_CONVERGED",
    "KERNEL_SILENT",
    "KERNEL_EXHAUSTED",
]

#: Environment variable forcing a backend: ``auto|numba|cc|python``.
KERNEL_ENV = "REPRO_KERNEL"

#: Status codes shared by every backend (values mirrored in the C source).
KERNEL_REFILL = 0     #: random buffer exhausted — refill and re-enter
KERNEL_PAUSE = 1      #: slice target reached
KERNEL_CONVERGED = 2  #: stability signature satisfied
KERNEL_SILENT = 3     #: total active weight hit zero (no signature match)
KERNEL_EXHAUSTED = 4  #: interaction budget ran out mid-skip

#: Above this, a geometric null-skip certainly exceeds any budget
#: (budgets are at most 2**62); guards the float->int64 conversion.
_HUGE_SKIP = 9.0e18


class KernelBuildError(RuntimeError):
    """A forced kernel backend is unavailable or failed to build."""


# ----------------------------------------------------------------------
# Python kernel bodies (also the Numba compilation sources)
# ----------------------------------------------------------------------
# Both bodies are written in the nopython subset: flat 1-D arrays, plain
# loops, no closures or allocation.  The signature check is inlined at
# each use site (njit cannot resolve a plain-Python helper global).


def _jump_chain_py(
    counts,      # int64[S]   in/out: live count vector
    values,      # int64[R]   in/out: per-class active weights
    in1, in2, out1, out2, same, mult,  # int64[R] class tables
    aff_off, aff_idx,                  # CSR: classes affected per class
    sig_off, sig_idx, sig_want,        # CSR stability signature (may be empty)
    rand_buf,    # float64[block] pre-drawn uniforms (two per event)
    ms_buf,      # int64[n+2] out: milestone interaction counts
    reg,         # int64[6] in/out: pos, interactions, effective, W, high_water, ms_len
    T, target, budget, track,          # int64 scalars (track < 0: untracked)
):
    pos = reg[0]
    interactions = reg[1]
    effective = reg[2]
    W = reg[3]
    high_water = reg[4]
    ms_len = 0
    n_sig = sig_want.shape[0]
    nrand = rand_buf.shape[0]
    R = values.shape[0]
    status = KERNEL_PAUSE
    while True:
        if n_sig > 0:
            stable = True
            for g in range(n_sig):
                total = 0
                for i in range(sig_off[g], sig_off[g + 1]):
                    total += counts[sig_idx[i]]
                if total != sig_want[g]:
                    stable = False
                    break
            if stable:
                status = KERNEL_CONVERGED
                break
        if W == 0:
            status = KERNEL_SILENT
            break
        if interactions >= target:
            status = KERNEL_PAUSE
            break
        if pos >= nrand - 2:
            status = KERNEL_REFILL
            break

        # --- geometric null skip (same draw order as JumpChain) -------
        if W >= T:
            nulls = 0
        else:
            u = 1.0 - rand_buf[pos]
            pos += 1
            dn = log(u) / log1p(-(W / T))
            if dn >= _HUGE_SKIP:
                interactions = budget
                status = KERNEL_EXHAUSTED
                break
            nulls = int(dn)
        if interactions + nulls + 1 > budget:
            interactions = budget
            status = KERNEL_EXHAUSTED
            break
        interactions += nulls + 1

        # --- effective class: first prefix sum strictly exceeding x ---
        x = rand_buf[pos] * W
        pos += 1
        r = R - 1
        cum = 0
        for j in range(R):
            cum += values[j]
            if x < cum:
                r = j
                break

        counts[in1[r]] -= 1
        counts[in2[r]] -= 1
        counts[out1[r]] += 1
        counts[out2[r]] += 1
        effective += 1

        for t in range(aff_off[r], aff_off[r + 1]):
            j = aff_idx[t]
            if same[j] != 0:
                c = counts[in1[j]]
                w = c * (c - 1)
            else:
                w = mult[j] * counts[in1[j]] * counts[in2[j]]
            W += w - values[j]
            values[j] = w

        if track >= 0:
            cur = counts[track]
            while high_water < cur:
                high_water += 1
                ms_buf[ms_len] = interactions
                ms_len += 1

    reg[0] = pos
    reg[1] = interactions
    reg[2] = effective
    reg[3] = W
    reg[4] = high_water
    reg[5] = ms_len
    return status


def _pair_block_py(
    states,      # int64[n]   in/out: per-agent states
    counts,      # int64[S]   in/out: live count vector
    dflat,       # int64[S*S] flattened transition function
    in1, in2, same, mult,   # int64[R] class tables (weight maintenance)
    weights,     # int64[R]   in/out: per-class active weights
    pq_off, pq_idx,         # CSR: classes dirtied per rule key pq
    sig_off, sig_idx, sig_want,  # CSR stability signature (may be empty)
    buf_a, buf_b,           # int64[take] pre-drawn ordered agent pairs
    ms_buf,      # int64[n+2] out: milestone interaction counts
    reg,         # int64[6] in/out: pos, interactions, effective, W, high_water, ms_len
    S, target, track,       # int64 scalars (track < 0: untracked)
):
    pos = reg[0]
    interactions = reg[1]
    effective = reg[2]
    W = reg[3]
    high_water = reg[4]
    ms_len = 0
    n_sig = sig_want.shape[0]
    n_buf = buf_a.shape[0]
    status = KERNEL_PAUSE

    # Entry stability check, exactly like BatchSession._advance_inner.
    if n_sig > 0:
        stable = True
        for g in range(n_sig):
            total = 0
            for i in range(sig_off[g], sig_off[g + 1]):
                total += counts[sig_idx[i]]
            if total != sig_want[g]:
                stable = False
                break
    else:
        stable = W == 0
    if stable:
        status = KERNEL_CONVERGED
    else:
        while interactions < target:
            if pos >= n_buf:
                status = KERNEL_REFILL
                break
            a = buf_a[pos]
            b = buf_b[pos]
            pos += 1
            interactions += 1
            p = states[a]
            q = states[b]
            pq = p * S + q
            out = dflat[pq]
            if out == pq:
                continue
            p2 = out // S
            q2 = out % S
            states[a] = p2
            states[b] = q2
            counts[p] -= 1
            counts[q] -= 1
            counts[p2] += 1
            counts[q2] += 1
            effective += 1

            for t in range(pq_off[pq], pq_off[pq + 1]):
                j = pq_idx[t]
                if same[j] != 0:
                    c = counts[in1[j]]
                    w = c * (c - 1)
                else:
                    w = mult[j] * counts[in1[j]] * counts[in2[j]]
                W += w - weights[j]
                weights[j] = w

            if track >= 0:
                cur = counts[track]
                while high_water < cur:
                    high_water += 1
                    ms_buf[ms_len] = interactions
                    ms_len += 1

            if n_sig > 0:
                stable = True
                for g in range(n_sig):
                    total = 0
                    for i in range(sig_off[g], sig_off[g + 1]):
                        total += counts[sig_idx[i]]
                    if total != sig_want[g]:
                        stable = False
                        break
            else:
                stable = W == 0
            if stable:
                status = KERNEL_CONVERGED
                break

    reg[0] = pos
    reg[1] = interactions
    reg[2] = effective
    reg[3] = W
    reg[4] = high_water
    reg[5] = ms_len
    return status


# ----------------------------------------------------------------------
# C transcription (the ``cc`` backend)
# ----------------------------------------------------------------------
# A literal transcription of the two bodies above.  No -ffast-math:
# log/log1p must be the same libm calls CPython's math module makes, and
# the weight comparisons rely on exact double conversion of integers
# below 2**53.
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define K_REFILL 0
#define K_PAUSE 1
#define K_CONVERGED 2
#define K_SILENT 3
#define K_EXHAUSTED 4

static int sig_holds(const int64_t *counts, const int64_t *sig_off,
                     const int64_t *sig_idx, const int64_t *sig_want,
                     int64_t n_sig) {
    for (int64_t g = 0; g < n_sig; g++) {
        int64_t total = 0;
        for (int64_t i = sig_off[g]; i < sig_off[g + 1]; i++)
            total += counts[sig_idx[i]];
        if (total != sig_want[g]) return 0;
    }
    return 1;
}

int64_t jump_chain(int64_t *counts, int64_t *values,
                   const int64_t *in1, const int64_t *in2,
                   const int64_t *out1, const int64_t *out2,
                   const int64_t *same, const int64_t *mult,
                   const int64_t *aff_off, const int64_t *aff_idx,
                   const int64_t *sig_off, const int64_t *sig_idx,
                   const int64_t *sig_want, int64_t n_sig,
                   const double *rand_buf, int64_t nrand,
                   int64_t *ms_buf, int64_t *reg,
                   int64_t R, int64_t T, int64_t target,
                   int64_t budget, int64_t track) {
    int64_t pos = reg[0];
    int64_t interactions = reg[1];
    int64_t effective = reg[2];
    int64_t W = reg[3];
    int64_t high_water = reg[4];
    int64_t ms_len = 0;
    int64_t status = K_PAUSE;
    for (;;) {
        if (n_sig > 0 && sig_holds(counts, sig_off, sig_idx, sig_want, n_sig)) {
            status = K_CONVERGED;
            break;
        }
        if (W == 0) { status = K_SILENT; break; }
        if (interactions >= target) { status = K_PAUSE; break; }
        if (pos >= nrand - 2) { status = K_REFILL; break; }

        int64_t nulls;
        if (W >= T) {
            nulls = 0;
        } else {
            double u = 1.0 - rand_buf[pos];
            pos += 1;
            double dn = log(u) / log1p(-((double)W / (double)T));
            if (dn >= 9.0e18) {
                interactions = budget;
                status = K_EXHAUSTED;
                break;
            }
            nulls = (int64_t)dn;
        }
        if (interactions + nulls + 1 > budget) {
            interactions = budget;
            status = K_EXHAUSTED;
            break;
        }
        interactions += nulls + 1;

        double x = rand_buf[pos] * (double)W;
        pos += 1;
        int64_t r = R - 1;
        int64_t cum = 0;
        for (int64_t j = 0; j < R; j++) {
            cum += values[j];
            if (x < (double)cum) { r = j; break; }
        }

        counts[in1[r]] -= 1;
        counts[in2[r]] -= 1;
        counts[out1[r]] += 1;
        counts[out2[r]] += 1;
        effective += 1;

        for (int64_t t = aff_off[r]; t < aff_off[r + 1]; t++) {
            int64_t j = aff_idx[t];
            int64_t w;
            if (same[j] != 0) {
                int64_t c = counts[in1[j]];
                w = c * (c - 1);
            } else {
                w = mult[j] * counts[in1[j]] * counts[in2[j]];
            }
            W += w - values[j];
            values[j] = w;
        }

        if (track >= 0) {
            int64_t cur = counts[track];
            while (high_water < cur) {
                high_water += 1;
                ms_buf[ms_len++] = interactions;
            }
        }
    }
    reg[0] = pos;
    reg[1] = interactions;
    reg[2] = effective;
    reg[3] = W;
    reg[4] = high_water;
    reg[5] = ms_len;
    return status;
}

int64_t pair_block(int64_t *states, int64_t *counts, const int64_t *dflat,
                   const int64_t *in1, const int64_t *in2,
                   const int64_t *same, const int64_t *mult,
                   int64_t *weights,
                   const int64_t *pq_off, const int64_t *pq_idx,
                   const int64_t *sig_off, const int64_t *sig_idx,
                   const int64_t *sig_want, int64_t n_sig,
                   const int64_t *buf_a, const int64_t *buf_b, int64_t n_buf,
                   int64_t *ms_buf, int64_t *reg,
                   int64_t S, int64_t target, int64_t track) {
    int64_t pos = reg[0];
    int64_t interactions = reg[1];
    int64_t effective = reg[2];
    int64_t W = reg[3];
    int64_t high_water = reg[4];
    int64_t ms_len = 0;
    int64_t status = K_PAUSE;

    int stable = (n_sig > 0)
        ? sig_holds(counts, sig_off, sig_idx, sig_want, n_sig)
        : (W == 0);
    if (stable) {
        status = K_CONVERGED;
    } else {
        while (interactions < target) {
            if (pos >= n_buf) { status = K_REFILL; break; }
            int64_t a = buf_a[pos];
            int64_t b = buf_b[pos];
            pos += 1;
            interactions += 1;
            int64_t p = states[a];
            int64_t q = states[b];
            int64_t pq = p * S + q;
            int64_t out = dflat[pq];
            if (out == pq) continue;
            int64_t p2 = out / S;
            int64_t q2 = out % S;
            states[a] = p2;
            states[b] = q2;
            counts[p] -= 1;
            counts[q] -= 1;
            counts[p2] += 1;
            counts[q2] += 1;
            effective += 1;

            for (int64_t t = pq_off[pq]; t < pq_off[pq + 1]; t++) {
                int64_t j = pq_idx[t];
                int64_t w;
                if (same[j] != 0) {
                    int64_t c = counts[in1[j]];
                    w = c * (c - 1);
                } else {
                    w = mult[j] * counts[in1[j]] * counts[in2[j]];
                }
                W += w - weights[j];
                weights[j] = w;
            }

            if (track >= 0) {
                int64_t cur = counts[track];
                while (high_water < cur) {
                    high_water += 1;
                    ms_buf[ms_len++] = interactions;
                }
            }

            stable = (n_sig > 0)
                ? sig_holds(counts, sig_off, sig_idx, sig_want, n_sig)
                : (W == 0);
            if (stable) { status = K_CONVERGED; break; }
        }
    }
    reg[0] = pos;
    reg[1] = interactions;
    reg[2] = effective;
    reg[3] = W;
    reg[4] = high_water;
    reg[5] = ms_len;
    return status;
}
"""


# ----------------------------------------------------------------------
# Backend construction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelSet:
    """The active pair of kernels and the backend that produced them."""

    backend: str  # "numba" | "cc" | "python"
    jump_chain: Callable
    pair_block: Callable
    compile_seconds: float

    @property
    def native(self) -> bool:
        """Whether the kernels run as machine code."""
        return self.backend != "python"


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _warmup(jump_chain: Callable, pair_block: Callable) -> None:
    """Call both kernels on degenerate inputs (forces JIT compilation).

    The dummy jump chain is silent (W=0) and the dummy pair block is
    buffer-empty with target 0, so neither touches the random buffers.
    The jump chain's table arguments are read-only, like the shared
    :class:`~repro.engine.count_based.ChainTables` arrays, so numba
    compiles the specialization real runs call.
    """
    z1 = np.zeros(1, dtype=np.int64)
    z2 = np.zeros(2, dtype=np.int64)
    e = np.zeros(0, dtype=np.int64)
    reg = np.zeros(6, dtype=np.int64)
    r1, r2, re = (_read_only(a.copy()) for a in (z1, z2, e))
    jump_chain(
        np.asarray([2], dtype=np.int64), z1.copy(),
        r1, r1, r1, r1, r1, r1,
        r2, re, r1, re, re,
        np.zeros(8, dtype=np.float64), np.zeros(4, dtype=np.int64), reg,
        2, 0, 0, -1,
    )
    reg[:] = 0
    pair_block(
        z2.copy(), np.asarray([2], dtype=np.int64), z1,
        z1, z1, z1, z1, z1.copy(),
        z2, e, z1.copy(), e, e,
        e, e, np.zeros(4, dtype=np.int64), reg,
        1, 0, -1,
    )


def _build_numba() -> KernelSet:
    try:
        import numba  # noqa: PLC0415 — optional dependency probe
    except Exception as exc:  # noqa: BLE001 — any import failure disables it
        raise KernelBuildError(f"numba backend unavailable: {exc}") from exc
    t0 = time.perf_counter()
    try:
        jit = numba.njit(cache=True, fastmath=False)
        jump_chain = jit(_jump_chain_py)
        pair_block = jit(_pair_block_py)
        _warmup(jump_chain, pair_block)
    except Exception as exc:  # noqa: BLE001 — compile failures disable it
        raise KernelBuildError(f"numba kernel compilation failed: {exc}") from exc
    return KernelSet("numba", jump_chain, pair_block, time.perf_counter() - t0)


def _cc_cache_dir() -> Path:
    uid = getattr(os, "getuid", lambda: 0)()
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _find_cc() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _compile_cc(compiler: str, cache: Path, digest: str, so_path: Path) -> None:
    cache.mkdir(parents=True, exist_ok=True)
    # Each builder compiles in its own scratch directory, so concurrent
    # builders (threads or processes) never share a source or output
    # path; os.replace publishes atomically.
    scratch = Path(tempfile.mkdtemp(prefix=f"kernels-{digest}.", dir=cache))
    try:
        c_path = scratch / "kernels.c"
        c_path.write_text(_C_SOURCE)
        tmp_so = scratch / "kernels.so"
        cmd = [compiler, "-O2", "-fPIC", "-shared", str(c_path), "-o", str(tmp_so), "-lm"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise KernelBuildError(
                f"C kernel compilation failed ({' '.join(cmd)}):\n{proc.stderr}"
            )
        os.replace(tmp_so, so_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _build_cc() -> KernelSet:
    compiler = _find_cc()
    if compiler is None:
        raise KernelBuildError("cc backend unavailable: no C compiler on PATH")
    t0 = time.perf_counter()
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    cache = _cc_cache_dir()
    so_path = cache / f"kernels-{digest}.so"
    if not so_path.exists():
        try:
            _compile_cc(compiler, cache, digest, so_path)
        except OSError as exc:
            # An unwritable or full temp directory disables the backend
            # (``auto`` falls through to python) instead of failing runs.
            raise KernelBuildError(f"cc backend unavailable: {exc}") from exc
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError as exc:
        raise KernelBuildError(f"could not load compiled kernels: {exc}") from exc

    i64 = ctypes.c_int64
    arr = np.ctypeslib.ndpointer(dtype=np.int64, ndim=1, flags="C_CONTIGUOUS")
    farr = np.ctypeslib.ndpointer(dtype=np.float64, ndim=1, flags="C_CONTIGUOUS")

    lib.jump_chain.restype = i64
    lib.jump_chain.argtypes = [
        arr, arr, arr, arr, arr, arr, arr, arr,  # counts..mult
        arr, arr,                                # aff CSR
        arr, arr, arr, i64,                      # sig CSR + n_sig
        farr, i64,                               # rand_buf + nrand
        arr, arr,                                # ms_buf, reg
        i64, i64, i64, i64, i64,                 # R, T, target, budget, track
    ]
    lib.pair_block.restype = i64
    lib.pair_block.argtypes = [
        arr, arr, arr,                           # states, counts, dflat
        arr, arr, arr, arr, arr,                 # in1, in2, same, mult, weights
        arr, arr,                                # pq CSR
        arr, arr, arr, i64,                      # sig CSR + n_sig
        arr, arr, i64,                           # buf_a, buf_b, n_buf
        arr, arr,                                # ms_buf, reg
        i64, i64, i64,                           # S, target, track
    ]

    def jump_chain(counts, values, in1, in2, out1, out2, same, mult,
                   aff_off, aff_idx, sig_off, sig_idx, sig_want,
                   rand_buf, ms_buf, reg, T, target, budget, track):
        return int(lib.jump_chain(
            counts, values, in1, in2, out1, out2, same, mult,
            aff_off, aff_idx, sig_off, sig_idx, sig_want, len(sig_want),
            rand_buf, len(rand_buf), ms_buf, reg,
            len(values), T, target, budget, track,
        ))

    def pair_block(states, counts, dflat, in1, in2, same, mult, weights,
                   pq_off, pq_idx, sig_off, sig_idx, sig_want,
                   buf_a, buf_b, ms_buf, reg, S, target, track):
        return int(lib.pair_block(
            states, counts, dflat, in1, in2, same, mult, weights,
            pq_off, pq_idx, sig_off, sig_idx, sig_want, len(sig_want),
            buf_a, buf_b, len(buf_a), ms_buf, reg, S, target, track,
        ))

    _warmup(jump_chain, pair_block)
    return KernelSet("cc", jump_chain, pair_block, time.perf_counter() - t0)


def _build_python() -> KernelSet:
    return KernelSet("python", _jump_chain_py, _pair_block_py, 0.0)


_BUILDERS = {"numba": _build_numba, "cc": _build_cc, "python": _build_python}
_AUTO_ORDER = ("numba", "cc", "python")

_ACTIVE: KernelSet | None = None
#: Serializes the first build: campaign workers start sessions on
#: several threads at once, and each must not compile its own copy.
_ACTIVE_LOCK = threading.Lock()


def _build(mode: str) -> KernelSet:
    if mode == "auto":
        last: KernelBuildError | None = None
        for name in _AUTO_ORDER:
            try:
                built = _BUILDERS[name]()
            except KernelBuildError as exc:
                last = exc
                continue
            break
        else:  # pragma: no cover — python builder never raises
            raise last
    elif mode in _BUILDERS:
        built = _BUILDERS[mode]()
    else:
        raise KernelBuildError(
            f"{KERNEL_ENV}={mode!r} is not a kernel backend; "
            f"choose auto, {', '.join(_BUILDERS)}"
        )
    if built.backend != "python":
        record_kernel_compile(built.backend, built.compile_seconds)
    return built


def get_kernels() -> KernelSet:
    """The process-wide :class:`KernelSet` (built on first use).

    Selection honours ``REPRO_KERNEL``: ``auto`` (default) tries
    ``numba``, then ``cc``, then falls back to ``python``; naming a
    backend demands exactly that one and raises
    :class:`KernelBuildError` when it cannot be built.
    """
    global _ACTIVE
    active = _ACTIVE
    if active is None:
        with _ACTIVE_LOCK:
            if _ACTIVE is None:
                mode = os.environ.get(KERNEL_ENV, "auto").strip().lower() or "auto"
                _ACTIVE = _build(mode)
            active = _ACTIVE
    return active


def reset_kernels() -> None:
    """Drop the cached :class:`KernelSet` (tests switching backends)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None
