"""Compiled kernels for the two hot loops, with a pure-Python fallback.

The jump-chain inner loop (:class:`~repro.engine.count_based.JumpChain`)
and the pair-draw/apply loop (:class:`~repro.engine.batch.BatchSession`,
which serves ``batch``, ``batch-jit`` and ``graph``) spend their time in
tight integer arithmetic that pure Python executes one bytecode at a
time.  This module provides the same two loops as *kernels* —
allocation-free state machines over flat int64/float64 arrays,
written in C — behind two backends:

``cc``
    The C source below, compiled once per source hash with the system C
    compiler (``cc``/``gcc``) into a cached shared object and called
    through :mod:`ctypes`.
``python``
    No kernels (both :class:`KernelSet` fields are ``None``): every
    session runs its own Python loop, which is the reference the
    kernels are pinned against.

Selection is automatic (``cc`` when it builds, else ``python``) and can
be forced with ``REPRO_KERNEL=auto|cc|python``; forcing an unavailable
backend fails loudly instead of silently degrading.

Bit-identity discipline
-----------------------
Kernels never draw randomness.  They consume the pre-drawn buffers the
sessions already own (and already snapshot) and return
:data:`KERNEL_REFILL` when a buffer runs dry; the Python wrapper — the
sole owner of the ``numpy`` Generator — refills at exactly the stream
positions the Python loop would have and re-enters.  Combined with
exact integer weight arithmetic (all prefix sums stay far below 2**53,
so the ``double`` comparisons below are exact) and the shared libm
``log``/``log1p``, a kernel run is bit-identical to the Python loop:
same counts, same interaction totals, same milestones, same consumed
random stream.  The tests compare ``REPRO_KERNEL=python`` runs with
``auto`` runs end to end, sliced and straight.

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
from pathlib import Path

import numpy as np

from ..obs.instruments import record_kernel_compile

__all__ = [
    "KernelSet",
    "KERNEL_ARGS",
    "address",
    "arg_slot",
    "bind_args",
    "KernelBuildError",
    "get_kernels",
    "reset_kernels",
    "KERNEL_REFILL",
    "KERNEL_PAUSE",
    "KERNEL_CONVERGED",
    "KERNEL_SILENT",
    "KERNEL_EXHAUSTED",
]

#: Environment variable forcing a backend: ``auto|cc|python``.
KERNEL_ENV = "REPRO_KERNEL"

#: Kernel status codes (values mirrored in the C source).
KERNEL_REFILL = 0     #: random buffer exhausted — refill and re-enter
KERNEL_PAUSE = 1      #: slice target reached
KERNEL_CONVERGED = 2  #: stability signature satisfied
KERNEL_SILENT = 3     #: total active weight hit zero (no signature match)
KERNEL_EXHAUSTED = 4  #: interaction budget ran out mid-skip

class KernelBuildError(RuntimeError):
    """A forced kernel backend is unavailable or failed to build."""


# ----------------------------------------------------------------------
# C transcription (the ``cc`` backend)
# ----------------------------------------------------------------------
# The Python loops of JumpChain.advance and BatchSession._advance_inner,
# over flat arrays.  A null skip of 9e18 or more certainly exceeds any
# budget (budgets are at most 2**62); the guard keeps the double->int64
# conversion defined.  No -ffast-math:
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
    """The active kernels and the backend that produced them.

    ``jump_chain`` and ``pair_block`` are the C functions themselves,
    taking the positional arguments :data:`KERNEL_ARGS` names, with
    every array passed as its raw data address (see :func:`address` and
    :func:`bind_args`).  A caller binds the addresses once — the tables once per
    :class:`~repro.engine.count_based.ChainTables`, its own buffers
    once per chain or session — so a call converts no array.
    """

    backend: str  # "cc" | "python"
    jump_chain: Callable | None
    pair_block: Callable | None
    compile_seconds: float

    @property
    def native(self) -> bool:
        """Whether the kernels exist (sessions run them only then)."""
        return self.backend != "python"


#: Every kernel's arguments in C order: the dtype of an array argument,
#: passed as its raw data address (a ``void *`` argtype), or ``None``
#: for an ``int64_t`` scalar.  The argtypes and both binders read it.
KERNEL_ARGS: dict[str, dict[str, type | None]] = {
    "jump_chain": {
        "counts": np.int64, "values": np.int64,
        "in1": np.int64, "in2": np.int64, "out1": np.int64, "out2": np.int64,
        "same": np.int64, "mult": np.int64,
        "aff_off": np.int64, "aff_idx": np.int64,
        "sig_off": np.int64, "sig_idx": np.int64, "sig_want": np.int64,
        "n_sig": None,
        "rand_buf": np.float64, "nrand": None,
        "ms_buf": np.int64, "reg": np.int64,
        "R": None, "T": None, "target": None, "budget": None, "track": None,
    },
    "pair_block": {
        "states": np.int64, "counts": np.int64, "dflat": np.int64,
        "in1": np.int64, "in2": np.int64, "same": np.int64, "mult": np.int64,
        "weights": np.int64,
        "pq_off": np.int64, "pq_idx": np.int64,
        "sig_off": np.int64, "sig_idx": np.int64, "sig_want": np.int64,
        "n_sig": None,
        "buf_a": np.int64, "buf_b": np.int64, "n_buf": None,
        "ms_buf": np.int64, "reg": np.int64,
        "S": None, "target": None, "track": None,
    },
}

#: Per kernel: (its array argument names, its scalar argument names).
_ARG_KINDS = {
    kernel: (
        {name for name, dtype in spec.items() if dtype is not None},
        {name for name, dtype in spec.items() if dtype is None},
    )
    for kernel, spec in KERNEL_ARGS.items()
}


def address(array: np.ndarray, dtype: type = np.int64) -> int:
    """The data address of a kernel array argument, checked once.

    The kernels take raw ``void *`` arguments, so the dtype and layout
    check an ``ndpointer`` argtype would repeat on every call happens
    here, when the argument is bound.  The caller keeps ``array`` alive
    and never replaces it while the address is in use.
    """
    if array.dtype != dtype or array.ndim != 1 or not array.flags.c_contiguous:
        raise TypeError(
            f"kernel arrays are 1-D C-contiguous {np.dtype(dtype).name}; "
            f"got {array.ndim}-D {array.dtype.name}"
        )
    return array.ctypes.data


def arg_slot(kernel: str, name: str) -> int:
    """The position of argument ``name`` in ``kernel``'s argument list."""
    return list(KERNEL_ARGS[kernel]).index(name)


def bind_args(kernel: str, addrs: dict[str, int], **scalars: int) -> list[int]:
    """``kernel``'s positional argument list, in its C order.

    ``addrs`` maps the name of every array argument to its data address
    (from :func:`address`) and ``scalars`` gives every ``int64_t``
    argument, both by their names in :data:`KERNEL_ARGS`.  A missing,
    unknown or misplaced name raises :class:`TypeError`, so an address
    can only land in a pointer slot.
    """
    spec = KERNEL_ARGS[kernel]
    arrays, ints = _ARG_KINDS[kernel]
    if addrs.keys() != arrays or scalars.keys() != ints:
        raise TypeError(
            f"{kernel} takes the arrays {sorted(arrays)} and the scalars "
            f"{sorted(ints)}; got {sorted(addrs)} and {sorted(scalars)}"
        )
    return [
        addrs[name] if dtype is not None else int(scalars[name])
        for name, dtype in spec.items()
    ]


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

    for name, spec in KERNEL_ARGS.items():
        kernel = getattr(lib, name)
        kernel.restype = ctypes.c_int64
        kernel.argtypes = [
            ctypes.c_int64 if dtype is None else ctypes.c_void_p
            for dtype in spec.values()
        ]

    return KernelSet("cc", lib.jump_chain, lib.pair_block, time.perf_counter() - t0)


def _build_python() -> KernelSet:
    return KernelSet("python", None, None, 0.0)


_BUILDERS = {"cc": _build_cc, "python": _build_python}

_ACTIVE: KernelSet | None = None
#: Serializes the first build: campaign workers start sessions on
#: several threads at once, and each must not compile its own copy.
_ACTIVE_LOCK = threading.Lock()


def _build(mode: str) -> KernelSet:
    if mode == "auto":
        try:
            built = _build_cc()
        except KernelBuildError:
            built = _build_python()
    elif mode in _BUILDERS:
        built = _BUILDERS[mode]()
    else:
        raise KernelBuildError(
            f"{KERNEL_ENV}={mode!r} is not a kernel backend; "
            f"choose auto, {', '.join(_BUILDERS)}"
        )
    if built.native:
        record_kernel_compile(built.backend, built.compile_seconds)
    return built


def get_kernels() -> KernelSet:
    """The process-wide :class:`KernelSet` (built on first use).

    Selection honours ``REPRO_KERNEL``: ``auto`` (default) tries
    ``cc`` and falls back to ``python``; naming a
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
