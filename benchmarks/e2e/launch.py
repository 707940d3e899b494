"""Start a repro process the way a user would, for the benchmark.

    python3 launch.py setup WORKLOAD DIR
        One fresh set-up of a figure workload: import what the workload
        imports, load the kernels it uses, compile its protocols and open
        its store in DIR.  Prints one JSON line of phase timings (ms)
        once ready, then exits.

    python3 launch.py serve SPANS CLI-ARGS...
        A traced daemon: install the span wrappers, run
        ``repro-experiments CLI-ARGS`` (e.g. ``campaign serve ...``) and
        write the spans to SPANS when it exits.

Both expect ``PYTHONPATH`` to name the ``src`` directory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def setup(workload: str, work: Path) -> dict[str, float]:
    t0 = time.perf_counter()
    if workload == "fig3-campaign":
        from repro.campaign import executor, grids  # noqa: F401
        from repro.campaign.store import CampaignStore
        from repro.io.columnar import ShardWriter
        from repro.protocols.registry import build_protocol

        import_ms = _ms(t0)
        build_ms = 0.0
        t1 = time.perf_counter()
        build_protocol("uniform-k-partition", k=4).compiled
        compile_ms = _ms(t1)
        t2 = time.perf_counter()
        CampaignStore(work / "campaign.db").close()
        ShardWriter(work / "trials", name="campaign_trials").close()
        store_ms = _ms(t2)
    elif workload == "kernel-sweep":
        from repro.engine import runner  # noqa: F401
        from repro.engine.kernels import get_kernels
        from repro.protocols.registry import build_protocol

        import_ms = _ms(t0)
        t1 = time.perf_counter()
        get_kernels()
        build_ms = _ms(t1)
        t2 = time.perf_counter()
        for k in (2, 3, 4, 5, 6, 8):
            build_protocol("uniform-k-partition", k=k).compiled
        compile_ms = _ms(t2)
        store_ms = 0.0
    else:
        raise SystemExit(f"no set-up for workload {workload!r}")
    return {
        "import_ms": import_ms, "kernel_build_ms": build_ms,
        "compile_ms": compile_ms, "store_ms": store_ms,
    }


def serve(spans: Path, argv: list[str]) -> int:
    from tracing import Recorder, install

    rec = Recorder()
    install(rec)
    from repro.experiments.cli import main

    try:
        return main(argv)
    finally:
        rec.dump(spans)


if __name__ == "__main__":
    mode, target, *rest = sys.argv[1:]
    if mode == "setup":
        print(json.dumps(setup(target, Path(rest[0]))), flush=True)
    elif mode == "serve":
        sys.exit(serve(Path(target), rest))
    else:
        raise SystemExit(f"unknown mode {mode!r}; expected setup or serve")
