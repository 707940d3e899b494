"""Registry-wide conformance smoke tests (the invariant pack as a property).

Every protocol in the registry is run under a full
:class:`~repro.conform.invariants.ConformanceMonitor` — one engine
from each data-path family — asserting that no reachable configuration
violates its invariant pack and that converged runs land on the
expected output.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.conform import ConformanceMonitor, check_counts, invariant_pack
from repro.engine import BatchEngine, CountBasedEngine
from repro.protocols import available_protocols, build_protocol

#: One representative parameter point per registry protocol.  The
#: completeness test below fails when a new protocol is registered
#: without a row here.
CASES = {
    "uniform-k-partition": dict(params={"k": 3}, n=13),
    "uniform-bipartition": dict(params={}, n=9),
    "repeated-bipartition": dict(params={"h": 2}, n=8),
    "approx-k-partition": dict(params={"k": 3}, n=12),
    "r-generalized-partition": dict(params={"ratio": (1, 2)}, n=9),
    "leader-election": dict(params={}, n=11),
    # Initial opinions are an input, not a designated state.
    "approximate-majority": dict(
        params={}, n=11, initial_counts=lambda p: [7, 4, 0]
    ),
    "weak-k-partition": dict(params={"k": 3}, n=13),
    "graph-bipartition": dict(params={}, n=9),
}


def test_every_registry_protocol_has_a_case():
    assert set(CASES) == set(available_protocols())


def _run(name, engine_cls, seed):
    case = CASES[name]
    protocol = build_protocol(name, **case["params"])
    n = case["n"]
    monitor = ConformanceMonitor(invariant_pack(protocol, n))
    kwargs = {"max_interactions": 200_000, "on_effective": monitor}
    init = case.get("initial_counts")
    if init is not None:
        kwargs["initial_counts"] = init(protocol)
    result = engine_cls().run(protocol, n, seed=seed, **kwargs)
    return protocol, monitor, result


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("engine_cls", [BatchEngine, CountBasedEngine])
def test_no_reachable_configuration_violates_the_pack(name, engine_cls):
    protocol, monitor, result = _run(name, engine_cls, seed=17)
    # The monitor raises on any violation; reaching here means every
    # checked configuration (initial, effective steps, terminal) passed.
    assert monitor.checks_performed >= 2
    assert int(np.asarray(result.final_counts).sum()) == CASES[name]["n"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_final_configuration_passes_stateless_pack(name):
    protocol, _, result = _run(name, BatchEngine, seed=23)
    pack = invariant_pack(protocol, CASES[name]["n"], include_stateful=False)
    assert check_counts(pack, result.final_counts) == []


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(CASES) if n not in ("approximate-majority",)],
)
def test_converged_runs_match_expected_output(name):
    protocol, _, result = _run(name, CountBasedEngine, seed=29)
    assert result.converged, f"{name} did not converge at the smoke budget"
    expected = getattr(protocol, "expected_group_sizes", None)
    if expected is not None and protocol.num_groups:
        want = sorted(int(g) for g in expected(CASES[name]["n"]))
        got = sorted(int(g) for g in result.group_sizes)
        if name != "approx-k-partition":  # approximate by design
            assert got == want
