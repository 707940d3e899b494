"""A small name-based registry of the protocols in this library.

The experiment CLI and examples build protocols from string names, so
the registry keeps the mapping in one place::

    >>> from repro.protocols.registry import build_protocol
    >>> build_protocol("uniform-k-partition", k=4).num_states
    10
"""

from __future__ import annotations

import difflib
from collections.abc import Callable

from ..core.errors import ProtocolError, UnknownProtocolError
from ..core.protocol import Protocol
from .approx_partition import approximate_k_partition
from .bipartition import uniform_bipartition
from .graph_bipartition import graph_bipartition
from .kpartition import uniform_k_partition
from .leader_election import leader_election
from .majority import approximate_majority
from .repeated_bipartition import repeated_bipartition
from .rgeneralized import r_generalized_partition
from .weak_kpartition import weak_k_partition

__all__ = [
    "PROTOCOL_BUILDERS",
    "build_protocol",
    "available_protocols",
    "parse_param",
]

#: Maps protocol name to a builder callable.  Builders take the
#: protocol-specific parameters as keyword arguments.
PROTOCOL_BUILDERS: dict[str, Callable[..., Protocol]] = {
    "uniform-k-partition": uniform_k_partition,
    "uniform-bipartition": uniform_bipartition,
    "repeated-bipartition": repeated_bipartition,
    "approx-k-partition": approximate_k_partition,
    "r-generalized-partition": r_generalized_partition,
    "leader-election": leader_election,
    "approximate-majority": approximate_majority,
    "weak-k-partition": weak_k_partition,
    "graph-bipartition": graph_bipartition,
}


def available_protocols() -> list[str]:
    """Names accepted by :func:`build_protocol`, sorted."""
    return sorted(PROTOCOL_BUILDERS)


def build_protocol(name: str, /, **params: object) -> Protocol:
    """Instantiate a protocol by registry name.

    Parameters are forwarded to the protocol constructor, e.g.
    ``build_protocol("uniform-k-partition", k=5)`` or
    ``build_protocol("r-generalized-partition", ratio=(1, 2, 3))``.
    """
    try:
        builder = PROTOCOL_BUILDERS[name]
    except KeyError:
        message = (
            f"unknown protocol {name!r}; available: {', '.join(available_protocols())}"
        )
        close = difflib.get_close_matches(name, available_protocols(), n=1)
        if close:
            message += f" (did you mean {close[0]!r}?)"
        raise UnknownProtocolError(message) from None
    try:
        return builder(**params)  # type: ignore[arg-type]
    except TypeError as exc:
        raise ProtocolError(f"bad parameters for protocol {name!r}: {exc}") from exc


def parse_param(text: str) -> tuple[str, object]:
    """One ``--param KEY=VALUE`` command-line item as a keyword argument.

    ``VALUE`` becomes an int when it parses as one, a tuple of ints when
    it is a comma-separated list (``ratio=1,2,3``), and stays a string
    otherwise.  A malformed item exits with a usage error, never a
    traceback.
    """
    key, _, raw = text.partition("=")
    if key and raw:
        try:
            if "," in raw:
                return key, tuple(int(v) for v in raw.split(","))
            return key, int(raw)
        except ValueError:
            if "," not in raw:
                return key, raw
    raise SystemExit(f"--param expects KEY=VALUE, got {text!r}")


def register_protocol(name: str, builder: Callable[..., Protocol]) -> None:
    """Add a protocol builder (for downstream extensions)."""
    if name in PROTOCOL_BUILDERS:
        raise ProtocolError(f"protocol name {name!r} is already registered")
    PROTOCOL_BUILDERS[name] = builder
