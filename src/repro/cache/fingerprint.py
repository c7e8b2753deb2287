"""Stable content fingerprints for simulation/compilation inputs.

A cache key must identify *everything* a result depends on:

* the kernel's instruction stream and metadata (not its name — two
  identically coded kernels are the same simulation);
* the launch geometry and the full :class:`~repro.arch.GPUConfig`;
* the simulation kwargs (``mode``, ``threshold``, wave caps, sampling);
* the **engine fingerprint**: the ``REPRO_DECODE_CACHE`` /
  ``REPRO_CYCLE_SKIP`` / ``REPRO_WARP_BATCH`` environment switches plus
  :data:`CACHE_SCHEMA_VERSION`. The engine flags are semantically
  bit-identical, but the ``ticks_executed`` / ``skipped_cycles``
  diagnostics differ between them, and a cached result must round-trip
  *every* field of a fresh run under the same flags.

Fingerprints are SHA-256 digests of a canonical, recursively
flattened representation. Canonicalization is strict: an object kind
it does not recognize raises :class:`TypeError` instead of hashing
something unstable (``repr`` of an arbitrary object includes its
memory address).
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import fields, is_dataclass
from enum import Enum

from repro.isa.kernel import Kernel

#: Bump whenever the layout or semantics of cached payloads change;
#: part of every key, so old cache directories simply stop matching.
CACHE_SCHEMA_VERSION = 1

_FALSY = ("0", "off", "false", "no")


def _flag(name: str, default: str = "1") -> bool:
    return os.environ.get(name, default).strip().lower() not in _FALSY


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names in declaration order (per class)."""
    return tuple(f.name for f in fields(cls))


def canonicalize(value: object) -> object:
    """Flatten ``value`` into hashable primitives, deterministically."""
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    if isinstance(value, float):
        # repr round-trips the exact double; no precision loss.
        return ("float", repr(value))
    if isinstance(value, Enum):
        return ("enum", type(value).__name__, value.value)
    if isinstance(value, Kernel):
        # Content-addressed: the name and label table are identity and
        # redundancy respectively; the instruction stream (with its
        # resolved pcs, release flags and payloads) is the content.
        return (
            "kernel",
            value.num_regs,
            value.num_preds,
            value.shared_bytes,
            tuple(canonicalize(inst) for inst in value.instructions),
        )
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(canonicalize(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(canonicalize(v)) for v in value)))
    if isinstance(value, dict):
        return (
            "map",
            tuple(
                sorted(
                    (repr(canonicalize(k)), canonicalize(v))
                    for k, v in value.items()
                )
            ),
        )
    if is_dataclass(value) and not isinstance(value, type):
        # Covers Instruction, PredGuard, GPUConfig, LaunchConfig,
        # Workload, Table1Row, ... — field names are included so that
        # adding/reordering fields invalidates old keys (a miss, the
        # safe direction).
        return (
            "dataclass",
            type(value).__name__,
            tuple(
                (name, canonicalize(getattr(value, name)))
                for name in _field_names(type(value))
            ),
        )
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r} values; "
        "cache keys accept primitives, enums, containers, kernels "
        "and dataclasses only"
    )


def fingerprint(*parts: object) -> str:
    """SHA-256 hex digest of the canonicalized ``parts`` tuple."""
    canon = tuple(canonicalize(part) for part in parts)
    return hashlib.sha256(repr(canon).encode("utf-8")).hexdigest()


def engine_fingerprint(cycle_skip: bool | None = None) -> tuple:
    """The engine configuration a simulation result depends on.

    ``cycle_skip=None`` defers to ``REPRO_CYCLE_SKIP`` exactly as
    :class:`~repro.sim.core.SMCore` does; an explicit boolean (the
    ``simulate`` kwarg) wins over the environment.
    """
    if cycle_skip is None:
        cycle_skip = _flag("REPRO_CYCLE_SKIP")
    return (
        "engine",
        CACHE_SCHEMA_VERSION,
        _flag("REPRO_DECODE_CACHE"),
        bool(cycle_skip),
        _flag("REPRO_WARP_BATCH"),
    )


def simulate_key(
    kernel: Kernel,
    launch: object,
    config: object,
    *,
    mode: str,
    threshold: int,
    max_ctas_per_sm_sim: int | None,
    sample_interval: int,
    trace_warp_slots: tuple[int, ...],
    spill_enabled: bool,
    max_cycles: int,
    cycle_skip: bool | None,
) -> str:
    """Cache key for one :func:`repro.sim.gpu.simulate` call."""
    return fingerprint(
        "sim",
        engine_fingerprint(cycle_skip),
        kernel,
        launch,
        config,
        mode,
        threshold,
        max_ctas_per_sm_sim,
        sample_interval,
        tuple(trace_warp_slots),
        spill_enabled,
        max_cycles,
    )


def compile_key(
    kernel: Kernel,
    launch: object,
    config: object,
    *,
    insert_flags: bool,
    edge_releases: bool,
) -> str:
    """Cache key for one :func:`repro.compiler.compile_kernel` call.

    Compilation is engine-independent (the decode/skip switches select
    simulator paths, not compiler output), so only the schema version
    joins the content fields.
    """
    return fingerprint(
        "compile",
        CACHE_SCHEMA_VERSION,
        kernel,
        launch,
        config,
        insert_flags,
        edge_releases,
    )


def flow_spec_key(flow: str, workload: object, kwargs: dict) -> str:
    """Dedup key for one ``(flow, workload, kwargs)`` sweep spec."""
    return fingerprint("flow", flow, workload, kwargs)
