"""Compute-backend registry: declared implementations per component.

Every performance-motivated implementation of a hot component is a
*declared backend* with a name, a parity contract, and a capability
probe — never a fork. The registry is the single source of truth for:

* **what exists** — ``backend_names("feature-engine")``;
* **what runs here** — ``available_backends`` / ``capabilities()``
  (is a C compiler present?);
* **what to pick** — ``resolve(component, "auto")`` picks the
  highest-priority available backend;
* **what was picked** — ``backend_notes(ids)`` reports the concrete
  backend driving a constructed IDS, for stream/runner reports.

Parity is part of the declaration: every feature-engine backend is
gated bit-for-bit against the scalar AfterImage reference by the
shared fixtures in ``tests/test_backends_parity.py``, so backend
choice is a pure throughput knob and the paper's IDS comparison is
backend-independent by construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro.features import _native

#: Component names backends are declared under.
FEATURE_ENGINE = "feature-engine"
ENSEMBLE = "ensemble"
INGEST = "ingest"


@dataclass(frozen=True)
class BackendSpec:
    """One declared compute backend for one component.

    ``probe`` returns ``None`` when the backend can run on this host,
    or a human-readable reason when it cannot.
    """

    component: str
    name: str
    description: str
    parity: str
    priority: int = 0
    probe: Callable[[], str | None] = field(default=lambda: None)

    def availability(self) -> str | None:
        """``None`` when usable here, else the reason it is not."""
        return self.probe()


_REGISTRY: dict[tuple[str, str], BackendSpec] = {}


def register(spec: BackendSpec) -> BackendSpec:
    """Declare a backend; re-registering a (component, name) replaces."""
    _REGISTRY[(spec.component, spec.name)] = spec
    return spec


def components() -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for component, _ in _REGISTRY:
        seen.setdefault(component)
    return tuple(seen)


def backend_names(component: str) -> tuple[str, ...]:
    names = tuple(
        name for comp, name in _REGISTRY if comp == component
    )
    if not names:
        known = ", ".join(components())
        raise KeyError(f"unknown component {component!r}; known: {known}")
    return names


def get_backend(component: str, name: str) -> BackendSpec:
    spec = _REGISTRY.get((component, name))
    if spec is None:
        known = ", ".join(backend_names(component))
        raise KeyError(
            f"unknown {component} backend {name!r}; known: {known}"
        )
    return spec


def available_backends(component: str) -> tuple[BackendSpec, ...]:
    return tuple(
        spec
        for (comp, _), spec in _REGISTRY.items()
        if comp == component and spec.availability() is None
    )


def resolve(component: str, name: str = "auto") -> BackendSpec:
    """The backend to use: an explicit name, or the best available.

    An explicit name must exist *and* be usable here — selecting the
    native kernel on a host without a compiler is an error, not a
    silent fallback (``auto`` handles graceful degradation).
    """
    if name != "auto":
        spec = get_backend(component, name)
        reason = spec.availability()
        if reason is not None:
            raise RuntimeError(
                f"{component} backend {name!r} unavailable: {reason}"
            )
        return spec
    candidates = available_backends(component)
    if not candidates:
        raise RuntimeError(f"no {component} backend available")
    return max(candidates, key=lambda spec: spec.priority)


def capabilities() -> dict:
    """Discovered host capabilities plus per-backend availability."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "native_kernel": _native.load_kernel() is not None,
        "native_kernel_reason": _native.unavailable_reason(),
        "components": {
            component: {
                spec.name: {
                    "available": spec.availability() is None,
                    "reason": spec.availability(),
                }
                for (comp, _), spec in _REGISTRY.items()
                if comp == component
            }
            for component in components()
        },
    }


def default_feature_backend() -> str:
    """What ``NetStat(engine="vector")`` resolves to on this host."""
    return resolve(FEATURE_ENGINE).name


def default_ingest_backend() -> str:
    """The ingest backend ``resolve(INGEST, "auto")`` picks here."""
    return resolve(INGEST).name


def backend_notes(ids) -> dict:
    """The concrete backends driving a constructed IDS, for reports.

    Empty for flow-level IDSs — they consume flow feature matrices and
    never touch the per-packet compute backends.
    """
    notes: dict[str, str] = {}
    netstat = getattr(ids, "netstat", None)
    if netstat is not None:
        notes["feature_backend"] = netstat.backend
    kitnet = getattr(ids, "kitnet", None)
    if kitnet is not None:
        notes["ensemble_backend"] = kitnet.resolved_ensemble_backend
    return notes


# -- built-in declarations ---------------------------------------------------

def _native_probe() -> str | None:
    if _native.load_kernel() is None:
        return _native.unavailable_reason() or "native kernel unavailable"
    return None


register(BackendSpec(
    component=FEATURE_ENGINE,
    name="scalar",
    description="Reference AfterImage over per-stream IncStat objects",
    parity="is the reference",
))
register(BackendSpec(
    component=FEATURE_ENGINE,
    name="vector-native",
    description="Structure-of-arrays engine, C kernel",
    parity="bit-for-bit vs scalar",
    priority=10,
    probe=_native_probe,
))


def _columnar_probe() -> str | None:
    try:
        import repro.net.columnar  # noqa: F401  (numpy + mmap required)
    except Exception as exc:  # pragma: no cover - import never fails here
        return f"columnar decoder unavailable: {exc}"
    return None


register(BackendSpec(
    component=INGEST,
    name="packet-objects",
    description="Per-packet struct decode into Packet dataclasses",
    parity="is the reference",
))
register(BackendSpec(
    component=INGEST,
    name="columnar-mmap",
    description=("Zero-copy columnar decode: mmap'd capture gathered "
                 "into NetStat-ready column batches"),
    parity="bit-for-bit scores, features and coverage digests vs "
           "packet-objects",
    priority=10,
    probe=_columnar_probe,
))
register(BackendSpec(
    component=ENSEMBLE,
    name="batched-einsum",
    description=("Packed ensemble: stacked einsum contractions score "
                 "whole execute-phase batches"),
    parity="bit-for-bit vs the per-row KitNET execute loop",
))
