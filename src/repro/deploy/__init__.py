"""Declarative deployment: spec → plan → apply, from one device to a fleet.

This package is the management plane on top of the hosting engine's
imperative ``create_tenant``/``load``/``attach`` primitives:

* :mod:`repro.deploy.spec` — :class:`DeploymentSpec` describes desired
  state (tenants, content-addressed images, per-hook attachments with
  contracts and instance counts), JSON round-trippable;
* :mod:`repro.deploy.plan` — :func:`plan` diffs a spec against a live
  engine into a minimal ordered action list; :func:`apply` executes it
  transactionally (rollback on :class:`~repro.core.errors.AttachError`),
  hot-swapping edited images by content hash through ``engine.replace``;
* :mod:`repro.deploy.fleet` — :class:`Fleet` stamps one spec onto N
  simulated devices, sharing the process-wide image cache across boards
  with per-device clock/wall/cache accounting; it is also the one owner
  of device membership (add, look up and evict devices by name, each
  under a wiring index that is never reused);
* :mod:`repro.deploy.staged` — :class:`StagedRollout` implements canary
  staging once (converge canaries, bake, gate, promote or revert) for
  both direct and over-the-air canaries; :class:`HealthGate` judges canary
  bakes on faults, cycle budgets and store divergence;
* :mod:`repro.deploy.publish` — :class:`FleetPublisher` is the
  maintainer: it signs one spec manifest and fans it out over a shared
  radio link to every device's ``SpecUpdateWorker`` trigger endpoint
  (one CON POST per device, or one multicast trigger carrying the
  payload under :meth:`PublishOptions.scale`), with an optional
  health-gated canary phase, trigger retry with backoff, and
  crash/reboot recovery (devices persist installed state to NVM and
  resume interrupted fetches).  It owns the radio lifecycle — adding a
  wired device at runtime, evicting one — and streams one typed
  :class:`DeviceStatus` row per device from :meth:`FleetPublisher.status`;
* :mod:`repro.deploy.chaos` — :class:`FaultInjector` schedules device
  crashes, reboots, link-loss bursts, stalls and storage faults (torn
  writes, bit flips, flash wear-out) at virtual timestamps from a
  deterministic plan; its module docstring carries the failure modes
  table (crash point → observed status → recovery path);
* :mod:`repro.deploy.results` — the one result every fleet entry point
  returns (:meth:`Fleet.apply`, :meth:`Fleet.canary_rollout` and
  :meth:`FleetPublisher.publish`): a :class:`FleetResult` holding one
  :class:`DeviceRow` per device convergence on either transport, whose
  ``ok`` is "not rolled back, at least one row, and every row ok".

Applying an unchanged spec twice plans zero actions; editing one image
plans exactly one replace.  See the module docstrings for the full
reconcile model.
"""

from repro.deploy.chaos import (
    BitFlipAt,
    ChaosEvent,
    CrashAt,
    FaultInjector,
    LinkLossBurst,
    StallAt,
    TornWriteAt,
    WearOut,
)
from repro.deploy.fleet import Fleet, FleetDevice
from repro.deploy.publish import DeviceRadio, FleetPublisher, PublishOptions
from repro.deploy.results import DeviceRow, DeviceStatus, FleetResult
from repro.deploy.staged import HealthGate, StagedRollout
from repro.deploy.plan import (
    Action,
    ApplyResult,
    CreateTenant,
    DeploymentPlan,
    Detach,
    Install,
    RegisterHook,
    Replace,
    SetTenantPolicy,
    apply,
    apply_spec,
    plan,
)
from repro.deploy.spec import (
    BUILTIN_SPECS,
    AttachmentSpec,
    DeploymentSpec,
    HookSpec,
    ImageSpec,
    SpecError,
    builtin_spec,
    fanout_spec,
    multi_tenant_spec,
    runtime_matrix_spec,
    script_checksum_spec,
    wasm_checksum_spec,
)

__all__ = [
    "Action",
    "ApplyResult",
    "AttachmentSpec",
    "BUILTIN_SPECS",
    "BitFlipAt",
    "ChaosEvent",
    "CrashAt",
    "CreateTenant",
    "DeploymentPlan",
    "DeploymentSpec",
    "Detach",
    "DeviceRadio",
    "DeviceRow",
    "DeviceStatus",
    "FaultInjector",
    "Fleet",
    "FleetDevice",
    "FleetPublisher",
    "FleetResult",
    "HealthGate",
    "LinkLossBurst",
    "StagedRollout",
    "StallAt",
    "TornWriteAt",
    "WearOut",
    "HookSpec",
    "PublishOptions",
    "ImageSpec",
    "Install",
    "RegisterHook",
    "Replace",
    "SetTenantPolicy",
    "SpecError",
    "apply",
    "apply_spec",
    "builtin_spec",
    "fanout_spec",
    "multi_tenant_spec",
    "plan",
    "runtime_matrix_spec",
    "script_checksum_spec",
    "wasm_checksum_spec",
]
