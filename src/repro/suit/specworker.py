"""Over-the-air *spec* reconciliation: SUIT-shipped whole-device state.

:class:`~repro.suit.worker.SuitUpdateWorker` hot-swaps one container
image on one hook — the paper's §5 update path.  This module lifts that
path one level: a maintainer signs a manifest whose payload is a whole
:class:`~repro.deploy.spec.DeploymentSpec` (canonical CBOR), and the
device *reconciles itself* onto it through the declarative deployment
reconciler — tenants created, images installed or hot-replaced by content
hash, per-tenant hook policies re-granted, stale slots detached — in one
transactional apply.

The pipeline is the parent's: COSE/Ed25519 authentication, anti-rollback
sequence numbers (keyed by the manifest's storage location, one logical
slot per spec stream), storage-budget reservation, block-wise CoAP fetch
bounded by the signed payload size, and the SHA-256 digest check.  Only
the two overridable steps differ:

* the storage location is a *spec slot name* (e.g. ``spec:fleet``), not a
  hook UUID — nothing to resolve on the device;
* activation decodes the spec and runs ``plan``/``apply``.  A spec the
  device already satisfies converges with zero actions (idempotent); a
  spec that fails mid-apply — an image rejected by the pre-flight
  verifier, a contract the hook cannot grant — rolls the device back to
  its pre-update state and reports ``REJECTED``, exactly the paper's
  "failed update never disturbs the running system" property, now for
  whole-device desired state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.suit.manifest import (
    KIND_SPEC,
    SuitEnvelope,
    SuitManifest,
    payload_digest,
)
from repro.suit.worker import SuitUpdateWorker, UpdateResult, UpdateStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.deploy.spec import DeploymentSpec

#: Default storage-location prefix for spec slots.  One device may track
#: several independent spec streams (e.g. per maintainer), each with its
#: own anti-rollback sequence.
SPEC_SLOT_PREFIX = "spec:"


def spec_slot(name: str = "device") -> str:
    """Storage-location identifier for a named spec stream."""
    return SPEC_SLOT_PREFIX + name


def make_spec_manifest(
    spec: "DeploymentSpec",
    sequence_number: int,
    uri: str,
    slot: str | None = None,
) -> tuple[SuitManifest, bytes]:
    """Maintainer side: manifest + canonical payload for one spec.

    Returns the (unsigned) manifest and the CBOR payload the repository
    must serve at ``uri``.  Sign with ``SuitEnvelope.create(manifest,
    seed)`` as for image manifests.
    """
    payload = spec.to_cbor()
    manifest = SuitManifest(
        sequence_number=sequence_number,
        storage_location=slot if slot is not None else spec_slot(spec.name),
        digest=payload_digest(payload),
        size=len(payload),
        uri=uri,
        name=spec.name,
        kind=KIND_SPEC,
    )
    return manifest, payload


def sign_spec(
    spec: "DeploymentSpec",
    sequence_number: int,
    uri: str,
    signer_seed: bytes,
    slot: str | None = None,
) -> tuple[bytes, bytes]:
    """Maintainer one-liner: (envelope bytes, payload bytes) for one spec."""
    manifest, payload = make_spec_manifest(spec, sequence_number, uri, slot)
    return SuitEnvelope.create(manifest, signer_seed).encode(), payload


class SpecUpdateWorker(SuitUpdateWorker):
    """Reconcile the whole device onto SUIT-shipped deployment specs."""

    expected_kind = KIND_SPEC
    thread_name = "spec-worker"

    def _resolve_target(self, manifest: SuitManifest):
        """A spec targets the device itself; only the slot name is checked."""
        if not manifest.storage_location.startswith(SPEC_SLOT_PREFIX):
            return None, UpdateResult(
                UpdateStatus.UNKNOWN_HOOK,
                f"spec manifests must use a {SPEC_SLOT_PREFIX!r}* storage "
                f"location, got {manifest.storage_location!r}",
                manifest,
            )
        return None, None

    def _activate(self, manifest: SuitManifest, target,
                  payload: bytes) -> UpdateResult:
        from repro.deploy.plan import apply, plan
        from repro.deploy.spec import DeploymentSpec, SpecError

        # The publish-scoped release cache shares one decoded spec —
        # and through it the per-image slot tables and content hashes
        # its frozen ImageSpecs lazily cache — across a fleet's
        # workers.  Wall-clock only: plan/apply below still charge every
        # modelled cycle on this device's clock.
        cached = (self.release_cache.get(("spec", payload))
                  if self.release_cache is not None else None)
        if cached is not None:
            spec = cached
        else:
            try:
                spec = DeploymentSpec.from_cbor(payload)
            except Exception as exc:  # CBOR, schema or validation failure
                return UpdateResult(UpdateStatus.SPEC_INVALID, str(exc),
                                    manifest)
            if self.release_cache is not None:
                self.release_cache[("spec", payload)] = spec
        try:
            deployment = plan(self.engine, spec)
            apply(self.engine, deployment)
        except SpecError as exc:
            return UpdateResult(UpdateStatus.SPEC_INVALID, str(exc),
                                manifest)
        except Exception as exc:
            # apply() already rolled the device back transactionally.
            return UpdateResult(UpdateStatus.REJECTED, str(exc), manifest)
        return UpdateResult(
            UpdateStatus.OK,
            ("converged — no actions"
             if deployment.empty
             else f"reconciled through {len(deployment.actions)} actions"),
            manifest,
            plan=deployment,
        )
