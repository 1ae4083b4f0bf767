"""Content-addressed shard store: one atomic JSON artifact per shard.

Layout under the store root::

    shards/<digest>.json               one completed shard result
    manifests/<digest>.json            one campaign plan (written at run start)
    heartbeats/<plan>/<digest>.json    one shard's liveness record (timestamps)
    claims/<plan>/<digest>.json        one worker's lease on one shard

A shard artifact carries a provenance header (schema, code version, base
seed, scenario config), the full shard spec, and the per-scheme loss
series. Artifacts are written through the atomic
:func:`repro.utils.serialization.dump`, so a crash mid-write leaves no
partial file; a corrupted or truncated artifact (e.g. injected by
:class:`~repro.campaign.scheduler.FaultInjector`) is detected on read,
reported as *failed* by :meth:`ShardStore.classify`, and simply re-run on
resume. No timestamps are stored: artifacts are deterministic, so a
resumed campaign's store is byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Union

from repro.campaign.plan import PLAN_SCHEMA, SHARD_SCHEMA, CampaignPlan, ShardSpec
from repro.obs import get_logger
from repro.utils.serialization import dump, load
from repro.version import __version__

__all__ = ["ShardStore", "ShardArtifactStatus", "HEARTBEAT_SCHEMA"]

logger = get_logger("campaign.store")

#: ``classify`` verdicts: artifact present and valid / absent / present
#: but unreadable or inconsistent.
ShardArtifactStatus = str  # "done" | "pending" | "failed"

#: Heartbeat record schema version. Heartbeats are *liveness* metadata —
#: unlike shard artifacts they deliberately carry wall-clock timestamps,
#: live in their own subtree, and never feed back into results, so the
#: store's deterministic-bytes guarantee for artifacts is untouched.
HEARTBEAT_SCHEMA = "repro.campaign.heartbeat/1"


class ShardStore:
    """Filesystem-backed, content-addressed store of shard results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.shard_dir = self.root / "shards"
        self.manifest_dir = self.root / "manifests"
        self.heartbeat_root = self.root / "heartbeats"
        self.claim_root = self.root / "claims"
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_dir.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------

    def shard_path(self, digest: str) -> Path:
        """Where the artifact for ``digest`` lives (may not exist)."""
        return self.shard_dir / f"{digest}.json"

    def manifest_path(self, digest: str) -> Path:
        """Where the manifest for a plan digest lives (may not exist)."""
        return self.manifest_dir / f"{digest}.json"

    # -- shard artifacts -----------------------------------------------

    def put(
        self,
        shard: ShardSpec,
        losses: Dict[str, List[float]],
        digests: Optional[List[dict]] = None,
    ) -> Path:
        """Atomically write one shard result; returns the artifact path.

        ``losses`` maps scheme name to the per-trial loss series (dB) for
        the shard's trial range, in trial order. ``digests``, when given,
        is the shard's flight-recorder checkpoint payload list (see
        :mod:`repro.obs.checkpoint`) and is stored as an *additive*
        ``digests`` manifest block — artifacts written without it are
        byte-identical to pre-flight-recorder artifacts. Artifacts from
        older versions may carry a ``provenance["backend"]`` field;
        loaders ignore it.
        """
        expected = {name: shard.trial_count for name in shard.scheme_names()}
        actual = {name: len(series) for name, series in losses.items()}
        if actual != expected:
            raise ValueError(
                f"shard result shape mismatch: expected {expected}, got {actual}"
            )
        digest = shard.digest
        path = self.shard_path(digest)
        provenance = {
            "schema": SHARD_SCHEMA,
            "code_version": __version__,
            "base_seed": shard.base_seed,
            "config": shard.config.to_dict(),
        }
        payload = {
            "kind": "campaign-shard-v1",
            "digest": digest,
            "provenance": provenance,
            "spec": shard.spec_payload(),
            "result": {"losses": losses},
        }
        if digests is not None:
            from repro.obs.checkpoint import CHECKPOINT_SCHEMA

            payload["digests"] = {"schema": CHECKPOINT_SCHEMA, "events": digests}
        dump(payload, path)
        return path

    def get(self, shard: ShardSpec) -> Optional[Dict[str, List[float]]]:
        """The shard's loss series, or ``None`` if absent or invalid."""
        payload = self._read_artifact(shard.digest)
        if payload is None:
            return None
        losses = payload["result"].get("losses")
        if not isinstance(losses, dict):
            logger.warning("shard %s artifact has no loss series", shard.digest)
            return None
        names = shard.scheme_names()
        if set(losses) != set(names) or any(
            len(losses[name]) != shard.trial_count for name in names
        ):
            logger.warning("shard %s artifact has wrong shape", shard.digest)
            return None
        return {name: [float(v) for v in losses[name]] for name in names}

    def digest_manifest(self, shard: ShardSpec) -> Optional[List[dict]]:
        """The shard's checkpoint event payloads, or ``None``.

        ``None`` both when the artifact is absent/invalid and when it was
        written without a flight recorder — the digests block is optional
        provenance, never required for assembly.
        """
        payload = self._read_artifact(shard.digest)
        if payload is None:
            return None
        block = payload.get("digests")
        if not isinstance(block, dict) or not isinstance(block.get("events"), list):
            return None
        return list(block["events"])

    def has(self, shard: ShardSpec) -> bool:
        """True when a valid artifact exists for ``shard``."""
        return self.get(shard) is not None

    def classify(self, shard: ShardSpec) -> ShardArtifactStatus:
        """``done`` (valid artifact), ``pending`` (absent), or ``failed``
        (an artifact file exists but is corrupt or inconsistent)."""
        if not self.shard_path(shard.digest).exists():
            return "pending"
        return "done" if self.has(shard) else "failed"

    def _read_artifact(
        self, digest: str, kind: str = "campaign-shard-v1"
    ) -> Optional[dict]:
        """Parse and sanity-check one artifact; None when invalid."""
        path = self.shard_path(digest)
        try:
            payload = load(path)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            logger.warning("unreadable shard artifact %s: %s", path, error)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != kind
            or payload.get("digest") != digest
            or not isinstance(payload.get("result"), dict)
        ):
            logger.warning("inconsistent shard artifact %s", path)
            return None
        return payload

    def _artifact_readable(self, digest: str) -> bool:
        """Kind-agnostic validity check used by gc retention.

        True when the artifact parses and carries a consistent
        digest/kind/result shape, regardless of which subsystem (campaign
        or cell) wrote it — gc must not treat a foreign-but-valid kind as
        corrupt.
        """
        try:
            payload = load(self.shard_path(digest))
        except (OSError, ValueError):
            return False
        return (
            isinstance(payload, dict)
            and isinstance(payload.get("kind"), str)
            and payload.get("digest") == digest
            and isinstance(payload.get("result"), dict)
        )

    # -- generic artifacts (non-campaign shard kinds) ------------------

    def put_artifact(self, payload: dict) -> Path:
        """Atomically write one generic shard artifact.

        ``payload`` must carry string ``kind`` and ``digest`` fields and
        a ``result`` dict — the invariants :meth:`get_artifact` checks on
        read. Used by non-campaign shard producers (e.g. the cell-scale
        workload of :mod:`repro.cell`) that share this store's
        content-addressed layout, heartbeats, and claims.
        """
        if (
            not isinstance(payload.get("kind"), str)
            or not isinstance(payload.get("digest"), str)
            or not isinstance(payload.get("result"), dict)
        ):
            raise ValueError("artifact payload needs kind/digest/result fields")
        path = self.shard_path(payload["digest"])
        dump(payload, path)
        return path

    def get_artifact(self, digest: str, kind: str) -> Optional[dict]:
        """One generic artifact's payload, or ``None`` if absent/invalid."""
        return self._read_artifact(digest, kind=kind)

    def list_digests(self) -> List[str]:
        """Digests of every artifact file present (valid or not)."""
        return sorted(path.stem for path in self.shard_dir.glob("*.json"))

    # -- heartbeats ----------------------------------------------------

    def heartbeat_dir(self, plan_digest: str) -> Path:
        """Where one campaign's heartbeat records live (may not exist)."""
        return self.heartbeat_root / plan_digest

    def heartbeat_path(self, plan_digest: str, shard_digest: str) -> Path:
        return self.heartbeat_dir(plan_digest) / f"{shard_digest}.json"

    def write_heartbeat(
        self,
        plan_digest: str,
        shard_digest: str,
        status: str,
        *,
        shard_index: int,
        attempt: int = 0,
        started_unix_s: Optional[float] = None,
        updated_unix_s: Optional[float] = None,
        duration_s: Optional[float] = None,
        trial_count: Optional[int] = None,
        error: Optional[str] = None,
        worker: Optional[str] = None,
        host: Optional[str] = None,
    ) -> Path:
        """Atomically publish one shard's liveness record.

        ``status`` is ``running`` / ``retrying`` / ``done`` / ``failed``.
        Written through the same atomic :func:`~repro.utils.serialization.dump`
        as artifacts, with a provenance stamp (schema + code version), so
        watchers never read a torn record. ``worker``, when given, names
        the worker that produced the record — the execution-provenance
        trail distributed campaigns surface in ``status --json``
        (additive: single-supervisor records are unchanged without it).
        ``host`` likewise stamps the machine that beat — the per-host
        roll-up in ``status``/``watch`` groups shards by it.
        """
        directory = self.heartbeat_dir(plan_digest)
        directory.mkdir(parents=True, exist_ok=True)
        now = time.time()
        record = {
            "kind": "campaign-heartbeat-v1",
            "schema": HEARTBEAT_SCHEMA,
            "code_version": __version__,
            "plan": plan_digest,
            "shard": shard_digest,
            "shard_index": shard_index,
            "status": status,
            "attempt": attempt,
            "pid": os.getpid(),
            "started_unix_s": started_unix_s if started_unix_s is not None else now,
            "updated_unix_s": updated_unix_s if updated_unix_s is not None else now,
        }
        if duration_s is not None:
            record["duration_s"] = duration_s
        if trial_count is not None:
            record["trial_count"] = trial_count
        if error is not None:
            record["error"] = error
        if worker is not None:
            record["worker"] = worker
        if host is not None:
            record["host"] = host
        path = self.heartbeat_path(plan_digest, shard_digest)
        dump(record, path)
        return path

    def read_heartbeats(self, plan_digest: str) -> Dict[str, dict]:
        """Every readable heartbeat for one campaign, keyed by shard digest.

        Unreadable or mis-shaped records are skipped with a warning — a
        watcher must keep rendering through a half-written store.
        """
        directory = self.heartbeat_dir(plan_digest)
        if not directory.is_dir():
            return {}
        records: Dict[str, dict] = {}
        for path in sorted(directory.glob("*.json")):
            try:
                record = load(path)
            except (OSError, ValueError) as error:
                logger.warning("unreadable heartbeat %s: %s", path, error)
                continue
            if (
                not isinstance(record, dict)
                or record.get("kind") != "campaign-heartbeat-v1"
                or not isinstance(record.get("shard"), str)
                or not isinstance(record.get("status"), str)
            ):
                logger.warning("inconsistent heartbeat %s", path)
                continue
            records[record["shard"]] = record
        return records

    # -- claims (shard leases) -----------------------------------------

    def claim_dir(self, plan_digest: str) -> Path:
        """Where one campaign's lease claims live (may not exist)."""
        return self.claim_root / plan_digest

    def claim_path(self, plan_digest: str, shard_digest: str) -> Path:
        return self.claim_dir(plan_digest) / f"{shard_digest}.json"

    def read_claims(self, plan_digest: str) -> Dict[str, dict]:
        """Every readable lease claim for one campaign, by shard digest.

        Raw payload dicts (see :class:`~repro.campaign.lease.LeaseRecord`
        for the parsed form); torn or mis-shaped claims are skipped — a
        watcher must keep rendering through a half-written store, and
        workers heal unreadable claims through the takeover path anyway.
        """
        directory = self.claim_dir(plan_digest)
        if not directory.is_dir():
            return {}
        records: Dict[str, dict] = {}
        for path in sorted(directory.glob("*.json")):
            try:
                record = load(path)
            except (OSError, ValueError):
                continue
            if (
                not isinstance(record, dict)
                or record.get("kind") != "campaign-lease-v1"
                or not isinstance(record.get("shard"), str)
            ):
                continue
            records[record["shard"]] = record
        return records

    # -- manifests -----------------------------------------------------

    def save_manifest(self, plan) -> Path:
        """Record the plan so ``status``/``gc`` work without re-planning.

        Accepts any plan-like object with ``digest`` and ``payload()`` —
        campaign plans and cell plans share the manifest tree, telling
        each other apart by the payload's ``schema`` field.
        """
        path = self.manifest_path(plan.digest)
        dump(plan.payload(), path)
        return path

    def manifest_payloads(self) -> Dict[str, dict]:
        """Every readable manifest's raw payload, keyed by digest.

        Schema-agnostic: campaign plans and other plan kinds (e.g. cell
        plans) all surface here; unreadable files are skipped with a
        warning.
        """
        payloads: Dict[str, dict] = {}
        for path in sorted(self.manifest_dir.glob("*.json")):
            try:
                payload = load(path)
            except (OSError, ValueError) as error:
                logger.warning("skipping unreadable manifest %s: %s", path, error)
                continue
            if not isinstance(payload, dict):
                logger.warning("skipping mis-shaped manifest %s", path)
                continue
            payloads[path.stem] = payload
        return payloads

    def load_manifests(self) -> Dict[str, CampaignPlan]:
        """Every stored *campaign* plan, keyed by plan digest.

        Invalid files are skipped with a warning; manifests recorded by
        other subsystems (a different ``schema``) are skipped silently —
        they are not junk, just not campaign plans.
        """
        from repro.campaign.plan import plan_from_payload

        plans: Dict[str, CampaignPlan] = {}
        for digest, payload in self.manifest_payloads().items():
            schema = payload.get("schema")
            if schema != PLAN_SCHEMA:
                logger.debug("manifest %s has schema %r; not a campaign", digest, schema)
                continue
            try:
                plans[digest] = plan_from_payload(payload)
            except Exception as error:  # noqa: BLE001 - tolerate junk files
                logger.warning("skipping invalid manifest %s: %s", digest, error)
        return plans

    def _manifest_shard_digests(self) -> Dict[str, Set[str]]:
        """Shard digests every manifest references, keyed by plan digest.

        Campaign manifests are parsed (their shard payloads carry no
        digest field; it is recomputed from the spec); other schemas are
        read structurally from ``shards[*].digest`` entries — the
        contract generic plans (e.g. :mod:`repro.cell`) follow so gc
        keeps their artifacts and liveness records.
        """
        from repro.campaign.plan import plan_from_payload

        references: Dict[str, Set[str]] = {}
        for digest, payload in self.manifest_payloads().items():
            if payload.get("schema") == PLAN_SCHEMA:
                try:
                    plan = plan_from_payload(payload)
                except Exception:  # noqa: BLE001 - junk manifests keep nothing
                    continue
                references[digest] = {shard.digest for shard in plan.shards}
            else:
                shards = payload.get("shards")
                if not isinstance(shards, list):
                    continue
                references[digest] = {
                    entry["digest"]
                    for entry in shards
                    if isinstance(entry, dict) and isinstance(entry.get("digest"), str)
                }
        return references

    # -- garbage collection --------------------------------------------

    def gc(
        self,
        keep: Optional[Iterable[str]] = None,
        dry_run: bool = False,
        now_unix_s: Optional[float] = None,
    ) -> List[Path]:
        """Remove corrupt artifacts, artifacts not in ``keep``, and
        heartbeat/claim litter.

        ``keep`` is the set of digests to retain (defaults to the union
        of all stored manifests' shards). Corrupt artifacts are removed
        even when referenced — resume re-runs them anyway. Beyond the
        artifact tree, gc prunes the liveness subtrees long campaigns
        accumulate: heartbeat records whose plan or shard no stored
        manifest references (orphans), and claim files that are orphaned,
        torn, or whose lease has expired (see
        :func:`~repro.campaign.lease.lease_expired` — a live lease is
        never touched, so gc is safe to run against an active campaign).
        Returns the removed (or, with ``dry_run``, would-be-removed)
        paths. ``now_unix_s`` is injectable for tests.
        """
        plan_shards = self._manifest_shard_digests()
        if keep is None:
            keep_set: Set[str] = set()
            for digests in plan_shards.values():
                keep_set.update(digests)
        else:
            keep_set = set(keep)
        removed: List[Path] = []
        for digest in self.list_digests():
            path = self.shard_path(digest)
            if digest in keep_set and self._artifact_readable(digest):
                continue
            removed.append(path)
            if not dry_run:
                path.unlink()
        removed.extend(
            self._gc_liveness_tree(
                self.heartbeat_root, plan_shards, dry_run, expire_claims=False
            )
        )
        removed.extend(
            self._gc_liveness_tree(
                self.claim_root,
                plan_shards,
                dry_run,
                expire_claims=True,
                now_unix_s=now_unix_s,
            )
        )
        return removed

    def _gc_liveness_tree(
        self,
        root: Path,
        plan_shards: Dict[str, Set[str]],
        dry_run: bool,
        expire_claims: bool,
        now_unix_s: Optional[float] = None,
    ) -> List[Path]:
        """Prune one ``<root>/<plan>/<shard>.json`` liveness subtree."""
        from repro.campaign.lease import LeaseRecord, lease_expired

        removed: List[Path] = []
        if not root.is_dir():
            return removed
        for plan_dir in sorted(root.iterdir()):
            if not plan_dir.is_dir():
                continue
            known = plan_shards.get(plan_dir.name)
            for path in sorted(plan_dir.glob("*.json")):
                drop = known is None or path.stem not in known
                if not drop and expire_claims:
                    try:
                        record = LeaseRecord.from_payload(load(path))
                    except (OSError, ValueError):
                        record = None
                    drop = record is None or lease_expired(record, now_unix_s)
                if not drop:
                    continue
                removed.append(path)
                if not dry_run:
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        pass
            if not dry_run and known is None and not any(plan_dir.iterdir()):
                plan_dir.rmdir()
        return removed
