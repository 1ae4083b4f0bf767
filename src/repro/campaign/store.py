"""Content-addressed shard store: one atomic JSON artifact per shard.

Layout under the store root::

    shards/<digest>.json               one completed shard result
    manifests/<digest>.json            one campaign plan (written once, at run start)
    heartbeats/<plan>/<host>-<pid>.jsonl  one process's liveness journal
    claims/<plan>/<digest>.json        one worker's lease on one shard

Every shard kind (see :mod:`repro.campaign.plan`) encodes and checks its
own artifact: a campaign shard's carries a provenance header, its spec
and the per-scheme loss series, a cell shard's (:mod:`repro.cell.shards`)
its spec and per-UE records. The store adds the optional flight-recorder
``digests`` block and checks what every kind shares: the ``kind``, the
``digest`` and a ``result`` object. Artifacts are written through the atomic
:func:`repro.utils.serialization.dump`, so a crash mid-write leaves no
partial file; a corrupted or truncated artifact (e.g. injected by
:class:`~repro.campaign.scheduler.FaultInjector`) is detected on read,
reported as *failed* by :meth:`ShardStore.classify`, and simply re-run on
resume. No timestamps are stored: artifacts are deterministic, so a
resumed campaign's store is byte-identical to an uninterrupted one.

Artifacts and manifests are fsynced; heartbeats are not. A heartbeat is
one JSON line appended (and flushed, never fsynced) to the journal of the
process that wrote it, so no two processes ever append to one file. The
heartbeat is observational: losing the tail of a journal in a crash costs
a watcher some detail and never a result.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.campaign.lease import LeaseRecord, lease_expired, local_hostname
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


def _file_signature(path: Path) -> Tuple[int, ...]:
    """Device, inode, size and mtime: what changes when a file does."""
    stat = path.stat()
    return (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)


def _journal_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def _read_journal(path: Path) -> str:
    """One heartbeat journal's text; empty (with a warning) if unreadable."""
    try:
        return path.read_text(encoding="utf-8", errors="replace")
    except OSError as error:
        logger.warning("unreadable heartbeat journal %s: %s", path, error)
        return ""


def _journal_records(path: Path, text: str) -> List[dict]:
    """The well-formed heartbeat records of one journal, in file order.

    Torn or mis-shaped lines (a process killed mid-append) are skipped
    with a warning; every other line still counts.
    """
    records: List[dict] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            logger.warning("skipping torn heartbeat line %s:%d", path, number)
            continue
        if (
            not isinstance(record, dict)
            or record.get("kind") != "campaign-heartbeat-v1"
            or not isinstance(record.get("shard"), str)
            or not isinstance(record.get("status"), str)
            or not isinstance(record.get("updated_unix_s"), (int, float))
        ):
            logger.warning("skipping inconsistent heartbeat line %s:%d", path, number)
            continue
        records.append(record)
    return records


class ShardStore:
    """Filesystem-backed, content-addressed store of shard results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.shard_dir = self.root / "shards"
        self.manifest_dir = self.root / "manifests"
        self.heartbeat_root = self.root / "heartbeats"
        self.claim_root = self.root / "claims"
        #: plan digest -> the manifest file's signature (see
        #: :func:`_file_signature`) when this store last found it intact
        self._verified_manifests: Dict[str, Tuple[int, ...]] = {}
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

    def put(self, shard, result: Any, digests: Optional[List[dict]] = None) -> Path:
        """Atomically write one shard result; returns the artifact path.

        The shard encodes ``result`` through ``shard.artifact_payload``
        (which rejects a mis-shaped result). ``digests``, when given, is
        the shard's flight-recorder checkpoint payload list (see
        :mod:`repro.obs.checkpoint`) and is stored as an *additive*
        ``digests`` manifest block — artifacts written without it are
        byte-identical to pre-flight-recorder artifacts.
        """
        payload = shard.artifact_payload(result)
        if digests is not None:
            from repro.obs.checkpoint import CHECKPOINT_SCHEMA

            payload["digests"] = {"schema": CHECKPOINT_SCHEMA, "events": digests}
        path = self.shard_path(shard.digest)
        dump(payload, path)
        return path

    def get(self, shard) -> Any:
        """The shard's stored result, or ``None`` if absent or invalid.

        The shard reads and checks its own artifact through
        ``shard.result_from_artifact``. This is the validity check behind
        :meth:`has` and :meth:`classify`.
        """
        payload = self._read_artifact(shard)
        return None if payload is None else shard.result_from_artifact(payload)

    def digest_manifest(self, shard) -> Optional[List[dict]]:
        """The shard's checkpoint event payloads, or ``None``.

        ``None`` both when the artifact is absent/invalid and when it was
        written without a flight recorder — the digests block is optional
        provenance, never required for assembly.
        """
        payload = self._read_artifact(shard)
        if payload is None:
            return None
        block = payload.get("digests")
        if not isinstance(block, dict) or not isinstance(block.get("events"), list):
            return None
        return list(block["events"])

    def has(self, shard) -> bool:
        """True when a valid artifact exists for ``shard``."""
        return self.get(shard) is not None

    def classify(self, shard) -> ShardArtifactStatus:
        """``done`` (valid artifact), ``pending`` (absent), or ``failed``
        (an artifact file exists but is corrupt or inconsistent)."""
        if not self.shard_path(shard.digest).exists():
            return "pending"
        return "done" if self.has(shard) else "failed"

    def _read_artifact(self, shard) -> Optional[dict]:
        """Parse and sanity-check one shard's artifact; None when invalid."""
        digest, kind = shard.digest, shard.ARTIFACT_KIND
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

    def list_digests(self) -> List[str]:
        """Digests of every artifact file present (valid or not)."""
        return sorted(path.stem for path in self.shard_dir.glob("*.json"))

    # -- heartbeats ----------------------------------------------------

    def heartbeat_dir(self, plan_digest: str) -> Path:
        """Where one campaign's heartbeat journals live (may not exist)."""
        return self.heartbeat_root / plan_digest

    def journal_path(self, plan_digest: str) -> Path:
        """This process's heartbeat journal for one campaign.

        Named by host and pid, so no two live processes share a journal.
        """
        name = f"{local_hostname()}-{os.getpid()}.jsonl"
        return self.heartbeat_dir(plan_digest) / name

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
        """Append one shard's liveness record to this process's journal.

        ``status`` is ``running`` / ``retrying`` / ``done`` / ``failed``.
        The record is one JSON line with a provenance stamp (schema + code
        version), flushed but not fsynced; the journal's path is
        returned. ``worker``, when given, names the worker that produced
        the record — the execution-provenance trail distributed campaigns
        surface in ``status --json``. ``host`` likewise stamps the machine
        that beat — the per-host roll-up in ``status``/``watch`` groups
        shards by it.
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
        line = _journal_line(record).encode("utf-8")
        path = self.journal_path(plan_digest)
        with open(path, "a+b") as journal:
            end = journal.tell()
            if end:
                # A torn tail (a killed earlier process with this pid)
                # must not swallow this record: start it on a new line.
                journal.seek(end - 1)
                if journal.read(1) != b"\n":
                    line = b"\n" + line
            journal.write(line)
        return path

    def read_heartbeats(self, plan_digest: str) -> Dict[str, dict]:
        """Every shard's latest heartbeat for one campaign, by shard digest.

        Folds every journal of the campaign; a shard's record is the one
        with the latest ``updated_unix_s``. Torn or mis-shaped lines are
        skipped with a warning — a watcher must keep rendering through a
        half-written store.
        """
        directory = self.heartbeat_dir(plan_digest)
        if not directory.is_dir():
            return {}
        records: Dict[str, dict] = {}
        for path in sorted(directory.glob("*.jsonl")):
            for record in _journal_records(path, _read_journal(path)):
                last = records.get(record["shard"])
                if last is None or record["updated_unix_s"] >= last["updated_unix_s"]:
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

        Write-once: the file is named by the plan's content address, so
        an intact manifest is left alone (no rewrite, no fsync); only an
        absent or unreadable one is (re)written. A manifest this store
        object already verified or wrote is not parsed again while its
        file is unchanged; workers handed their launcher's store inherit
        its verdicts.
        """
        path = self.manifest_path(plan.digest)
        try:
            signature: Optional[Tuple[int, ...]] = _file_signature(path)
        except FileNotFoundError:
            signature = None
        verified = self._verified_manifests
        if signature is not None and verified.get(plan.digest) == signature:
            return path
        try:
            intact = signature is not None and isinstance(load(path), dict)
        except (OSError, ValueError) as error:
            logger.warning("rewriting unreadable manifest %s: %s", path, error)
            intact = False
        if not intact:
            dump(plan.payload(), path)
        verified[plan.digest] = _file_signature(path)
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

    def load_manifests(self) -> Dict[str, Any]:
        """Every stored plan, of every kind, keyed by plan digest.

        Each manifest's ``schema`` picks its loader (campaign plans and
        cell plans). A plan is kept only when the rebuilt plan's digest
        is the manifest's key, so nothing runs or keeps shards the
        manifest does not name. Unreadable, unknown-schema, invalid and
        rebuilt-to-another-plan manifests are skipped with a warning.
        """
        loaders = _plan_loaders()
        plans: Dict[str, Any] = {}
        for digest, payload in self.manifest_payloads().items():
            loader = loaders.get(payload.get("schema"))
            if loader is None:
                logger.warning(
                    "skipping manifest %s: unknown schema %r",
                    digest,
                    payload.get("schema"),
                )
                continue
            try:
                plan = loader(payload)
            except Exception as error:  # noqa: BLE001 - tolerate junk files
                logger.warning("skipping invalid manifest %s: %s", digest, error)
                continue
            if plan.digest != digest:
                logger.warning(
                    "skipping manifest %s: it rebuilds to plan %s",
                    digest[:12],
                    plan.digest[:12],
                )
                continue
            plans[digest] = plan
        return plans

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
        accumulate: the heartbeat journals of plans no stored manifest
        references, the records of unreferenced shards (and torn lines)
        inside a known plan's journals, legacy per-shard heartbeat files,
        and claim files that are orphaned, torn, or whose lease has
        expired (see :func:`~repro.campaign.lease.lease_expired` — a live
        lease is never touched, so gc is safe to run against an active
        campaign; at worst a heartbeat appended while gc rewrites its
        journal is lost). Returns the removed (or, with ``dry_run``,
        would-be-removed) paths; a journal gc prunes records from is
        listed too. ``now_unix_s`` is injectable for tests.
        """
        plan_shards = {
            digest: {shard.digest for shard in plan.shards}
            for digest, plan in self.load_manifests().items()
        }
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
        removed.extend(self._gc_heartbeats(plan_shards, dry_run))
        removed.extend(self._gc_claims(plan_shards, dry_run, now_unix_s))
        return removed

    def _gc_heartbeats(
        self, plan_shards: Dict[str, Set[str]], dry_run: bool
    ) -> List[Path]:
        """Prune the ``heartbeats/<plan>/`` journals against the manifests."""
        removed: List[Path] = []
        for plan_dir in _plan_dirs(self.heartbeat_root):
            known = plan_shards.get(plan_dir.name)
            for path in sorted(plan_dir.iterdir()):
                if known is not None and path.suffix == ".jsonl":
                    text = _read_journal(path)
                    kept = [
                        record
                        for record in _journal_records(path, text)
                        if record["shard"] in known
                    ]
                    pruned = "".join(_journal_line(record) for record in kept)
                    if pruned == text:
                        continue
                    removed.append(path)
                    if not dry_run:
                        _replace_text(path, pruned)
                    continue
                removed.append(path)
                if not dry_run:
                    _unlink(path)
            if not dry_run and known is None and not any(plan_dir.iterdir()):
                plan_dir.rmdir()
        return removed

    def _gc_claims(
        self,
        plan_shards: Dict[str, Set[str]],
        dry_run: bool,
        now_unix_s: Optional[float],
    ) -> List[Path]:
        """Prune orphaned, torn and expired ``claims/<plan>/<shard>.json``."""
        removed: List[Path] = []
        for plan_dir in _plan_dirs(self.claim_root):
            known = plan_shards.get(plan_dir.name)
            for path in sorted(plan_dir.glob("*.json")):
                if known is not None and path.stem in known:
                    try:
                        record = LeaseRecord.from_payload(load(path))
                    except (OSError, ValueError):
                        record = None
                    if record is not None and not lease_expired(record, now_unix_s):
                        continue
                removed.append(path)
                if not dry_run:
                    _unlink(path)
            if not dry_run and known is None and not any(plan_dir.iterdir()):
                plan_dir.rmdir()
        return removed


def _plan_loaders() -> Dict[str, Callable[[Any], Any]]:
    """Manifest schema -> the function that rebuilds its plan.

    Imported on use: a store that is only written and read by shard
    never loads the cell subsystem.
    """
    from repro.campaign.plan import PLAN_SCHEMA, plan_from_payload
    from repro.cell.shards import CELL_PLAN_SCHEMA, plan_cell_from_payload

    return {PLAN_SCHEMA: plan_from_payload, CELL_PLAN_SCHEMA: plan_cell_from_payload}


def _plan_dirs(root: Path) -> List[Path]:
    """The per-plan subdirectories of one liveness tree."""
    if not root.is_dir():
        return []
    return [path for path in sorted(root.iterdir()) if path.is_dir()]


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except FileNotFoundError:
        pass


def _replace_text(path: Path, text: str) -> None:
    """Swap ``path``'s contents for ``text`` in one rename (no fsync)."""
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=path.parent,
        prefix=f".{path.name}.",
        suffix=".tmp",
        delete=False,
    )
    with handle as stream:
        stream.write(text)
    os.replace(handle.name, path)
