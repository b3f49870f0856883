"""Offline storage integrity audit and backup tooling for data dirs.

``repro-experiments fsck --data-dir DIR`` walks one allocation-service
data directory **without starting the service** and verifies everything
the durability layer promises:

* the CURRENT pointer parses and every chain entry's snapshot file
  exists with byte-for-byte the sha256 the pointer recorded;
* every snapshot file on disk (referenced or not) is a valid checkpoint
  envelope;
* every WAL and archived WAL segment decodes frame by frame — CRC
  mismatches and mid-stream corruption are errors, a torn final line is
  a note (normal crash debris) — and carries contiguous sequence
  numbers;
* quarantine directories (``*.corrupt/``) are surfaced so operators see
  what past recoveries routed around.

Exit codes follow the analysis-tool convention: ``0`` clean, ``1``
integrity errors found, ``2`` operational failure (unreadable
directory, bad arguments).

``snapshot export`` / ``snapshot import`` round-trip the same files
through a digest-manifested tarball — the disaster-recovery path for
when every on-disk generation is gone.
"""

from __future__ import annotations

import io
import json
import os
import tarfile
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.checkpoint import (
    SERVICE_KIND,
    CheckpointError,
    file_digest,
    fsync_directory,
    load_checkpoint,
    scan_journal,
)
from repro.service.service import (
    CURRENT_FILENAME,
    PRE_GENERATIONAL_FILENAME,
    UPGRADE_NOTE,
    parse_generation,
    parse_segment,
    read_current,
    snapshot_filename,
)

__all__ = [
    "FSCK_OK",
    "FSCK_ERRORS",
    "FSCK_FAILED",
    "BACKUP_KIND",
    "Finding",
    "FsckReport",
    "run_fsck",
    "render_report",
    "export_backup",
    "import_backup",
]

FSCK_OK = 0
FSCK_ERRORS = 1
FSCK_FAILED = 2

#: Manifest ``kind`` of a backup tarball.
BACKUP_KIND = "repro-service-backup"
BACKUP_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"


@dataclass(frozen=True)
class Finding:
    """One fsck observation: ``error`` fails the check, ``note`` does not."""

    severity: str  # "error" | "note"
    path: str
    problem: str


@dataclass
class FsckReport:
    """Everything one fsck pass saw."""

    data_dir: str
    checked_files: int = 0
    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def notes(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "note"]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def exit_code(self) -> int:
        return FSCK_OK if self.ok else FSCK_ERRORS

    def to_json(self) -> Dict[str, Any]:
        return {
            "data_dir": self.data_dir,
            "checked_files": self.checked_files,
            "ok": self.ok,
            "errors": [vars(f) for f in self.errors],
            "notes": [vars(f) for f in self.notes],
        }


def _check_journal(report: FsckReport, path: str) -> None:
    """Frame-validate one WAL/segment and its seq contiguity."""
    report.checked_files += 1
    name = os.path.basename(path)
    try:
        docs, _, torn, corrupt = scan_journal(path)
    except OSError as exc:  # pragma: no cover - unreadable mid-walk
        report.findings.append(Finding("error", name, f"unreadable: {exc}"))
        return
    if corrupt is not None:
        report.findings.append(
            Finding(
                "error",
                name,
                f"mid-stream corruption at line {corrupt.line} "
                f"(byte offset {corrupt.offset}): {corrupt.reason}",
            )
        )
    elif torn:
        report.findings.append(
            Finding("note", name, "torn final line (normal crash debris)")
        )
    last_seq: Optional[int] = None
    for doc in docs:
        if not isinstance(doc, dict) or "seq" not in doc:
            report.findings.append(
                Finding("error", name, f"journal record without seq: {doc!r}")
            )
            return
        seq = int(doc["seq"])
        if last_seq is not None and seq != last_seq + 1:
            report.findings.append(
                Finding(
                    "error",
                    name,
                    f"sequence gap: seq {last_seq} followed by {seq}",
                )
            )
        last_seq = seq


def _check_snapshot(
    report: FsckReport, path: str, expected_digest: Optional[str]
) -> None:
    report.checked_files += 1
    name = os.path.basename(path)
    if expected_digest is not None:
        actual = file_digest(path)
        if actual != expected_digest:
            report.findings.append(
                Finding(
                    "error",
                    name,
                    f"digest mismatch: CURRENT records {expected_digest[:12]}…, "
                    f"file hashes to {actual[:12]}…",
                )
            )
            return  # the bytes are wrong; envelope detail is noise
    try:
        load_checkpoint(path, kind=SERVICE_KIND)
    except CheckpointError as exc:
        report.findings.append(Finding("error", name, str(exc)))


def run_fsck(data_dir: str) -> FsckReport:
    """Verify every journal and snapshot checksum under ``data_dir``."""
    if not os.path.isdir(data_dir):
        raise ValueError(f"not a directory: {data_dir!r}")
    report = FsckReport(data_dir=data_dir)
    names = sorted(os.listdir(data_dir))
    referenced: Dict[int, Optional[str]] = {}
    if CURRENT_FILENAME in names:
        report.checked_files += 1
        try:
            referenced = {e["gen"]: e["digest"] for e in read_current(data_dir)}
        except ValueError as exc:
            report.findings.append(
                Finding("error", CURRENT_FILENAME, f"unreadable pointer: {exc}")
            )
        for gen in referenced:
            if not os.path.exists(os.path.join(data_dir, snapshot_filename(gen))):
                report.findings.append(
                    Finding(
                        "error",
                        snapshot_filename(gen),
                        f"referenced by CURRENT (gen {gen}) but missing",
                    )
                )
    for name in names:
        full = os.path.join(data_dir, name)
        if name == CURRENT_FILENAME:
            continue
        if os.path.isdir(full):
            if name.endswith(".corrupt"):
                quarantined = sorted(os.listdir(full))
                report.findings.append(
                    Finding(
                        "note",
                        name,
                        f"quarantine directory holding {len(quarantined)} "
                        f"file(s): {', '.join(quarantined[:4])}"
                        + ("…" if len(quarantined) > 4 else ""),
                    )
                )
            continue
        if name == PRE_GENERATIONAL_FILENAME:
            report.findings.append(Finding("error", name, UPGRADE_NOTE))
            continue
        gen = parse_generation(name)
        if gen is not None:
            digest = referenced.get(gen)
            if gen not in referenced and referenced:
                report.findings.append(
                    Finding("note", name, "snapshot not referenced by CURRENT")
                )
            _check_snapshot(report, full, digest)
            continue
        if name.endswith(".wal") or parse_segment(name) is not None:
            _check_journal(report, full)
    return report


def render_report(report: FsckReport) -> str:
    """Human-readable fsck summary (the ``--json`` flag skips this)."""
    lines = [
        f"fsck {report.data_dir}",
        f"  checked {report.checked_files} file(s): "
        f"{len(report.errors)} error(s), {len(report.notes)} note(s)",
    ]
    for finding in report.findings:
        marker = "ERROR" if finding.severity == "error" else "note "
        lines.append(f"  [{marker}] {finding.path}: {finding.problem}")
    lines.append("status: " + ("clean" if report.ok else "CORRUPTION DETECTED"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Backup export / import
# ---------------------------------------------------------------------------


def _backup_members(data_dir: str) -> List[str]:
    """The flat file set a backup covers (no quarantine evidence)."""
    members = []
    for name in sorted(os.listdir(data_dir)):
        full = os.path.join(data_dir, name)
        if not os.path.isfile(full):
            continue
        if (
            name == CURRENT_FILENAME
            or parse_generation(name) is not None
            or parse_segment(name) is not None
            or name.endswith(".wal")
        ):
            members.append(name)
    return members


def export_backup(data_dir: str, archive_path: str) -> Dict[str, Any]:
    """Write a digest-manifested ``.tar.gz`` of ``data_dir``; return manifest.

    The archive lands atomically (temp + fsync + rename + directory
    fsync) so a crashed export never leaves a half tarball under the
    target name.
    """
    if not os.path.isdir(data_dir):
        raise ValueError(f"not a directory: {data_dir!r}")
    members = _backup_members(data_dir)
    if not members:
        raise ValueError(f"nothing to back up in {data_dir!r}")
    manifest: Dict[str, Any] = {
        "kind": BACKUP_KIND,
        "version": BACKUP_VERSION,
        "files": {name: file_digest(os.path.join(data_dir, name)) for name in members},
    }
    directory = os.path.dirname(os.path.abspath(archive_path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(archive_path) + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        with tarfile.open(tmp_path, "w:gz") as tar:
            blob = json.dumps(manifest, indent=None, separators=(",", ":")).encode(
                "utf-8"
            )
            info = tarfile.TarInfo(MANIFEST_NAME)
            info.size = len(blob)
            tar.addfile(info, io.BytesIO(blob))
            for name in members:
                tar.add(os.path.join(data_dir, name), arcname=name)
        sync_fd = os.open(tmp_path, os.O_RDONLY)
        try:
            os.fsync(sync_fd)
        finally:
            os.close(sync_fd)
        os.replace(tmp_path, archive_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)
    return manifest


def _read_manifest(tar: tarfile.TarFile) -> Dict[str, Any]:
    member = tar.getmember(MANIFEST_NAME)
    handle = tar.extractfile(member)
    assert handle is not None
    manifest = json.loads(handle.read().decode("utf-8"))
    if manifest.get("kind") != BACKUP_KIND:
        raise ValueError(f"not a {BACKUP_KIND} archive")
    if manifest.get("version") != BACKUP_VERSION:
        raise ValueError(
            f"backup version {manifest.get('version')!r}; this build reads "
            f"version {BACKUP_VERSION}"
        )
    return manifest


def import_backup(
    archive_path: str, data_dir: str, force: bool = False
) -> Dict[str, Any]:
    """Restore a backup tarball into ``data_dir``; returns its manifest.

    Every extracted file must hash to exactly the digest the manifest
    recorded at export time — a bit-rotted backup is refused, not
    silently restored.  A ``data_dir`` already holding service files is
    refused unless ``force`` (which overwrites them).
    """
    with tarfile.open(archive_path, "r:gz") as tar:
        manifest = _read_manifest(tar)
        files: Dict[str, str] = manifest["files"]
        for name in files:
            if os.sep in name or name.startswith(".") or not name:
                raise ValueError(f"manifest names unsafe member {name!r}")
        names = {member.name for member in tar.getmembers()}
        extra = names - set(files) - {MANIFEST_NAME}
        if extra:
            raise ValueError(f"archive holds unmanifested members: {sorted(extra)}")
        os.makedirs(data_dir, exist_ok=True)
        existing = _backup_members(data_dir)
        if existing and not force:
            raise ValueError(
                f"{data_dir!r} already holds {len(existing)} service file(s); "
                "pass --force to overwrite"
            )
        staged: List[Tuple[str, str]] = []
        for name, expected in sorted(files.items()):
            handle = tar.extractfile(name)
            if handle is None:
                raise ValueError(f"archive is missing manifested member {name!r}")
            blob = handle.read()
            tmp_fd, tmp_path = tempfile.mkstemp(
                dir=data_dir, prefix=name + ".", suffix=".import"
            )
            with os.fdopen(tmp_fd, "wb") as out:
                out.write(blob)
                out.flush()
                os.fsync(out.fileno())
            staged.append((tmp_path, os.path.join(data_dir, name)))
            actual = file_digest(tmp_path)
            if actual != expected:
                for tmp, _ in staged:
                    try:
                        os.unlink(tmp)
                    except OSError:  # pragma: no cover - cleanup
                        pass
                raise ValueError(
                    f"backup member {name!r} is corrupt: manifest records "
                    f"{expected[:12]}…, archive bytes hash to {actual[:12]}…"
                )
        # All digests verified; commit the whole set.
        for tmp_path, final_path in staged:
            os.replace(tmp_path, final_path)
        fsync_directory(data_dir)
    return manifest
