"""Authority-side stores: issuing clouds, airport replicas, and sync.

An embassy cloud owns applications, issued passports and visas, and a
content-addressed blob store (image bytes keyed by their SHA-256, so
integrity is recomputable at any time). An airport cloud holds only
what the daily pull gives it: a replicated ``visa_id -> (passport_no,
image_hash)`` map plus the desk copies received during checks.

Sync is manifest-driven. The airport pulls records for travelers
manifested through it whose travel date falls inside a two-day
look-ahead window. The pull is an upsert, so re-running a day's sync
changes nothing. Each cloud is the single owner of its own maps; all
mutation happens inside these functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
import json

from .errors import CloudError
from .model import (MAX_IMAGE_BYTES, VISA_MEDIA_TYPE, DeviceState, IdKind,
                    Passport, TrackingId, VisaImage, VisaRecord, VisaStatus,
                    content_hash, new_passport, new_tracking_id, place_visa)
from .qrlink import LinkToken, ResourceKind, mint_link_token, resolve_link_token

__all__ = [
    "SYNC_HORIZON_S",
    "Checkpoint",
    "AppStatus",
    "ApplicationRecord",
    "NotificationKind",
    "Notification",
    "ManifestEntry",
    "TravelManifest",
    "CompareResult",
    "EmbassyCloud",
    "AirportCloud",
    "submit_application",
    "application_status",
    "approve_passport",
    "approve_visa",
    "download_passport_app",
    "download_visa_image",
    "daily_sync",
    "receive_desk_copy",
    "compare_visa",
]

# Airports pull records for travel dates within [date, date + 2 days].
SYNC_HORIZON_S = 2 * 86400


class Checkpoint(Enum):
    DEPARTURE = "DEPARTURE"
    ARRIVAL = "ARRIVAL"


class AppStatus(Enum):
    SUBMITTED = "SUBMITTED"
    APPROVED = "APPROVED"


class NotificationKind(Enum):
    PASSPORT_READY = "PASSPORT_READY"
    VISA_READY = "VISA_READY"


class CompareResult(Enum):
    MATCH = "MATCH"
    MISMATCH = "MISMATCH"
    NOT_FOUND = "NOT_FOUND"


@dataclass
class ApplicationRecord:
    tracking: TrackingId
    applicant: str
    status: AppStatus = AppStatus.SUBMITTED
    resource_id: str | None = None


@dataclass(frozen=True)
class Notification:
    """Approval message; the payload token must verify at emission time."""

    recipient: str
    kind: NotificationKind
    payload: LinkToken


@dataclass(frozen=True)
class ManifestEntry:
    passport_no: str
    visa_id: str
    airport: str
    travel_date: int


@dataclass
class TravelManifest:
    entries: list[ManifestEntry] = field(default_factory=list)


class EmbassyCloud:
    """One issuing authority's store; ``authority_id`` doubles as country."""

    def __init__(self, authority_id: str, secret: bytes):
        self.authority_id = authority_id
        self.secret = secret
        self.applications: dict[str, ApplicationRecord] = {}
        self.visas: dict[str, VisaRecord] = {}
        self.passports: dict[str, Passport] = {}
        self.blobs: dict[str, bytes] = {}
        self.notifications_out: list[Notification] = []

    def has_resource(self, kind: ResourceKind, resource_id: str) -> bool:
        if kind is ResourceKind.PASSPORT_APP:
            return resource_id in self.passports
        return resource_id in self.visas

    def snapshot_bytes(self) -> bytes:
        """Deterministic dump of the store, for equality checks."""
        view = {
            "authority": self.authority_id,
            "applications": {k: [v.applicant, v.status.value, v.resource_id]
                             for k, v in self.applications.items()},
            "visas": {k: [v.passport_no, v.image_hash, v.status.value]
                      for k, v in self.visas.items()},
            "passports": sorted(self.passports),
            "blobs": sorted(self.blobs),
        }
        return json.dumps(view, sort_keys=True).encode("utf-8")


class AirportCloud:
    def __init__(self, airport: str):
        self.airport = airport
        self.replicated: dict[str, tuple[str, str]] = {}
        self.desk_copies: dict[tuple[str, Checkpoint], str] = {}
        self.last_sync_date: int | None = None

    def snapshot_bytes(self) -> bytes:
        view = {
            "airport": self.airport,
            "replicated": {k: list(v) for k, v in sorted(self.replicated.items())},
            "desk_copies": {f"{k[0]}/{k[1].value}": v
                            for k, v in sorted(self.desk_copies.items(),
                                               key=lambda kv: (kv[0][0], kv[0][1].value))},
            "last_sync_date": self.last_sync_date,
        }
        return json.dumps(view, sort_keys=True).encode("utf-8")


# ---------------------------------------------------------------------------
# Application intake and approval


def submit_application(cloud: EmbassyCloud, applicant: str, kind: IdKind,
                       rng) -> TrackingId:
    """File an application; the returned tracking id is the applicant's
    only handle while they wait."""
    tracking = new_tracking_id(kind, rng, issued=cloud.applications.keys())
    cloud.applications[tracking.value] = ApplicationRecord(tracking, applicant)
    return tracking


def application_status(cloud: EmbassyCloud, tracking_value: str) -> AppStatus:
    record = cloud.applications.get(tracking_value)
    if record is None:
        raise CloudError("NOT_FOUND", tracking_value)
    return record.status


def _application_for_approval(cloud: EmbassyCloud, tracking_value: str,
                              kind: IdKind) -> ApplicationRecord:
    record = cloud.applications.get(tracking_value)
    if record is None:
        raise CloudError("UNKNOWN_TRACKING_ID", tracking_value)
    if record.tracking.kind is not kind:
        raise CloudError("UNKNOWN_TRACKING_ID",
                         f"{tracking_value} is a {record.tracking.kind.value}")
    if record.status is AppStatus.APPROVED:
        raise CloudError("ALREADY_APPROVED", tracking_value)
    return record


def approve_passport(cloud: EmbassyCloud, tracking_value: str, *,
                     passport_no: str, holder_name: str, nationality: str,
                     issue_date: int, expiry_date: int) -> Notification:
    """Issue the passport and queue a PASSPORT_READY download link."""
    record = _application_for_approval(cloud, tracking_value,
                                       IdKind.PASSPORT_APPLICATION)
    if passport_no in cloud.passports:
        raise CloudError("DUPLICATE_PASSPORT_NO", passport_no)
    passport = new_passport(passport_no, holder_name, nationality,
                            cloud.authority_id, issue_date, expiry_date)
    cloud.passports[passport_no] = passport
    record.status = AppStatus.APPROVED
    record.resource_id = passport_no
    token = mint_link_token(cloud, ResourceKind.PASSPORT_APP, passport_no)
    resolve_link_token(token, cloud)  # a notification never carries a dud link
    note = Notification(record.applicant, NotificationKind.PASSPORT_READY, token)
    cloud.notifications_out.append(note)
    return note


def approve_visa(cloud: EmbassyCloud, tracking_value: str, *, visa_id: str,
                 passport_no: str, destination_country: str, valid_from: int,
                 valid_to: int, image_bytes: bytes) -> Notification:
    """Issue the visa, store its image blob, and queue a VISA_READY link."""
    record = _application_for_approval(cloud, tracking_value,
                                       IdKind.VISA_APPLICATION)
    if visa_id in cloud.visas:
        raise CloudError("DUPLICATE_VISA_ID", visa_id)
    if len(image_bytes) > MAX_IMAGE_BYTES:
        raise CloudError("IMAGE_TOO_LARGE",
                         f"{len(image_bytes)} > {MAX_IMAGE_BYTES} bytes")
    image_hash = content_hash(image_bytes)
    visa = VisaRecord(visa_id, passport_no, cloud.authority_id,
                      destination_country, valid_from, valid_to, image_hash,
                      VisaStatus.ISSUED)
    cloud.visas[visa_id] = visa
    cloud.blobs[image_hash] = bytes(image_bytes)
    record.status = AppStatus.APPROVED
    record.resource_id = visa_id
    token = mint_link_token(cloud, ResourceKind.VISA_IMAGE, visa_id)
    resolve_link_token(token, cloud)
    note = Notification(record.applicant, NotificationKind.VISA_READY, token)
    cloud.notifications_out.append(note)
    return note


# ---------------------------------------------------------------------------
# Artifact delivery to the device


def download_passport_app(cloud: EmbassyCloud, token: LinkToken,
                          device: DeviceState) -> Passport:
    """Install the passport. It binds to the first device that installs
    it; any other device using the same link is refused."""
    if device.locked:
        raise CloudError("DEVICE_LOCKED")
    if token.resource_kind is not ResourceKind.PASSPORT_APP:
        raise CloudError("WRONG_RESOURCE_KIND", token.resource_kind.value)
    passport_no = resolve_link_token(token, cloud)
    passport = cloud.passports[passport_no]
    if passport.bound_device is not None and passport.bound_device != device.device_id:
        raise CloudError("DEVICE_ALREADY_BOUND", passport.bound_device)
    bound = replace(passport, bound_device=device.device_id)
    cloud.passports[passport_no] = bound
    device.passport = bound
    return bound


def download_visa_image(cloud: EmbassyCloud, token: LinkToken,
                        device: DeviceState, page_no: int) -> VisaImage:
    """Fetch the visa image over its QR link and place it on a page the
    traveler chose."""
    if device.locked:
        raise CloudError("DEVICE_LOCKED")
    if token.resource_kind is not ResourceKind.VISA_IMAGE:
        raise CloudError("WRONG_RESOURCE_KIND", token.resource_kind.value)
    if device.passport is None:
        raise CloudError("NO_PASSPORT")
    visa_id = resolve_link_token(token, cloud)
    record = cloud.visas[visa_id]
    data = cloud.blobs[record.image_hash]
    image = VisaImage(data, VISA_MEDIA_TYPE, record.image_hash)
    # Place first against a hypothetical store so a refusal leaves the
    # device exactly as it was.
    downloaded = set(device.visas) | {visa_id}
    device.passport = place_visa(device.passport, visa_id, page_no, downloaded)
    device.visas[visa_id] = image
    return image


# ---------------------------------------------------------------------------
# Daily replication and desk comparison


def daily_sync(airport_cloud: AirportCloud, embassy_cloud: EmbassyCloud,
               manifest: TravelManifest, date: int,
               dangling_out: list | None = None) -> AirportCloud:
    """Pull records for this airport's manifested travelers into the
    replica. Dangling manifest rows are reported and skipped, never fatal.
    Running the same sync twice is indistinguishable from running it once.
    """
    for entry in manifest.entries:
        if entry.airport != airport_cloud.airport:
            continue
        if not date <= entry.travel_date <= date + SYNC_HORIZON_S:
            continue
        record = embassy_cloud.visas.get(entry.visa_id)
        if record is None:
            if dangling_out is not None:
                dangling_out.append(entry)
            continue
        if record.status is VisaStatus.REVOKED:
            airport_cloud.replicated.pop(entry.visa_id, None)
            continue
        airport_cloud.replicated[entry.visa_id] = (record.passport_no,
                                                   record.image_hash)
    airport_cloud.last_sync_date = date
    return airport_cloud


def receive_desk_copy(airport_cloud: AirportCloud, visa_id: str, data: bytes,
                      checkpoint: Checkpoint) -> str:
    """Store the hash of what the desk just read off a device."""
    digest = content_hash(data)
    airport_cloud.desk_copies[(visa_id, checkpoint)] = digest
    return digest


def compare_visa(airport_cloud: AirportCloud, visa_id: str,
                 checkpoint: Checkpoint) -> CompareResult:
    """Judge the desk copy against the replica. Absence is its own answer:
    an unreplicated visa is NOT_FOUND, not a mismatch."""
    desk_hash = airport_cloud.desk_copies.get((visa_id, checkpoint))
    if desk_hash is None:
        raise CloudError("NO_DESK_COPY", f"{visa_id}/{checkpoint.value}")
    replica = airport_cloud.replicated.get(visa_id)
    if replica is None:
        return CompareResult.NOT_FOUND
    _, image_hash = replica
    return CompareResult.MATCH if desk_hash == image_hash else CompareResult.MISMATCH
