"""Travel-document values and their canonical byte encoding.

Everything the other layers exchange (passports, pages, visa records,
image blobs, device state) is defined here as a value type with
construction-time validation, plus a deterministic tagged binary
encoding. The exact byte layout is documented in docs/encoding.md and
is covered by round-trip tests; any change to field order or framing is
a wire-format break.

Times and dates are plain integers: seconds since the scenario epoch.
They are rendered as ISO-8601 only when a report is written.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
import struct
import types
import typing
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Collection, Iterable

from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle, type hints only
    from .authflow import Session

__all__ = [
    "IdKind",
    "PassportStatus",
    "PageContent",
    "StampKind",
    "VisaStatus",
    "TrackingId",
    "StampEntry",
    "PassportPage",
    "Passport",
    "VisaImage",
    "VisaRecord",
    "AuthImage",
    "DeviceState",
    "PassportSummary",
    "VisaPresentation",
    "content_hash",
    "new_tracking_id",
    "new_passport",
    "place_visa",
    "add_stamp",
    "summarize",
    "canonical_serialize",
    "canonical_deserialize",
    "register_codec",
    "fields_codec",
]

TRACKING_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
TRACKING_LENGTH = 12
PASSPORT_PAGE_COUNT = 32
AUTH_IMAGE_COUNT = 10

# Used with fullmatch: a pattern ending in ``$`` also matches before a
# final newline.
_TRACKING_RE = re.compile(r"[A-Z0-9]{12}")
_COUNTRY_RE = re.compile(r"[A-Z]{2,3}")
_AIRPORT_RE = re.compile(r"[A-Z]{3}")
_HEX64_RE = re.compile(r"[0-9a-f]{64}")

# Integers travel as i64 in the canonical encoding; dates must fit one
# when issued, so no later encoding of the document can fail.
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1

# Largest visa image an embassy issues. Scenarios and the wire protocol
# are bounded by it too, so no input can ask for an unbounded buffer.
MAX_IMAGE_BYTES = 1 << 20

# The media type of every image an embassy issues.
VISA_MEDIA_TYPE = "image/png"


def content_hash(data: bytes) -> str:
    """SHA-256 of ``data`` as 64 lowercase hex characters."""
    return hashlib.sha256(data).hexdigest()


def _require(cond: bool, invariant: str, detail: str) -> None:
    if not cond:
        raise ValidationError(invariant, detail)


class IdKind(Enum):
    PASSPORT_APPLICATION = "PASSPORT_APPLICATION"
    VISA_APPLICATION = "VISA_APPLICATION"


class PassportStatus(Enum):
    ACTIVE = "ACTIVE"
    LOCKED = "LOCKED"
    EXPIRED = "EXPIRED"


class PageContent(Enum):
    EMPTY = "EMPTY"
    VISA_SLOT = "VISA_SLOT"
    STAMPS = "STAMPS"


class StampKind(Enum):
    ARRIVAL = "ARRIVAL"
    DEPARTURE = "DEPARTURE"


class VisaStatus(Enum):
    ISSUED = "ISSUED"
    REVOKED = "REVOKED"


@dataclass(frozen=True)
class TrackingId:
    """Application reference shown to the applicant while they wait."""

    value: str
    kind: IdKind

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _require(bool(_TRACKING_RE.fullmatch(self.value)), "BAD_TRACKING_FORMAT",
                 f"tracking id must be 12 chars of A-Z0-9, got {self.value!r}")
        _require(isinstance(self.kind, IdKind), "BAD_TRACKING_KIND", repr(self.kind))


@dataclass(frozen=True)
class StampEntry:
    kind: StampKind
    airport: str
    stamped_at: int

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _require(isinstance(self.kind, StampKind), "BAD_STAMP_KIND", repr(self.kind))
        _require(bool(_AIRPORT_RE.fullmatch(self.airport)), "BAD_AIRPORT_CODE",
                 f"airport must be 3 uppercase letters, got {self.airport!r}")
        _require(self.stamped_at >= 0, "NEGATIVE_TIMESTAMP", str(self.stamped_at))


@dataclass(frozen=True)
class PassportPage:
    """One page. A page holding a visa slot also carries that visa's stamps."""

    page_no: int
    visa_id: str | None = None
    stamps: tuple[StampEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stamps", tuple(self.stamps))
        self.validate()

    @property
    def content(self) -> PageContent:
        if self.visa_id is not None:
            return PageContent.VISA_SLOT
        if self.stamps:
            return PageContent.STAMPS
        return PageContent.EMPTY

    def validate(self) -> None:
        _require(self.page_no >= 1, "BAD_PAGE_NUMBER", str(self.page_no))
        _require(self.visa_id is None or self.visa_id != "", "EMPTY_VISA_ID", "")
        times = [s.stamped_at for s in self.stamps]
        _require(times == sorted(times), "STAMP_OUT_OF_ORDER",
                 f"page {self.page_no} stamps must be non-decreasing")


# The pages of every new passport, each checked once, here.
_BLANK_PAGES = tuple(PassportPage(n) for n in range(1, PASSPORT_PAGE_COUNT + 1))


@dataclass(frozen=True)
class Passport:
    passport_no: str
    holder_name: str
    nationality: str
    issuing_authority: str
    issue_date: int
    expiry_date: int
    pages: tuple[PassportPage, ...]
    bound_device: str | None
    status: PassportStatus

    def __post_init__(self):
        object.__setattr__(self, "pages", tuple(self.pages))
        self.validate()

    def validate(self) -> None:
        _require(bool(self.passport_no), "EMPTY_PASSPORT_NO", "")
        _require(bool(self.holder_name), "EMPTY_HOLDER_NAME", "")
        _require(bool(_COUNTRY_RE.fullmatch(self.nationality)), "BAD_COUNTRY_CODE",
                 repr(self.nationality))
        _require(bool(_COUNTRY_RE.fullmatch(self.issuing_authority)), "BAD_COUNTRY_CODE",
                 repr(self.issuing_authority))
        _require(self.expiry_date > self.issue_date, "EXPIRY_NOT_AFTER_ISSUE",
                 f"issue {self.issue_date} expiry {self.expiry_date}")
        _require(self.issue_date >= I64_MIN and self.expiry_date <= I64_MAX,
                 "DATE_OUT_OF_RANGE",
                 f"issue {self.issue_date} expiry {self.expiry_date} must fit i64")
        numbers = [p.page_no for p in self.pages]
        _require(numbers == list(range(1, len(self.pages) + 1)), "PAGES_NOT_CONTIGUOUS",
                 f"page numbers {numbers[:5]}...")
        slots = [p.visa_id for p in self.pages if p.visa_id is not None]
        _require(len(slots) == len(set(slots)), "DUPLICATE_VISA_SLOT", repr(slots))
        _require(self.bound_device is None or self.bound_device != "",
                 "EMPTY_DEVICE_ID", "")
        _require(isinstance(self.status, PassportStatus), "BAD_STATUS", repr(self.status))

    def page(self, page_no: int) -> PassportPage:
        if not 1 <= page_no <= len(self.pages):
            raise ValidationError("NO_SUCH_PAGE", f"page {page_no} of {len(self.pages)}")
        return self.pages[page_no - 1]

    def all_stamps(self) -> list[StampEntry]:
        return [s for p in self.pages for s in p.stamps]


@dataclass(frozen=True)
class VisaImage:
    """Opaque image blob; the hash is always recomputable from the bytes."""

    data: bytes
    media_type: str
    content_hash: str

    def __post_init__(self):
        self.validate()

    @classmethod
    def of(cls, data: bytes, media_type: str = VISA_MEDIA_TYPE) -> "VisaImage":
        return cls(bytes(data), media_type, content_hash(bytes(data)))

    def validate(self) -> None:
        _require(bool(self.media_type), "EMPTY_MEDIA_TYPE", "")
        _require(bool(_HEX64_RE.fullmatch(self.content_hash)), "BAD_HASH_FORMAT",
                 repr(self.content_hash))
        _require(self.content_hash == content_hash(self.data), "HASH_MISMATCH",
                 "stored hash does not match image bytes")


@dataclass(frozen=True)
class VisaRecord:
    visa_id: str
    passport_no: str
    issuing_country: str
    destination_country: str
    valid_from: int
    valid_to: int
    image_hash: str
    status: VisaStatus

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _require(bool(self.visa_id), "EMPTY_VISA_ID", "")
        _require(bool(self.passport_no), "EMPTY_PASSPORT_NO", "")
        _require(bool(_COUNTRY_RE.fullmatch(self.issuing_country)), "BAD_COUNTRY_CODE",
                 repr(self.issuing_country))
        _require(bool(_COUNTRY_RE.fullmatch(self.destination_country)), "BAD_COUNTRY_CODE",
                 repr(self.destination_country))
        _require(self.valid_to > self.valid_from, "VISA_WINDOW_EMPTY",
                 f"from {self.valid_from} to {self.valid_to}")
        _require(self.valid_from >= I64_MIN and self.valid_to <= I64_MAX,
                 "DATE_OUT_OF_RANGE",
                 f"from {self.valid_from} to {self.valid_to} must fit i64")
        _require(bool(_HEX64_RE.fullmatch(self.image_hash)), "BAD_HASH_FORMAT",
                 repr(self.image_hash))
        _require(isinstance(self.status, VisaStatus), "BAD_STATUS", repr(self.status))


@dataclass(frozen=True)
class AuthImage:
    """One of the ten enrolled challenge pictures. Fixed for the device's life."""

    index: int
    image_hash: str
    answer_hash: str

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _require(0 <= self.index < AUTH_IMAGE_COUNT, "BAD_IMAGE_INDEX", str(self.index))
        _require(bool(_HEX64_RE.fullmatch(self.image_hash)), "BAD_HASH_FORMAT",
                 repr(self.image_hash))
        _require(bool(_HEX64_RE.fullmatch(self.answer_hash)), "BAD_HASH_FORMAT",
                 repr(self.answer_hash))


class DeviceState:
    """A traveler's phone: the installed passport, downloaded visas, and
    the active session. Owned and mutated by exactly one caller at a time;
    everything it holds is an immutable value that can be shared freely.

    A locked device refuses every operation except reading its fields.
    Because it is mutable, it checks itself when built and again each
    time it is encoded.
    """

    __slots__ = ("device_id", "clock_offset_min", "locked", "passport",
                 "visas", "auth_images", "session")

    def __init__(self, device_id: str, clock_offset_min: int = 0,
                 auth_images: Iterable[AuthImage] = (),
                 passport: Passport | None = None):
        self.device_id = device_id
        self.clock_offset_min = clock_offset_min
        self.locked = False
        self.passport = passport
        self.visas: dict[str, VisaImage] = {}
        self.auth_images: tuple[AuthImage, ...] = tuple(auth_images)
        self.session: "Session | None" = None
        self.validate()

    def validate(self) -> None:
        _require(bool(self.device_id), "EMPTY_DEVICE_ID", "")
        _require(-1440 <= self.clock_offset_min <= 1440, "BAD_CLOCK_OFFSET",
                 str(self.clock_offset_min))
        _require(len(self.auth_images) == AUTH_IMAGE_COUNT, "BAD_AUTH_IMAGE_SET",
                 f"need exactly {AUTH_IMAGE_COUNT} images, got {len(self.auth_images)}")
        indices = [img.index for img in self.auth_images]
        _require(indices == list(range(AUTH_IMAGE_COUNT)), "BAD_AUTH_IMAGE_SET",
                 f"indices must be 0..{AUTH_IMAGE_COUNT - 1} in order, got {indices}")
        if self.passport is not None:
            for page in self.passport.pages:
                if page.visa_id is not None:
                    _require(page.visa_id in self.visas, "VISA_NOT_DOWNLOADED",
                             f"page {page.page_no} references {page.visa_id!r}")

    def displayed_minutes(self, now: int) -> int:
        """Minutes past midnight shown on the device at scenario time ``now``."""
        return (now // 60 + self.clock_offset_min) % 1440

    def displayed_time(self, now: int) -> str:
        minutes = self.displayed_minutes(now)
        return f"{minutes // 60:02d}:{minutes % 60:02d}"


@dataclass(frozen=True)
class PassportSummary:
    """What the desk reader sees during a check; no page detail."""

    passport_no: str
    holder_name: str
    nationality: str
    issuing_authority: str
    issue_date: int
    expiry_date: int
    status: PassportStatus

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _require(bool(self.passport_no), "EMPTY_PASSPORT_NO", "")
        _require(bool(self.holder_name), "EMPTY_HOLDER_NAME", "")


@dataclass(frozen=True)
class VisaPresentation:
    """Body of a check response: summary, chosen visa, and its image.
    The summary and the image checked themselves when they were built."""

    passport: PassportSummary
    visa_id: str
    image: VisaImage

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        _require(bool(self.visa_id), "EMPTY_VISA_ID", "")


# ---------------------------------------------------------------------------
# Operations


def new_tracking_id(kind: IdKind, rng, issued: Collection[str] = frozenset()) -> TrackingId:
    """Draw a fresh 12-char tracking id, retrying internally on collision."""
    while True:
        value = "".join(rng.choice(TRACKING_ALPHABET) for _ in range(TRACKING_LENGTH))
        if value not in issued:
            return TrackingId(value, kind)


def new_passport(passport_no: str, holder_name: str, nationality: str,
                 issuing_authority: str, issue_date: int, expiry_date: int) -> Passport:
    """A freshly issued passport: fixed page count, all pages empty, unbound.
    Every new passport shares one tuple of blank pages; pages are frozen,
    so placing a visa or a stamp replaces a page and never changes it."""
    return Passport(passport_no, holder_name, nationality, issuing_authority,
                    issue_date, expiry_date, _BLANK_PAGES, None,
                    PassportStatus.ACTIVE)


def place_visa(passport: Passport, visa_id: str, page_no: int,
               downloaded: Collection[str]) -> Passport:
    """Put a downloaded visa onto an empty page; returns the new passport."""
    if visa_id not in downloaded:
        raise ValidationError("VISA_NOT_DOWNLOADED", f"{visa_id!r} not on device")
    page = passport.page(page_no)
    for p in passport.pages:
        if p.visa_id == visa_id:
            raise ValidationError("ALREADY_PLACED",
                                  f"{visa_id!r} already on page {p.page_no}")
    if page.content is not PageContent.EMPTY:
        raise ValidationError("PAGE_OCCUPIED",
                              f"page {page_no} is {page.content.value}")
    return _with_page(passport, PassportPage(page_no, visa_id))


def add_stamp(passport: Passport, page_no: int, stamp: StampEntry) -> Passport:
    """Append a stamp to a page. Stamp times never go backwards within
    one passport, regardless of which page they land on."""
    page = passport.page(page_no)
    # A page's stamps are sorted, so its last stamp is its latest.
    for p in passport.pages:
        if p.stamps and stamp.stamped_at < p.stamps[-1].stamped_at:
            raise ValidationError("STAMP_OUT_OF_ORDER",
                                  f"{stamp.stamped_at} is before an existing stamp")
    return _with_page(passport, PassportPage(page_no, page.visa_id,
                                             page.stamps + (stamp,)))


def _with_page(passport: Passport, page: PassportPage) -> Passport:
    """The passport with ``page`` in place of the page of the same number."""
    pages = passport.pages
    i = page.page_no - 1
    return Passport(passport.passport_no, passport.holder_name,
                    passport.nationality, passport.issuing_authority,
                    passport.issue_date, passport.expiry_date,
                    pages[:i] + (page,) + pages[i + 1:],
                    passport.bound_device, passport.status)


def summarize(passport: Passport) -> PassportSummary:
    return PassportSummary(passport.passport_no, passport.holder_name,
                           passport.nationality, passport.issuing_authority,
                           passport.issue_date, passport.expiry_date,
                           passport.status)


# ---------------------------------------------------------------------------
# Canonical encoding
#
# Layout per record: one tag byte, a 4-byte big-endian body length, then the
# fields in declaration order. Primitives: i64 = 8-byte big-endian two's
# complement; str/bytes = 4-byte big-endian length + payload (str is UTF-8);
# bool = 1 byte; enums = their member name as str; optional = presence byte
# then the value; lists = 4-byte count + elements; maps = 4-byte count +
# key-sorted (key, value) pairs. See docs/encoding.md.
#
# The writer checks no record: a frozen record checked itself when it was
# built, and a DeviceState, the one mutable record, checks itself in
# _device_w. The reader builds records through the same constructors.


_I64 = struct.Struct(">q")


class _Writer:
    __slots__ = ("buf",)

    def __init__(self):
        self.buf = bytearray()

    def u8(self, v: int) -> None:
        self.buf.append(v)

    def u32(self, v: int) -> None:
        self.buf += v.to_bytes(4, "big")

    def i64(self, v: int) -> None:
        try:
            self.buf += _I64.pack(v)
        except struct.error:
            raise ValidationError("I64_OUT_OF_RANGE", repr(v)) from None

    def boolean(self, v: bool) -> None:
        self.buf.append(1 if v else 0)

    def raw(self, v: bytes) -> None:
        buf = self.buf
        buf += len(v).to_bytes(4, "big")
        buf += v

    def text(self, v: str) -> None:
        data = v.encode("utf-8")
        buf = self.buf
        buf += len(data).to_bytes(4, "big")
        buf += data

    def enum(self, v: Enum) -> None:
        self.text(v.name)

    def opt(self, v, write: Callable) -> None:
        if v is None:
            self.u8(0)
        else:
            self.u8(1)
            write(v)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        pos = self.pos
        end = pos + n
        if end > len(self.data):
            raise _truncated(n, pos)
        self.pos = end
        return self.data[pos:end]

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        pos = self.pos
        end = pos + 4
        if end > len(self.data):
            raise _truncated(4, pos)
        self.pos = end
        return int.from_bytes(self.data[pos:end], "big")

    def i64(self) -> int:
        pos = self.pos
        end = pos + 8
        if end > len(self.data):
            raise _truncated(8, pos)
        self.pos = end
        return _I64.unpack_from(self.data, pos)[0]

    def boolean(self) -> bool:
        v = self.u8()
        if v not in (0, 1):
            raise ValidationError("BAD_BOOL_BYTE", str(v))
        return v == 1

    def raw(self) -> bytes:
        return bytes(self.take(self.u32()))

    def text(self) -> str:
        data = self.data
        pos = self.pos + 4
        if pos > len(data):
            raise _truncated(4, self.pos)
        end = pos + int.from_bytes(data[pos - 4:pos], "big")
        if end > len(data):
            raise _truncated(end - pos, pos)
        self.pos = end
        try:
            return str(data[pos:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError("BAD_UTF8", exc.reason) from None

    def enum(self, cls):
        name = self.text()
        try:
            return cls[name]
        except KeyError:
            raise ValidationError("BAD_ENUM_NAME", f"{cls.__name__}.{name}") from None

    def opt(self, read: Callable):
        flag = self.u8()
        if flag == 0:
            return None
        if flag != 1:
            raise ValidationError("BAD_OPTION_BYTE", str(flag))
        return read()


def _truncated(n: int, pos: int) -> ValidationError:
    return ValidationError("TRUNCATED_ENCODING", f"need {n} bytes at offset {pos}")


_CODEC_BY_TYPE: dict[type, tuple[int, Callable, Callable]] = {}
_CODEC_BY_TAG: dict[int, tuple[type, Callable, Callable]] = {}


def register_codec(cls: type, tag: int, write_body: Callable, read_body: Callable) -> None:
    """Hook a record type into the canonical encoder; tags must be unique."""
    if tag in _CODEC_BY_TAG or cls in _CODEC_BY_TYPE:
        raise ValueError(f"codec already registered: {cls.__name__} / {tag:#x}")
    _CODEC_BY_TYPE[cls] = (tag, write_body, read_body)
    _CODEC_BY_TAG[tag] = (cls, write_body, read_body)


def _write_record(w: _Writer, record) -> None:
    """Append the record's envelope to ``w``: the body goes straight into
    the buffer behind a zero length, which is filled in afterwards."""
    try:
        tag, write_body, _ = _CODEC_BY_TYPE[type(record)]
    except KeyError:
        raise ValidationError("NO_CODEC", type(record).__name__) from None
    buf = w.buf
    buf.append(tag)
    start = len(buf) + 4
    buf += b"\0\0\0\0"
    write_body(w, record)
    buf[start - 4:start] = (len(buf) - start).to_bytes(4, "big")


def _read_record(r: _Reader, expected: type | None = None):
    tag = r.u8()
    try:
        cls, _, read_body = _CODEC_BY_TAG[tag]
    except KeyError:
        raise ValidationError("UNKNOWN_TAG", f"{tag:#x}") from None
    if expected is not None and cls is not expected:
        raise ValidationError("WRONG_RECORD_TYPE",
                              f"expected {expected.__name__}, got {cls.__name__}")
    length = r.u32()
    start = r.pos
    record = read_body(r)
    if r.pos - start != length:
        raise ValidationError("BAD_BODY_LENGTH",
                              f"declared {length}, consumed {r.pos - start}")
    return record


def canonical_serialize(record) -> bytes:
    """Encode one record to its canonical bytes (injective, deterministic)."""
    w = _Writer()
    _write_record(w, record)
    return bytes(w.buf)


def canonical_deserialize(data: bytes):
    """Inverse of canonical_serialize; rejects trailing or truncated bytes."""
    r = _Reader(data)
    record = _read_record(r)
    if r.pos != len(data):
        raise ValidationError("TRAILING_BYTES", f"{len(data) - r.pos} bytes left")
    return record


# -- record bodies ------------------------------------------------------------


_PRIMITIVES = {str: "text", int: "i64", bytes: "raw", bool: "boolean"}


def _field_codec(hint) -> tuple[Callable, Callable]:
    """(write, read) for one field type; TypeError if it has no encoding."""
    if hint in _PRIMITIVES:
        name = _PRIMITIVES[hint]
        return getattr(_Writer, name), getattr(_Reader, name)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return _Writer.enum, partial(_Reader.enum, cls=hint)
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return _write_record, partial(_read_record, expected=hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and args[1:] == (type(None),):
        write, read = _field_codec(args[0])
        return (lambda w, v: w.opt(v, partial(write, w)),
                lambda r: r.opt(partial(read, r)))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        write, read = _field_codec(args[0])

        def write_list(w: _Writer, values: tuple) -> None:
            w.u32(len(values))
            for v in values:
                write(w, v)
        return write_list, lambda r: tuple([read(r) for _ in range(r.u32())])
    raise TypeError(hint)


def fields_codec(cls: type) -> tuple[Callable, Callable]:
    """Body writer and reader for a dataclass record: its fields in
    declaration order, each encoded by its annotated type. The reader
    builds the record through ``cls``, so decoded input meets the same
    checks as a record built in code. A field type with no encoding is a
    TypeError here, before any record is encoded."""
    hints = typing.get_type_hints(cls)
    writers, readers = [], []
    for field in dataclasses.fields(cls):
        try:
            write, read = _field_codec(hints[field.name])
        except TypeError:
            raise TypeError(f"{cls.__name__}.{field.name}: no canonical "
                            f"encoding for {hints[field.name]!r}") from None
        writers.append((field.name, write))
        readers.append(read)

    def write_body(w: _Writer, record) -> None:
        for name, write in writers:
            write(w, getattr(record, name))
    return write_body, lambda r: cls(*[read(r) for read in readers])


# The one hand-written body: a DeviceState is mutable, holds a map, and
# checks itself each time it is encoded.
def _device_w(w: _Writer, d: DeviceState) -> None:
    d.validate()
    w.text(d.device_id)
    w.i64(d.clock_offset_min)
    w.boolean(d.locked)
    w.opt(d.passport, lambda p: _write_record(w, p))
    w.u32(len(d.visas))
    for key in sorted(d.visas):
        w.text(key)
        _write_record(w, d.visas[key])
    w.u32(len(d.auth_images))
    for img in d.auth_images:
        _write_record(w, img)
    w.opt(d.session, lambda s: _write_record(w, s))


def _device_r(r: _Reader) -> DeviceState:
    device_id = r.text()
    offset = r.i64()
    locked = r.boolean()
    from .authflow import Session
    passport = r.opt(lambda: _read_record(r, Passport))
    visas = {}
    for _ in range(r.u32()):
        key = r.text()
        if visas and key <= key_before:
            raise ValidationError("MAP_KEYS_NOT_SORTED",
                                  f"{key!r} after {key_before!r}")
        visas[key] = _read_record(r, VisaImage)
        key_before = key
    images = tuple(_read_record(r, AuthImage) for _ in range(r.u32()))
    session = r.opt(lambda: _read_record(r, Session))
    device = DeviceState(device_id, offset, images)
    device.locked = locked
    device.passport = passport
    device.visas = visas
    device.session = session
    device.validate()
    return device


register_codec(TrackingId, 0x01, *fields_codec(TrackingId))
register_codec(StampEntry, 0x02, *fields_codec(StampEntry))
register_codec(PassportPage, 0x03, *fields_codec(PassportPage))
register_codec(Passport, 0x04, *fields_codec(Passport))
register_codec(VisaImage, 0x05, *fields_codec(VisaImage))
register_codec(VisaRecord, 0x06, *fields_codec(VisaRecord))
register_codec(AuthImage, 0x07, *fields_codec(AuthImage))
register_codec(DeviceState, 0x08, _device_w, _device_r)
register_codec(PassportSummary, 0x09, *fields_codec(PassportSummary))
register_codec(VisaPresentation, 0x0A, *fields_codec(VisaPresentation))
