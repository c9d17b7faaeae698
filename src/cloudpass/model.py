"""Travel-document values and their canonical byte encoding.

Everything the other layers exchange (passports, pages, visa records,
image blobs, device state) is defined here as a value type with
construction-time validation, plus a deterministic tagged binary
encoding for the records that cross a byte boundary. The exact byte
layout is documented in docs/encoding.md and is covered by round-trip
tests; any change to field order or framing is a wire-format break.

Immutable values are declared with ``record``: a class body of annotated
fields, rebuilt with a slot per field and one generated ``__init__``,
which runs the class's ``validate``: each record owns its checks, and
they run once, when it is built. The records a check tap encodes (a
passport's summary, a visa image and a presentation) and a passport's
own fields refuse any value the writer would refuse, so a presentation
that builds can always be encoded; docs/encoding.md names the fields
that can still reach the writer's refusals. The one mutable record,
``DeviceState``, stays a dataclass and checks itself again each time it
is encoded.

Times and dates are plain integers: seconds since the scenario epoch.
They are rendered as ISO-8601 only when a report is written.

Annotations here are evaluated when each class is built (there is no
``from __future__ import annotations``), so building the codecs at import
reads field types without compiling annotation strings.
"""

import hashlib
import operator
import re
import struct
import types
import typing
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from typing import Callable, Collection

from .errors import ValidationError

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
    "SessionState",
    "CaptchaChallenge",
    "Session",
    "DeviceState",
    "PassportSummary",
    "VisaPresentation",
    "FORMATS",
    "check_format",
    "clock_text",
    "content_hash",
    "draw_below",
    "draw_text",
    "new_tracking_id",
    "new_passport",
    "place_visa",
    "add_stamp",
    "summarize",
    "canonical_serialize",
    "canonical_deserialize",
    "register_codec",
    "record",
    "replace",
]

TRACKING_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
TRACKING_LENGTH = 12
PASSPORT_PAGE_COUNT = 32
AUTH_IMAGE_COUNT = 10


# Tracking ids, captchas, OTPs and picture indices are drawn by these two.
# They step the rejection rule of CPython's ``Random.choice`` and ``randrange``
# on ``getrandbits`` alone: draw ``n.bit_length()`` bits, again while the
# value is not below ``n``. So they give the values ``choice`` and
# ``randrange`` give and leave the generator in the same state, but rest
# only on ``getrandbits``, whose bits the Mersenne Twister fixes for a
# seed, and not on how ``random`` derives a choice from them.


def draw_below(rng, n: int) -> int:
    """A uniform integer in ``[0, n)``, ``n >= 1``, from ``rng.getrandbits``."""
    if n < 1:
        raise ValueError(f"nothing to draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def draw_text(rng, alphabet: str, length: int) -> str:
    """``length`` characters of ``alphabet``, each the one at index
    ``draw_below(rng, len(alphabet))``. The draw is written out in the
    loop: a call a character made a 12-character id ~1.6x slower."""
    n = len(alphabet)
    if n < 1:
        raise ValueError("nothing to draw from an empty alphabet")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    chars = []
    for _ in range(length):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        chars.append(alphabet[r])
    return "".join(chars)


# The identifier formats, each defined here only: name -> (pattern, the
# refusal code, the refusal detail with the value as its one field). The
# records, the grammar, the wire and the stores read them. Used with
# fullmatch: a pattern ending in ``$`` also matches before a final newline.
FORMATS = {
    "tracking": (re.compile(r"[A-Z0-9]{12}"), "BAD_TRACKING_FORMAT",
                 "tracking id must be 12 chars of A-Z0-9, got {!r}"),
    "country": (re.compile(r"[A-Z]{2,3}"), "BAD_COUNTRY_CODE", "{!r}"),
    "airport": (re.compile(r"[A-Z]{3}"), "BAD_AIRPORT_CODE",
                "airport must be 3 uppercase letters, got {!r}"),
    "hex64": (re.compile(r"[0-9a-f]{64}"), "BAD_HASH_FORMAT", "{!r}"),
}


def check_format(name: str, value: str) -> None:
    """Refuse ``value`` unless it has the format ``FORMATS[name]``."""
    pattern, code, detail = FORMATS[name]
    if not pattern.fullmatch(value):
        raise ValidationError(code, detail.format(value))


# Integers as the scenario grammar and the wire write them: no "_"
# separators and no digits outside ASCII, both of which int() accepts.
_INT_RE = re.compile(r"[0-9]+")
_SIGNED_RE = re.compile(r"[+-]?[0-9]+")

# Integers travel as i64 in the canonical encoding; dates must fit one
# when issued, so no later encoding of the document can fail.
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


def _in_i64(literal: str, low: int = I64_MIN, high: int = I64_MAX) -> int | None:
    """The value of ``literal``, which matched ``_INT_RE`` or
    ``_SIGNED_RE``, if it lies in ``[low, high]``, a range inside i64;
    else None. Only the significant digits are converted, at most 19, so
    neither zero padding nor ``int()``'s digit limit decides a result."""
    digits = literal.lstrip("+-").lstrip("0")
    if len(digits) > 19:
        return None
    value = int(digits or "0") * (-1 if literal[0] == "-" else 1)
    return value if low <= value <= high else None


# Largest visa image an embassy issues. Scenarios and the wire protocol
# are bounded by it too, so no input can ask for an unbounded buffer.
MAX_IMAGE_BYTES = 1 << 20

# The media type of every image an embassy issues.
VISA_MEDIA_TYPE = "image/png"


def content_hash(data: bytes) -> str:
    """SHA-256 of ``data`` as 64 lowercase hex characters."""
    return hashlib.sha256(data).hexdigest()


class _Enum(Enum):
    """The base of every enum of cloudpass but an ``IntEnum``. Members are
    singletons compared by identity, so object's hash, which runs in C,
    serves; Enum's runs in Python, and members key the memos and the
    tables read on every step."""

    __hash__ = object.__hash__


class IdKind(_Enum):
    PASSPORT_APPLICATION = "PASSPORT_APPLICATION"
    VISA_APPLICATION = "VISA_APPLICATION"


class PassportStatus(_Enum):
    ACTIVE = "ACTIVE"


class PageContent(_Enum):
    EMPTY = "EMPTY"
    VISA_SLOT = "VISA_SLOT"
    STAMPS = "STAMPS"


class StampKind(_Enum):
    ARRIVAL = "ARRIVAL"
    DEPARTURE = "DEPARTURE"


class VisaStatus(_Enum):
    ISSUED = "ISSUED"
    REVOKED = "REVOKED"


# ---------------------------------------------------------------------------
# Records


class _Record:
    """What every record shares, read through its class's ``_values``: its
    field values, in order, as a tuple."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = zip(self.__match_args__, self._values(self))
        return (f"{type(self).__qualname__}("
                f"{', '.join(f'{name}={value!r}' for name, value in fields)})")

    def __reduce__(self):
        return type(self), self._values(self)


def record(cls: type) -> type:
    """Rebuild ``cls``, a class with no base whose annotations are its
    fields, as an immutable record with a slot per field. Its one
    generated method is ``__init__``, which takes the fields in order
    with their defaults, stores them, calls ``__post_init__`` if the
    class has one and then ``self.validate()`` if the class defines
    ``validate``. It stores through each slot's ``__set__``, so
    ``__post_init__`` only normalises, with ``object.__setattr__``, and
    ``validate`` holds every check. Records compare equal only to
    records of their own class, hash and print as a frozen dataclass
    does, refuse assignment with ``FrozenInstanceError`` and copy and
    pickle through the constructor, so a copy meets every check again."""
    names = tuple(vars(cls).get("__annotations__", {}))
    namespace = {key: value for key, value in vars(cls).items()
                 if key not in ("__dict__", "__weakref__", *names)}
    get = operator.attrgetter(*names)
    namespace.update(
        __slots__=names, __match_args__=names, __qualname__=cls.__qualname__,
        _values=get if len(names) > 1 else staticmethod(lambda x: (get(x),)))
    new = type(cls.__name__, (_Record,), namespace)
    defaults = {f"_d_{name}": vars(cls)[name] for name in names if name in vars(cls)}
    params = [f"{name}=_d_{name}" if f"_d_{name}" in defaults else name
              for name in names]
    env = {f"_set_{name}": vars(new)[name].__set__ for name in names} | defaults
    body = [f"_set_{name}(self, {name})" for name in names]
    if hasattr(new, "__post_init__"):
        env["_post_init"] = new.__post_init__
        body.append("_post_init(self)")
    if hasattr(new, "validate"):
        # Looked up on each call, so a method patched onto the class runs.
        body.append("self.validate()")
    code = f"def __init__(self, {', '.join(params)}): {'; '.join(body)}"
    exec(compile(code, f"<{cls.__name__} record>", "exec"), env)
    env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    new.__init__ = env["__init__"]
    return new


def replace(obj: _Record, **changes) -> _Record:
    """``obj`` with ``changes`` to its fields, built through its
    constructor, so every check runs again."""
    return type(obj)(**dict(zip(obj.__match_args__, obj._values(obj)), **changes))


# Each check below formats its refusal text only when it fails.


@record
class TrackingId:
    """Application reference shown to the applicant while they wait."""

    value: str
    kind: IdKind

    def validate(self) -> None:
        check_format("tracking", self.value)
        if not isinstance(self.kind, IdKind):
            raise ValidationError("BAD_TRACKING_KIND", repr(self.kind))


@record
class StampEntry:
    """An entry or exit stamp: which way, at which airport, and when."""

    kind: StampKind
    airport: str
    stamped_at: int

    def validate(self) -> None:
        if not isinstance(self.kind, StampKind):
            raise ValidationError("BAD_STAMP_KIND", repr(self.kind))
        check_format("airport", self.airport)
        if not self.stamped_at >= 0:
            raise ValidationError("NEGATIVE_TIMESTAMP", str(self.stamped_at))


@record
class PassportPage:
    """One page. A page holding a visa slot also carries that visa's stamps."""

    page_no: int
    visa_id: str | None = None
    stamps: tuple[StampEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "stamps", tuple(self.stamps))

    @property
    def content(self) -> PageContent:
        if self.visa_id is not None:
            return PageContent.VISA_SLOT
        if self.stamps:
            return PageContent.STAMPS
        return PageContent.EMPTY

    def validate(self) -> None:
        if not self.page_no >= 1:
            raise ValidationError("BAD_PAGE_NUMBER", str(self.page_no))
        if self.visa_id == "":
            raise ValidationError("EMPTY_VISA_ID")
        times = [s.stamped_at for s in self.stamps]
        if times != sorted(times):
            raise ValidationError("STAMP_OUT_OF_ORDER",
                                  f"page {self.page_no} stamps must be non-decreasing")


def _check_passport_fields(record: "Passport | PassportSummary") -> None:
    """The rules on the fields a passport shares with its summary, one rule
    per field, so a summary from a device meets its passport's rules. The
    dates are ints that fit i64 and the two texts hold UTF-8, so the
    codec can write every record that passes."""
    if not record.passport_no:
        raise ValidationError("EMPTY_PASSPORT_NO")
    if not record.holder_name:
        raise ValidationError("EMPTY_HOLDER_NAME")
    check_format("country", record.nationality)
    check_format("country", record.issuing_authority)
    issue, expiry = record.issue_date, record.expiry_date
    if not expiry > issue:
        raise ValidationError("EXPIRY_NOT_AFTER_ISSUE", f"issue {issue} expiry {expiry}")
    if not (type(issue) is int and type(expiry) is int
            and issue >= I64_MIN and expiry <= I64_MAX):
        raise ValidationError("DATE_OUT_OF_RANGE",
                              f"issue {issue} expiry {expiry} must fit i64")
    if not isinstance(record.status, PassportStatus):
        raise ValidationError("BAD_STATUS", repr(record.status))
    _check_text(record.passport_no)
    _check_text(record.holder_name)


def _check_pages(pages: tuple) -> None:
    """A passport's pages: numbered from 1 in order, no visa on two."""
    numbers = [p.page_no for p in pages]
    if numbers != list(range(1, len(numbers) + 1)):
        raise ValidationError("PAGES_NOT_CONTIGUOUS", f"page numbers {numbers[:5]}...")
    slots = [p.visa_id for p in pages if p.visa_id is not None]
    if len(slots) != len(set(slots)):
        raise ValidationError("DUPLICATE_VISA_SLOT", repr(slots))


# The pages of every new passport, each and all checked once, here.
_BLANK_PAGES = tuple(PassportPage(n) for n in range(1, PASSPORT_PAGE_COUNT + 1))
_check_pages(_BLANK_PAGES)


@record
class Passport:
    """An issued passport: holder, dates, status and all its pages."""

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

    def validate(self) -> None:
        _check_passport_fields(self)
        if self.pages is not _BLANK_PAGES:     # those were checked at import
            _check_pages(self.pages)
        if self.bound_device == "":
            raise ValidationError("EMPTY_DEVICE_ID")

    def page(self, page_no: int) -> PassportPage:
        if not 1 <= page_no <= len(self.pages):
            raise ValidationError("NO_SUCH_PAGE", f"page {page_no} of {len(self.pages)}")
        return self.pages[page_no - 1]

    def all_stamps(self) -> list[StampEntry]:
        return [s for p in self.pages for s in p.stamps]


@record
class VisaImage:
    """Opaque image blob; the hash is always recomputable from the bytes."""

    data: bytes
    media_type: str
    content_hash: str

    def __post_init__(self):
        # Another buffer is copied into bytes; through memoryview, so an
        # int is refused, not taken as a count of zero bytes.
        if type(self.data) is not bytes:
            object.__setattr__(self, "data", bytes(memoryview(self.data)))

    @classmethod
    def of(cls, data: bytes, media_type: str = VISA_MEDIA_TYPE) -> "VisaImage":
        return cls(data, media_type, content_hash(data))

    def validate(self) -> None:
        if not self.media_type:
            raise ValidationError("EMPTY_MEDIA_TYPE")
        check_format("hex64", self.content_hash)
        if self.content_hash != content_hash(self.data):
            raise ValidationError("HASH_MISMATCH", "stored hash does not match image bytes")
        _check_text(self.media_type)


@record
class VisaRecord:
    """One issued visa, tied to a passport and to its image by hash."""

    visa_id: str
    passport_no: str
    issuing_country: str
    destination_country: str
    valid_from: int
    valid_to: int
    image_hash: str
    status: VisaStatus

    def validate(self) -> None:
        if not self.visa_id:
            raise ValidationError("EMPTY_VISA_ID")
        if not self.passport_no:
            raise ValidationError("EMPTY_PASSPORT_NO")
        check_format("country", self.issuing_country)
        check_format("country", self.destination_country)
        if not self.valid_to > self.valid_from:
            raise ValidationError("VISA_WINDOW_EMPTY",
                                  f"from {self.valid_from} to {self.valid_to}")
        if not (self.valid_from >= I64_MIN and self.valid_to <= I64_MAX):
            raise ValidationError(
                "DATE_OUT_OF_RANGE",
                f"from {self.valid_from} to {self.valid_to} must fit i64")
        check_format("hex64", self.image_hash)
        if not isinstance(self.status, VisaStatus):
            raise ValidationError("BAD_STATUS", repr(self.status))
        _check_text(self.passport_no)


@record
class AuthImage:
    """One of the ten enrolled challenge pictures. Fixed for the device's life."""

    index: int
    image_hash: str
    answer_hash: str

    def validate(self) -> None:
        if not 0 <= self.index < AUTH_IMAGE_COUNT:
            raise ValidationError("BAD_IMAGE_INDEX", str(self.index))
        check_format("hex64", self.image_hash)
        check_format("hex64", self.answer_hash)
        # Inside its range, so only a float or a bool is left to refuse.
        if self.index.__class__ is not int:
            _check_i64(self.index)


class SessionState(_Enum):
    TIME_AUTH_PENDING = "TIME_AUTH_PENDING"
    CREDENTIALS_PENDING = "CREDENTIALS_PENDING"
    PASSPORT_VISIBLE = "PASSPORT_VISIBLE"
    IMAGE_AUTH_PENDING = "IMAGE_AUTH_PENDING"
    VISA_VISIBLE = "VISA_VISIBLE"
    EXPIRED = "EXPIRED"
    TERMINATED = "TERMINATED"


# Every Session built and every auth step reads the states, and a module
# global is cheaper to read than an enum member. They are bound here only;
# authflow and immigration import them, which binds a global there too.
_TIME_AUTH_PENDING = SessionState.TIME_AUTH_PENDING
_CREDENTIALS_PENDING = SessionState.CREDENTIALS_PENDING
_PASSPORT_VISIBLE = SessionState.PASSPORT_VISIBLE
_IMAGE_AUTH_PENDING = SessionState.IMAGE_AUTH_PENDING
_VISA_VISIBLE = SessionState.VISA_VISIBLE
_EXPIRED = SessionState.EXPIRED
_TERMINATED = SessionState.TERMINATED


@record
class CaptchaChallenge:
    """The captcha a new session shows for level 1."""

    challenge_id: str
    text: str
    issued_at: int

    def validate(self) -> None:
        if not self.challenge_id:
            raise ValidationError("EMPTY_CHALLENGE_ID")
        if not self.text:
            raise ValidationError("EMPTY_CAPTCHA_TEXT")
        if not self.issued_at >= 0:
            raise ValidationError("NEGATIVE_TIMESTAMP", str(self.issued_at))
        _check_text(self.challenge_id)
        _check_text(self.text)
        _check_i64(self.issued_at)


@record
class Session:
    """One sign-in on a device; ``authflow`` drives it through its states.
    It holds a captcha only while it awaits the time check, and a picture
    index, one of the enrolled pictures, only while it awaits that answer."""

    session_id: str
    state: SessionState
    activated_at: int
    pending_captcha: CaptchaChallenge | None = None
    pending_image_index: int | None = None

    def validate(self) -> None:
        state, index = self.state, self.pending_image_index
        if state.__class__ is not SessionState:
            raise ValidationError("BAD_SESSION_STATE", repr(state))
        if (self.pending_captcha is None) is (state is _TIME_AUTH_PENDING):
            raise ValidationError(
                "PENDING_CAPTCHA_MISMATCH", f"{state.value} "
                f"{'with' if self.pending_captcha else 'without'} a captcha")
        if (index is None) is (state is _IMAGE_AUTH_PENDING):
            raise ValidationError(
                "PENDING_IMAGE_MISMATCH", f"{state.value} "
                f"{'without' if index is None else 'with'} a picture index")
        if index is not None:
            if not 0 <= index < AUTH_IMAGE_COUNT:
                raise ValidationError("BAD_IMAGE_INDEX", str(index))
            if index.__class__ is not int:
                _check_i64(index)
        _check_text(self.session_id)
        _check_i64(self.activated_at)


@dataclass(eq=False, repr=False, slots=True)
class DeviceState:
    """A traveler's phone: the installed passport, downloaded visas, and
    the active session. Owned and mutated by exactly one caller at a time;
    everything it holds is an immutable value that can be shared freely.
    Fields are in encoding order; built positionally as
    ``DeviceState(device_id, clock_offset_min, auth_images)``.

    A locked device refuses every operation except reading its fields.
    Because it is mutable, it checks itself when built and again each
    time it is encoded. Equality is identity, and its repr names no field:
    a device can hold a megabyte of visa image.
    """

    device_id: str
    clock_offset_min: int = 0
    locked: bool = field(default=False, kw_only=True)
    passport: Passport | None = field(default=None, kw_only=True)
    visas: dict[str, VisaImage] = field(default_factory=dict, kw_only=True)
    auth_images: tuple[AuthImage, ...] = ()
    session: Session | None = field(default=None, kw_only=True)

    def __post_init__(self):
        self.auth_images = tuple(self.auth_images)
        self.validate()

    def validate(self) -> None:
        if not self.device_id:
            raise ValidationError("EMPTY_DEVICE_ID")
        if not -1440 <= self.clock_offset_min <= 1440:
            raise ValidationError("BAD_CLOCK_OFFSET", str(self.clock_offset_min))
        if len(self.auth_images) != AUTH_IMAGE_COUNT:
            raise ValidationError(
                "BAD_AUTH_IMAGE_SET",
                f"need exactly {AUTH_IMAGE_COUNT} images, got {len(self.auth_images)}")
        indices = [img.index for img in self.auth_images]
        if indices != list(range(AUTH_IMAGE_COUNT)):
            raise ValidationError(
                "BAD_AUTH_IMAGE_SET",
                f"indices must be 0..{AUTH_IMAGE_COUNT - 1} in order, got {indices}")
        if self.passport is not None:
            for page in self.passport.pages:
                if page.visa_id is not None and page.visa_id not in self.visas:
                    raise ValidationError(
                        "VISA_NOT_DOWNLOADED",
                        f"page {page.page_no} references {page.visa_id!r}")

    def displayed_minutes(self, now: int) -> int:
        """Minutes past midnight shown on the device at scenario time ``now``."""
        return (now // 60 + self.clock_offset_min) % 1440

    def displayed_time(self, now: int) -> str:
        return clock_text(self.displayed_minutes(now))


# "00" to "59": the two digits of an hour, a minute or a second. HH:MM
# written from this table takes ~80 ns, against ~500 ns with two ``02d``
# format specs (timeit, Python 3.11).
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))


def clock_text(minutes: int) -> str:
    """Minutes past midnight as a 24h clock shows them, ``HH:MM``."""
    return f"{_TWO_DIGITS[minutes // 60]}:{_TWO_DIGITS[minutes % 60]}"


@record
class PassportSummary:
    """What the desk reader sees during a check; no page detail."""

    passport_no: str
    holder_name: str
    nationality: str
    issuing_authority: str
    issue_date: int
    expiry_date: int
    status: PassportStatus

    def validate(self) -> None:
        _check_passport_fields(self)


@record
class VisaPresentation:
    """Body of a check response: summary, chosen visa, and its image.
    The summary and the image checked themselves when they were built."""

    passport: PassportSummary
    visa_id: str
    image: VisaImage

    def validate(self) -> None:
        if not self.visa_id:
            raise ValidationError("EMPTY_VISA_ID")
        _check_text(self.visa_id)


# ---------------------------------------------------------------------------
# Operations


def new_tracking_id(kind: IdKind, rng, issued: Collection[str] = frozenset()) -> TrackingId:
    """Draw a fresh 12-char tracking id, retrying internally on collision."""
    while True:
        value = draw_text(rng, TRACKING_ALPHABET, TRACKING_LENGTH)
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
# then the value, never a list or a map; lists = 4-byte count + records;
# maps = 4-byte count + key-sorted (key, record) pairs. See docs/encoding.md.
#
# Every body is derived from its class declaration: fields_codec compiles
# one writer and one reader per record when the record is registered. A
# ``record`` checked itself when it was built, so the writer checks it no
# more; the mutable DeviceState checks itself each time it is encoded. The
# reader builds records through the same constructors. A str field is
# written by ``_text_field``; the records run that same rule on the text
# they carry to a check tap, a link or a device, through ``_check_text``,
# and the i64 rule on their timestamps and indices through ``_check_i64``,
# so they refuse a value when built rather than when written.


_I64 = struct.Struct(">q")


def _text_field(v: str) -> bytes:
    """One str field as every body writes it: a u32 length, then UTF-8.
    A str that UTF-8 cannot hold (a lone surrogate) is BAD_UTF8."""
    try:
        data = v.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError("BAD_UTF8", exc.reason) from None
    return len(data).to_bytes(4, "big") + data


def _check_text(v: str) -> None:
    """Refuse ``v`` as ``_text_field`` would. UTF-8 holds every ASCII
    str, so only other text is encoded, and the field is never kept."""
    if not v.isascii():
        _text_field(v)


def _check_i64(v: int) -> None:
    """Refuse ``v`` unless it is an exact ``int`` inside i64, with the
    writer's ``I64_OUT_OF_RANGE``; a float or a bool is refused too, as
    for passport dates."""
    if v.__class__ is not int or not I64_MIN <= v <= I64_MAX:
        raise ValidationError("I64_OUT_OF_RANGE", repr(v))


class _Writer:
    __slots__ = ("buf",)

    def __init__(self):
        self.buf = bytearray()

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
        self.buf += _text_field(v)

    def enum(self, v: Enum) -> None:
        self.text(v.name)

    # An optional takes the writer of its value, called ``write(w, v)``;
    # a list or a map holds records.

    def opt(self, v, write: Callable) -> None:
        if v is None:
            self.buf.append(0)
        else:
            self.buf.append(1)
            write(self, v)

    def seq(self, values: tuple) -> None:
        self.u32(len(values))
        for v in values:
            _write_record(self, v)

    def map(self, items: dict) -> None:
        self.u32(len(items))
        for key in sorted(items):
            self.text(key)
            _write_record(self, items[key])


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
        pos = self.pos
        if pos >= len(self.data):
            raise _truncated(1, pos)
        self.pos = pos + 1
        return self.data[pos]

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

    def present(self) -> bool:
        """An optional's presence byte: whether its value follows."""
        flag = self.u8()
        if flag > 1:
            raise ValidationError("BAD_OPTION_BYTE", str(flag))
        return flag == 1

    # A list or a map holds records of the type ``cls``.

    def seq(self, cls: type) -> tuple:
        items = []
        for _ in range(self.u32()):
            items.append(_read_record(self, cls))
        return tuple(items)

    def map(self, cls: type) -> dict:
        items = {}
        for _ in range(self.u32()):
            key = self.text()
            if items and key <= key_before:
                raise ValidationError("MAP_KEYS_NOT_SORTED",
                                      f"{key!r} after {key_before!r}")
            items[key] = _read_record(self, cls)
            key_before = key
        return items


def _truncated(n: int, pos: int) -> ValidationError:
    return ValidationError("TRUNCATED_ENCODING", f"need {n} bytes at offset {pos}")


_CODEC_BY_TYPE: dict[type, tuple[int, Callable, Callable]] = {}
_CODEC_BY_TAG: dict[int, tuple[type, Callable, Callable]] = {}


def register_codec(cls: type, tag: int) -> None:
    """Build a record type's codec and hook it into the canonical encoder
    under ``tag``; tags and types must be unique."""
    if tag in _CODEC_BY_TAG or cls in _CODEC_BY_TYPE:
        raise ValueError(f"codec already registered: {cls.__name__} / {tag:#x}")
    write_body, read_body = fields_codec(cls)
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


def canonical_deserialize(data: bytes, expected: type | None = None):
    """Inverse of canonical_serialize; rejects trailing or truncated bytes,
    and a record of any type but ``expected`` when one is named."""
    r = _Reader(data)
    record = _read_record(r, expected)
    if r.pos != len(data):
        raise ValidationError("TRAILING_BYTES", f"{len(data) - r.pos} bytes left")
    return record


# -- record bodies ------------------------------------------------------------


_PRIMITIVES = {str: "text", int: "i64", bytes: "raw", bool: "boolean"}


def _is_record(hint) -> bool:
    return isinstance(hint, type) and hasattr(hint, "__match_args__")


def _kind(hint) -> tuple[str, object]:
    """How a field type is encoded: a primitive's method name, ``enum`` or
    ``record`` with the type itself, ``opt`` with the type it holds, or
    ``seq`` or ``map`` with the record type they hold. TypeError if the
    type has no encoding: a list or a map holds records only, and an
    optional holds no container."""
    if hint in _PRIMITIVES:
        return _PRIMITIVES[hint], hint
    if isinstance(hint, type) and issubclass(hint, Enum):
        return "enum", hint
    if _is_record(hint):
        return "record", hint
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if (origin in (typing.Union, types.UnionType) and args[1:] == (type(None),)
            and _kind(args[0])[0] not in ("seq", "map")):
        return "opt", args[0]
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis and _is_record(args[0]):
        return "seq", args[0]
    if origin is dict and len(args) == 2 and args[0] is str and _is_record(args[1]):
        return "map", args[1]
    raise TypeError(hint)


class _Source:
    """The names one record's codec source uses, bound to their objects."""

    def __init__(self):
        self.env: dict[str, object] = {}

    def name(self, obj) -> str:
        for name, value in self.env.items():
            if value is obj:
                return name
        name = f"_{len(self.env)}"
        self.env[name] = obj
        return name

    def write(self, hint) -> str:
        """A call writing one value to ``w``, with ``{}`` in its place."""
        kind, element = _kind(hint)
        if kind == "opt":
            return f"{self.name(_Writer.opt)}(w, {{}}, {self.writer(element)})"
        return f"{self.writer(hint)}(w, {{}})"

    def writer(self, hint) -> str:
        """The name of a function writing one value, not an optional, as
        ``write(w, v)``."""
        kind, _ = _kind(hint)
        return self.name(_write_record if kind == "record" else getattr(_Writer, kind))

    def read(self, hint) -> str:
        """An expression reading one value from ``r``."""
        kind, element = _kind(hint)
        if kind == "opt":
            return f"({self.read(element)} if {self.name(_Reader.present)}(r) else None)"
        read = self.name(_read_record if kind == "record" else getattr(_Reader, kind))
        if hint in _PRIMITIVES:
            return f"{read}(r)"
        return f"{read}(r, {self.name(element)})"


def fields_codec(cls: type) -> tuple[Callable, Callable]:
    """Body writer and reader for a record, compiled once: the writer
    makes one call per field, in declaration order, each encoded by its
    annotated type, and the reader is one call of ``cls`` on the fields
    as read, so decoded input meets the same checks as a record built in
    code. A class not built by ``record`` (the mutable ``DeviceState``)
    checks itself before it is written. A field type with no encoding is
    a TypeError here, before any record is encoded."""
    source = _Source()
    writes = [] if issubclass(cls, _Record) else ["x.validate()"]
    reads, keyword = [], False
    for name, hint in typing.get_type_hints(cls).items():
        try:
            write, read = source.write(hint), source.read(hint)
        except TypeError:
            raise TypeError(f"{cls.__name__}.{name}: no canonical "
                            f"encoding for {hint!r}") from None
        writes.append(write.format(f"x.{name}"))
        # Arguments are read in field order; from the first field outside
        # ``__match_args__`` (a keyword-only one) on, they are passed by name.
        keyword = keyword or name not in cls.__match_args__
        reads.append(f"{name}={read}" if keyword else read)
    code = (f"def write_body(w, x): {'; '.join(writes) or 'pass'}\n"
            f"def read_body(r): return {source.name(cls)}({', '.join(reads)})")
    exec(compile(code, f"<{cls.__name__} codec>", "exec"), source.env)
    return source.env["write_body"], source.env["read_body"]


register_codec(StampEntry, 0x02)
register_codec(PassportPage, 0x03)
register_codec(Passport, 0x04)
register_codec(VisaImage, 0x05)
register_codec(AuthImage, 0x07)
register_codec(DeviceState, 0x08)
register_codec(PassportSummary, 0x09)
register_codec(VisaPresentation, 0x0A)
register_codec(CaptchaChallenge, 0x21)
register_codec(Session, 0x22)
