"""QR payload segmentation and signed download tokens.

A payload is split into segments, each in one of four modes (numeric,
alphanumeric, byte, kanji), and mixing modes within one code is allowed.
``encode_payload`` picks the segmentation with the fewest total bits in
O(n) time: a shortest-path pass over an automaton whose eight states are
the open segment's mode and length phase (numeric length mod 3,
alphanumeric mod 2, byte, kanji half or whole pair), with one backpointer
per state to rebuild the segments. The per-segment bit costs use the
version 1-9 count-indicator widths. The method follows Nayuki, "Optimal
text segmentation for QR Codes"; the mode costs are those of ISO/IEC
18004 section 7.4.

Link tokens are hex, mostly long digit runs, so the pass skips ahead
inside a digit run: once the costs relative to the cheapest closable
state repeat after six digits, each later group of six repeats those six
choices and adds the same bits to every cost. That is exact, because
every digit applies the same min-plus step and only differences between
costs decide a step; see ``encode_payload``.

Download links are MAC-style tokens: the authority signs the token's
canonical bytes with its secret, and resolution checks the signature
before looking the resource up. Payloads are signed but readable; there
is no encryption at this layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import hashlib
import re

from .errors import QrError, ValidationError
from .model import (_Writer, canonical_deserialize, canonical_serialize,
                    fields_codec, register_codec)

__all__ = [
    "QrMode",
    "QrSegment",
    "QrPayload",
    "ResourceKind",
    "LinkToken",
    "classify_mode",
    "segment_cost",
    "encode_payload",
    "decode_payload",
    "mint_link_token",
    "resolve_link_token",
    "token_wire",
    "token_from_wire",
    "token_to_payload",
    "token_from_payload",
]

MODE_INDICATOR_BITS = 4

ALNUM_BYTES = frozenset(b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ $%*+-./:")
_ALNUM_DELETE = bytes(sorted(ALNUM_BYTES))   # for bytes.translate
_DIGIT_RUN = re.compile(rb"[0-9]*")

# Valid double-byte values, big-endian, for kanji segments.
_KANJI_RANGES = ((0x8140, 0x9FFC), (0xE040, 0xEBBF))


class QrMode(Enum):
    NUMERIC = "NUM"
    ALPHANUMERIC = "ALNUM"
    BYTE = "BYTE"
    KANJI = "KANJI"


# Count-indicator widths for symbol versions 1 through 9.
COUNT_INDICATOR_BITS = {
    QrMode.NUMERIC: 10,
    QrMode.ALPHANUMERIC: 9,
    QrMode.BYTE: 8,
    QrMode.KANJI: 8,
}

def _is_numeric(data: bytes) -> bool:
    return not data or data.isdigit()


def _is_alnum(data: bytes) -> bool:
    return not data.translate(None, _ALNUM_DELETE)


def _pair_ok(hi: int, lo: int) -> bool:
    value = hi << 8 | lo
    return any(low <= value <= high for low, high in _KANJI_RANGES)


def _is_kanji(data: bytes) -> bool:
    if not data or len(data) % 2:
        return False
    return all(_pair_ok(data[i], data[i + 1]) for i in range(0, len(data), 2))


def _char_count(mode: QrMode, data: bytes) -> int:
    return len(data) // 2 if mode is QrMode.KANJI else len(data)


def _data_bits(mode: QrMode, chars: int) -> int:
    if mode is QrMode.NUMERIC:
        return 10 * (chars // 3) + (0, 4, 7)[chars % 3]
    if mode is QrMode.ALPHANUMERIC:
        return 11 * (chars // 2) + 6 * (chars % 2)
    if mode is QrMode.BYTE:
        return 8 * chars
    return 13 * chars


def _as_bytes(data) -> bytes:
    if isinstance(data, str):
        return data.encode("utf-8")
    return bytes(data)


# What each mode admits; a segment checks its payload when it is built.
_SEGMENT_CHECKS = {
    QrMode.NUMERIC: _is_numeric,
    QrMode.ALPHANUMERIC: _is_alnum,
    QrMode.BYTE: lambda _: True,
    QrMode.KANJI: _is_kanji,
}


@dataclass(frozen=True)
class QrSegment:
    """A run of bytes encoded in one QR mode."""

    mode: QrMode
    payload: bytes

    def __post_init__(self):
        object.__setattr__(self, "payload", bytes(self.payload))
        if not self.payload:
            raise QrError("EMPTY_INPUT", "segment payload is empty")
        if not _SEGMENT_CHECKS[self.mode](self.payload):
            raise QrError("BAD_SEGMENT_CHAR",
                          f"payload not valid for {self.mode.name}")

    @property
    def char_count(self) -> int:
        return _char_count(self.mode, self.payload)


@dataclass(frozen=True)
class QrPayload:
    """The segments of one QR code and the bits they cost in all."""

    segments: tuple[QrSegment, ...]
    total_bits: int

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise QrError("EMPTY_INPUT", "payload has no segments")
        expected = sum(segment_cost(s) for s in self.segments)
        if self.total_bits != expected:
            raise QrError("BAD_BIT_TOTAL", f"{self.total_bits} != {expected}")


def classify_mode(data) -> QrMode:
    """Tightest single mode that admits every character of ``data``."""
    raw = _as_bytes(data)
    if not raw:
        raise QrError("EMPTY_INPUT")
    if _is_numeric(raw):
        return QrMode.NUMERIC
    if _is_alnum(raw):
        return QrMode.ALPHANUMERIC
    if _is_kanji(raw):
        return QrMode.KANJI
    return QrMode.BYTE


def segment_cost(segment: QrSegment) -> int:
    """Header (mode + count indicator) plus data bits for one segment."""
    return (MODE_INDICATOR_BITS + COUNT_INDICATOR_BITS[segment.mode]
            + _data_bits(segment.mode, segment.char_count))


# Automaton states: the mode of the open segment and its length phase.
# NUMERIC length mod 3, ALPHANUMERIC length mod 2, BYTE, and KANJI after a
# whole pair or halfway through one; a segment may close in any state but
# the half pair.
_NUM0, _NUM1, _NUM2, _ALN0, _ALN1, _BYTE, _KANJI, _KANJI_HALF = range(8)
_STATE_MODE = ((QrMode.NUMERIC,) * 3 + (QrMode.ALPHANUMERIC,) * 2
               + (QrMode.BYTE, QrMode.KANJI, QrMode.KANJI))
# The state one byte earlier when the segment did not open on this byte.
_PREVIOUS = (_NUM2, _NUM0, _NUM1, _ALN1, _ALN0, _BYTE, _KANJI_HALF, _KANJI)
# Bits to open a segment: mode indicator, count indicator, first character.
# Each later character adds what ``_data_bits`` grows by: a digit 4, 3, 3
# within its group of three, an alphanumeric 6 then 5, a byte 8, and a
# kanji pair 13, charged on its first byte.
_OPEN_NUM = MODE_INDICATOR_BITS + COUNT_INDICATOR_BITS[QrMode.NUMERIC] + 4
_OPEN_ALN = MODE_INDICATOR_BITS + COUNT_INDICATOR_BITS[QrMode.ALPHANUMERIC] + 6
_OPEN_BYTE = MODE_INDICATOR_BITS + COUNT_INDICATOR_BITS[QrMode.BYTE] + 8
_OPEN_KANJI = MODE_INDICATOR_BITS + COUNT_INDICATOR_BITS[QrMode.KANJI] + 13
# Larger than any reachable cost, also after the few characters an
# unreachable state is charged before it is reset or replaced.
_UNREACHABLE = 1 << 62


def encode_payload(data) -> QrPayload:
    """Minimum-bit segmentation of ``data`` over all split points and modes.

    One shortest-path pass, O(n) for n bytes, over (position, state), where
    a state is the open segment's mode and length phase as listed above. A
    state's cost is the exact bit count of the prefix, with the open
    segment charged for the characters it holds so far. Each byte extends
    the open segment or opens a new one after the cheapest closable state;
    one backpointer per state and byte rebuilds the segments from the end.
    On equal cost, extending beats opening and the lower state wins, so the
    result is deterministic.

    Inside a run of digits the pass skips ahead. Each digit maps the
    costs by the same min-plus step, which commutes with adding one
    constant to every cost, and every choice depends only on differences
    between costs. So when the costs relative to ``closed`` equal those
    six digits earlier, each later group of six digits makes the same
    choices as the last six bytes and adds the same growth to every cost.
    Whole groups of the rest of the run are appended at once, the rest
    goes byte by byte. From a run's second digit on, the kanji states
    are exactly ``_UNREACHABLE``, so they are left as they are.

    References: Nayuki, "Optimal text segmentation for QR Codes"
    (https://www.nayuki.io/page/optimal-text-segmentation-for-qr-codes);
    mode and count-indicator costs from ISO/IEC 18004 section 7.4.
    """
    raw = _as_bytes(data)
    n = len(raw)
    if n == 0:
        raise QrError("EMPTY_INPUT")

    num0 = num1 = num2 = aln0 = aln1 = byte = kanji = half = _UNREACHABLE
    closed = 0
    opened = []      # per byte: bit s set if state s opened a segment there
    closed_at = []   # per byte: the closable state that ``closed`` came from
    run = 0          # digits in the run that ends at this byte
    mark = mark_closed = None   # relative costs and ``closed`` 6 digits ago
    i = 0
    while i < n:
        c = raw[i]
        mask = 0
        if 0x30 <= c <= 0x39:
            run += 1
            cost = num0 + 4
            if closed + _OPEN_NUM < cost:
                cost = closed + _OPEN_NUM
                mask = 1 << _NUM1
            num0, num1, num2 = num2 + 3, cost, num1 + 3
        else:
            run = 0
            num0 = num1 = num2 = _UNREACHABLE
        if c in ALNUM_BYTES:
            cost = aln0 + 6
            if closed + _OPEN_ALN < cost:
                cost = closed + _OPEN_ALN
                mask |= 1 << _ALN1
            aln0, aln1 = aln1 + 5, cost
        else:
            aln0 = aln1 = _UNREACHABLE
        byte += 8
        if closed + _OPEN_BYTE < byte:
            byte = closed + _OPEN_BYTE
            mask |= 1 << _BYTE
        if c >= 0x81 and i + 1 < n and _pair_ok(c, raw[i + 1]):
            cost = kanji + 13
            if closed + _OPEN_KANJI < cost:
                cost = closed + _OPEN_KANJI
                mask |= 1 << _KANJI_HALF
            kanji, half = half, cost
        else:
            kanji, half = half, _UNREACHABLE

        closed, state = num0, _NUM0
        if num1 < closed:
            closed, state = num1, _NUM1
        if num2 < closed:
            closed, state = num2, _NUM2
        if aln0 < closed:
            closed, state = aln0, _ALN0
        if aln1 < closed:
            closed, state = aln1, _ALN1
        if byte < closed:
            closed, state = byte, _BYTE
        if kanji < closed:
            closed, state = kanji, _KANJI
        opened.append(mask)
        closed_at.append(state)
        i += 1

        # Every six digits, compare the costs relative to ``closed`` with
        # those six digits earlier; from the twelfth digit on, those were
        # taken inside this run.
        if run and not run % 6:
            costs = (num0 - closed, num1 - closed, num2 - closed,
                     aln0 - closed, aln1 - closed, byte - closed)
            if run >= 12 and costs == mark:
                groups = (_DIGIT_RUN.match(raw, i).end() - i) // 6
                opened += opened[-6:] * groups
                closed_at += closed_at[-6:] * groups
                growth = (closed - mark_closed) * groups
                num0, num1, num2 = num0 + growth, num1 + growth, num2 + growth
                aln0, aln1, byte = aln0 + growth, aln1 + growth, byte + growth
                closed += growth
                i += 6 * groups
                run += 6 * groups
            mark, mark_closed = costs, closed

    segments = []
    end = n
    state = closed_at[-1]
    for i in range(n - 1, -1, -1):
        if opened[i] >> state & 1:
            segments.append(QrSegment(_STATE_MODE[state], raw[i:end]))
            end = i
            state = closed_at[i - 1]
        else:
            state = _PREVIOUS[state]
    segments.reverse()
    return QrPayload(tuple(segments), closed)


def decode_payload(payload: QrPayload) -> bytes:
    """Concatenate the segment payloads back into the original bytes."""
    return b"".join(seg.payload for seg in payload.segments)


# ---------------------------------------------------------------------------
# Signed download tokens


class ResourceKind(Enum):
    PASSPORT_APP = "PASSPORT_APP"
    VISA_IMAGE = "VISA_IMAGE"


@dataclass(frozen=True)
class LinkToken:
    """Pointer to one downloadable resource, signed by its authority."""

    authority_id: str
    resource_kind: ResourceKind
    resource_id: str
    signature: str


def _signing_bytes(authority_id: str, kind: ResourceKind, resource_id: str) -> bytes:
    w = _Writer()
    w.text(authority_id)
    w.enum(kind)
    w.text(resource_id)
    return bytes(w.buf)


def _sign(authority_id: str, kind: ResourceKind, resource_id: str,
          secret: bytes) -> str:
    payload = _signing_bytes(authority_id, kind, resource_id) + secret
    return hashlib.sha256(payload).hexdigest()


def mint_link_token(authority, resource_kind: ResourceKind,
                    resource_id: str) -> LinkToken:
    """``authority`` needs ``authority_id`` and ``secret`` attributes."""
    return LinkToken(authority.authority_id, resource_kind, resource_id,
                     _sign(authority.authority_id, resource_kind, resource_id,
                           authority.secret))


def resolve_link_token(token: LinkToken, authority) -> str:
    """Verify the signature, then require the resource to exist."""
    expected = _sign(token.authority_id, token.resource_kind,
                     token.resource_id, authority.secret)
    if (token.authority_id != authority.authority_id
            or token.signature != expected):
        raise QrError("BAD_SIGNATURE")
    if not authority.has_resource(token.resource_kind, token.resource_id):
        raise QrError("UNKNOWN_RESOURCE", token.resource_id)
    return token.resource_id


def token_wire(token: LinkToken) -> str:
    """Canonical bytes, hex-encoded: what actually rides inside a QR code."""
    return canonical_serialize(token).hex()


def token_from_wire(wire: str) -> LinkToken:
    try:
        raw = bytes.fromhex(wire)
        return canonical_deserialize(raw, LinkToken)
    except (ValueError, ValidationError):
        raise QrError("BAD_TOKEN_WIRE", repr(wire[:32])) from None


def token_to_payload(token: LinkToken) -> QrPayload:
    return encode_payload(token_wire(token))


def token_from_payload(payload: QrPayload) -> LinkToken:
    return token_from_wire(decode_payload(payload).decode("ascii"))


register_codec(LinkToken, 0x30, *fields_codec(LinkToken))
