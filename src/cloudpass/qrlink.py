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

The pass steps a whole run of one byte class at once. A byte's step
depends only on its class (digit, other alphanumeric, lead byte of a
valid kanji pair as ``_PAIR`` alone defines it, any other byte) and on
the eight costs taken relative to ``closed``, the cheapest state a
segment may close in. Those relative costs are bounded, so there are
finitely many, and a memo filled on first use holds, per relative state
met and class, the run response: the states, choices and growth of
``closed`` along a run of that class until the relative costs repeat.
After that transient the run cycles, so a run of any length is read off
the transient, whole cycles and part of one more, and the segments are
rebuilt with one memoised walk back per run; see ``encode_payload``.
Link tokens are hex, long digit runs with a few letters between them,
and need only a handful of entries.

Download links are MAC-style tokens: the authority signs the token's
canonical bytes with its secret, and resolution checks the signature
before looking the resource up. Payloads are signed but readable; there
is no encryption at this layer.

Issuing a document signs its link, the approval checks that signature
at once, and a RESOLVE or a download checks it again, so ``_sign`` keeps
each signature in an ``lru_cache`` under the memo rule of the README's
design notes, and ``token_wire`` keeps each token under the text it
returns, for ``token_from_wire`` to hand back for that very text.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache

from .errors import QrError, ValidationError
from .model import (_Enum, _check_text, _text_field, canonical_deserialize,
                    canonical_serialize, record, register_codec)

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

# The byte classes of the segmentation pass: digits, other alphanumerics,
# lead bytes of a valid kanji pair, and any other byte. ``_PAIR`` is the
# one definition of a valid kanji pair, a big-endian double-byte value in
# 0x8140-0x9FFC or 0xE040-0xEBBF. ``_CLASS_RUN`` matches a run of one
# class. It matches other bytes below 0x81 and above as runs apart, both
# stepped as ``_OTHER``, so that only high bytes pay for the pair test.
_DIGIT, _ALNUM, _KANJI_LEAD, _OTHER = range(4)
_PAIR = re.compile(rb"(?:[\x82-\x9e\xe1-\xea][\x00-\xff]|[\x81\xe0][\x40-\xff]"
                   rb"|\x9f[\x00-\xfc]|\xeb[\x00-\xbf])")
_CLASS_RUN = re.compile(rb"[0-9]+|[A-Z $%*+./:-]+|[^0-9A-Z $%*+./:\x81-\xff-]+"
                        rb"|(?:(?=" + _PAIR.pattern + rb")[\x81-\xeb])+"
                        rb"|(?:(?!" + _PAIR.pattern + rb")[\x81-\xff])+")
# A run's class from its first byte; None for a high byte, which leads a
# kanji pair where ``_PAIR`` matches.
_RUN_CLASS = tuple(_DIGIT if 0x30 <= b <= 0x39 else _ALNUM if b in ALNUM_BYTES
                   else None if b >= 0x81 else _OTHER for b in range(256))


class QrMode(_Enum):
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


_is_kanji = re.compile(_PAIR.pattern + rb"+").fullmatch


def _as_bytes(data) -> bytes:
    if isinstance(data, str):
        return data.encode("utf-8")
    return bytes(data)


# Per mode: what its payload admits, checked when a segment is built, and
# the data bits of a payload of n bytes.
_MODES = {
    QrMode.NUMERIC: (_is_numeric, lambda n: 10 * (n // 3) + (0, 4, 7)[n % 3]),
    QrMode.ALPHANUMERIC: (_is_alnum, lambda n: 11 * (n // 2) + 6 * (n % 2)),
    QrMode.BYTE: (lambda _: True, lambda n: 8 * n),
    QrMode.KANJI: (_is_kanji, lambda n: 13 * (n // 2)),
}


@record
class QrSegment:
    """A run of bytes encoded in one QR mode."""

    mode: QrMode
    payload: bytes

    def __post_init__(self):
        if type(self.payload) is not bytes:
            object.__setattr__(self, "payload", bytes(self.payload))

    def validate(self) -> None:
        payload = self.payload
        if not payload:
            raise QrError("EMPTY_INPUT", "segment payload is empty")
        if not _MODES[self.mode][0](payload):
            raise QrError("BAD_SEGMENT_CHAR",
                          f"payload not valid for {self.mode.name}")


@record
class QrPayload:
    """The segments of one QR code and the bits they cost in all."""

    segments: tuple[QrSegment, ...]
    total_bits: int

    def __post_init__(self):
        if type(self.segments) is not tuple:
            object.__setattr__(self, "segments", tuple(self.segments))

    def validate(self) -> None:
        segments = self.segments
        if not segments:
            raise QrError("EMPTY_INPUT", "payload has no segments")
        expected = sum(map(segment_cost, segments))
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
    mode = segment.mode
    return (MODE_INDICATOR_BITS + COUNT_INDICATOR_BITS[mode]
            + _MODES[mode][1](len(segment.payload)))


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
# Each later character adds what the mode's data bits grow by: a digit 4,
# 3, 3 within its group of three, an alphanumeric 6 then 5, a byte 8, and
# a kanji pair 13, charged on its first byte.
_OPEN_NUM = MODE_INDICATOR_BITS + COUNT_INDICATOR_BITS[QrMode.NUMERIC] + 4
_OPEN_ALN = MODE_INDICATOR_BITS + COUNT_INDICATOR_BITS[QrMode.ALPHANUMERIC] + 6
_OPEN_BYTE = MODE_INDICATOR_BITS + COUNT_INDICATOR_BITS[QrMode.BYTE] + 8
_OPEN_KANJI = MODE_INDICATOR_BITS + COUNT_INDICATOR_BITS[QrMode.KANJI] + 13
# The cost of an unreachable state, relative to ``closed``: larger than any
# reachable one, also after the few characters it is charged before it is
# reset or replaced, so any relative cost over half of it is stored as it.
_UNREACHABLE = 1 << 62


def _step(costs: tuple[int, ...], cls: int):
    """One byte of class ``cls`` from the relative ``costs``: the next
    relative costs, the states that opened a segment on this byte as a bit
    mask, the closable state ``closed`` comes from, and its growth."""
    num0, num1, num2, aln0, aln1, byte, kanji, half = costs
    mask = 0
    if cls == _DIGIT:
        cost = num0 + 4
        if _OPEN_NUM < cost:
            cost = _OPEN_NUM
            mask = 1 << _NUM1
        num0, num1, num2 = num2 + 3, cost, num1 + 3
    else:
        num0 = num1 = num2 = _UNREACHABLE
    if cls <= _ALNUM:
        cost = aln0 + 6
        if _OPEN_ALN < cost:
            cost = _OPEN_ALN
            mask |= 1 << _ALN1
        aln0, aln1 = aln1 + 5, cost
    else:
        aln0 = aln1 = _UNREACHABLE
    byte += 8
    if _OPEN_BYTE < byte:
        byte = _OPEN_BYTE
        mask |= 1 << _BYTE
    if cls == _KANJI_LEAD:
        cost = kanji + 13
        if _OPEN_KANJI < cost:
            cost = _OPEN_KANJI
            mask |= 1 << _KANJI_HALF
        kanji, half = half, cost
    else:
        kanji, half = half, _UNREACHABLE

    closable = (num0, num1, num2, aln0, aln1, byte, kanji)
    closed = min(closable)    # on equal cost the lower state, as index finds
    far = closed + (_UNREACHABLE >> 1)
    costs = tuple(_UNREACHABLE if c > far else c - closed
                  for c in (*closable, half))
    return costs, mask, closable.index(closed), closed


# The memo, filled on first use: relative costs -> node. A node is a list
# of one run response per byte class, None until first needed, then the
# relative costs themselves.
_NODES: dict[tuple[int, ...], list] = {}


def _node(costs: tuple[int, ...]) -> list:
    node = _NODES.get(costs)
    if node is None:
        node = _NODES[costs] = [None, None, None, None, costs]
    return node


def _respond(node: list, cls: int) -> tuple:
    """Fill ``node``'s response to a run of class ``cls``: step until a
    node repeats. Byte j of a run is step j of the response, or of its
    cycle once past the transient. A response holds the nodes after 0, 1,
    ... steps, each step's ``opened`` mask and ``closed`` state, the growth
    of ``closed`` over the first j steps, the transient, the cycle, and the
    walks back over runs of it (``_walk_back``), filled on first use."""
    index = {}
    nodes, masks, states, growth = [node], [], [], [0]
    while id(node) not in index:
        index[id(node)] = len(masks)
        costs, mask, state, grown = _step(node[4], cls)
        node = _node(costs)
        nodes.append(node)
        masks.append(mask)
        states.append(state)
        growth.append(growth[-1] + grown)
    transient = index[id(node)]
    response = nodes[0][cls] = (nodes, masks, states, growth, transient,
                                len(masks) - transient, {})
    return response


def _walk(response: tuple, n: int, state: int | None):
    """Walk back over a run of ``n`` bytes from its last byte in ``state``
    (None: the state ``closed`` came from there): the segments that open
    in the run, last first, as (byte index in the run, state), and the
    state at the byte before the run (None if one opened on its first)."""
    _, masks, states, _, transient, cycle, _ = response
    opens = []
    for j in range(n - 1, -1, -1):
        i = j if j < transient else transient + (j - transient) % cycle
        if state is None:
            state = states[i]
        if masks[i] >> state & 1:
            opens.append((j, state))
            state = None
        else:
            state = _PREVIOUS[state]
    return opens, state


def _walk_back(response: tuple, n: int, state: int | None):
    """``_walk``, memoised in the response. A walk back with no segment
    opening maps (cycle step, state) by a permutation whose order divides
    6 * cycle (``_PREVIOUS`` has order 6), so once it has gone that far in
    the cycle without an opening it opens none before the transient. A
    long run is therefore walked as one of the same length modulo that
    period with two periods to spare, and kept under a negative key. That
    needs no segment to open in the cycle, which holds for every state an
    input can bring to a run's end
    (``test_no_input_opens_a_segment_in_a_long_runs_cycle`` checks them
    all); for any other state the whole run is walked."""
    _, _, _, _, transient, cycle, walks = response
    period = 6 * cycle
    if n < transient + 3 * period:
        key = reduced = n
    else:
        key = -1 - (n - transient) % period
        reduced = transient + 2 * period - 1 - key
    walk = walks.get((key, state))
    if walk is None:
        walk = _walk(response, reduced, state)
        if key < 0 and any(j >= transient for j, _ in walk[0]):
            return _walk(response, n, state)
        walks[key, state] = walk
    return walk


_START = _node((_UNREACHABLE,) * 8)


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

    The pass steps a whole run of one byte class at once. Each byte maps
    the costs by a min-plus step that commutes with adding one constant to
    every cost, and every choice depends only on differences between
    costs, so a step is a function of the byte's class and the costs
    relative to ``closed``. Those are bounded. A state a segment opens in
    costs at most the opening cost above the last byte's ``closed``, and
    every other reachable state passed through one of those within the
    last two bytes. The half kanji pair, the one state that may cost less
    than ``closed``, is at most 7 bits below it, and ``closed`` falls by at
    most 7 bits a byte. A state that is not reachable is stored as
    ``_UNREACHABLE``. So the memo of run responses (``_respond``) is
    finite. A response with a transient of t steps and a cycle of c
    answers a run of n > t bytes at step t + (n - t) % c, adding the
    growth of (n - t) // c whole cycles. The segments are rebuilt from the
    end with the backpointers of the same responses, one memoised walk
    back per run (``_walk_back``).

    References: Nayuki, "Optimal text segmentation for QR Codes"
    (https://www.nayuki.io/page/optimal-text-segmentation-for-qr-codes);
    mode and count-indicator costs from ISO/IEC 18004 section 7.4.
    """
    raw = _as_bytes(data)
    if not raw:
        raise QrError("EMPTY_INPUT")

    node = _START
    closed = 0
    runs = []       # per run of one class: its length and its response
    end = 0
    for run in _CLASS_RUN.findall(raw):
        cls = _RUN_CLASS[run[0]]
        if cls is None:
            cls = _KANJI_LEAD if _PAIR.match(raw, end) else _OTHER
        response = node[cls] or _respond(node, cls)
        nodes, _, _, growth, transient, cycle, _ = response
        n = len(run)
        runs.append((n, response))
        end += n
        if n > transient:
            whole, n = divmod(n - transient, cycle)
            n += transient
            closed += whole * (growth[transient + cycle] - growth[transient])
        closed += growth[n]
        node = nodes[n]

    segments = []
    stop = end      # where the segment being rebuilt ends
    state = None    # None: the state ``closed`` came from, at this byte
    for n, response in reversed(runs):
        end -= n
        opens, state = (response[6].get((n, state))     # a short run's walk
                        or _walk_back(response, n, state))
        for j, open_state in opens:
            segments.append(QrSegment(_STATE_MODE[open_state],
                                      raw[end + j:stop]))
            stop = end + j
    segments.reverse()
    return QrPayload(tuple(segments), closed)


def decode_payload(payload: QrPayload) -> bytes:
    """Concatenate the segment payloads back into the original bytes."""
    return b"".join(seg.payload for seg in payload.segments)


# ---------------------------------------------------------------------------
# Signed download tokens


class ResourceKind(_Enum):
    PASSPORT_APP = "PASSPORT_APP"
    VISA_IMAGE = "VISA_IMAGE"


@record
class LinkToken:
    """Pointer to one downloadable resource, signed by its authority."""

    authority_id: str
    resource_kind: ResourceKind
    resource_id: str
    signature: str

    def validate(self) -> None:
        if self.resource_kind.__class__ is not ResourceKind:
            raise ValidationError("BAD_RESOURCE_KIND", repr(self.resource_kind))
        for text in (self.authority_id, self.resource_id, self.signature):
            if not isinstance(text, str):
                raise ValidationError("BAD_TOKEN_FIELD", repr(text))
            _check_text(text)


# Entries each link memo holds: the links of the last few approvals,
# which their own check and a RESOLVE or a download read soon after.
_MEMO_SIZE = 16

# A kind's field as the token body writes it (its name as text), built
# once per member.
_KIND_FIELDS = {kind: _text_field(kind.name) for kind in ResourceKind}


def _signing_bytes(authority_id: str, kind: ResourceKind, resource_id: str) -> bytes:
    """What the authority signs: the token body's first three fields."""
    return _text_field(authority_id) + _KIND_FIELDS[kind] + _text_field(resource_id)


def _signature(authority_id: str, kind: ResourceKind, resource_id: str,
               secret: bytes) -> str:
    """The hex SHA-256 of the signing bytes and ``secret``."""
    payload = _signing_bytes(authority_id, kind, resource_id) + secret
    return hashlib.sha256(payload).hexdigest()


_kept_signature = lru_cache(maxsize=_MEMO_SIZE)(_signature)


def _sign(authority_id: str, kind: ResourceKind, resource_id: str,
          secret: bytes) -> str:
    """``_signature``, kept when the ids are a ``str`` and the secret
    ``bytes``, each of exactly that type."""
    exact = (authority_id.__class__ is resource_id.__class__ is str
             and secret.__class__ is bytes)
    return (_kept_signature if exact else _signature)(
        authority_id, kind, resource_id, secret)


def mint_link_token(authority, resource_kind: ResourceKind,
                    resource_id: str) -> LinkToken:
    """``authority`` needs ``authority_id`` and ``secret`` attributes. A
    kind or an id the token would refuse is refused as ``LinkToken``
    refuses it."""
    authority_id = authority.authority_id
    try:
        signature = _sign(authority_id, resource_kind, resource_id,
                          authority.secret)
    except (AttributeError, KeyError, TypeError):
        # A kind or an id the token refuses: that refusal, not this error.
        LinkToken(authority_id, resource_kind, resource_id, "")
        raise
    return LinkToken(authority_id, resource_kind, resource_id, signature)


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


# A dict, not an lru_cache: ``token_wire`` fills it for ``token_from_wire``.
_TOKENS: dict[str, LinkToken] = {}


def token_wire(token: LinkToken) -> str:
    """Canonical bytes, hex-encoded: what actually rides inside a QR code.
    A token that decoding the text gives back is kept under it."""
    wire = canonical_serialize(token).hex()
    if (token.__class__ is LinkToken
            and token.authority_id.__class__ is token.resource_id.__class__
            is token.signature.__class__ is str):
        if len(_TOKENS) >= _MEMO_SIZE:
            del _TOKENS[next(iter(_TOKENS))]
        _TOKENS[wire] = token
    return wire


def token_from_wire(wire: str) -> LinkToken:
    """The token ``wire`` encodes: the kept one for text ``token_wire``
    returned, else decoded afresh."""
    if wire.__class__ is str:
        token = _TOKENS.get(wire)
        if token is not None:
            return token
    try:
        raw = bytes.fromhex(wire)
        return canonical_deserialize(raw, LinkToken)
    except (ValueError, ValidationError):
        raise QrError("BAD_TOKEN_WIRE", repr(wire[:32])) from None


def token_to_payload(token: LinkToken) -> QrPayload:
    return encode_payload(token_wire(token))


def token_from_payload(payload: QrPayload) -> LinkToken:
    return token_from_wire(decode_payload(payload).decode("ascii"))


register_codec(LinkToken, 0x30)
