"""QR payload layer: mode selection, bit-optimal segmentation, link tokens.

The optimality oracle below is written straight from the published cost
tables (mode indicator 4 bits; count indicator 10/9/8/8 for the small
version class; data bits per mode) and enumerates every split point and
mode assignment by memoized recursion. It shares no code with the
implementation under test.
"""

import itertools
import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudpass import qrlink as q
from cloudpass.errors import QrError
from cloudpass.qrlink import (LinkToken, QrMode, QrPayload, QrSegment,
                              ResourceKind, classify_mode, decode_payload,
                              encode_payload, mint_link_token,
                              resolve_link_token, segment_cost,
                              token_from_payload, token_from_wire,
                              token_to_payload, token_wire)

# -- independent cost model --------------------------------------------------

_ALNUM = frozenset(b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ $%*+-./:")
_HEADER = {"NUM": 4 + 10, "ALNUM": 4 + 9, "BYTE": 4 + 8, "KANJI": 4 + 8}


def _kanji_ok(chunk: bytes) -> bool:
    if len(chunk) == 0 or len(chunk) % 2:
        return False
    for i in range(0, len(chunk), 2):
        word = (chunk[i] << 8) | chunk[i + 1]
        if not (0x8140 <= word <= 0x9FFC or 0xE040 <= word <= 0xEBBF):
            return False
    return True


def _data_bits(mode: str, chunk: bytes) -> int:
    n = len(chunk)
    if mode == "NUM":
        return 10 * (n // 3) + (0, 4, 7)[n % 3]
    if mode == "ALNUM":
        return 11 * (n // 2) + 6 * (n % 2)
    if mode == "BYTE":
        return 8 * n
    return 13 * (n // 2)


def _modes_for(chunk: bytes):
    yield "BYTE"
    if all(48 <= c <= 57 for c in chunk):
        yield "NUM"
    if all(c in _ALNUM for c in chunk):
        yield "ALNUM"
    if _kanji_ok(chunk):
        yield "KANJI"


def oracle_min_bits(data: bytes) -> int:
    """Minimum total bits over every segmentation, by exhaustive recursion."""

    @lru_cache(maxsize=None)
    def best(i: int) -> float:
        if i == len(data):
            return 0
        out = math.inf
        for j in range(i + 1, len(data) + 1):
            chunk = data[i:j]
            for mode in _modes_for(chunk):
                cost = _HEADER[mode] + _data_bits(mode, chunk)
                out = min(out, cost + best(j))
        return out

    return int(best(0))


# -- reference automaton -------------------------------------------------------
#
# ``encode_payload``'s automaton stepped once per byte, with no skip ahead
# inside digit runs. The skip must give the same segments, not just the
# same bit total, so the two are compared segment by segment.


def reference_segments(raw: bytes):
    """(mode, payload) pairs and total bits of the per-byte automaton."""
    n = len(raw)
    num0 = num1 = num2 = aln0 = aln1 = byte = kanji = half = q._UNREACHABLE
    closed = 0
    opened = []
    closed_at = []
    for i, c in enumerate(raw):
        mask = 0
        if 0x30 <= c <= 0x39:
            cost = num0 + 4
            if closed + q._OPEN_NUM < cost:
                cost = closed + q._OPEN_NUM
                mask = 1 << q._NUM1
            num0, num1, num2 = num2 + 3, cost, num1 + 3
        else:
            num0 = num1 = num2 = q._UNREACHABLE
        if c in _ALNUM:
            cost = aln0 + 6
            if closed + q._OPEN_ALN < cost:
                cost = closed + q._OPEN_ALN
                mask |= 1 << q._ALN1
            aln0, aln1 = aln1 + 5, cost
        else:
            aln0 = aln1 = q._UNREACHABLE
        byte += 8
        if closed + q._OPEN_BYTE < byte:
            byte = closed + q._OPEN_BYTE
            mask |= 1 << q._BYTE
        if c >= 0x81 and i + 1 < n and _kanji_ok(raw[i:i + 2]):
            cost = kanji + 13
            if closed + q._OPEN_KANJI < cost:
                cost = closed + q._OPEN_KANJI
                mask |= 1 << q._KANJI_HALF
            kanji, half = half, cost
        else:
            kanji, half = half, q._UNREACHABLE

        closed, state = num0, q._NUM0
        for cost, s in ((num1, q._NUM1), (num2, q._NUM2), (aln0, q._ALN0),
                        (aln1, q._ALN1), (byte, q._BYTE), (kanji, q._KANJI)):
            if cost < closed:
                closed, state = cost, s
        opened.append(mask)
        closed_at.append(state)

    segments = []
    end = n
    state = closed_at[-1]
    for i in range(n - 1, -1, -1):
        if opened[i] >> state & 1:
            segments.append((q._STATE_MODE[state], raw[i:end]))
            end = i
            state = closed_at[i - 1]
        else:
            state = q._PREVIOUS[state]
    segments.reverse()
    return segments, closed


def _segments(payload: QrPayload):
    return [(s.mode, s.payload) for s in payload.segments], payload.total_bits


# ---------------------------------------------------------------------------
# classification


def test_classify_numeric():
    assert classify_mode("12345") is QrMode.NUMERIC


def test_classify_alphanumeric():
    assert classify_mode("HELLO WORLD") is QrMode.ALPHANUMERIC


def test_classify_byte_for_lowercase():
    assert classify_mode("hello") is QrMode.BYTE


def test_classify_kanji_pairs():
    assert classify_mode(b"\x81\x40\x9f\xfc\xe0\x40\xeb\xbf") is QrMode.KANJI
    assert classify_mode(b"\x81\x40\x00") is QrMode.BYTE
    assert classify_mode(b"\x81\x3f") is QrMode.BYTE


def test_classify_empty_rejected():
    with pytest.raises(QrError) as err:
        classify_mode("")
    assert err.value.code == "EMPTY_INPUT"


# ---------------------------------------------------------------------------
# segment costs (golden recomputations)


def test_cost_numeric_8_digits():
    seg = QrSegment(QrMode.NUMERIC, b"12345678")
    assert segment_cost(seg) == 4 + 10 + (2 * 10 + 7) == 41


def test_cost_alphanumeric_5_chars():
    seg = QrSegment(QrMode.ALPHANUMERIC, b"AC-42")
    assert segment_cost(seg) == 4 + 9 + (2 * 11 + 6) == 41


def test_cost_byte_single():
    seg = QrSegment(QrMode.BYTE, b"a")
    assert segment_cost(seg) == 4 + 8 + 8 == 20


def test_cost_kanji_pair():
    seg = QrSegment(QrMode.KANJI, b"\x81\x40")
    assert segment_cost(seg) == 4 + 8 + 13 == 25


def test_segment_checks_match_byte_loops():
    for data in [b"", *(bytes([b]) for b in range(256))]:
        assert q._is_numeric(data) == all(0x30 <= b <= 0x39 for b in data)
        assert q._is_alnum(data) == all(b in _ALNUM for b in data)


def test_segment_alphabet_enforced():
    with pytest.raises(QrError) as err:
        QrSegment(QrMode.NUMERIC, b"12a")
    assert err.value.code == "BAD_SEGMENT_CHAR"
    with pytest.raises(QrError):
        QrSegment(QrMode.ALPHANUMERIC, b"lower")
    with pytest.raises(QrError):
        QrSegment(QrMode.KANJI, b"\x81\x40\x00")
    with pytest.raises(QrError):
        QrSegment(QrMode.NUMERIC, b"")


def test_payload_bit_total_validated():
    seg = QrSegment(QrMode.BYTE, b"a")
    with pytest.raises(QrError) as err:
        QrPayload((seg,), total_bits=19)
    assert err.value.code == "BAD_BIT_TOTAL"


# ---------------------------------------------------------------------------
# optimal encoding


def test_encode_pure_digits_single_segment():
    payload = encode_payload("12345")
    assert len(payload.segments) == 1
    assert payload.segments[0].mode is QrMode.NUMERIC
    assert payload.total_bits == 4 + 10 + (10 + 7)


def test_encode_empty_rejected():
    with pytest.raises(QrError):
        encode_payload("")


def test_encode_mode_switch_beats_single_mode():
    # Long digit run inside letters: worth its own NUMERIC segment.
    s = "abc" + "0" * 30 + "def"
    payload = encode_payload(s)
    modes = [seg.mode for seg in payload.segments]
    assert QrMode.NUMERIC in modes
    assert payload.total_bits == oracle_min_bits(s.encode())


def test_encode_exhaustive_small_strings():
    alphabet = b"7Aa "
    for n in range(1, 6):
        for combo in itertools.product(alphabet, repeat=n):
            data = bytes(combo)
            assert encode_payload(data).total_bits == oracle_min_bits(data), data


def test_encode_random_mixed_strings_match_oracle():
    rng = random.Random(1234)
    pool = b"0123456789ABCXYZ abcxyz$%*+-./:\x00\xff"
    for _ in range(300):
        n = rng.randint(1, 20)
        data = bytes(rng.choice(pool) for _ in range(n))
        assert encode_payload(data).total_bits == oracle_min_bits(data), data


def test_encode_kanji_runs_match_oracle():
    rng = random.Random(5)
    for _ in range(100):
        pairs = []
        for _ in range(rng.randint(1, 6)):
            hi = rng.choice((rng.randint(0x81, 0x9F), rng.randint(0xE0, 0xEB)))
            lo = rng.randint(0x40, 0xBF)
            pairs.append(bytes((hi, lo)))
        prefix = b"12" if rng.random() < 0.5 else b""
        data = prefix + b"".join(pairs)
        assert encode_payload(data).total_bits == oracle_min_bits(data), data


def test_encode_long_digit_run_closed_form():
    # Guards against a quadratic regression: ~10^9 steps for an O(n^2) pass.
    data = b"7" * 30_000
    payload = encode_payload(data)
    assert payload.total_bits == 14 + 10 * 10_000 == 100_014
    assert [seg.mode for seg in payload.segments] == [QrMode.NUMERIC]
    assert decode_payload(payload) == data


# A digit run alone, and after and before a byte of each other kind: a
# lowercase letter (BYTE), an uppercase one (ALPHANUMERIC), a kanji pair
# and a lone kanji lead byte.
_AFFIXES = (b"", b"a", b"A", b"\x81\x40", b"\x81")


@pytest.mark.parametrize("suffix", _AFFIXES)
@pytest.mark.parametrize("prefix", _AFFIXES)
def test_digit_run_skip_matches_reference(prefix, suffix):
    rng = random.Random(prefix + suffix)
    for length in range(1, 201):
        data = prefix + bytes(rng.choices(b"0123456789", k=length)) + suffix
        assert _segments(encode_payload(data)) == reference_segments(data), data


_DIGIT_HEAVY = st.lists(
    st.one_of(st.binary(min_size=1, max_size=1),
              st.text("0123456789", min_size=1, max_size=60).map(str.encode)),
    min_size=1, max_size=8).map(b"".join)


@settings(derandomize=True, deadline=None)
@given(_DIGIT_HEAVY)
def test_digit_heavy_mixes_match_reference(data):
    assert _segments(encode_payload(data)) == reference_segments(data)


@pytest.mark.parametrize("data", [
    b"\x81\x81\x40\x40",                     # valid pairs at offsets 0 and 1
    b"1\x81\x40\x81",                         # pair on an odd offset
    *(b"\x81\x40" * k + b"\x81" for k in range(1, 5)),   # dangling lead byte
])
def test_encode_kanji_alignment_matches_oracle(data):
    payload = encode_payload(data)
    assert payload.total_bits == oracle_min_bits(data)
    assert decode_payload(payload) == data


# Kanji lead and trail bytes (the lead 0x81 twice, for weight), near-misses
# on both sides of the valid ranges, and one byte of each other class.
_KANJI_HEAVY = b"\x81\x81\x9f\xe0\xeb\x40\xbf\xfc\x3f\xfd\xec\x80" + b"7A a"


@given(st.lists(st.sampled_from(_KANJI_HEAVY), min_size=1, max_size=24)
       .map(bytes))
def test_encode_kanji_weighted_matches_oracle(data):
    payload = encode_payload(data)
    assert payload.total_bits == oracle_min_bits(data)
    assert decode_payload(payload) == data


def test_decode_inverts_encode():
    for s in ("12345", "HELLO WORLD", "hello", "abc012345678xyz",
              "A1a \x7f", "::::"):
        assert decode_payload(encode_payload(s)) == s.encode()


@given(st.binary(min_size=1, max_size=40))
def test_decode_encode_identity_property(data):
    payload = encode_payload(data)
    assert decode_payload(payload) == data
    assert payload.total_bits == sum(segment_cost(s) for s in payload.segments)


@given(st.text(min_size=1, max_size=30))
def test_encode_handles_text_input(s):
    data = s.encode()
    assert decode_payload(encode_payload(s)) == data


# ---------------------------------------------------------------------------
# link tokens


class _Authority:
    def __init__(self, authority_id="IN", secret=b"s3cret"):
        self.authority_id = authority_id
        self.secret = secret
        self.resources = {("VISA_IMAGE", "V1"), ("PASSPORT_APP", "P1")}

    def has_resource(self, kind, resource_id):
        return (kind.value, resource_id) in self.resources


def test_token_mint_resolve_round_trip():
    auth = _Authority()
    token = mint_link_token(auth, ResourceKind.VISA_IMAGE, "V1")
    assert resolve_link_token(token, auth) == "V1"


def test_token_altered_resource_rejected():
    auth = _Authority()
    token = mint_link_token(auth, ResourceKind.VISA_IMAGE, "V1")
    forged = LinkToken(token.authority_id, token.resource_kind, "P1",
                       token.signature)
    with pytest.raises(QrError) as err:
        resolve_link_token(forged, auth)
    assert err.value.code == "BAD_SIGNATURE"


def test_token_altered_kind_rejected():
    auth = _Authority()
    token = mint_link_token(auth, ResourceKind.VISA_IMAGE, "V1")
    forged = LinkToken(token.authority_id, ResourceKind.PASSPORT_APP, "V1",
                       token.signature)
    with pytest.raises(QrError):
        resolve_link_token(forged, auth)


def test_token_wrong_authority_rejected():
    auth = _Authority()
    other = _Authority(authority_id="US", secret=b"other")
    token = mint_link_token(auth, ResourceKind.VISA_IMAGE, "V1")
    with pytest.raises(QrError):
        resolve_link_token(token, other)


def test_token_deleted_resource_unknown():
    auth = _Authority()
    token = mint_link_token(auth, ResourceKind.VISA_IMAGE, "V1")
    auth.resources.discard(("VISA_IMAGE", "V1"))
    with pytest.raises(QrError) as err:
        resolve_link_token(token, auth)
    assert err.value.code == "UNKNOWN_RESOURCE"


def test_token_wire_round_trip():
    auth = _Authority()
    token = mint_link_token(auth, ResourceKind.PASSPORT_APP, "P1")
    wire = token_wire(token)
    assert wire == wire.lower() and set(wire) <= set("0123456789abcdef")
    assert token_from_wire(wire) == token


def test_token_wire_garbage_rejected():
    with pytest.raises(QrError) as err:
        token_from_wire("zz-not-hex")
    assert err.value.code == "BAD_TOKEN_WIRE"
    with pytest.raises(QrError):
        token_from_wire("00ff")


def test_token_payload_bits_pinned():
    auth = _Authority(authority_id="US", secret=bytes(16))
    token = mint_link_token(auth, ResourceKind.VISA_IMAGE, "V0ABCDEF")
    payload = token_to_payload(token)
    assert payload.total_bits == 795
    tail = (b"414745000000085630414243444546000000403661633064623965316264"
            b"666438656532333031616366656234396637303833643965313934333239"
            b"3930363136633866393961383863613634376165323662")
    assert [(s.mode, s.payload) for s in payload.segments] == [
        (QrMode.NUMERIC, b"30000000640000000255530000000"),
        (QrMode.BYTE, bytes.fromhex("61")),
        (QrMode.NUMERIC, b"564953415"),
        (QrMode.BYTE, bytes.fromhex("6634393464")),
        (QrMode.NUMERIC, tail),
    ]


def test_token_payload_round_trip():
    auth = _Authority()
    token = mint_link_token(auth, ResourceKind.VISA_IMAGE, "V1")
    payload = token_to_payload(token)
    assert token_from_payload(payload) == token
