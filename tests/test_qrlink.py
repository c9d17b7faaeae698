"""QR payload layer: mode selection, bit-optimal segmentation, link tokens.

The optimality oracle below is written straight from the published cost
tables (mode indicator 4 bits; count indicator 10/9/8/8 for the small
version class; data bits per mode) and enumerates every split point and
mode assignment by memoized recursion. It shares no code with the
implementation under test.
"""

import hashlib
import itertools
import math
import random
import re
import types
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudpass import qrlink as q
from cloudpass.clouds import EmbassyCloud
from cloudpass.errors import QrError, ValidationError
from cloudpass.model import (StampEntry, StampKind, canonical_deserialize,
                             canonical_serialize)
from cloudpass.qrlink import (LinkToken, QrMode, QrPayload, QrSegment,
                              ResourceKind, classify_mode, decode_payload,
                              encode_payload, mint_link_token,
                              resolve_link_token, segment_cost,
                              token_from_payload, token_from_wire,
                              token_to_payload, token_wire)
from cloudpass.wire import handle_embassy_line

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
# ``encode_payload``'s automaton stepped once per byte, with no memo and
# no run stepped whole. The run jump must give the same segments, not just
# the same bit total, so the two are compared segment by segment.


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


def test_records_normalise_their_fields_then_check_them():
    seg = QrSegment(QrMode.BYTE, bytearray(b"a"))
    assert type(seg.payload) is bytes and seg.payload == b"a"
    payload = QrPayload([seg], 20)
    assert type(payload.segments) is tuple and payload.segments == (seg,)
    with pytest.raises(QrError) as err:
        QrPayload([], 0)
    assert str(err.value) == "EMPTY_INPUT: payload has no segments"
    with pytest.raises(QrError) as err:
        QrSegment(QrMode.BYTE, bytearray())
    assert str(err.value) == "EMPTY_INPUT: segment payload is empty"


def test_kanji_check_matches_the_pair_loop():
    # Every string of up to four bytes over lead and trail bytes, near
    # misses on both sides of the valid ranges and one other byte.
    alphabet = b"\x81\x40\x9f\xfc\xfd\xe0\xeb\xbf\xc0\x3f"
    for k in range(5):
        for word in itertools.product(alphabet, repeat=k):
            data = bytes(word)
            assert bool(q._is_kanji(data)) == _kanji_ok(data), data


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


# A run alone, and after and before a byte of each other kind: a
# lowercase letter (BYTE), an uppercase one (ALPHANUMERIC), a kanji pair
# and a lone kanji lead byte.
_AFFIXES = (b"", b"a", b"A", b"\x81\x40", b"\x81")

# Bytes to draw one run from, one alphabet per byte class of the encoder:
# digits; other alphanumerics; other bytes below 0x81; lead bytes that
# make a valid pair with any byte; kanji pairs with lone lead bytes and
# near misses; other high bytes, none of them a lead byte.
_RUN_ALPHABETS = (
    b"0123456789",
    b"ABCXYZ $%*+-./:",
    b"abcxyz@\x00\x7f\x80",
    bytes(range(0x82, 0x9F)) + bytes(range(0xE1, 0xEB)),
    b"\x81\x81\x40\x9f\xfc\xfd\xe0\xeb\xbf\xc0\x3f",
    b"\xa0\xc1\xdf\xec\xf0\xfd\xff",
)


# Named for the digit-run skip it first checked, it now steps a run of
# every class: digit runs of each length up to 200, the other classes up
# to 60 (past their transients) and a few lengths beyond.
@pytest.mark.parametrize("suffix", _AFFIXES)
@pytest.mark.parametrize("prefix", _AFFIXES)
def test_digit_run_skip_matches_reference(prefix, suffix):
    rng = random.Random(prefix + suffix)
    for alphabet in _RUN_ALPHABETS:
        lengths = range(1, 201) if alphabet.isdigit() else (*range(1, 61), 97,
                                                            150, 200)
        for length in lengths:
            data = prefix + bytes(rng.choices(alphabet, k=length)) + suffix
            assert (_segments(encode_payload(data))
                    == reference_segments(data)), data


_DIGIT_HEAVY = st.lists(
    st.one_of(st.binary(min_size=1, max_size=1),
              st.text("0123456789", min_size=1, max_size=60).map(str.encode)),
    min_size=1, max_size=8).map(b"".join)


@settings(derandomize=True, deadline=None)
@given(_DIGIT_HEAVY)
def test_digit_heavy_mixes_match_reference(data):
    assert _segments(encode_payload(data)) == reference_segments(data)


_CLASS_RUNS = st.lists(
    st.sampled_from(_RUN_ALPHABETS).flatmap(
        lambda alphabet: st.lists(st.sampled_from(alphabet), min_size=1,
                                  max_size=200).map(bytes)),
    min_size=1, max_size=6).map(b"".join)


@settings(deadline=None)
@given(_CLASS_RUNS)
def test_class_runs_match_reference(data):
    assert _segments(encode_payload(data)) == reference_segments(data)


def test_kanji_pair_pattern_spells_ranges():
    pair = re.compile(q._PAIR)
    for hi in range(256):
        for lo in range(256):
            word = bytes((hi, lo))
            assert bool(pair.fullmatch(word)) == _kanji_ok(word), word


def test_class_run_pattern_spells_alnum_bytes():
    # _CLASS_RUN spells the digits, the other alphanumerics and the other
    # bytes below 0x81 out again: a byte joins the run of "0", "A" or "a"
    # exactly when ALNUM_BYTES gives it that byte's class.
    for b in range(256):
        for mate, cls in ((b"0", q._DIGIT), (b"A", q._ALNUM), (b"a", q._OTHER)):
            joined = q._CLASS_RUN.match(bytes([b]) + mate).end() == 2
            assert joined == (q._RUN_CLASS[b] == cls), (b, mate)
    assert {b for b in range(256) if q._RUN_CLASS[b] in (q._DIGIT, q._ALNUM)} \
        == q.ALNUM_BYTES


def test_long_runs_walk_back_as_stepped(monkeypatch):
    # A walk back over a long run is memoised as one of the same length
    # modulo the walk's period; it must give what walking every byte does.
    monkeypatch.setattr(q, "_NODES", {})
    monkeypatch.setattr(q, "_START", q._node((q._UNREACHABLE,) * 8))
    rng = random.Random(20)
    for _ in range(300):
        encode_payload(bytes(rng.choice(b"07Aa\x81\x82\x40\xe0\xff")
                             for _ in range(rng.randint(1, 30))))
    responses = [r for node in q._NODES.values() for r in node[:4] if r]
    for response in rng.sample(responses, 40):
        transient, cycle = response[4], response[5]
        limit = transient + 18 * cycle
        for n in (limit - 1, limit, limit + 1, limit + 7 * cycle + 5):
            for state in (None, *range(8)):
                opens, before = q._walk_back(response, n, state)
                opens = [(j + n if j < 0 else j, s) for j, s in opens]
                assert (opens, before) == q._walk(response, n, state)


def test_no_input_opens_a_segment_in_a_long_runs_cycle(monkeypatch):
    # _walk_back walks a long run as a shorter one of the same length
    # modulo its period, which needs no segment to open in the run's
    # cycle; for any other state it walks the whole run. The memo is
    # finite, so fill it for every class from every relative state, and
    # check every run response against every state a walk back can bring
    # to a run's last byte: the states the bytes after it hand back, and
    # None (the cheapest closable state) where the input ends, which it
    # cannot after a kanji lead byte.
    monkeypatch.setattr(q, "_NODES", {})
    q._node((q._UNREACHABLE,) * 8)
    done = 0
    while done < len(q._NODES):
        batch = list(q._NODES.values())[done:]
        done += len(batch)
        for node in batch:
            for cls in range(4):
                q._respond(node, cls)
    nodes = list(q._NODES.values())
    assert len(nodes) < 5_000     # 3,628
    # brought[id(node)]: the states a walk back holds at a byte that
    # leaves the automaton in ``node`` and that more bytes follow.
    brought = {id(node): set() for node in nodes}

    def handed(node, cls):
        return brought[id(node)] | ({None} if cls != q._KANJI_LEAD else set())

    changed = True
    while changed:
        changed = False
        for node in nodes:
            for cls in range(4):
                after, masks, states = node[cls][:3]
                for state in handed(after[1], cls):
                    state = states[0] if state is None else state
                    before = None if masks[0] >> state & 1 else q._PREVIOUS[state]
                    if before not in brought[id(node)]:
                        brought[id(node)].add(before)
                        changed = True
    # A walk that opens nothing for 6 * cycle steps opens nothing after.
    for node in nodes:
        for cls in range(4):
            response = node[cls]
            transient, cycle = response[4], response[5]
            for end in range(transient, transient + cycle):
                n = end + 1 + 6 * cycle
                for state in handed(response[0][end + 1], cls):
                    opens, _ = q._walk(response, n, state)
                    assert all(j < transient for j, _ in opens), (n, state)


def test_memo_stays_small(monkeypatch):
    # Relative costs are bounded, so the memo is finite. From empty, 20,000
    # random strings of 1-40 bytes over every byte value left 646 relative
    # states, 386 run responses and 1,328 memoised walks back, and no
    # response longer than 19 steps (transient plus cycle).
    monkeypatch.setattr(q, "_NODES", {})
    monkeypatch.setattr(q, "_START", q._node((q._UNREACHABLE,) * 8))
    rng = random.Random(2020)
    for _ in range(20_000):
        encode_payload(rng.randbytes(rng.randint(1, 40)))
    responses = [r for node in q._NODES.values() for r in node[:4] if r]
    assert len(q._NODES) < 1_000
    assert len(responses) < 1_000
    assert sum(len(r[6]) for r in responses) < 3_000
    assert max(len(r[1]) for r in responses) <= 24


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


@pytest.mark.parametrize("kind", list(ResourceKind))
@pytest.mark.parametrize("authority_id, resource_id", [
    ("IN", "V1"), ("US", "V-US-0001"), ("GB", "\u00dc-\u6771\u4eac-\U0001f600"),
    ("IND", ""),
])
def test_signing_bytes_are_the_token_body_first_three_fields(
        kind, authority_id, resource_id):
    token = LinkToken(authority_id, kind, resource_id, "ab" * 32)
    body = canonical_serialize(token)[5:]   # past the tag and body length
    signing = q._signing_bytes(authority_id, kind, resource_id)
    signature = token.signature.encode()
    assert body == signing + len(signature).to_bytes(4, "big") + signature


def test_signing_bytes_refuse_what_the_codec_refuses():
    for args in [("IN\ud800", ResourceKind.VISA_IMAGE, "V1"),
                 ("IN", ResourceKind.PASSPORT_APP, "P\udfff")]:
        with pytest.raises(ValidationError) as signed:
            q._signing_bytes(*args)
        with pytest.raises(ValidationError) as encoded:
            canonical_serialize(LinkToken(*args, "00"))
        assert signed.value.code == encoded.value.code == "BAD_UTF8"


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
    # a well-formed record of another type is no token either
    stamp = StampEntry(StampKind.ARRIVAL, "JFK", 0)
    with pytest.raises(QrError) as err:
        token_from_wire(canonical_serialize(stamp).hex())
    assert err.value.code == "BAD_TOKEN_WIRE"


def test_a_token_field_that_is_not_text_is_a_coded_refusal():
    with pytest.raises(ValidationError) as err:
        token_wire(LinkToken(7, ResourceKind.VISA_IMAGE, "V1", "00"))
    assert str(err.value) == "BAD_TOKEN_FIELD: 7"
    for fields in [("IN", ResourceKind.VISA_IMAGE, b"V1", "00"),
                   ("IN", ResourceKind.VISA_IMAGE, "V1", None)]:
        with pytest.raises(ValidationError) as err:
            LinkToken(*fields)
        assert err.value.code == "BAD_TOKEN_FIELD"


def test_a_token_of_a_kind_its_text_cannot_carry_is_refused_when_built():
    # The writer writes any member's name; the reader wants a ResourceKind,
    # so such a token would encode and then fail to decode.
    with pytest.raises(ValidationError) as err:
        LinkToken("IN", QrMode.BYTE, "V1", "00")
    assert str(err.value) == "BAD_RESOURCE_KIND: <QrMode.BYTE: 'BYTE'>"
    with pytest.raises(ValidationError) as err:
        LinkToken("IN", "VISA_IMAGE", "V1", "00")
    assert err.value.code == "BAD_RESOURCE_KIND"


def test_a_mint_the_token_would_refuse_is_a_coded_refusal(monkeypatch):
    auth = _Authority()
    with pytest.raises(ValidationError) as err:
        mint_link_token(auth, QrMode.BYTE, "V1")
    assert str(err.value) == "BAD_RESOURCE_KIND: <QrMode.BYTE: 'BYTE'>"
    for authority, resource_id, field in [(auth, 7, "7"), (auth, b"V1", "b'V1'"),
                                          (_Authority(authority_id=7), "V1", "7")]:
        with pytest.raises(ValidationError) as err:
            mint_link_token(authority, ResourceKind.VISA_IMAGE, resource_id)
        assert str(err.value) == f"BAD_TOKEN_FIELD: {field}"
    # The authority's own fault passes out as raised.
    with pytest.raises(TypeError):
        mint_link_token(_Authority(secret="s3cret"), ResourceKind.VISA_IMAGE, "V1")
    # A valid mint builds its token once.
    checks = []
    monkeypatch.setattr(LinkToken, "validate",
                        lambda token, check=LinkToken.validate:
                        checks.append(check(token)))
    mint_link_token(auth, ResourceKind.VISA_IMAGE, "V1")
    assert len(checks) == 1


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


# -- link memos ----------------------------------------------------------------
#
# The oracles below sign, encode and decode without qrlink's memos: the
# signing bytes are a token body's first three fields, so they are the
# body of a token with an empty signature, less that field's length.


def _fresh_sign(authority_id, kind, resource_id, secret) -> str:
    body = canonical_serialize(LinkToken(authority_id, kind, resource_id, ""))
    return hashlib.sha256(body[5:-4] + secret).hexdigest()


def _fresh_resolve(token, authority) -> str:
    """The resource id ``resolve_link_token`` returns, or its refusal code."""
    if (token.authority_id != authority.authority_id
            or token.signature != _fresh_sign(token.authority_id,
                                              token.resource_kind,
                                              token.resource_id,
                                              authority.secret)):
        return "BAD_SIGNATURE"
    if not authority.has_resource(token.resource_kind, token.resource_id):
        return "UNKNOWN_RESOURCE"
    return token.resource_id


def _resolved(token, authority) -> str:
    try:
        return resolve_link_token(token, authority)
    except QrError as err:
        return err.code


_RESOURCE_IDS = [f"R{n}" for n in range(12)]
# (which authority mints, kind, resource id): 48 distinct tokens.
_LINKS = st.tuples(st.integers(0, 1), st.sampled_from(list(ResourceKind)),
                   st.sampled_from(_RESOURCE_IDS))


def _twin_authorities():
    """Two authorities with one authority id and two secrets, each
    holding two thirds of the resources."""
    twins = (_Authority(secret=b"one"), _Authority(secret=b"two"))
    for i, authority in enumerate(twins):
        authority.resources = {(kind.value, resource_id) for kind in ResourceKind
                               for n, resource_id in enumerate(_RESOURCE_IDS)
                               if (n + i) % 3}
    return twins


@given(st.lists(_LINKS, min_size=q._MEMO_SIZE + 1, max_size=3 * q._MEMO_SIZE,
                unique=True), st.randoms())
def test_link_memos_equal_fresh_calls_property(links, rnd):
    # More distinct tokens than a memo holds, each issued at least twice
    # in a random interleaving, so kept entries are both hit and evicted;
    # every token is resolved by both authorities.
    q._kept_signature.cache_clear()
    q._TOKENS.clear()
    twins = _twin_authorities()
    order = links * 2 + [rnd.choice(links) for _ in links]
    rnd.shuffle(order)
    for minter, kind, resource_id in order:
        authority = twins[minter]
        signature = _fresh_sign("IN", kind, resource_id, authority.secret)
        assert q._sign("IN", kind, resource_id, authority.secret) == signature
        token = mint_link_token(authority, kind, resource_id)
        assert token == LinkToken("IN", kind, resource_id, signature)
        text = token_wire(token)
        assert text == canonical_serialize(token).hex()
        sent = (text + " ")[:-1]     # equal text, another str object
        assert token_from_wire(sent) == canonical_deserialize(
            bytes.fromhex(sent), LinkToken) == token
        for resolver in twins:
            assert _resolved(token, resolver) == _fresh_resolve(token, resolver)
        assert q._kept_signature.cache_info().currsize <= q._MEMO_SIZE
        assert len(q._TOKENS) <= q._MEMO_SIZE


def test_a_forged_twin_is_refused_right_after_its_valid_token():
    auth = _Authority()
    token = mint_link_token(auth, ResourceKind.VISA_IMAGE, "V1")
    digit = "1" if token.signature[7] == "0" else "0"
    forged = LinkToken(token.authority_id, token.resource_kind,
                       token.resource_id,
                       token.signature[:7] + digit + token.signature[8:])
    assert resolve_link_token(token, auth) == "V1"
    for _ in range(2):
        for sent in (forged, token_from_wire(token_wire(forged))):
            with pytest.raises(QrError) as err:
                resolve_link_token(sent, auth)
            assert err.value.code == "BAD_SIGNATURE"
    assert resolve_link_token(token_from_wire(token_wire(token)), auth) == "V1"


def test_bad_token_wire_text_is_refused_again():
    token = mint_link_token(_Authority(), ResourceKind.VISA_IMAGE, "V1")
    text = token_wire(token)
    for bad in (text[:-2], text + "00", text[:10] + "zz" + text[12:]):
        for _ in range(2):
            with pytest.raises(QrError) as err:
                token_from_wire(bad)
            assert err.value.code == "BAD_TOKEN_WIRE"
        assert bad not in q._TOKENS
    assert token_from_wire(text) is token


def test_other_text_of_a_kept_token_is_decoded_afresh():
    token = mint_link_token(_Authority(), ResourceKind.PASSPORT_APP, "P1")
    text = token_wire(token)

    class Text(str):
        pass

    for variant in (text.upper(), Text(text)):
        decoded = token_from_wire(variant)
        assert decoded == token and decoded is not token

    class Liar(str):
        """Equal to, and hashed as, the kept text, whatever it holds."""

        def __eq__(self, other):
            return True

        def __hash__(self):
            return hash(text)

    other = LinkToken("US", ResourceKind.VISA_IMAGE, "V9", "00")
    assert token_from_wire(Liar(canonical_serialize(other).hex())) == other
    assert token_from_wire(text) is token


def test_one_wire_record_signs_twice_and_decodes_no_token(monkeypatch):
    # SUBMIT, APPROVE_PASSPORT, SUBMIT, APPROVE_VISA, RESOLVE: each
    # approval signs its link once, and its own check and the RESOLVE
    # reuse that signature and the token the reply was written from.
    q._kept_signature.cache_clear()
    monkeypatch.setattr(q, "_TOKENS", {})
    signed, decoded = [], []
    sha256, deserialize = hashlib.sha256, q.canonical_deserialize
    monkeypatch.setattr(q, "hashlib", types.SimpleNamespace(
        sha256=lambda data: signed.append(data) or sha256(data)))
    monkeypatch.setattr(q, "canonical_deserialize",
                        lambda *args: decoded.append(args) or deserialize(*args))
    embassy = EmbassyCloud("IN", bytes(16))
    rng = random.Random(1)

    def ok(line: str) -> str:
        status, _, payload = handle_embassy_line(embassy, line, rng).partition(" ")
        assert status == "OK", payload
        return payload

    tracking = ok("SUBMIT alice PASSPORT_APPLICATION")
    ok(f"APPROVE_PASSPORT {tracking} P0000001 alice IN 0 315360000")
    tracking = ok("SUBMIT alice VISA_APPLICATION")
    link = ok(f"APPROVE_VISA {tracking} V0000001 P0000001 US 0 15552000 "
              f"{bytes(64).hex()}")
    assert ok(f"RESOLVE {link}") == "VISA_IMAGE V0000001"
    assert len(signed) == 2
    assert decoded == []
