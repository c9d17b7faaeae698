"""Pinned canonical bytes for every registered record type.

One populated instance of each type registered with the canonical codec
is encoded, and the SHA-256 of its bytes must equal the digest committed
in ``golden/codec_digests.json``. The report digests cover only a link
token's bytes (through ``qr_bits``), so these pins are what notices a
writer change that moves a device's bytes.

After a deliberate change to the encoding, re-pin with

    PYTHONPATH=src python tests/test_codec_golden.py > tests/golden/codec_digests.json

and say in the change why the bytes moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import struct
import sys
import typing
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudpass import model
from cloudpass.authflow import (CaptchaChallenge, Session, SessionState,
                                make_auth_image)
from cloudpass.errors import ValidationError
from cloudpass.model import (AUTH_IMAGE_COUNT, DeviceState, StampEntry,
                             StampKind, VisaImage, VisaPresentation,
                             add_stamp, canonical_deserialize,
                             canonical_serialize, new_passport, place_visa,
                             replace, summarize)
from cloudpass.qrlink import LinkToken, ResourceKind

_DIGESTS = Path(__file__).resolve().parent / "golden" / "codec_digests.json"


def records() -> dict[str, object]:
    """One populated instance per registered type, keyed by type name."""
    visa_us = VisaImage.of(b"visa-us-pixels", "image/png")
    visa_gb = VisaImage.of(b"visa-gb-pixels", "image/jpeg")
    images = tuple(make_auth_image(i, bytes([i]) * 4, f"memory {i}")
                   for i in range(AUTH_IMAGE_COUNT))
    captcha = CaptchaChallenge("c-0000002a", "ABC234", 600)

    passport = replace(new_passport("P7654321", "Alice Example", "IN", "IN",
                                    0, 10 * 365 * 86400),
                       bound_device="alice-phone")
    # Both visas are on the phone; only the US one is placed. Stamps land
    # on its page and on a plain stamp page.
    passport = place_visa(passport, "V-US-0001", 3, {"V-US-0001", "V-GB-0002"})
    passport = add_stamp(passport, 3, StampEntry(StampKind.DEPARTURE, "BLR", 7200))
    passport = add_stamp(passport, 3, StampEntry(StampKind.ARRIVAL, "JFK", 36000))
    passport = add_stamp(passport, 4, StampEntry(StampKind.DEPARTURE, "JFK", 90000))

    device = DeviceState("alice-phone", 330, images)
    device.visas = {"V-US-0001": visa_us, "V-GB-0002": visa_gb}
    device.passport = passport
    device.session = Session("s-00000001", SessionState.TIME_AUTH_PENDING, 600,
                             pending_captcha=captcha)

    return {
        "StampEntry": passport.page(3).stamps[1],
        "PassportPage": passport.page(3),
        "Passport": passport,
        "VisaImage": visa_us,
        "AuthImage": images[7],
        "DeviceState": device,
        "PassportSummary": summarize(passport),
        "VisaPresentation": VisaPresentation(summarize(passport), "V-US-0001",
                                             visa_us),
        "CaptchaChallenge": captcha,
        "Session": Session("s-00000002", SessionState.IMAGE_AUTH_PENDING, 1200,
                           pending_image_index=4),
        "LinkToken": LinkToken("IN", ResourceKind.VISA_IMAGE, "V-US-0001",
                               hashlib.sha256(b"signature").hexdigest()),
    }


def _digest(record) -> str:
    return hashlib.sha256(canonical_serialize(record)).hexdigest()


def _pinned() -> dict[str, str]:
    return json.loads(_DIGESTS.read_text())


def test_every_registered_type_is_pinned():
    registered = {cls.__name__ for cls in model._CODEC_BY_TYPE}
    assert sorted(_pinned()) == sorted(registered) == sorted(records())


@pytest.mark.parametrize("name", sorted(records()))
def test_codec_bytes_pinned(name):
    record = records()[name]
    assert type(record).__name__ == name
    assert _digest(record) == _pinned()[name]


# ---------------------------------------------------------------------------
# The documented layout is the declared one


_ENCODING_DOC = (Path(__file__).resolve().parents[1] / "docs"
                 / "encoding.md").read_text()


def _documented_records() -> list[tuple[int, str, list[tuple[str, str]]]]:
    """(tag, record, [(field, kind)]) per row of the "Tags and field
    order" table in docs/encoding.md."""
    section = _ENCODING_DOC.split("## Tags and field order", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(0x[0-9A-Fa-f]{2})` \| (\w+) \| (.*) \|$",
                      section, re.MULTILINE)
    return [(int(tag, 16), name,
             [tuple(field.split(" ", 1)) for field in fields.split(", ")])
            for tag, name, fields in rows]


def _declared_kind(hint) -> str:
    """A field type as the docs table writes it."""
    simple = {str: "str", int: "i64", bytes: "bytes", bool: "bool"}
    if hint in simple:
        return simple[hint]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return "enum"
    if hint in model._CODEC_BY_TYPE:
        return f"0x{model._CODEC_BY_TYPE[hint][0]:02X}"
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return "list of " + _declared_kind(args[0])
    if typing.get_origin(hint) is dict:
        return f"map {_declared_kind(args[0])} to {_declared_kind(args[1])}"
    return "opt " + _declared_kind(args[0])


def test_documented_layout_is_declared():
    documented = _documented_records()
    registered = {tag: cls.__name__
                  for cls, (tag, _, _) in model._CODEC_BY_TYPE.items()}
    assert {tag: name for tag, name, _ in documented} == registered
    for tag, name, fields in documented:
        cls = model._CODEC_BY_TAG[tag][0]
        hints = typing.get_type_hints(cls)
        assert fields == [(field, _declared_kind(hint))
                          for field, hint in hints.items()], name


# A list or a map holds records only, and an optional holds no container.
@pytest.mark.parametrize("kind", [
    float, dict[int, str], list[int], tuple[str, ...],
    tuple[tuple[StampEntry, ...], ...], tuple[str, ...] | None,
], ids=["float", "dict", "list", "list-of-str", "list-of-lists",
        "optional-list"])
def test_field_without_encoding_is_refused_when_built(kind):
    # Not registered: the registry is what the pins above read.
    Throwaway = dataclasses.make_dataclass(
        "Throwaway", [("name", str), ("amount", kind)], frozen=True)
    with pytest.raises(TypeError, match=r"^Throwaway\.amount: no canonical"):
        model.fields_codec(Throwaway)


# ---------------------------------------------------------------------------
# The decoder accepts exactly the bytes the encoder produces


_ENCODED = {name: canonical_serialize(record) for name, record in records().items()}


def _refused_or_canonical(data: bytes) -> None:
    try:
        record = canonical_deserialize(data)
    except ValidationError:
        return
    assert canonical_serialize(record) == data


# Retired tags, never reused: 0x01 was TrackingId and 0x06 VisaRecord.
@pytest.mark.parametrize("tag", [0x01, 0x06])
def test_retired_tags_are_unknown(tag):
    # The body of a TrackingId as 0x01 encoded it.
    body = (struct.pack(">I", 12) + b"ABCDEF123456"
            + struct.pack(">I", 16) + b"VISA_APPLICATION")
    with pytest.raises(ValidationError) as err:
        canonical_deserialize(struct.pack(">BI", tag, len(body)) + body)
    assert err.value.code == "UNKNOWN_TAG"


@pytest.mark.parametrize("name", sorted(_ENCODED))
def test_every_prefix_and_byte_flip_is_refused_or_canonical(name):
    """Bit 0 turns a byte into its neighbour (a key, a digit, a tag, a
    bool); bit 7 turns ASCII into a stray UTF-8 continuation byte. The
    property below draws the other flips."""
    data = _ENCODED[name]
    _refused_or_canonical(data)
    for end in range(len(data)):
        _refused_or_canonical(data[:end])
    for pos in range(len(data)):
        for mask in (0x01, 0x80):
            flipped = bytearray(data)
            flipped[pos] ^= mask
            _refused_or_canonical(bytes(flipped))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_ENCODED)), st.data())
def test_decoder_accepts_only_canonical_bytes(name, data):
    """Several arbitrary byte edits of a pinned encoding, then a cut."""
    raw = bytearray(_ENCODED[name])
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                         st.integers(1, 255)),
                               min_size=1, max_size=4))
    for pos, mask in edits:
        raw[pos] ^= mask
    cut = data.draw(st.integers(0, len(raw)))
    _refused_or_canonical(bytes(raw[:cut]))


if __name__ == "__main__":
    digests = {name: _digest(record) for name, record in records().items()}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
