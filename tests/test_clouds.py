"""Issuing clouds, airport replicas, and the daily manifest pull."""

import random

import pytest

from cloudpass import clouds
from cloudpass.clouds import (SYNC_HORIZON_S, AirportCloud, AppStatus,
                              Checkpoint, CompareResult, EmbassyCloud,
                              ManifestEntry, NotificationKind, TravelManifest,
                              compare_visa, daily_sync, download_passport_app,
                              download_visa_image, receive_desk_copy,
                              submit_application)
from cloudpass.errors import CloudError, QrError, ValidationError
from cloudpass.model import MAX_IMAGE_BYTES, DeviceState, IdKind, content_hash
from cloudpass.qrlink import LinkToken


def fresh_embassy(seed=0):
    rng = random.Random(seed)
    return EmbassyCloud("IN", rng.randbytes(16)), rng


def fresh_device(rng, device_id="phone-1"):
    from cloudpass import authflow, model
    images = tuple(authflow.make_auth_image(i, rng.randbytes(8), f"a {i}")
                   for i in range(model.AUTH_IMAGE_COUNT))
    return DeviceState(device_id, 0, images)


def approved_passport(cloud, rng, applicant="alice", passport_no="P0000001"):
    tracking = submit_application(cloud, applicant,
                                  IdKind.PASSPORT_APPLICATION, rng)
    return tracking, clouds.approve_passport(
        cloud, tracking.value, passport_no=passport_no,
        holder_name=applicant, nationality="IN", issue_date=0,
        expiry_date=10**9)


def approved_visa(cloud, rng, passport_no="P0000001", visa_id="V0000001",
                  image=b"visa pixels"):
    tracking = submit_application(cloud, "alice", IdKind.VISA_APPLICATION, rng)
    return tracking, clouds.approve_visa(
        cloud, tracking.value, visa_id=visa_id, passport_no=passport_no,
        destination_country="US", valid_from=0, valid_to=10**9,
        image_bytes=image)


def test_clouds_refuse_a_malformed_id():
    # An embassy's id doubles as its country, and an airport's is its code.
    with pytest.raises(ValidationError) as err:
        EmbassyCloud("India", b"secret")
    assert str(err.value) == "BAD_COUNTRY_CODE: 'India'"
    with pytest.raises(ValidationError) as err:
        AirportCloud("blr")
    assert str(err.value) == ("BAD_AIRPORT_CODE: airport must be 3 uppercase "
                              "letters, got 'blr'")


# ---------------------------------------------------------------------------
# applications


def test_submit_gives_valid_tracking():
    cloud, rng = fresh_embassy()
    tracking = submit_application(cloud, "alice",
                                  IdKind.PASSPORT_APPLICATION, rng)
    assert clouds.application_status(cloud, tracking.value) is AppStatus.SUBMITTED


def test_status_unknown_id():
    cloud, _ = fresh_embassy()
    with pytest.raises(CloudError) as err:
        clouds.application_status(cloud, "ZZZZZZZZZZZZ")
    assert err.value.code == "NOT_FOUND"


def test_two_submissions_distinct_ids():
    cloud, rng = fresh_embassy()
    a = submit_application(cloud, "alice", IdKind.PASSPORT_APPLICATION, rng)
    b = submit_application(cloud, "alice", IdKind.PASSPORT_APPLICATION, rng)
    assert a.value != b.value


# ---------------------------------------------------------------------------
# approval


def test_approve_passport_notifies_with_resolving_token():
    cloud, rng = fresh_embassy()
    tracking, note = approved_passport(cloud, rng)
    assert clouds.application_status(cloud, tracking.value) is AppStatus.APPROVED
    assert note.kind is NotificationKind.PASSPORT_READY
    from cloudpass.qrlink import resolve_link_token
    assert resolve_link_token(note.payload, cloud) == "P0000001"


def test_approve_twice_rejected():
    cloud, rng = fresh_embassy()
    tracking, _ = approved_passport(cloud, rng)
    with pytest.raises(CloudError) as err:
        clouds.approve_passport(cloud, tracking.value, passport_no="P2",
                                holder_name="alice", nationality="IN",
                                issue_date=0, expiry_date=1)
    assert err.value.code == "ALREADY_APPROVED"


def test_approve_wrong_kind_tracking():
    cloud, rng = fresh_embassy()
    tracking = submit_application(cloud, "alice", IdKind.VISA_APPLICATION, rng)
    with pytest.raises(CloudError) as err:
        clouds.approve_passport(cloud, tracking.value, passport_no="P1",
                                holder_name="alice", nationality="IN",
                                issue_date=0, expiry_date=1)
    assert err.value.code == "UNKNOWN_TRACKING_ID"


def test_approve_visa_stores_blob_by_hash():
    cloud, rng = fresh_embassy()
    approved_passport(cloud, rng)
    _, note = approved_visa(cloud, rng, image=b"visa pixels")
    digest = content_hash(b"visa pixels")
    assert cloud.blobs[digest] == b"visa pixels"
    assert cloud.visas["V0000001"].image_hash == digest
    assert note.kind is NotificationKind.VISA_READY


def test_approve_visa_duplicate_id_rejected():
    cloud, rng = fresh_embassy()
    approved_passport(cloud, rng)
    approved_visa(cloud, rng, visa_id="V0000001")
    with pytest.raises(CloudError) as err:
        approved_visa(cloud, rng, visa_id="V0000001")
    assert err.value.code == "DUPLICATE_VISA_ID"


def test_approve_passport_duplicate_number_rejected():
    cloud, rng = fresh_embassy()
    _, note = approved_passport(cloud, rng, applicant="alice",
                                passport_no="P1")
    bound = clouds.download_passport_app(cloud, note.payload, fresh_device(rng))
    tracking = submit_application(cloud, "bob", IdKind.PASSPORT_APPLICATION, rng)
    before, notes = cloud.snapshot_bytes(), dict(cloud.latest_notices)
    with pytest.raises(CloudError) as err:
        clouds.approve_passport(cloud, tracking.value, passport_no="P1",
                                holder_name="bob", nationality="IN",
                                issue_date=0, expiry_date=10**9)
    assert err.value.code == "DUPLICATE_PASSPORT_NO"
    assert cloud.passports["P1"] is bound
    assert bound.holder_name == "alice" and bound.bound_device == "phone-1"
    assert cloud.snapshot_bytes() == before
    assert cloud.latest_notices == notes
    assert clouds.application_status(cloud, tracking.value) is AppStatus.SUBMITTED


def test_approve_visa_image_too_large_rejected():
    cloud, rng = fresh_embassy()
    approved_passport(cloud, rng)
    tracking = submit_application(cloud, "alice", IdKind.VISA_APPLICATION, rng)
    before = cloud.snapshot_bytes()
    with pytest.raises(CloudError) as err:
        clouds.approve_visa(cloud, tracking.value, visa_id="V1",
                            passport_no="P0000001", destination_country="US",
                            valid_from=0, valid_to=10**9,
                            image_bytes=bytes(MAX_IMAGE_BYTES + 1))
    assert err.value.code == "IMAGE_TOO_LARGE"
    assert cloud.snapshot_bytes() == before
    approved_visa(cloud, rng, image=bytes(MAX_IMAGE_BYTES))


@pytest.mark.parametrize("kind, fields", [
    (IdKind.PASSPORT_APPLICATION, {"holder_name": "b\ud800b"}),
    (IdKind.PASSPORT_APPLICATION, {"passport_no": "P\ud800"}),
    (IdKind.VISA_APPLICATION, {"passport_no": "P\udfff1"}),
    (IdKind.VISA_APPLICATION, {"visa_id": "V\ud800"}),
], ids=["holder", "passport-no", "visa-passport-no", "visa-id"])
def test_approval_refuses_text_the_codec_cannot_write(kind, fields):
    # A lone surrogate would be stored and then fail the holder's NFC
    # presentation; the codec's own rule refuses it before anything is
    # stored, and the retry with clean text is approved.
    cloud, rng = fresh_embassy()
    tracking = submit_application(cloud, "bob", kind, rng)
    if kind is IdKind.PASSPORT_APPLICATION:
        approve, good = clouds.approve_passport, {
            "passport_no": "P1", "holder_name": "bob", "nationality": "IN",
            "issue_date": 0, "expiry_date": 10**9}
    else:
        approve, good = clouds.approve_visa, {
            "visa_id": "V1", "passport_no": "P1", "destination_country": "US",
            "valid_from": 0, "valid_to": 10**9, "image_bytes": b"pixels"}
    before = cloud.snapshot_bytes()
    with pytest.raises(ValidationError) as err:
        approve(cloud, tracking.value, **{**good, **fields})
    assert err.value.code == "BAD_UTF8"
    assert cloud.snapshot_bytes() == before
    assert cloud.latest_notices == {}
    assert clouds.application_status(cloud, tracking.value) is AppStatus.SUBMITTED
    approve(cloud, tracking.value, **good)
    assert clouds.application_status(cloud, tracking.value) is AppStatus.APPROVED


# ---------------------------------------------------------------------------
# downloads


def test_download_passport_binds_device():
    cloud, rng = fresh_embassy()
    _, note = approved_passport(cloud, rng)
    device = fresh_device(rng)
    passport = download_passport_app(cloud, note.payload, device)
    assert device.passport is not None
    assert device.passport.bound_device == device.device_id
    assert passport.passport_no == "P0000001"
    assert cloud.passports["P0000001"].bound_device == device.device_id


def test_download_passport_second_device_rejected():
    cloud, rng = fresh_embassy()
    _, note = approved_passport(cloud, rng)
    download_passport_app(cloud, note.payload, fresh_device(rng, "phone-1"))
    other = fresh_device(rng, "phone-2")
    with pytest.raises(CloudError) as err:
        download_passport_app(cloud, note.payload, other)
    assert err.value.code == "DEVICE_ALREADY_BOUND"
    assert other.passport is None


def test_download_passport_tampered_token():
    cloud, rng = fresh_embassy()
    _, note = approved_passport(cloud, rng)
    token = note.payload
    forged = LinkToken(token.authority_id, token.resource_kind, "P9999999",
                       token.signature)
    with pytest.raises(QrError) as err:
        download_passport_app(cloud, forged, fresh_device(rng))
    assert err.value.code == "BAD_SIGNATURE"


def test_download_visa_to_page():
    cloud, rng = fresh_embassy()
    _, pnote = approved_passport(cloud, rng)
    _, vnote = approved_visa(cloud, rng, image=b"visa pixels")
    device = fresh_device(rng)
    download_passport_app(cloud, pnote.payload, device)
    image = download_visa_image(cloud, vnote.payload, device, 3)
    assert device.passport.page(3).visa_id == "V0000001"
    assert image.content_hash == content_hash(b"visa pixels")
    assert device.visas["V0000001"].data == b"visa pixels"


def test_download_visa_occupied_page_leaves_device_unchanged():
    cloud, rng = fresh_embassy()
    _, pnote = approved_passport(cloud, rng)
    _, v1 = approved_visa(cloud, rng, visa_id="V0000001")
    _, v2 = approved_visa(cloud, rng, visa_id="V0000002", image=b"other")
    device = fresh_device(rng)
    download_passport_app(cloud, pnote.payload, device)
    download_visa_image(cloud, v1.payload, device, 3)
    before = set(device.visas)
    with pytest.raises(ValidationError) as err:
        download_visa_image(cloud, v2.payload, device, 3)
    assert err.value.code == "PAGE_OCCUPIED"
    assert set(device.visas) == before


def test_download_visa_without_passport():
    cloud, rng = fresh_embassy()
    approved_passport(cloud, rng)
    _, vnote = approved_visa(cloud, rng)
    with pytest.raises(CloudError) as err:
        download_visa_image(cloud, vnote.payload, fresh_device(rng), 3)
    assert err.value.code == "NO_PASSPORT"


def test_download_wrong_resource_kind():
    cloud, rng = fresh_embassy()
    _, pnote = approved_passport(cloud, rng)
    _, vnote = approved_visa(cloud, rng)
    device = fresh_device(rng)
    with pytest.raises(CloudError) as err:
        download_passport_app(cloud, vnote.payload, device)
    assert err.value.code == "WRONG_RESOURCE_KIND"
    download_passport_app(cloud, pnote.payload, device)
    with pytest.raises(CloudError) as err:
        download_visa_image(cloud, pnote.payload, device, 3)
    assert err.value.code == "WRONG_RESOURCE_KIND"


# ---------------------------------------------------------------------------
# daily sync


def _embassy_with_visas(rng, visa_ids):
    cloud = EmbassyCloud("IN", rng.randbytes(16))
    approved_passport(cloud, rng)
    for i, visa_id in enumerate(visa_ids):
        approved_visa(cloud, rng, visa_id=visa_id,
                      image=f"image {i}".encode())
    return cloud


def test_sync_window_is_closed_two_day_lookahead():
    rng = random.Random(0)
    cloud = _embassy_with_visas(rng, [f"V{i:07d}" for i in range(4)])
    date = 10 * 86400
    manifest = TravelManifest([
        ManifestEntry("P0000001", "V0000000", "BLR", date - 1),
        ManifestEntry("P0000001", "V0000001", "BLR", date),
        ManifestEntry("P0000001", "V0000002", "BLR", date + SYNC_HORIZON_S),
        ManifestEntry("P0000001", "V0000003", "BLR", date + SYNC_HORIZON_S + 1),
    ])
    airport = AirportCloud("BLR")
    daily_sync(airport, cloud, manifest, date)
    assert set(airport.replicated) == {"V0000001", "V0000002"}


def test_sync_filters_by_airport():
    rng = random.Random(0)
    cloud = _embassy_with_visas(rng, ["V0000001"])
    manifest = TravelManifest([ManifestEntry("P0000001", "V0000001", "LHR", 0)])
    airport = AirportCloud("JFK")
    daily_sync(airport, cloud, manifest, 0)
    assert airport.replicated == {}


def test_sync_twice_identical_snapshot():
    rng = random.Random(0)
    cloud = _embassy_with_visas(rng, ["V0000001", "V0000002"])
    manifest = TravelManifest([
        ManifestEntry("P0000001", "V0000001", "BLR", 0),
        ManifestEntry("P0000001", "V0000002", "BLR", 86400),
    ])
    airport = AirportCloud("BLR")
    daily_sync(airport, cloud, manifest, 0)
    once = airport.snapshot_bytes()
    daily_sync(airport, cloud, manifest, 0)
    assert airport.snapshot_bytes() == once


def test_sync_dangling_entry_reported_and_skipped():
    rng = random.Random(0)
    cloud = _embassy_with_visas(rng, ["V0000001"])
    manifest = TravelManifest([
        ManifestEntry("P0000001", "V0000001", "BLR", 0),
        ManifestEntry("P0000001", "V4040404", "BLR", 0),
    ])
    airport = AirportCloud("BLR")
    dangling = []
    daily_sync(airport, cloud, manifest, 0, dangling)
    assert set(airport.replicated) == {"V0000001"}
    assert [e.visa_id for e in dangling] == ["V4040404"]


def test_sync_drops_revoked_visa():
    from cloudpass.model import VisaStatus
    from cloudpass.model import replace
    rng = random.Random(0)
    cloud = _embassy_with_visas(rng, ["V0000001"])
    manifest = TravelManifest([ManifestEntry("P0000001", "V0000001", "BLR", 0)])
    airport = AirportCloud("BLR")
    daily_sync(airport, cloud, manifest, 0)
    assert "V0000001" in airport.replicated
    cloud.visas["V0000001"] = replace(cloud.visas["V0000001"],
                                      status=VisaStatus.REVOKED)
    daily_sync(airport, cloud, manifest, 0)
    assert "V0000001" not in airport.replicated


def test_replicate_stores_row_and_refuses_malformed_hash():
    airport = AirportCloud("BLR")
    digest = content_hash(b"pixels")
    clouds.replicate(airport, "V0000001", "P0000001", digest)
    assert airport.replicated == {"V0000001": ("P0000001", digest)}
    with pytest.raises(ValidationError) as err:
        clouds.replicate(airport, "V0000002", "P0000001", "zz")
    assert str(err.value) == "BAD_HASH_FORMAT: 'zz'"
    assert set(airport.replicated) == {"V0000001"}


def test_sync_matches_brute_force_oracle():
    rng = random.Random(77)
    airports = ["BLR", "JFK", "LHR", "DXB", "HND"]
    for _ in range(20):
        visa_ids = [f"V{i:07d}" for i in range(rng.randint(1, 12))]
        cloud = _embassy_with_visas(random.Random(rng.random()), visa_ids)
        entries = [
            ManifestEntry("P0000001",
                          rng.choice(visa_ids + ["VMISSING00"]),
                          rng.choice(airports),
                          rng.randrange(0, 6 * 86400))
            for _ in range(rng.randint(0, 30))
        ]
        code = rng.choice(airports)
        date = rng.randrange(0, 4 * 86400)
        airport = AirportCloud(code)
        daily_sync(airport, cloud, TravelManifest(entries), date)

        expected = {}
        for e in entries:
            if (e.airport == code and date <= e.travel_date <= date + SYNC_HORIZON_S
                    and e.visa_id in cloud.visas):
                rec = cloud.visas[e.visa_id]
                expected[e.visa_id] = (rec.passport_no, rec.image_hash)
        assert airport.replicated == expected


def _scanned_sync(airport, cloud, entries, date):
    """The sync as a scan of every row in booking order: the replica it
    leaves and the dangling rows it reports, in order."""
    replicated, dangling = dict(airport.replicated), []
    for e in entries:
        if e.airport != airport.airport or not date <= e.travel_date <= date + SYNC_HORIZON_S:
            continue
        rec = cloud.visas.get(e.visa_id)
        if rec is None:
            dangling.append(e)
        else:
            replicated[e.visa_id] = (rec.passport_no, rec.image_hash)
    return list(replicated.items()), dangling


def test_sync_keeps_the_booking_order_of_rows_booked_between_syncs():
    # Rows are booked out of travel-date order, some twice, some dangling;
    # the replica's insertion order and the dangling list match a scan.
    rng = random.Random(5)
    visa_ids = [f"V{i:07d}" for i in range(8)]
    cloud = _embassy_with_visas(rng, visa_ids)
    manifest = TravelManifest()
    airports = {code: AirportCloud(code) for code in ("BLR", "JFK")}
    for day in range(12):
        for _ in range(6):
            manifest.entries.append(ManifestEntry(
                "P0000001", rng.choice(visa_ids + ["V9999998", "V9999999"]),
                rng.choice(sorted(airports)), rng.randrange(0, 14 * 86400)))
        for airport in airports.values():
            expected = _scanned_sync(airport, cloud, manifest.entries, day * 86400)
            dangling = []
            daily_sync(airport, cloud, manifest, day * 86400, dangling)
            assert (list(airport.replicated.items()), dangling) == expected


def test_sync_visits_only_rows_in_its_window():
    # Work count: a sync reads the rows inside its window, plus the rows
    # booked since the last lookup, once, to index them; no other row.
    touched = set()

    class Row(ManifestEntry):
        def __getattribute__(self, name):
            touched.add(id(self))
            return object.__getattribute__(self, name)

    rng = random.Random(9)
    visa_ids = [f"V{i:07d}" for i in range(4)]
    cloud = _embassy_with_visas(rng, visa_ids)
    manifest = TravelManifest()
    airports = [AirportCloud("BLR"), AirportCloud("JFK")]
    for day in range(40):
        booked = [Row("P0000001", rng.choice(visa_ids), code,
                      (day + rng.randrange(0, 4)) * 86400)
                  for code in ("BLR", "JFK") for _ in range(3)]
        rng.shuffle(booked)
        manifest.entries.extend(booked)
        new = {id(row) for row in booked}
        for airport in airports:
            date = day * 86400
            window = {id(row) for row in manifest.entries
                      if row.airport == airport.airport
                      and date <= row.travel_date <= date + SYNC_HORIZON_S}
            touched.clear()
            daily_sync(airport, cloud, manifest, date)
            assert touched == window | new
            new = set()


# ---------------------------------------------------------------------------
# desk copies and comparison


def _replicated_airport(image=b"visa pixels"):
    rng = random.Random(0)
    cloud = _embassy_with_visas(rng, ["V0000001"])
    airport = AirportCloud("BLR")
    manifest = TravelManifest([ManifestEntry("P0000001", "V0000001", "BLR", 0)])
    daily_sync(airport, cloud, manifest, 0)
    return airport


def test_desk_copy_matches_replica():
    airport = _replicated_airport()
    digest = content_hash(b"image 0")
    receive_desk_copy(airport, "V0000001", digest, Checkpoint.DEPARTURE)
    assert digest == airport.replicated["V0000001"][1]
    assert compare_visa(airport, "V0000001", Checkpoint.DEPARTURE) is CompareResult.MATCH


def test_desk_copy_single_flip_mismatch():
    airport = _replicated_airport()
    tampered = bytearray(b"image 0")
    tampered[0] ^= 0x01
    receive_desk_copy(airport, "V0000001", content_hash(bytes(tampered)),
                      Checkpoint.ARRIVAL)
    assert compare_visa(airport, "V0000001", Checkpoint.ARRIVAL) is CompareResult.MISMATCH


def test_desk_copy_for_unreplicated_visa_not_found():
    airport = _replicated_airport()
    receive_desk_copy(airport, "V7777777", content_hash(b"whatever"),
                      Checkpoint.DEPARTURE)
    assert compare_visa(airport, "V7777777", Checkpoint.DEPARTURE) is CompareResult.NOT_FOUND


def test_desk_copy_refuses_a_malformed_hash():
    airport = _replicated_airport()
    digest = content_hash(b"image 0")
    for bad in ("zz", digest.upper(), digest[:-1], digest + "0"):
        with pytest.raises(ValidationError) as err:
            receive_desk_copy(airport, "V0000001", bad, Checkpoint.DEPARTURE)
        assert err.value.code == "BAD_HASH_FORMAT"
    assert airport.desk_copies == {}


def test_compare_without_desk_copy():
    airport = _replicated_airport()
    with pytest.raises(CloudError) as err:
        compare_visa(airport, "V0000001", Checkpoint.ARRIVAL)
    assert err.value.code == "NO_DESK_COPY"


def test_checkpoints_keep_separate_desk_copies():
    airport = _replicated_airport()
    receive_desk_copy(airport, "V0000001", content_hash(b"image 0"),
                      Checkpoint.DEPARTURE)
    tampered = b"image 0x"
    receive_desk_copy(airport, "V0000001", content_hash(tampered),
                      Checkpoint.ARRIVAL)
    assert compare_visa(airport, "V0000001", Checkpoint.DEPARTURE) is CompareResult.MATCH
    assert compare_visa(airport, "V0000001", Checkpoint.ARRIVAL) is CompareResult.MISMATCH


# ---------------------------------------------------------------------------
# snapshots


def test_embassy_snapshot_deterministic():
    cloud, rng = fresh_embassy()
    approved_passport(cloud, rng)
    approved_visa(cloud, rng)
    assert cloud.snapshot_bytes() == cloud.snapshot_bytes()


def test_kit_builds_consistent_world(kit):
    # sanity of the shared fixture itself
    assert kit.device.passport.page(3).visa_id == kit.visa_id
    assert kit.airport.replicated[kit.visa_id][1] == \
        kit.embassy.visas[kit.visa_id].image_hash
