"""Shared fixture: a hand-assembled world one tap away from a desk check.

Built directly from the domain modules (no scenario engine) so unit
tests exercise each layer on its own terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest
from hypothesis import settings

from cloudpass import authflow, clouds, immigration, model
from cloudpass.clouds import AirportCloud, EmbassyCloud, ManifestEntry, TravelManifest
from cloudpass.model import DeviceState, IdKind
from cloudpass.simnet.clock import VirtualClock

# Tier-1 runs Hypothesis's default profile; ``--hypothesis-profile=long``
# gives every property without its own example count 5,000 examples.
settings.register_profile("long", max_examples=5000, deadline=None)


@dataclass
class Kit:
    """Everything a desk check needs, pre-wired."""

    embassy: EmbassyCloud
    airport: AirportCloud
    device: DeviceState
    clock: VirtualClock
    rng: random.Random
    username: str
    password: str
    answers: tuple[str, ...]
    credentials: dict[str, authflow.Credential]
    otp_store: authflow.OtpStore = field(default_factory=authflow.OtpStore)
    alerts: list[immigration.PoliceAlert] = field(default_factory=list)
    visa_id: str = ""
    passport_no: str = ""
    visa_page: int = 3

    def script(self, **overrides) -> immigration.AgentScript:
        return immigration.AgentScript(
            username=self.username, password=self.password,
            image_answers=self.answers, **overrides)

    def desk(self, checkpoint: clouds.Checkpoint,
             airport: str = "") -> immigration.DeskCheck:
        code = airport or self.airport.airport
        return immigration.DeskCheck(checkpoint, code, f"{code}-D1",
                                     self.clock.now)


def build_kit(seed: int = 0, offset_min: int = 330, airport_code: str = "BLR",
              synced: bool = True, visa_page: int = 3) -> Kit:
    rng = random.Random(seed)
    embassy = EmbassyCloud("IN", rng.randbytes(16))
    airport = AirportCloud(airport_code)
    clock = VirtualClock(0)

    username, password = "alice", "open sesame"
    answers = tuple(f"memory {i}" for i in range(model.AUTH_IMAGE_COUNT))
    images = tuple(
        authflow.make_auth_image(i, rng.randbytes(32), answers[i])
        for i in range(model.AUTH_IMAGE_COUNT))
    device = DeviceState("alice-phone", offset_min, images)
    credentials = {username: authflow.make_credential(username, password, rng)}

    tracking = clouds.submit_application(embassy, username,
                                         IdKind.PASSPORT_APPLICATION, rng)
    note = clouds.approve_passport(embassy, tracking.value,
                                   passport_no="P7654321", holder_name=username,
                                   nationality="IN", issue_date=0,
                                   expiry_date=10 * 365 * 86400)
    clouds.download_passport_app(embassy, note.payload, device)

    visa_tracking = clouds.submit_application(embassy, username,
                                              IdKind.VISA_APPLICATION, rng)
    note = clouds.approve_visa(embassy, visa_tracking.value, visa_id="V0000042",
                               passport_no="P7654321",
                               destination_country="US", valid_from=0,
                               valid_to=365 * 86400,
                               image_bytes=rng.randbytes(256))
    clouds.download_visa_image(embassy, note.payload, device, visa_page)

    if synced:
        manifest = TravelManifest([ManifestEntry("P7654321", "V0000042",
                                                 airport_code, clock.now)])
        clouds.daily_sync(airport, embassy, manifest, clock.now)

    return Kit(embassy=embassy, airport=airport, device=device, clock=clock,
               rng=rng, username=username, password=password, answers=answers,
               credentials=credentials, visa_id="V0000042",
               passport_no="P7654321", visa_page=visa_page)


@pytest.fixture
def kit() -> Kit:
    return build_kit()


def open_visa_session(k: Kit, now: int | None = None) -> authflow.Session:
    """Walk one session all the way to VISA_VISIBLE."""
    t = k.clock.now if now is None else now
    session = authflow.open_session(k.device, t, k.rng)
    session = authflow.verify_time_auth(k.device, k.device.displayed_time(t),
                                        session.pending_captcha.text, t)
    session = authflow.verify_credentials(k.device, k.username, k.password,
                                          k.credentials, t)
    session, index = authflow.begin_image_auth(k.device, k.rng, t)
    return authflow.verify_image_answer(k.device, k.answers[index], t)
