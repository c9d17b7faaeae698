"""Virtual time: integer seconds, moved only by scenario commands."""

from __future__ import annotations

from datetime import date, datetime, timezone
from functools import lru_cache

from ..errors import ValidationError
from ..model import _TWO_DIGITS, clock_text

# Scenario second 0 renders as this instant in reports.
SCENARIO_EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)
EPOCH_ORDINAL = SCENARIO_EPOCH.toordinal()
# The last second a report can render: 9999-12-31T23:59:59Z.
CLOCK_MAX = (date.max.toordinal() - EPOCH_ORDINAL) * 86400 + 86399


class VirtualClock:
    """Monotonic scenario clock. Nothing inside the world advances it."""

    __slots__ = ("now",)

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError("clock cannot start before the epoch")
        self.now = start

    def advance(self, seconds: int) -> int:
        """Move the clock forward; refuse to pass ``CLOCK_MAX`` with
        ``CLOCK_OVERFLOW`` rather than leave a time no report can render."""
        if seconds < 0:
            raise ValueError("virtual time never goes backwards")
        if seconds > CLOCK_MAX - self.now:
            raise ValidationError(
                "CLOCK_OVERFLOW",
                f"{self.now} + {seconds}s passes {render_iso(CLOCK_MAX)}")
        self.now += seconds
        return self.now


@lru_cache(maxsize=4)
def _iso_minute(minutes: int) -> str:
    """``YYYY-MM-DDTHH:MM:``, the minute ``minutes`` after the epoch. A
    run logs several lines a minute in time order, so the last few minutes
    are all it reuses."""
    days, minutes = divmod(minutes, 1440)
    day = date.fromordinal(EPOCH_ORDINAL + days).isoformat()
    return f"{day}T{clock_text(minutes)}:"


def render_iso(ts: int) -> str:
    """ISO-8601 rendering, used only at the report boundary."""
    minutes, seconds = divmod(ts, 60)
    return f"{_iso_minute(minutes)}{_TWO_DIGITS[seconds]}Z"
