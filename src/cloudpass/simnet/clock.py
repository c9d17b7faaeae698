"""Virtual time: integer seconds, moved only by scenario commands."""

from __future__ import annotations

from datetime import date, datetime, timezone
from functools import lru_cache

from ..errors import ValidationError

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


# "00" to "59": the two digits of an hour, a minute or a second.
_TWO_DIGITS = tuple(f"{n:02d}" for n in range(60))


@lru_cache(maxsize=1024)
def _iso_date(days: int) -> str:
    """The calendar date ``days`` after the epoch; a run's reports name
    few distinct days, so each is formatted once."""
    return date.fromordinal(EPOCH_ORDINAL + days).isoformat()


def render_iso(ts: int) -> str:
    """ISO-8601 rendering, used only at the report boundary."""
    days, seconds = divmod(ts, 86400)
    hours, seconds = divmod(seconds, 3600)
    minutes, seconds = divmod(seconds, 60)
    two = _TWO_DIGITS
    return f"{_iso_date(days)}T{two[hours]}:{two[minutes]}:{two[seconds]}Z"
