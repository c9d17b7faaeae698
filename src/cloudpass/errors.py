"""Error hierarchy shared by every layer.

Each failure carries a stable machine-readable ``code`` (an UPPER_SNAKE
tag such as ``BAD_TIME`` or ``PAGE_OCCUPIED``) so callers can branch on
the code without parsing message text. The text names the code once:
``CODE`` or ``CODE: detail``.
"""

from __future__ import annotations


class CloudPassError(Exception):
    """Base class for all domain failures."""

    def __init__(self, code: str, detail: str | None = None):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code


class ValidationError(CloudPassError):
    """A value violates one of its declared invariants."""


class AuthError(CloudPassError):
    """Session, credential, captcha, or OTP failure."""


class QrError(CloudPassError):
    """Segmentation or link-token failure."""


class NfcError(CloudPassError):
    """Proximity channel or tap protocol failure."""


class CloudError(CloudPassError):
    """Authority or airport store failure."""


class DeskError(CloudPassError):
    """Immigration desk misuse (not a traveler outcome)."""


class ScenarioParseError(CloudPassError):
    """Scenario text rejected before execution; its text is
    ``line L, column C: message``."""
    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int, column: int):
        Exception.__init__(self, f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ScenarioRuntimeError(CloudPassError):
    """A command failed mid-run; ``index`` is the failing command position,
    and the text is ``command N: `` before the cause's own text."""
    code = "RUNTIME_FAULT"

    def __init__(self, index: int, cause: CloudPassError):
        Exception.__init__(self, f"command {index}: {cause}")
        self.index = index
        self.cause = cause
