"""Error hierarchy shared by every layer.

Each failure carries a stable machine-readable ``code`` (an UPPER_SNAKE
tag such as ``BAD_TIME`` or ``PAGE_OCCUPIED``) so callers can branch on
the code without parsing message text. An error keeps the arguments it
was built with as its ``args``, ``(code, detail)`` or ``(code,)``, and
renders its text only when the text is read: ``CODE``, or
``CODE: detail`` when the detail is not empty. Most refusals are
counted and logged by code and their text is never read. Because
``args`` are the constructor's arguments, every error copies and
pickles through its constructor.
"""

from __future__ import annotations


class CloudPassError(Exception):
    """Base class for all domain failures."""

    def __init__(self, code: str, detail: str | None = None, /):
        # BaseException.__new__ already keeps the arguments as ``args``.
        pass

    @property
    def code(self) -> str:
        return self.args[0]

    def __str__(self) -> str:
        args = self.args
        if len(args) > 1 and args[1]:
            return f"{args[0]}: {args[1]}"
        return f"{args[0]}"


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

    def __init__(self, message: str, line: int, column: int, /):
        self.line = line
        self.column = column

    def __str__(self) -> str:
        message, line, column = self.args
        return f"line {line}, column {column}: {message}"


class ScenarioRuntimeError(CloudPassError):
    """A command failed mid-run; ``index`` is its position in the commands
    run, injected faults included. The text names where the command came
    from, ``line L`` or ``--fault N``, before the cause's own text. It is
    raised from the cause, so ``__cause__`` holds the command's error."""
    code = "RUNTIME_FAULT"

    def __init__(self, index: int, cause: CloudPassError, where: str, /):
        self.index = index

    def __str__(self) -> str:
        _, cause, where = self.args
        return f"{where}: {cause}"
