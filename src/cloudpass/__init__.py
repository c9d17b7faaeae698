"""CloudPass: cloud-issued passports and visas checked at simulated
border desks, deterministic end to end.

Importing the package loads every module so all record codecs are
registered before any serialization happens. The one exception is
``server``, the TCP shell of ``cloudpass serve``: it registers no codec,
and leaving it out keeps the socket modules out of every other run.
"""

from . import authflow, clouds, immigration, model, nfc, qrlink, wire
from .errors import (AuthError, CloudError, CloudPassError, DeskError,
                     NfcError, QrError, ScenarioParseError,
                     ScenarioRuntimeError, ValidationError)
from .model import canonical_deserialize, canonical_serialize, content_hash
from .simnet import load_scenario, run

__version__ = "0.1.0"

__all__ = [
    "authflow", "clouds", "immigration", "model", "nfc", "qrlink", "wire",
    "AuthError", "CloudError", "CloudPassError", "DeskError", "NfcError",
    "QrError", "ScenarioParseError", "ScenarioRuntimeError",
    "ValidationError", "canonical_deserialize", "canonical_serialize",
    "content_hash", "load_scenario", "run", "__version__",
]
