"""Exception hierarchy shared across the package.

Every failure a caller is expected to branch on gets its own class; generic
misuse (wrong types, impossible arguments) raises plain ValueError/TypeError.
"""

from __future__ import annotations


class HalodetError(Exception):
    """Base class for all package-specific errors."""


# --- prompt rendering ---------------------------------------------------


class TemplateIntegrityError(HalodetError):
    """A stored template file does not match its pinned digest."""


class EmptyClaims(HalodetError):
    """A claim list to render was empty."""


class MissingSlot(HalodetError):
    def __init__(self, name: str):
        super().__init__(f"template slot not bound: {name!r}")
        self.name = name


class UnknownSlot(HalodetError):
    def __init__(self, name: str):
        super().__init__(f"binding does not match any template slot: {name!r}")
        self.name = name


# --- model gateway and tool backends ------------------------------------


class BackendError(HalodetError):
    """Base class for remote-backend failures."""


class BackendUnavailable(BackendError):
    """Backend unreachable, or retries exhausted on transient failures."""


class AuthFailure(BackendError):
    """Credentials rejected; never retried."""


class PayloadTooLarge(BackendError):
    """Request exceeds what the backend accepts; never retried."""


class InvalidImage(BackendError):
    """Image bytes missing or unreadable where a tool needs them."""


# --- model-output parsing -----------------------------------------------


class ParseError(HalodetError):
    """Base class for model-output parsing failures."""


class UnparseableModelOutput(ParseError):
    """Raw model text could not be coerced to the expected structure."""


class ClaimCountMismatch(ParseError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"expected entries for {expected} claims, got {got}")
        self.expected = expected
        self.got = got


class UnknownLabel(ParseError):
    def __init__(self, value: str):
        super().__init__(f"label outside the closed vocabulary: {value!r}")
        self.value = value


class EmptyExtraction(ParseError):
    """Claim extraction produced no claims (or was fed empty text)."""


class MissingDemonstrations(HalodetError):
    """Few-shot self-check requested without demonstration pairs configured."""


# --- cache ----------------------------------------------------------------


class StoreCorrupt(HalodetError):
    """On-disk cache entry failed its integrity check."""


# --- metrics ---------------------------------------------------------------


class EmptySegment(HalodetError):
    """Segment label requested for an empty claim-label list."""


class EmptyResponse(HalodetError):
    """Response label requested for an empty segment-label list."""


class LengthMismatch(HalodetError):
    """Prediction and gold vectors differ in length."""


class InvalidMatrix(HalodetError):
    """Ratings matrix violates its shape invariants."""


class MissingCategoryTags(HalodetError):
    """A gold-hallucinatory claim carries no category tags."""


# --- benchmark I/O ----------------------------------------------------------


class SchemaViolation(HalodetError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


class UnsupportedVersion(HalodetError):
    def __init__(self, version: str):
        super().__init__(f"unsupported benchmark schema version: {version!r}")
        self.version = version


class MissingPrediction(HalodetError):
    def __init__(self, pair_id: str):
        super().__init__(f"no detection result for pair {pair_id!r}")
        self.pair_id = pair_id


class IndexMismatch(HalodetError):
    """Result claim indices do not line up with the benchmark pair."""


class ResultFileInvalid(HalodetError):
    """A per-pair result file cannot be decoded, or holds another pair."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# --- configuration -----------------------------------------------------------


class ConfigInvalid(HalodetError):
    """Run configuration is inconsistent or incomplete."""
