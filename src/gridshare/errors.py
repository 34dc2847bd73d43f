"""Exception hierarchy for gridshare."""


class GridShareError(Exception):
    """Base class for all gridshare errors."""


class GenerationFailureError(GridShareError):
    """Prime-pair search exceeded its attempt budget."""


class InvalidParametersError(GridShareError):
    """Group parameters or a sharing modulus failed a structural check
    (order, cofactor, size)."""


class InvalidKeyError(InvalidParametersError):
    """Commitment key generators failed their order checks."""


class EncodingRangeError(GridShareError):
    """Fixed-point encoding would exceed the centered field range."""


class InvalidPartyCountError(GridShareError):
    """Secret sharing requested for fewer than two parties."""


class IncompleteSharesError(GridShareError):
    """Reconstruction or aggregation called with a wrong number of shares."""


class DegeneratePreferenceError(GridShareError):
    """Energy update with a zero quadratic preference coefficient."""


class InvalidConfigError(GridShareError):
    """Scenario or market configuration violates a precondition."""


class LifecycleError(GridShareError):
    """A protocol phase ran before its prerequisites completed."""


class ProtocolAbortError(GridShareError):
    """The slot was aborted because the commitment check rejected."""


class AsymmetricTranscriptError(GridShareError):
    """Agents' traffic or storage counters differ where the protocol makes
    them equal, so no single agent's counters represent the TA class."""
