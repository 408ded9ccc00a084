"""Shared exception types."""


class ModfixError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(ModfixError):
    pass


class NonFiniteError(ModfixError):
    pass


class AdmissibilityError(ModfixError):
    """Constants or rescaling inputs violate their admissibility constraints."""


class ConfigError(ModfixError):
    """Configuration problem, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


class ExprError(ModfixError):
    """Expression parse or evaluation problem, carrying a source position."""

    def __init__(self, message: str, pos: int):
        self.pos = pos
        # nodes built outside the parser (pos < 0) have no source position
        super().__init__(f"{message} at position {pos}" if pos >= 0 else message)
