"""Exception types shared across the package."""


class UnsupportedPrimeError(ValueError):
    """Raised for moduli that are composite or one of the excluded primes 2, 3."""


class IdentityViolationError(ArithmeticError):
    """Raised when a structural identity that must hold fails to verify.

    These identities (twist relations, endpoint constants, substitution
    relations) hold for every odd prime p > 3; a violation indicates a bug
    or corrupted input rather than an interesting mathematical event.
    """


class BFileError(ValueError):
    """Raised for malformed coefficient files; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number
