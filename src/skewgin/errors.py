"""Exception types shared across the library.

Checks that produce *reports* (lists of findings) never raise; exceptions
are reserved for violated preconditions and malformed input.
"""


class SkewginError(Exception):
    pass


# ---- scalars ----

class NonPrimeModulus(SkewginError):
    pass


class NoRootOfUnity(SkewginError):
    pass


# ---- quivers and path algebras ----

class FieldMismatch(SkewginError):
    pass


class QuiverMismatch(SkewginError):
    pass


class UnknownArrow(SkewginError):
    pass


class NotACycle(SkewginError):
    pass


class DegreeMismatch(SkewginError):
    pass


class NotLengthHomogeneous(SkewginError):
    pass


class DimensionTooSmall(SkewginError):
    pass


# ---- groups ----

class NotLatinSquare(SkewginError):
    pass


class NoIdentity(SkewginError):
    pass


class NotAssociative(SkewginError):
    pass


class NotAbelian(SkewginError):
    pass


class BadCharacteristic(SkewginError):
    pass


# ---- actions, crossed products, reduction ----

class NotInvariantPotential(SkewginError):
    pass


class IncompleteIdempotents(SkewginError):
    pass


class NoSolution(SkewginError):
    pass


class BasisExpressFailure(SkewginError):
    pass


# ---- Weyl / Koszul ----

class NotSymplectic(SkewginError):
    def __init__(self, message, matrix_index=None):
        super().__init__(message)
        self.matrix_index = matrix_index


class SizeGuard(SkewginError):
    """A computation over a fixed size cap; location is the input at fault."""

    def __init__(self, message, location="/"):
        super().__init__(message)
        self.issues = [(location, message)]


# ---- input documents ----

class ParseError(SkewginError):
    pass


class ValidationError(SkewginError):
    """Carries a list of (json_pointer, message) pairs."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(f"{ptr}: {msg}" for ptr, msg in self.issues))


class InvalidAction(ValidationError):
    """A parsed action that is not a group action; one issue per problem."""

    def __init__(self, problems):
        super().__init__([("/action", problem) for problem in problems])
