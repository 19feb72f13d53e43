"""Exception types shared across the package."""


class OkuboError(Exception):
    """Base class for all library errors."""


class NotPrime(OkuboError):
    pass


class ReducibleModulus(OkuboError):
    pass


class DivisionByZero(OkuboError, ZeroDivisionError):
    pass


class FieldMismatch(OkuboError):
    pass


class InfiniteField(OkuboError):
    pass


class AlgebraMismatch(OkuboError):
    pass


class CoordinateCount(OkuboError, ValueError):
    """A coordinate vector whose length is not the algebra's dimension."""


class NoForm(OkuboError):
    pass


class BadCharacteristic(OkuboError):
    pass


class NoCubeRoot(OkuboError):
    pass


class SingularMatrix(OkuboError):
    pass


class NotClosed(OkuboError):
    pass


class NotIdempotent(OkuboError):
    pass


class BudgetExceeded(OkuboError):
    pass


class Inconclusive(OkuboError):
    """Randomized certification ran out of retries without a proof either way."""


class ClassificationAnomaly(OkuboError):
    """An idempotent whose (centralizer dim, norm rank) pair matches no known case.

    Carries the offending data so a census can report it instead of guessing.
    """

    def __init__(self, coords, centralizer_dim, norm_rank):
        self.coords = coords
        self.centralizer_dim = centralizer_dim
        self.norm_rank = norm_rank
        super().__init__(
            f"idempotent {coords} has centralizer dim {centralizer_dim}, "
            f"norm rank {norm_rank}: no classification case applies"
        )


class BadFieldSpec(OkuboError):
    pass


class BadOption(OkuboError):
    """A command-line option value outside its valid range, or a command line
    the parser rejects; ``command`` is the subcommand, when it is known."""

    def __init__(self, message, command=None):
        super().__init__(message)
        self.command = command


class OutputError(OkuboError):
    """An output file that cannot be written."""
