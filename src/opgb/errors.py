"""Exception hierarchy for the opgb package.

Every error raised by the library subclasses OpgbError so callers can catch
one type. Each class carries the CLI exit code it maps to: 2 for the
subclasses of Refusal (a vanishing leading minor, an inadmissible transform
parameter), 1 for every other error. NotQuasiDefinite carries the index of
the first vanishing leading principal minor, which is the only structured
payload any of these need.
"""


class OpgbError(Exception):
    exit_code = 1


class Refusal(OpgbError):
    """The input is well formed, but the mathematics admits no answer."""

    exit_code = 2


class SingularBlock(Refusal):
    """A leading principal block that must be invertible is singular."""


class NotQuasiDefinite(Refusal):
    """A leading principal minor of the Gram matrix vanishes.

    Attributes
    ----------
    index : int
        First index k with H_k = 0, i.e. the (k+1) x (k+1) leading block
        G[:k+1, :k+1] is the first singular one.
    """

    def __init__(self, index):
        self.index = index
        super().__init__(
            f"quasi-definiteness fails at index {index}: "
            f"leading principal minor of order {index + 1} vanishes"
        )


class NotHankel(OpgbError):
    """Operation requires a Hankel (moment) Gram matrix."""


class PoleAtAtom(Refusal):
    """A transform parameter coincides with the support of a discrete measure."""


class DegenerateRecurrence(Refusal):
    """Classical moment recurrence hit a vanishing leading coefficient."""


class InsufficientTruncation(OpgbError):
    """A requested degree or index is outside what the truncation certifies."""


class ZeroAtRoot(Refusal):
    """P_{1,n}(a) = 0, so a degree-one Christoffel step is not defined."""


class SingularJetMatrix(Refusal):
    """The jet matrix of a general Christoffel transform is singular."""


class ZeroDenominator(Refusal):
    """A Geronimus denominator D_k vanishes, so the degree-one formulas break down."""


class NotCoprime(Refusal):
    """Numerator and denominator of a spectral perturbation share a root."""


class NonPositive(Refusal):
    """P_k has non-real or coinciding roots, so no real Gauss rule exists."""


class DegenerateDenominator(Refusal):
    """A classical closed form divides by A + 2na = 0 (classical_subdiagonal)."""


class SingularTruncation(Refusal):
    """A truncated matrix that must be invertible is singular."""


class UnsupportedMeasure(OpgbError):
    """A measure spec or request is malformed: an unknown type, missing
    fields, an option the chosen transform does not read, or a --c0 list
    that does not fit the measure."""
