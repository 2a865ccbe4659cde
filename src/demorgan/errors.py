"""Exception hierarchy shared by all modules.

Two top-level families matter to callers: ``InputError`` (the data handed
in is malformed or inconsistent, CLI exit code 2) and ``BoundExceeded``
(a configurable enumeration bound was hit, CLI exit code 3).
"""


class Error(Exception):
    """Base class for every error raised by this package."""


class InputError(Error):
    """Invalid or inconsistent input data."""


class BoundExceeded(Error):
    """An enumeration bound (sieves, topologies, nuclei) was exceeded."""


# --- category validation ---------------------------------------------------

class DanglingReference(InputError):
    """A name is referenced but never declared."""


class DuplicateName(InputError):
    """An object or arrow name is declared twice, or a composite twice."""


class NotComposable(InputError):
    """A composition entry pairs arrows that do not meet head to tail."""


class MissingComposite(InputError):
    """A composable pair of arrows has no composition entry."""


class BrokenIdentity(InputError):
    """An identity arrow fails the identity laws or misuses an id_ name."""


class BrokenAssociativity(InputError):
    """A composable triple violates associativity."""


class UnknownObject(InputError):
    """An object name is not part of the category."""


class UnknownArrow(InputError):
    """An arrow name is not part of the category."""


# --- sieves ----------------------------------------------------------------

class WrongCodomain(InputError):
    """A sieve generator does not end at the sieve's base object."""


class NotASieve(InputError):
    """An arrow set is not closed under precomposition."""


class BaseMismatch(InputError):
    """A pullback was requested along an arrow into a different base."""


# --- Grothendieck topologies -------------------------------------------------

class CategoryMismatch(InputError):
    """Two topologies over different categories were combined."""


class TopologyAxiomError(InputError):
    """A covering family violates a topology axiom.

    Instances carry a ``witness`` attribute with the offending data.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotMaximalClosed(TopologyAxiomError):
    pass


class NotStable(TopologyAxiomError):
    pass


class NotTransitive(TopologyAxiomError):
    pass


class EmptyReduction(Error):
    """Every object of the site is covered by the empty sieve."""


# --- Heyting algebras --------------------------------------------------------

class NotAPartialOrder(InputError):
    """The input relation is not antisymmetric after closure."""


class NotALattice(InputError):
    """Some pair of elements has no meet or no join."""


class NotResiduated(InputError):
    """Some pair of elements has no relative pseudocomplement."""


class UnknownElement(InputError):
    """An element name is not part of the algebra."""


# --- nuclei ------------------------------------------------------------------

class NotInflationary(InputError):
    pass


class NotIdempotent(InputError):
    pass


class NotMeetPreserving(InputError):
    pass


# --- file formats ------------------------------------------------------------

class ParseError(InputError):
    """A document could not be parsed into site or frame data."""
