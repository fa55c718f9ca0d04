"""Structured domain errors.

Each failure mode a caller can trigger has its own class, so the CLI can
surface the error name verbatim and tests can assert on the exact class.
Errors carry their witnesses as attributes.
"""


class EngineError(Exception):
    """Base class for every domain error raised by this package."""


class ParseError(EngineError):
    """A text-format document is syntactically malformed."""


class DanglingReference(EngineError):
    """A table refers to an object or morphism that was never declared."""


class MissingIdentity(EngineError):
    """An identity is absent or an identity law fails; witness attached."""

    def __init__(self, witness, detail=""):
        self.witness = witness
        super().__init__(f"identity law failed at {witness!r}" + (f": {detail}" if detail else ""))


class BadCompositionTyping(EngineError):
    """comp is not total exactly on composable pairs, or a composite is mistyped."""


class NonAssociative(EngineError):
    def __init__(self, f, g, h):
        self.triple = (f, g, h)
        super().__init__(f"associativity fails on ({f!r}, {g!r}, {h!r})")


class UnknownObject(EngineError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no such object: {name!r}")


class UnknownMorphism(EngineError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no such morphism: {name!r}")


class NotAFunctor(EngineError):
    """Functor validation failed; .witness names the offending datum."""

    def __init__(self, witness, detail=""):
        self.witness = witness
        super().__init__(f"not a functor at {witness!r}" + (f": {detail}" if detail else ""))


class NotNatural(EngineError):
    """Naturality square broken; .witness is the morphism whose square fails."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"naturality square fails at {witness!r}")


class SizeCapExceeded(EngineError):
    """A derived-category construction would exceed one of its size guards."""

    def __init__(self, what, projected, cap):
        self.what = what
        self.projected = projected
        self.cap = cap
        super().__init__(f"{what}: projected {projected} exceeds cap {cap}")


class InvalidPoset(EngineError):
    """A poset cannot be named as asked: two generators or two elements
    render alike, or a basepoint is not an element.  Every poset is an
    order by construction; the tests' validator raises this class too."""


class InvalidMap(EngineError):
    """A monotone or pointed map fails its construction-time checks."""


class OracleMismatch(EngineError):
    """A result failed a check that holds by construction, which indicates
    an implementation bug: a report's basepoint that is not minimal, or, in
    the tests, a result that disagrees with its oracle."""


class CapExceeded(EngineError):
    """A requested enumeration is larger than its documented bound."""


class DimensionCap(EngineError):
    """A vector-space dimension exceeds the enumeration bound."""


class BoundaryMismatch(EngineError):
    """Open-graph boundaries do not line up for the requested operation."""


class TypeMismatch(EngineError):
    """Relation composition applied to incompatible carriers."""


class LaxityViolation(EngineError):
    """Composite reachability fails to contain the composite of parts."""


class NotAGraphHom(EngineError):
    """A vertex map is not an interface-preserving graph homomorphism."""


class WrongContext(EngineError):
    """Operation requested in a monoidal context that does not support it."""
