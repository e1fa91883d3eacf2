"""Exception hierarchy shared across the package.

Every domain error derives from :class:`LatentIsingError` so callers (and the
CLI) can catch one base class and surface the concrete error name.
"""


class LatentIsingError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedTree(LatentIsingError):
    """Input graph is not a valid tree (disconnected, cyclic, bad degrees)."""


class UnknownLeaf(LatentIsingError):
    """A referenced leaf or node label does not exist."""


class UnknownPair(LatentIsingError):
    """A pair query used identical or otherwise invalid endpoints."""


class TooFewLeaves(LatentIsingError):
    """An operation needs a larger leaf subset than was supplied."""


class OddSubset(LatentIsingError):
    """A pairing was requested for a leaf subset of odd cardinality."""


class InvalidCut(LatentIsingError):
    """Cut-and-paste surgery referenced an edge on the wrong side of the cut."""


class DimensionMismatch(LatentIsingError):
    """Leaf counts or vector lengths of two objects do not agree."""


class TooLarge(LatentIsingError):
    """Exact enumeration was requested beyond the supported leaf count."""


class EmptySample(LatentIsingError):
    """A sample matrix with zero rows was supplied."""


class BadSpinValue(LatentIsingError):
    """A sample matrix contains entries outside {-1, +1}."""


class BadParameter(LatentIsingError):
    """A numeric parameter is outside its admissible range."""


class NoConsistentModel(LatentIsingError):
    """No tree model on the given topology matches the target correlations."""


class LeafSetMismatch(LatentIsingError):
    """Two trees that must share a leaf set do not."""

