"""Exception types shared by the whole package."""


class CrystalError(Exception):
    """Base class for all errors raised by this package."""


class NotIncreasing(CrystalError):
    """Column letters are not strictly increasing in the total order."""


class AdmissibilityViolation(CrystalError):
    """A column violates the type-specific admissibility condition."""

    def __init__(self, message, z=None, gap=None, bound=None):
        super().__init__(message)
        self.z = z
        self.gap = gap
        self.bound = bound


class SplitImpossible(CrystalError):
    """No valid replacement set exists while splitting a column.

    Must never happen for a validated column; signals an internal bug.
    """


class ComponentCorrupt(CrystalError):
    """A raising/lowering step failed while mirroring a crystal word, or a
    component of the anchored crystal has two highest elements."""


class ShapeTooLarge(CrystalError):
    """The requested work exceeds the vertex budget."""


class NoMatchingComponent(CrystalError):
    """No (or no unique) highest-weight partner found for the R-matrix."""


class EnergyInconsistent(CrystalError):
    """Two routes to the same energy value disagree; signals an internal bug."""


class TargetUnreachable(CrystalError):
    """The grading search exhausted its moves without hitting a target."""


class NotPartitionContent(CrystalError):
    """A charge word does not have partition content."""


class HeightsNotSorted(CrystalError):
    """Column heights are not weakly decreasing left to right."""


class OddArmSum(CrystalError):
    """The descent arm sum of a doubled filling is odd."""


class NonDemazureArrow(CrystalError):
    """An applied 0-arrow was not a Demazure arrow."""


class BarredResidue(CrystalError):
    """A completed ground-state walk still contains barred letters."""


class NotFundamental(CrystalError):
    """A ground state's weight is not a single fundamental weight; signals a bug."""


class WeightMismatch(CrystalError):
    """Partition sizes disagree where equality is required."""


class ParseError(CrystalError):
    """Malformed filling text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
