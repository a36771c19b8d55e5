"""Error types shared across the workbench.

Every analysis-level failure carries a machine-readable ``code`` so the CLI
can surface it in structured JSON reports.
"""


class WorkbenchError(Exception):
    """Base class for analysis-precondition failures."""

    code = "ANALYSIS_ERROR"


class FieldMismatchError(WorkbenchError):
    code = "FIELD_MISMATCH"


class DimensionMismatchError(WorkbenchError):
    code = "DIMENSION_MISMATCH"


class NotAnIdealError(WorkbenchError):
    code = "NOT_AN_IDEAL"


class NotLieSolvableError(WorkbenchError):
    code = "NOT_LIE_SOLVABLE"


class CharTwoError(WorkbenchError):
    code = "CHAR_TWO_UNSUPPORTED"


class NotCommutativeAssociativeError(WorkbenchError):
    code = "NOT_COMMUTATIVE_ASSOCIATIVE"


class NotADerivationError(WorkbenchError):
    code = "NOT_A_DERIVATION"


class BudgetExceededError(WorkbenchError):
    code = "BUDGET_EXCEEDED"


class CarrierMembershipError(WorkbenchError):
    code = "NOT_IN_CARRIER"


class PreconditionError(WorkbenchError):
    code = "PRECONDITION_FAILED"
