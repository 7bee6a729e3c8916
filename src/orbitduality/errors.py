"""Exception types shared across the package."""


class OrbitDualityError(Exception):
    """Base class for all package errors."""


class UnknownLabelError(OrbitDualityError):
    """An orbit, class, or parameter label is not present in its group."""


class GroupMismatchError(OrbitDualityError):
    """Arguments belong to different groups or a non-dual pair."""


class MissingTableError(OrbitDualityError):
    """A required duality table or dual-group attachment is absent."""


class NonUniqueCoverError(OrbitDualityError):
    """A minimal special cover is missing or not unique (corrupt data)."""


class InconsistentDataError(OrbitDualityError):
    """Two provably-equal characterizations disagree (corrupt data)."""


class SchemaError(OrbitDualityError):
    """A bundle document is malformed or missing required fields."""


class BundleValidationError(OrbitDualityError):
    """A structurally well-formed bundle failed an invariant check."""

    def __init__(self, report):
        self.report = report
        super().__init__("bundle validation failed: "
                         + ", ".join(c.name for c in report.failures()))
