"""Exception hierarchy shared by all modules."""


class PrecubicalError(Exception):
    """Base class for all domain errors."""


class UnknownCell(PrecubicalError):
    pass


class WrongDegree(PrecubicalError):
    pass


class DimensionUnsupported(PrecubicalError):
    pass


class ConditionsFailed(PrecubicalError):
    """Raised in apply mode when a reduction's side conditions do not hold.

    Carries the full certificate so callers can inspect witnesses.
    """

    def __init__(self, certificate):
        self.certificate = certificate
        failed = [c.label for c in certificate.conditions if not c.holds]
        super().__init__(
            f"{certificate.kind} on {certificate.cell.id}: "
            f"conditions failed: {', '.join(failed)}"
        )


class GuaranteeLost(PrecubicalError):
    """The reduction is legal but Y is empty, so the bipartite-graph
    preservation guarantee does not hold. Apply with override to proceed."""

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(
            f"{certificate.kind} on {certificate.cell.id}: Y is empty, "
            "fundamental bipartite graph preservation not guaranteed"
        )


class RecipeStepFailed(PrecubicalError):
    def __init__(self, step_index, step, certificate):
        self.step_index = step_index
        self.step = step
        self.certificate = certificate
        super().__init__(f"recipe step {step_index} ({step}) failed")


class NotAcyclic(PrecubicalError):
    pass


class PathExplosion(PrecubicalError):
    pass


class UnknownFixture(PrecubicalError):
    pass


class OutOfRange(PrecubicalError):
    """An argument, a table given to the API or a CLI value out of range."""


class DocumentSyntaxError(PrecubicalError):
    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class ValidationFailed(PrecubicalError):
    def __init__(self, report):
        self.report = report
        super().__init__(
            "document describes an invalid complex: "
            + "; ".join(str(v) for v in report)
        )
