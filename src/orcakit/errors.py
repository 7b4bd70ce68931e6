"""Exception hierarchy shared by all modules.

Each class's `exit_code` is the CLI's exit status when it is raised.
"""


class OrcaError(Exception):
    """Base for all orcakit errors."""

    exit_code = 1


class ContractError(OrcaError):
    """A precondition or API contract was violated by the caller."""


class ShapeError(ContractError):
    """Array shapes are inconsistent with the operation."""


class FormatError(ContractError):
    """An on-disk artifact (bundle, config, checkpoint) is malformed."""


class NumericError(OrcaError):
    """A numeric computation produced NaN/Inf or failed to converge fatally."""

    exit_code = 2


class RunError(NumericError):
    """A training run aborted (diverged loss, NaN distance)."""
