"""The exceptions that end a ``realearn`` command with a known exit code.

:data:`realearn.cli.FAILURES` maps each of them to its code.  They live
in this module, which imports nothing, so the table costs no import of
the modules that raise them; each is also importable from the module
that raises it.
"""


class InputError(ValueError):
    """Malformed input document, script, or result file."""


class RestartBudgetExceeded(RuntimeError):
    """The run needed more restarts than the configured budget."""

    def __init__(self, restarts: int, budget: int):
        self.restarts = restarts
        self.budget = budget
        super().__init__(f"restart {restarts} exceeds budget {budget}")


class DegenerateInput(RuntimeError):
    """No side witness within budget: input is (near) degenerate."""


class ForcedChallengeDenied(ValueError):
    """A forced challenge asserted a refutation that the reals deny."""


class CertificateFailure(RuntimeError):
    """A bounding certificate failed to re-derive."""


class PathMismatch(RuntimeError):
    """A recorded decision path is not a path of the decision tree."""
