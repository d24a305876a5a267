"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError exits 2, every other
package error and a MemoryError exit 3. Keep the hierarchy flat:
configuration/validation problems, numerical failures, and bad physical
states are separate branches. The test oracles' own error lives in tests/.
"""


class AtompairError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AtompairError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidStateError(AtompairError, ValueError):
    """A density matrix (or X-state record) violates positivity/trace rules."""


class DegenerateGeneratorError(AtompairError, RuntimeError):
    """The population generator's zero eigenvalue is not simple."""


class ComputationError(AtompairError, RuntimeError):
    """A numerical result failed an internal consistency check."""


class ConfigError(AtompairError, ValueError):
    """A run configuration failed schema or physical validation."""
