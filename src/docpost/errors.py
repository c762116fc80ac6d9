"""The two bases of every docpost exception; the CLI's exit code follows them.

:class:`DomainError` (exit 1): the input is well-formed but violates a rule of
the domain, such as a table that cannot be merged or overlapping layout
indices. :class:`FormatError` (exit 2): an input file, argument or external
scorer response is not of the documented shape. This module imports nothing,
so any module may import it.
"""


class DomainError(Exception):
    """Input that is well-formed but violates a rule of the domain."""


class FormatError(Exception):
    """An input file, argument or scorer response is not of the documented shape."""
