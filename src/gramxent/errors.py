"""Exception hierarchy. Everything raised on purpose derives from GramxentError
so the CLI can map failures to a single exit code."""


class GramxentError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(GramxentError, ValueError):
    """Malformed or mutually inconsistent arguments (shape/dimension mismatch,
    invalid grids, bad partition)."""


class KernelOverflowError(GramxentError, OverflowError):
    """An exponential-inner-product evaluation would overflow.

    Carries the offending sample indices so the caller can locate the pair
    instead of chasing an inf through downstream traces.
    """

    def __init__(self, i, j, exponent):
        self.i = int(i)
        self.j = int(j)
        self.exponent = float(exponent)
        super().__init__(
            f"exponential-inner-product overflow at sample pair ({self.i}, {self.j}): "
            f"sigma*<s,a> = {self.exponent:.6g} exceeds the exp() range (limit 700)"
        )


class DegenerateMatrixError(GramxentError):
    """A matrix without enough structure to proceed: nonpositive trace where a
    density-like matrix is required, or numerical rank zero."""


class ContractError(GramxentError):
    """An input violates a documented precondition (e.g. a raw Gram matrix
    passed where a unit-trace one is required)."""


class NumericalDegeneracyError(GramxentError):
    """A trace or power sum whose log is taken is not positive and finite: it
    collapsed to <= 0 after eigenvalue clamping, underflowed, or overflowed to
    inf or NaN (a bipartite +inf means only that supp K1 is not inside supp K2).

    Carries diagnostics so the failure is actionable: the trace, the clamp
    count and the order it was read at.
    """

    def __init__(self, message, *, trace_value, clamp_count, order=None):
        self.trace_value = trace_value
        self.clamp_count = clamp_count
        self.order = order
        super().__init__(
            f"{message} (trace argument {trace_value:.6g}, {clamp_count} eigenvalues clamped)"
        )


class ParseError(GramxentError):
    """A sample file could not be parsed. Carries the 1-based line number."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = int(line)
        super().__init__(f"{self.path}:{self.line}: {message}")
