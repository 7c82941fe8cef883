"""Exception hierarchy shared across the repro package."""


class MLCompError(Exception):
    """Base class for all errors raised by this package."""


class CompilationError(MLCompError):
    """Base class for errors raised while compiling a program."""


class LexerError(CompilationError):
    """Raised on invalid tokens in mini-C source."""

    def __init__(self, message, line=None, column=None):
        location = "" if line is None else f" at line {line}:{column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ParserError(CompilationError):
    """Raised on syntax errors in mini-C source."""

    def __init__(self, message, line=None, column=None):
        location = "" if line is None else f" at line {line}:{column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SemanticError(CompilationError):
    """Raised on type or scoping errors in mini-C source."""


class VerificationError(CompilationError):
    """Raised when an IR module violates a structural invariant."""


class SimulationError(MLCompError):
    """Raised when simulated execution fails (trap, fuel exhaustion, ...)."""


class SearchError(MLCompError):
    """Raised on misuse of the heuristic search API."""
