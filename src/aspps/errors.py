"""Exception types shared across the toolchain.

Every expected failure mode derives from ToolchainError, so the one
handler of the command line front ends, aspps.cli._reports_failures,
maps them all to exit code 2 and their diagnostic; anything else that
escapes is an internal error.
"""


class ToolchainError(Exception):
    """Base class for parse, check, grounding and format errors."""


class ParseError(ToolchainError):
    """Syntax or lexical error, with a source position."""

    def __init__(self, message, file="<input>", line=0, col=0):
        super().__init__(message)
        self.message = message
        self.file = file
        self.line = line
        self.col = col

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}: {self.message}"


class GroundError(ToolchainError):
    """Evaluation error during grounding: a symbolic constant in
    arithmetic or in an order comparison, a division or mod by zero, or
    arithmetic overflow; ground_theory also raises the first
    check_program diagnostic as one."""


class TdcError(ToolchainError):
    """Malformed ground theory file."""

    def __init__(self, message, file="<tdc>", line=0):
        super().__init__(message)
        self.message = message
        self.file = file
        self.line = line

    def __str__(self):
        return f"{self.file}:{self.line}: {self.message}"
