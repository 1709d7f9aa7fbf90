"""Shared exception hierarchy.

Every module-specific error subclasses PipelineError so the CLI can map
failures to exit codes without enumerating each one.
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInput(PipelineError):
    """An operation that needs at least one item was given none."""


class IncompletePaper(PipelineError, ValueError):
    """A paper's rows do not cover its author positions 1..n, e.g. after ingest
    rejected one of them."""


class ConfigError(PipelineError):
    """Bad or inconsistent pipeline configuration."""


class UpstreamArtifactMissing(PipelineError):
    """A pipeline stage was invoked before its input artifact exists."""

    def __init__(self, stage: str, path: str):
        super().__init__(f"stage '{stage}' requires missing artifact: {path}")
        self.stage = stage
        self.path = path


class FileUnreadable(PipelineError):
    """A file could not be opened or read."""


class FileUnwritable(PipelineError):
    """A file could not be written or a directory could not be created."""


class FormatError(PipelineError):
    """A line of a file does not parse as its format requires."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path} line {line}: {message}")
        self.path = path
        self.line = line


class TruncatedLine(FormatError):
    """The last line of a file does not parse and has no newline: a write was cut short."""
