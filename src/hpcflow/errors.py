"""Exception types shared across the toolkit."""

from __future__ import annotations


class HpcflowError(Exception):
    """Base class for all toolkit errors."""


class LineError(HpcflowError):
    """An error in a text input, prefixed ``line N: `` when the line is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ProfileError(LineError):
    """Raised for unreadable or inconsistent profile/spec files."""


class DockerfileError(LineError):
    """Raised for Dockerfile text that violates structural rules."""


class ReconcileError(HpcflowError):
    """Raised when image and cluster versions cannot be reconciled."""


class LaunchError(HpcflowError):
    """Raised for job requests that cannot be planned or rendered."""


class BenchLogError(LineError):
    """Raised for malformed benchmark logs."""
