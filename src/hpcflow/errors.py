"""Exception types, the ``Record`` base of the data classes, and ``ImageRef``.

Every verb loads this module.  ``ImageRef`` lives here, not in ``profiles``
(which re-exports it), so that ``image lint`` reads image references
without loading the profile layer.
"""

from __future__ import annotations

_MISSING = object()  # the default of a field that has none


class Record:
    """A frozen record whose fields are the subclass's own annotations, in order.

    A class attribute named like a field is its default.  Fields named in
    ``_uncompared`` take no part in equality or hashing.  ``__init__`` (and so
    ``replace``) ends by calling ``__post_init__``, which a subclass overrides
    to validate.
    """

    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__.get(f, _MISSING) for f in cls._fields}
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if not kwargs and len(args) == len(fields):  # every field by position
            values = zip(fields, args)
        elif not args and kwargs.keys() == self._defaults.keys():  # every field by keyword
            values = kwargs
        else:
            values = {**self._defaults, **kwargs}
            if args:
                if len(args) > len(fields) or not kwargs.keys().isdisjoint(fields[: len(args)]):
                    raise TypeError(f"{type(self).__name__}() got too many or repeated arguments")
                values.update(zip(fields, args))
            if len(values) > len(fields) or _MISSING in values.values():
                wrong = [k for k, v in values.items() if k not in fields or v is _MISSING]
                raise TypeError(f"{type(self).__name__}() got unknown or missing fields {wrong}")
        # one update: a __dict__ write per field makes later attribute reads slower
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the field values; a subclass overrides this to validate."""

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete {name!r} of a frozen record")

    __delattr__ = __setattr__

    def replace(self, **changes: object) -> Record:
        """A copy with ``changes`` applied, built and validated like a new record."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})


class ImageRef(Record):
    """A container image reference ``repo[:tag][@digest]``.

    ``repo`` keeps any registry host (port included) and path.  Parsing
    never fails and loses nothing: ``str(ImageRef.parse(s)) == s``.
    """

    repo: str
    tag: str | None = None
    digest: str | None = None

    @classmethod
    def parse(cls, ref: str) -> "ImageRef":
        rest, at, digest = ref.partition("@")
        head, slash, last = rest.rpartition("/")
        name, colon, tag = last.rpartition(":")
        if not colon:
            name, tag = last, None
        return cls(f"{head}{slash}{name}", tag, digest if at else None)

    def __str__(self) -> str:
        tag = "" if self.tag is None else f":{self.tag}"
        digest = "" if self.digest is None else f"@{self.digest}"
        return f"{self.repo}{tag}{digest}"

    @property
    def name(self) -> str:
        """The last path component of the repository."""
        return self.repo.rpartition("/")[2]

    @property
    def pinned(self) -> bool:
        """True for a digest or an explicit tag other than ``latest``."""
        return self.digest is not None or self.tag not in (None, "latest")


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
