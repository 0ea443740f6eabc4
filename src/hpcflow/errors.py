"""Exception types, the ``Record`` base of the data classes, ``ImageRef``,
``shell_words``, the number readers ``read_int`` and ``read_float``, and
``one_line``, which writes outside text on an output line.

Every verb loads this module.  ``ImageRef`` lives here, not in ``profiles``
(which re-exports it), so that ``image lint`` reads image references
without loading the profile layer; ``shell_words`` and the shell character
classes live here because ``lint`` and the privileged-command scan in
``profiles`` both read shell words, and neither layer loads the other.  The
number readers, ``CONTROL_CHAR`` and ``one_line`` live here because the CLI
reads counts and prints paths without loading the profile layer, and a
profile's counts and values must be read the same way.
"""

from __future__ import annotations

import re

_MISSING = object()  # the default of a field that has none

# Every pattern of the package is a string that ``re`` compiles on first
# use, so a verb compiles only the patterns it runs.  Each character class
# that more than one pattern spells is written here; the shell blanks and
# the operators without brackets, so that a pattern can also negate them.
_VAR_NAME = "[A-Za-z_][A-Za-z0-9_]*"  # a shell variable name
_BLANKS = r" \t\r\n"  # the characters that separate words
_OPERATOR_CHARS = ";&|"  # a run of them is a word of its own
CONTROL_CHAR = "[\x00-\x1f\x7f-\x9f\u2028\u2029]"  # C0, DEL, C1 and U+2028/9: each splitlines break

_WORD_PIECE = (
    rf"(?s)([{_BLANKS}]+)"  # 1: whitespace, which ends a word
    rf"|([{_OPERATOR_CHARS}]+)"  # 2: operators, a word of their own
    r"|'([^']*)'"  # 3: single-quoted
    r'|"([^"\\]*(?:\\.[^"\\]*)*)"'  # 4: double-quoted, escapes kept
    r"|\\(.)"  # 5: an escaped character
    rf"|([^{_BLANKS}{_OPERATOR_CHARS}'\"\\]+)"  # 6: plain
)


def shell_words(text: str) -> list[str]:
    r"""``text`` as POSIX shell words, each run of unquoted ``; & |`` a word.

    Words are read as ``shlex`` reads them with ``;&|`` as punctuation and
    no comment character: only space, tab, CR and LF separate words,
    adjacent pieces join, ``''`` is an empty word, and inside double quotes
    only ``\\`` and ``\"`` are escapes.  Linear in the length of ``text``.

    Raises:
        ValueError: on an unbalanced quote or a trailing backslash.
    """
    words: list[str] = []
    word: list[str] | None = None  # the pieces of the word being read
    end = 0
    for m in re.finditer(_WORD_PIECE, text):
        if m.start() != end:
            break
        end = m.end()
        kind = m.lastindex
        if kind <= 2:  # whitespace or operators end the word
            if word is not None:
                words.append("".join(word))
                word = None
            if kind == 2:
                words.append(m[2])
            continue
        piece = m[kind]
        if kind == 4 and "\\" in piece:
            piece = re.sub(r'\\([\\"])', r"\1", piece)
        if word is None:
            word = []
        word.append(piece)
    if end != len(text):
        raise ValueError("unbalanced quote or trailing backslash")
    if word is not None:
        words.append("".join(word))
    return words


# the text ``str`` writes for an int: ASCII digits, no leading zero, ``-`` if negative
_INT = "0|-?[1-9][0-9]*"
# the text ``float`` reads, without blanks, ``_`` or digits other than ASCII
_FLOAT = r"(?ai)[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)"


def read_int(text: str, minimum: int) -> int:
    """``text`` as an integer of at least ``minimum``.

    Every count hpcflow reads, in a profile or on the command line, is read
    here, as the text that ``str`` writes for its value: ASCII digits, with
    a ``-`` before a negative value (so ``-1`` is refused as below the
    minimum, not as text).  So ``+2``, ``1_0``, non-ASCII digits and padded
    text are refused, and so is ``007``: a value is always written back as
    the text it was read from.  Text with more digits than ``int`` converts
    (4,300 unless the interpreter is set otherwise) is refused as too long.

    Raises:
        ValueError: ``must be an integer, got 'x'``, ``must be >= 1, got 0``,
            or ``has 5000 digits, more than Python reads as an integer``.
    """
    if not re.fullmatch(_INT, text):
        raise ValueError(f"must be an integer, got {text!r}")
    try:
        value = int(text)
    except ValueError:  # more digits than int() converts
        digits = len(text.lstrip("-"))
        raise ValueError(f"has {digits} digits, more than Python reads as an integer") from None
    if value < minimum:
        raise ValueError(f"must be >= {minimum}, got {value}")
    return value


def read_float(text: str) -> float:
    """``text`` as ``float`` reads it, but refused with ``must be a number, got
    'x'`` (a ``ValueError``) if it holds a blank, ``_`` or a non-ASCII digit.
    Every ``repr`` form (``5e-06``), ``inf`` and ``nan`` are read; the caller
    decides whether an infinite or NaN value is allowed."""
    if not re.fullmatch(_FLOAT, text):
        raise ValueError(f"must be a number, got {text!r}")
    return float(text)


def one_line(text: str) -> str:
    """``text`` as ``repr`` writes it if it holds a ``CONTROL_CHAR`` character,
    which could break an output line or drive a terminal, else as it is."""
    return repr(text) if re.search(CONTROL_CHAR, text) else text


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
