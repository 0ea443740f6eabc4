"""Cluster and environment descriptions: parsing, rendering, validation.

Both file kinds share one sectioned key=value text format:

* lines are ``# comment``, ``[section]``, or ``key = value``
* keys match ``[a-z_]+``; no value holds a control character
* list values are comma-separated
* path pairs are written ``src:dst``

Cluster profiles live in a ``[cluster]`` section, environment specs in an
``[environment]`` section.  Unknown keys are never rejected: in a profile
they are kept and reported as warnings by :func:`validate_profile`, in an
environment spec they are ignored.

Each file kind has one reader table, which maps each key to its reader; a
key is mandatory when its record field has no default.  A reader takes the
value text and returns the field value, or raises ``ValueError`` with the
reason.  ``_read_fields`` turns the reason into a :class:`ProfileError`
that starts with the key and carries the line.  Each profile and spec,
parsed or built in code, is checked once, when built: each field must read
back as itself from its text.  No other module checks them.
"""

from __future__ import annotations

import posixpath
import re
import shlex

from hpcflow.errors import (
    _MISSING, _OPERATOR_CHARS, _VAR_NAME, CONTROL_CHAR, ImageRef, ProfileError, Record, read_int,
    shell_words,
)

_KEY = "[a-z_]+"
_SECTION = r"\[([a-z_]+)\]"

DEFAULT_REGISTRY = "docker.io"

# What text may reach a generated artifact, in one place.  The word classes
# are used with fullmatch, since ``$`` also matches before a final newline.

_NAME_CHARS = "A-Za-z0-9_.-"  # a container name's, as a character class
_IDENTIFIER = f"[A-Za-z0-9][{_NAME_CHARS}]*"  # a container name
_WALLTIME = r"(?a)\d{1,3}:\d{2}:\d{2}"  # Slurm reads ASCII digits only
# shlex's safe characters and ``^``: no shell or Dockerfile splits or expands them
_SAFE_CHAR = r"[\w@%+=:,./^-]"
# a launcher word written as it is: safe characters, and $NAME or ${NAME}
# references, which the batch job expands
_PLAIN_WORD = "(?a)(?:" + _SAFE_CHAR + r"|\$" + _VAR_NAME + r"|\$\{" + _VAR_NAME + r"\})+"


def _sh_word(word: str) -> str:
    """``word`` as a job script writes it: as it is when plain, else shell-quoted."""
    return word if re.fullmatch(_PLAIN_WORD, word) else shlex.quote(word)


def _volume(mount: tuple[str, str]) -> str:
    """The runtime's ``--volume=`` word for a ``(host, container)`` mount."""
    return "--volume={}:{}".format(*mount)


def _directive(key: str, value: str) -> str:
    """The scheduler's ``--key=value`` word, which a ``#SBATCH`` line holds."""
    return f"--{key}={value}"


# a plain word without $, and no Dockerfile flag: a path, a registry or an image
_PATH = "(?a)(?!-)" + _SAFE_CHAR + "+"
_VERSION_WORD = r"[A-Za-z0-9][A-Za-z0-9.+_-]*"
_PACKAGE = r"[a-z0-9][a-z0-9+.-]*(?:=" + _VERSION_WORD + ")?"  # Debian-style

# commands that would need elevated rights; generated scripts must never
# contain any of these as a shell word, or a path to one
PRIVILEGED_TOKENS = frozenset({"sudo", "su", "doas", "pkexec", "setcap", "visudo"})
# where a shell word can end without whitespace: operators, parentheses
# (a subshell or ``$(``) and backticks
_BREAK_CHARS = _OPERATOR_CHARS + "`()"
_WORD_BREAK = f"[{_BREAK_CHARS}]"
# the first word after each ``$(`` or backtick, even inside quotes
_SUBSTITUTED_WORD = r"(?a)(?:\$\(|`)\s*[\"']?([^\s" + _BREAK_CHARS + r"\"']+)"

SCHEDULERS = ("slurm", "none")
STRATEGIES = ("tags", "ngc", "entrypoint")

CLUSTER_SECTION = "cluster"
ENVIRONMENT_SECTION = "environment"


class SemVer(Record):
    """A MAJOR.MINOR.PATCH version, equal to another with the same three integers.

    ``MAJOR.MINOR`` input is accepted with patch 0; ``patch_specified``
    records whether the patch was stated, which matters when deciding how
    strictly two versions must match.  The flag does not participate in
    equality.
    """

    major: int
    minor: int
    patch: int = 0
    patch_specified: bool = True
    _uncompared = ("patch_specified",)

    @classmethod
    def parse(cls, text: str) -> "SemVer":
        """``text`` as ``MAJOR.MINOR[.PATCH]``, each part a count as ``read_int`` reads
        it (so ``4.00.1`` is refused), else ``ValueError('unparseable version ...')``,
        which echoes ``text`` if its ``repr`` is at most 64 characters and else
        names its length, so the error stays one short line."""
        try:
            numbers = [read_int(part, 0) for part in text.strip().split(".")]
        except ValueError:
            numbers = []
        if len(numbers) not in (2, 3):
            expected = "expected MAJOR.MINOR[.PATCH]"
            if len(repr(text)) > 64:
                raise ValueError(f"unparseable version ({len(text)} characters; {expected})")
            raise ValueError(f"unparseable version {text!r} ({expected})")
        return cls(*numbers, patch_specified=len(numbers) == 3)

    def __str__(self) -> str:
        if self.patch_specified:
            return f"{self.major}.{self.minor}.{self.patch}"
        return f"{self.major}.{self.minor}"


class ClusterProfile(Record):
    """Declared capabilities and constraints of one HPC cluster."""

    name: str
    scheduler: str
    gpus_per_node: int
    gpu_nodes: int
    openmpi_version: SemVer
    container_runtime_path: str
    module_loads: tuple[str, ...] = ()
    interconnect: str = ""
    partition: str | None = None
    account: str | None = None
    default_mounts: tuple[tuple[str, str], ...] = ()
    extra: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        for key, read in _CLUSTER_READERS.items():
            _check_value(key, getattr(self, key), read, self._defaults[key])
        # unknown keys, as a file holds them: distinct, and no field's key
        keys = set(_CLUSTER_READERS)
        for key, value in self.extra:
            if not re.fullmatch(_KEY, key):
                raise ProfileError(f"invalid key {key!r} (keys match [a-z_]+)")
            if key in keys:
                raise ProfileError(f"duplicate key {key!r}")
            keys.add(key)
            _check_value(key, value, str)


class EnvironmentSpec(Record):
    """The researcher's desired software environment for one image."""

    base_image: str
    strategy: str
    horovod_version: str
    openmpi_version: SemVer | None = None
    system_packages: tuple[str, ...] = ()
    code_copies: tuple[tuple[str, str], ...] = ()
    entrypoint_path: str | None = None
    registry: str = DEFAULT_REGISTRY

    def __post_init__(self) -> None:
        for key, read in _SPEC_READERS.items():
            _check_value(key, getattr(self, key), read, self._defaults[key])
        fault = _strategy_fault(vars(self))
        if fault is not None:
            raise ProfileError(fault[1])


def _read_section(text: str, expected: str) -> dict[str, tuple[str, int]]:
    """Parse the shared file format, returning key -> (value, line number).

    Raises:
        ProfileError: on malformed lines, a wrong or missing section
            header, duplicate keys, or a value with a control character;
            the failing line is reported.
    """
    entries: dict[str, tuple[str, int]] = {}
    section: str | None = None
    header, key_match = re.compile(_SECTION).fullmatch, re.compile(_KEY).fullmatch
    control = re.compile(CONTROL_CHAR).search
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = header(line)
        if m is not None:
            if section is not None:
                raise ProfileError("only one section per file is allowed", line=lineno)
            section = m.group(1)
            if section != expected:
                raise ProfileError(
                    f"expected a [{expected}] section, found [{section}]", line=lineno
                )
            continue
        if "=" not in line:
            raise ProfileError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key_match(key):
            raise ProfileError(f"invalid key {key!r} (keys match [a-z_]+)", line=lineno)
        if section is None:
            raise ProfileError(f"key {key!r} appears before any [section] header", line=lineno)
        if key in entries:
            raise ProfileError(f"duplicate key {key!r}", line=lineno)
        if control(value):
            raise ProfileError(
                f"{key} must not contain line breaks or control characters", line=lineno
            )
        entries[key] = (value, lineno)
    if section is None:
        raise ProfileError(f"missing [{expected}] section")
    return entries


def _text(value: object) -> str:
    """A field value written as the file text that reads back to it."""
    if isinstance(value, tuple):  # a list, of words or of src:dst pairs
        return ", ".join(v if isinstance(v, str) else ":".join(v) for v in value)
    return str(value)


def _check_value(key: str, value: object, read, default: object = _MISSING) -> None:
    """Check that ``value`` is what a line ``key = <its text>`` reads as; no line is known."""
    if value == default:  # a default is never written, so never read
        return
    text = _text(value)
    if re.search(CONTROL_CHAR, text):
        raise ProfileError(f"{key} must not contain line breaks or control characters")
    try:
        read_back = read(text.strip())
    except ValueError as exc:
        raise ProfileError(f"{key} {exc}") from None
    if read_back != value:
        raise ProfileError(f"{key} {value!r} reads back as {read_back!r}")


def _split_list(value: str) -> tuple[str, ...]:
    if not value:
        return ()
    return tuple(item.strip() for item in value.split(","))


def _split_pairs(value: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for item in _split_list(value):
        if not item:
            continue
        src, sep, dst = item.partition(":")
        if not sep or not src.strip() or not dst.strip():
            raise ValueError(f"entries must be 'src:dst', got {item!r}")
        pairs.append((src.strip(), dst.strip()))
    return tuple(pairs)


def _one_of(choices: tuple[str, ...]):
    def read(value: str) -> str:
        if value not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {value!r}")
        return value

    return read


def _non_empty(value: str) -> str:
    if not value:
        raise ValueError("must be non-empty")
    return value


def _unprivileged(value: str, text: str, what: str = "") -> str:
    """``value``, unless the token scan finds a privileged command in ``text``,
    the word or directive the job script writes for ``value``."""
    if find_privileged_tokens(text):
        raise ValueError(f"{what}{value!r} names a privileged command")
    return value


def _module(entry: str) -> str:
    if not entry:
        raise ValueError("entries must be non-empty")
    if any(c.isspace() for c in entry):
        raise ValueError(f"entry {entry!r} must not contain whitespace")
    return _unprivileged(entry, _sh_word(entry), "entry ")


def _mount(pair: tuple[str, str]) -> tuple[str, str]:
    _unprivileged(":".join(pair), _sh_word(_volume(pair)), "entry ")
    return pair


# key -> reader of its value, in file order; a key without a default in
# the record is mandatory.  A value that reaches the job script is scanned
# as the script writes it: a module, the runtime path or a mount's
# ``--volume=`` word as ``_sh_word`` writes it, and the partition and
# account as their directives.
_CLUSTER_READERS = {
    "name": _non_empty,
    "scheduler": _one_of(SCHEDULERS),
    "gpus_per_node": lambda value: read_int(value, 1),
    "gpu_nodes": lambda value: read_int(value, 1),
    "openmpi_version": SemVer.parse,
    "container_runtime_path": lambda value: _unprivileged(_non_empty(value), _sh_word(value)),
    "module_loads": lambda value: tuple(map(_module, _split_list(value))),
    "interconnect": str,
    "partition": lambda value: _unprivileged(value, _directive("partition", value)) if value else None,
    "account": lambda value: _unprivileged(value, _directive("account", value)) if value else None,
    "default_mounts": lambda value: tuple(map(_mount, _split_pairs(value))),
}


def _read_fields(entries: dict[str, tuple[str, int]], readers: dict, record: type) -> dict:
    """The record's fields read from ``entries``; absent optional keys are left out."""
    fields = {}
    for key, read in readers.items():
        if key in entries:
            value, lineno = entries[key]
            try:
                fields[key] = read(value)
            except ValueError as exc:
                raise ProfileError(f"{key} {exc}", line=lineno) from None
        elif record._defaults[key] is _MISSING:
            raise ProfileError(f"missing mandatory key {key!r}")
    return fields


def parse_cluster_profile(text: str) -> ClusterProfile:
    """Parse a ``[cluster]`` profile file into a :class:`ClusterProfile`.

    Unspecified optional keys take the record's defaults; unknown keys are
    kept in ``extra`` for :func:`validate_profile` to warn about.

    Raises:
        ProfileError: on syntax errors (with line number), missing
            mandatory keys, unparseable versions, counts that are not
            positive integers as ``errors.read_int`` reads them, a
            control character in any value, an empty name, runtime path or
            module, a module with whitespace, or a value that would name a
            privileged command in the job script.
    """
    entries = _read_section(text, CLUSTER_SECTION)
    return ClusterProfile(
        **_read_fields(entries, _CLUSTER_READERS, ClusterProfile),
        extra=tuple((k, v) for k, (v, _) in entries.items() if k not in _CLUSTER_READERS),
    )


def render_cluster_profile(profile: ClusterProfile) -> str:
    """Render a profile back to the canonical file format, omitting default values."""
    lines = [f"[{CLUSTER_SECTION}]"]
    for key in _CLUSTER_READERS:
        value = getattr(profile, key)
        if value != ClusterProfile._defaults[key]:
            lines.append(f"{key} = {_text(value)}")
    lines += [f"{key} = {value}" for key, value in profile.extra]
    return "\n".join(lines) + "\n"


def _privileged(word: str) -> str | None:
    """The privileged command ``word`` is, as itself or as the last component
    of a path (a word with ``/`` and no ``=``), or None."""
    if "/" in word and "=" not in word:
        word = word.rpartition("/")[2]
    return word if word in PRIVILEGED_TOKENS else None


def find_privileged_tokens(text: str) -> list[str]:
    """Shell words in ``text`` that imply elevated rights (sorted, unique).

    Each line is read by ``shell_words``, and its words are also split at
    ``; & |``, parentheses and backticks, so a command glued to an operator
    or inside a subshell or a substitution is still seen; the first word
    after each ``$(`` or backtick is checked even inside quotes
    (``echo "$(sudo id)"``).  A path to a privileged command
    (``/usr/bin/sudo``) is reported as the command; a word with ``=``
    (``A=/bin/sudo``) is not.  The scan errs toward reporting: the
    single-quoted ``'$(sudo id)'``, which ``sh`` does not run, reports
    ``sudo`` too, and a line with an unbalanced quote is split at
    whitespace alone.
    """
    found = set()
    substituted, split = re.compile(_SUBSTITUTED_WORD).findall, re.compile(_WORD_BREAK).split
    for line in text.splitlines():
        found.update(map(_privileged, substituted(line)))
        try:
            words = shell_words(line)
        except ValueError:
            words = line.split()
        for word in words:
            found.update(map(_privileged, split(word)))
    found.discard(None)
    return sorted(found)


def validate_profile(profile: ClusterProfile) -> list[str]:
    """The warnings about a profile that a cluster can still use, as text.

    Every fault is refused when the profile is built, by the readers, so
    only warnings are left: a container runtime path that is not absolute,
    and each unknown key, in that order.
    """
    path = profile.container_runtime_path
    relative = [] if path.startswith("/") else [f"container_runtime_path {path!r} is not absolute"]
    unknown = [f"unknown key {key!r} ignored" for key, _ in profile.extra]
    return relative + unknown


def _word(pattern: str, what: str):
    """A reader of one word of ``pattern`` whose last path component names no
    privileged command."""

    def read(value: str) -> str:
        if not re.fullmatch(pattern, value):
            raise ValueError(f"{value!r} is not {what}")
        if posixpath.basename(value) in PRIVILEGED_TOKENS:
            raise ValueError(f"{value!r} names a privileged command")
        return value

    return read


_CHARS = "letters, digits and @%+=:,./^_-, not starting with -"
_path = _word(_PATH, f"a path of {_CHARS}")
_package = _word(_PACKAGE, "a package name ([a-z0-9][a-z0-9+.-]*, optionally =version)")


def _script_path(value: str) -> str | None:
    if not value:
        return None
    # the script is copied in under its file name
    name = posixpath.basename(value)
    if name in ("", ".", "..") or name.startswith("-"):
        raise ValueError(f"{value!r} does not end in a file name")
    return _path(value)


_SPEC_READERS = {
    "base_image": _word(_PATH, f"an image reference of {_CHARS}"),
    "strategy": _one_of(STRATEGIES),
    "horovod_version": _word(_VERSION_WORD, f"one version word ({_VERSION_WORD})"),
    "openmpi_version": SemVer.parse,
    "system_packages": lambda value: tuple(_package(p) for p in _split_list(value) if p),
    "code_copies": lambda value: tuple(
        (_path(src), _path(dst)) for src, dst in _split_pairs(value)
    ),
    "entrypoint_path": _script_path,
    "registry": lambda value: value and _path(value),
}


def _strategy_fault(fields: dict) -> tuple[str, str] | None:
    """The key and the reason of the first strategy rule ``fields`` break, or
    None; an absent optional key may be missing from ``fields``."""
    strategy = fields["strategy"]
    if strategy == "tags" and fields.get("openmpi_version") is not None:
        return "strategy", (
            "strategy 'tags' defers the OpenMPI version to the target cluster's "
            "matching image tag; remove openmpi_version"
        )
    if strategy == "ngc" and fields.get("openmpi_version") is None:
        return "strategy", (
            "strategy 'ngc' uses a prebuilt image with a fixed OpenMPI; "
            "openmpi_version is required so it can be checked against the cluster"
        )
    if strategy == "entrypoint" and fields.get("entrypoint_path") is None:
        return "strategy", (
            "strategy 'entrypoint' installs versions at first container start; "
            "entrypoint_path is required"
        )
    if strategy == "entrypoint" and fields.get("openmpi_version") is None:
        return "strategy", (
            "strategy 'entrypoint' bakes a default version pair into the image's CMD; "
            "openmpi_version is required"
        )
    if strategy == "tags" and ImageRef.parse(fields["base_image"]).digest is not None:
        return "base_image", (
            "strategy 'tags' picks the image tag per cluster; "
            "base_image must not be digest-pinned"
        )
    return None


def parse_env_spec(text: str) -> EnvironmentSpec:
    """Parse an ``[environment]`` spec file into an :class:`EnvironmentSpec`.

    A broken strategy rule is reported on the line of ``strategy``, or of
    ``base_image`` for a digest pin.  An untagged base image is normalized
    to ``:latest`` (the linter's P1 rule will surface it).

    Raises:
        ProfileError: on syntax errors, missing mandatory keys, a value
            that is not one word of its key's class (see the readers), or
            strategy/field inconsistencies.
    """
    entries = _read_section(text, ENVIRONMENT_SECTION)
    fields = _read_fields(entries, _SPEC_READERS, EnvironmentSpec)
    fault = _strategy_fault(fields)
    if fault is not None:
        key, reason = fault
        raise ProfileError(reason, line=entries[key][1])
    base_image = ImageRef.parse(fields["base_image"])
    if base_image.tag is None and base_image.digest is None:
        fields["base_image"] = str(base_image.replace(tag="latest"))
    return EnvironmentSpec(**fields)
