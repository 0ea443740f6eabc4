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
that starts with the key and carries the line; ``SemVer.parse`` raises a
``ProfileError`` that names the version, which gets the line only.  An
:class:`EnvironmentSpec` built in code is checked by the same readers: each
field must read back as itself from its text.
"""

from __future__ import annotations

import posixpath
import re
from functools import total_ordering

from hpcflow.errors import _MISSING, ImageRef, ProfileError, Record

_VERSION_RE = re.compile(r"(\d+)\.(\d+)(?:\.(\d+))?")
_KEY_RE = re.compile(r"[a-z_]+")
_SECTION_RE = re.compile(r"\[([a-z_]+)\]")

DEFAULT_REGISTRY = "docker.io"

# What text may reach a generated artifact, in one place.  The word classes
# are used with fullmatch, since ``$`` also matches before a final newline.

# C0, DEL and C1 controls plus the Unicode line and paragraph separators:
# every character str.splitlines breaks at, so no value can start a new line
CONTROL_CHAR_RE = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")
_IDENTIFIER_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")  # a container name
_ENV_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a shell variable name
_WALLTIME_RE = re.compile(r"\d{1,3}:\d{2}:\d{2}", re.ASCII)  # Slurm reads ASCII digits only
# shlex's safe characters and ``^``: no shell or Dockerfile splits or expands them
_SAFE_CHAR = r"[\w@%+=:,./^-]"
# a launcher word written as it is: safe characters, and $NAME or ${NAME}
# references, which the batch job expands
_PLAIN_WORD_RE = re.compile("(?:" + _SAFE_CHAR + r"|\$[A-Za-z_]\w*|\$\{[A-Za-z_]\w*\})+", re.ASCII)
# a plain word without $, and no Dockerfile flag; an image's letters may be any letter
_PATH_RE = re.compile("(?!-)" + _SAFE_CHAR + "+", re.ASCII)
_IMAGE_RE = re.compile("(?!-)" + _SAFE_CHAR + "+")
_VERSION_WORD = r"[A-Za-z0-9][A-Za-z0-9.+_-]*"
_PACKAGE_RE = re.compile(r"[a-z0-9][a-z0-9+.-]*(?:=" + _VERSION_WORD + ")?")  # Debian-style

# commands that would need elevated rights; generated scripts must never
# contain any of these as a shell word
PRIVILEGED_TOKENS = frozenset({"sudo", "su", "doas", "pkexec", "setcap", "visudo"})

SCHEDULERS = ("slurm", "none")
STRATEGIES = ("tags", "ngc", "entrypoint")

CLUSTER_SECTION = "cluster"
ENVIRONMENT_SECTION = "environment"


@total_ordering
class SemVer(Record):
    """A MAJOR.MINOR.PATCH version ordered as an integer triple.

    ``MAJOR.MINOR`` input is accepted with patch 0; ``patch_specified``
    records whether the patch was stated, which matters when deciding how
    strictly two versions must match.  The flag does not participate in
    ordering or equality.
    """

    major: int
    minor: int
    patch: int = 0
    patch_specified: bool = True
    _uncompared = ("patch_specified",)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not SemVer:
            return NotImplemented
        return self._key() < other._key()

    @classmethod
    def parse(cls, text: str) -> "SemVer":
        m = _VERSION_RE.fullmatch(text.strip())
        if m is None:
            raise ProfileError(f"unparseable version {text!r} (expected MAJOR.MINOR[.PATCH])")
        major, minor, patch = m.group(1), m.group(2), m.group(3)
        return cls(
            major=int(major),
            minor=int(minor),
            patch=int(patch) if patch is not None else 0,
            patch_specified=patch is not None,
        )

    def major_minor(self) -> tuple[int, int]:
        return (self.major, self.minor)

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
        # a spec built in code is checked like a parsed one: each field is
        # read from its own text, and must read back as itself
        for key, read in _SPEC_READERS.items():
            value = getattr(self, key)
            if value is None:
                continue
            try:
                read_back = read(_text(value))
            except (ProfileError, ValueError) as exc:
                raise ProfileError(f"{key} {exc}") from None
            if read_back != value:
                raise ProfileError(f"{key} {value!r} reads back as {read_back!r}")


class ValidationIssue(Record):
    severity: str  # "error" or "warning"
    message: str


def _read_section(text: str, expected: str) -> dict[str, tuple[str, int]]:
    """Parse the shared file format, returning key -> (value, line number).

    Raises:
        ProfileError: on malformed lines, a wrong or missing section
            header, duplicate keys, or a value with a control character;
            the failing line is reported.
    """
    entries: dict[str, tuple[str, int]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.fullmatch(line)
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
        if not _KEY_RE.fullmatch(key):
            raise ProfileError(f"invalid key {key!r} (keys match [a-z_]+)", line=lineno)
        if section is None:
            raise ProfileError(f"key {key!r} appears before any [section] header", line=lineno)
        if key in entries:
            raise ProfileError(f"duplicate key {key!r}", line=lineno)
        if CONTROL_CHAR_RE.search(value):
            raise ProfileError(
                f"{key} must not contain line breaks or control characters", line=lineno
            )
        entries[key] = (value, lineno)
    if section is None:
        raise ProfileError(f"missing [{expected}] section")
    return entries


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ValueError(f"must be an integer, got {value!r}") from None
    if n < 1:
        raise ValueError(f"must be >= 1, got {n}")
    return n


def _text(value: object) -> str:
    """A field value written as the file text that reads back to it."""
    if isinstance(value, tuple):  # a list, of words or of src:dst pairs
        return ", ".join(v if isinstance(v, str) else ":".join(v) for v in value)
    return str(value)


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


# key -> reader of its value, in file order; a key without a default in
# the record is mandatory
_CLUSTER_READERS = {
    "name": str,
    "scheduler": _one_of(SCHEDULERS),
    "gpus_per_node": _positive_int,
    "gpu_nodes": _positive_int,
    "openmpi_version": SemVer.parse,
    "container_runtime_path": str,
    "module_loads": _split_list,
    "interconnect": str,
    "partition": lambda value: value or None,
    "account": lambda value: value or None,
    "default_mounts": _split_pairs,
}


def _read_fields(entries: dict[str, tuple[str, int]], readers: dict, record: type) -> dict:
    """The record's fields read from ``entries``; absent optional keys are left out."""
    fields = {}
    for key, read in readers.items():
        if key in entries:
            value, lineno = entries[key]
            try:
                fields[key] = read(value)
            except ProfileError as exc:  # SemVer.parse names the version itself
                raise ProfileError(str(exc), line=lineno) from None
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
            mandatory keys, unparseable versions, non-positive counts, or a
            control character in any value.
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


def validate_profile(profile: ClusterProfile) -> list[ValidationIssue]:
    """Check a profile against its invariants.

    Issues are data, not failures: the list is empty iff every invariant
    holds and the container runtime path looks usable.
    """
    issues: list[ValidationIssue] = []

    def error(msg: str) -> None:
        issues.append(ValidationIssue("error", msg))

    def warning(msg: str) -> None:
        issues.append(ValidationIssue("warning", msg))

    if not profile.name:
        error("name must be non-empty")
    if profile.scheduler not in SCHEDULERS:
        error(f"scheduler must be one of {', '.join(SCHEDULERS)}, got {profile.scheduler!r}")
    if profile.gpus_per_node < 1:
        error("gpus_per_node must be >= 1")
    if profile.gpu_nodes < 1:
        error("gpu_nodes must be >= 1")
    for entry in profile.module_loads:
        if not entry:
            error("module_loads entries must be non-empty")
        elif any(c.isspace() for c in entry):
            error(f"module_loads entry {entry!r} must not contain whitespace")
    if not profile.container_runtime_path:
        error("container_runtime_path must be non-empty")
    elif not profile.container_runtime_path.startswith("/"):
        warning(
            f"container_runtime_path {profile.container_runtime_path!r} is not absolute"
        )
    for src, dst in profile.default_mounts:
        if not src or not dst:
            error("default_mounts entries must have non-empty src and dst")
    for key, _ in profile.extra:
        warning(f"unknown key {key!r} ignored")
    return issues


def _word(pattern: re.Pattern, what: str):
    """A reader of one word of ``pattern`` whose last path component names no
    privileged command."""

    def read(value: str) -> str:
        if not pattern.fullmatch(value):
            raise ValueError(f"{value!r} is not {what}")
        if posixpath.basename(value) in PRIVILEGED_TOKENS:
            raise ValueError(f"{value!r} names a privileged command")
        return value

    return read


_CHARS = "letters, digits and @%+=:,./^_-, not starting with -"
_path = _word(_PATH_RE, f"a path of {_CHARS}")
_package = _word(_PACKAGE_RE, "a package name ([a-z0-9][a-z0-9+.-]*, optionally =version)")


def _script_path(value: str) -> str | None:
    if not value:
        return None
    # the script is copied in under its file name
    name = posixpath.basename(value)
    if name in ("", ".", "..") or name.startswith("-"):
        raise ValueError(f"{value!r} does not end in a file name")
    return _path(value)


_SPEC_READERS = {
    "base_image": _word(_IMAGE_RE, f"an image reference of {_CHARS}"),
    "strategy": _one_of(STRATEGIES),
    "horovod_version": _word(re.compile(_VERSION_WORD), f"one version word ({_VERSION_WORD})"),
    "openmpi_version": SemVer.parse,
    "system_packages": lambda value: tuple(_package(p) for p in _split_list(value) if p),
    "code_copies": lambda value: tuple(
        (_path(src), _path(dst)) for src, dst in _split_pairs(value)
    ),
    "entrypoint_path": _script_path,
    "registry": lambda value: value and _path(value),
}


def parse_env_spec(text: str) -> EnvironmentSpec:
    """Parse an ``[environment]`` spec file into an :class:`EnvironmentSpec`.

    Enforces strategy consistency: ``tags`` defers the OpenMPI choice to
    the target cluster so must not pin one; ``ngc`` images ship a fixed
    OpenMPI so must state it; ``entrypoint`` needs the in-image script
    path.  An untagged base image is normalized to ``:latest`` (the
    linter's P1 rule will surface it); ``tags`` rejects a digest-pinned
    base image, since it picks the tag per cluster.

    Raises:
        ProfileError: on syntax errors, missing mandatory keys, a value
            that is not one word of its key's class (see the readers), or
            strategy/field inconsistencies.
    """
    entries = _read_section(text, ENVIRONMENT_SECTION)
    fields = _read_fields(entries, _SPEC_READERS, EnvironmentSpec)
    strategy, strategy_line = fields["strategy"], entries["strategy"][1]
    openmpi_version = fields.get("openmpi_version")

    if strategy == "tags" and openmpi_version is not None:
        raise ProfileError(
            "strategy 'tags' defers the OpenMPI version to the target cluster's "
            "matching image tag; remove openmpi_version",
            line=strategy_line,
        )
    if strategy == "ngc" and openmpi_version is None:
        raise ProfileError(
            "strategy 'ngc' uses a prebuilt image with a fixed OpenMPI; "
            "openmpi_version is required so it can be checked against the cluster",
            line=strategy_line,
        )
    if strategy == "entrypoint" and fields.get("entrypoint_path") is None:
        raise ProfileError(
            "strategy 'entrypoint' installs versions at first container start; "
            "entrypoint_path is required",
            line=strategy_line,
        )

    base_image = ImageRef.parse(fields["base_image"])
    if base_image.digest is not None and strategy == "tags":
        raise ProfileError(
            "strategy 'tags' picks the image tag per cluster; "
            "base_image must not be digest-pinned",
            line=entries["base_image"][1],
        )
    if base_image.tag is None and base_image.digest is None:
        base_image = base_image.replace(tag="latest")
    return EnvironmentSpec(**{**fields, "base_image": str(base_image)})
