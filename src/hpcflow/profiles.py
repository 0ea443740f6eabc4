"""Cluster and environment descriptions: parsing, rendering, validation.

Both file kinds share one sectioned key=value text format:

* lines are ``# comment``, ``[section]``, or ``key = value``
* keys match ``[a-z_]+``
* list values are comma-separated
* path pairs are written ``src:dst``

Cluster profiles live in a ``[cluster]`` section, environment specs in an
``[environment]`` section.  Unknown keys are never rejected: in a profile
they are kept and reported as warnings by :func:`validate_profile`, in an
environment spec they are ignored.
"""

from __future__ import annotations

import re
from functools import total_ordering

from hpcflow.errors import ProfileError, Record

_VERSION_RE = re.compile(r"^(\d+)\.(\d+)(?:\.(\d+))?$")
_KEY_RE = re.compile(r"^[a-z_]+$")
_SECTION_RE = re.compile(r"^\[([a-z_]+)\]$")

DEFAULT_REGISTRY = "docker.io"

# C0, DEL and C1 controls plus the Unicode line and paragraph separators:
# every character str.splitlines breaks at, so no value can start a new line
CONTROL_CHAR_RE = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")

SCHEDULERS = ("slurm", "none")
STRATEGIES = ("tags", "ngc", "entrypoint")

CLUSTER_SECTION = "cluster"
ENVIRONMENT_SECTION = "environment"

_KNOWN_CLUSTER_KEYS = (
    "name",
    "scheduler",
    "gpus_per_node",
    "gpu_nodes",
    "openmpi_version",
    "container_runtime_path",
    "module_loads",
    "interconnect",
    "partition",
    "account",
    "default_mounts",
)


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
        m = _VERSION_RE.match(text.strip())
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


class ValidationIssue(Record):
    severity: str  # "error" or "warning"
    message: str


def _read_section(text: str, expected: str) -> dict[str, tuple[str, int]]:
    """Parse the shared file format, returning key -> (value, line number).

    Raises:
        ProfileError: on malformed lines, a wrong or missing section
            header, or duplicate keys; the failing line is reported.
    """
    entries: dict[str, tuple[str, int]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
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
        if not _KEY_RE.match(key):
            raise ProfileError(f"invalid key {key!r} (keys match [a-z_]+)", line=lineno)
        if section is None:
            raise ProfileError(f"key {key!r} appears before any [section] header", line=lineno)
        if key in entries:
            raise ProfileError(f"duplicate key {key!r}", line=lineno)
        entries[key] = (value, lineno)
    if section is None:
        raise ProfileError(f"missing [{expected}] section")
    return entries


def _require(entries: dict[str, tuple[str, int]], key: str) -> tuple[str, int]:
    if key not in entries:
        raise ProfileError(f"missing mandatory key {key!r}")
    return entries[key]


def _positive_int(value: str, key: str, lineno: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise ProfileError(f"{key} must be an integer, got {value!r}", line=lineno) from None
    if n < 1:
        raise ProfileError(f"{key} must be >= 1, got {n}", line=lineno)
    return n


def _split_list(value: str) -> tuple[str, ...]:
    if not value:
        return ()
    return tuple(item.strip() for item in value.split(","))


def _split_pairs(value: str, key: str, lineno: int) -> tuple[tuple[str, str], ...]:
    pairs = []
    for item in _split_list(value):
        if not item:
            continue
        src, sep, dst = item.partition(":")
        if not sep or not src.strip() or not dst.strip():
            raise ProfileError(f"{key} entries must be 'src:dst', got {item!r}", line=lineno)
        pairs.append((src.strip(), dst.strip()))
    return tuple(pairs)


def parse_cluster_profile(text: str) -> ClusterProfile:
    """Parse a ``[cluster]`` profile file into a :class:`ClusterProfile`.

    Unspecified optional keys default to empty lists/strings; unknown keys
    are kept in ``extra`` for :func:`validate_profile` to warn about.

    Raises:
        ProfileError: on syntax errors (with line number), missing
            mandatory keys, unparseable versions, non-positive counts, or a
            control character in partition, account or module_loads.
    """
    entries = _read_section(text, CLUSTER_SECTION)

    name, _ = _require(entries, "name")
    scheduler, sched_line = _require(entries, "scheduler")
    if scheduler not in SCHEDULERS:
        raise ProfileError(
            f"scheduler must be one of {', '.join(SCHEDULERS)}, got {scheduler!r}",
            line=sched_line,
        )
    gpn_value, gpn_line = _require(entries, "gpus_per_node")
    nodes_value, nodes_line = _require(entries, "gpu_nodes")
    version_value, version_line = _require(entries, "openmpi_version")
    runtime_path, _ = _require(entries, "container_runtime_path")

    try:
        openmpi_version = SemVer.parse(version_value)
    except ProfileError as exc:
        raise ProfileError(str(exc), line=version_line) from None

    for key in ("partition", "account", "module_loads"):
        value, lineno = entries.get(key, ("", 0))
        if CONTROL_CHAR_RE.search(value):
            raise ProfileError(
                f"{key} must not contain line breaks or control characters", line=lineno
            )
    mounts_value, mounts_line = entries.get("default_mounts", ("", 0))

    return ClusterProfile(
        name=name,
        scheduler=scheduler,
        gpus_per_node=_positive_int(gpn_value, "gpus_per_node", gpn_line),
        gpu_nodes=_positive_int(nodes_value, "gpu_nodes", nodes_line),
        openmpi_version=openmpi_version,
        container_runtime_path=runtime_path,
        module_loads=_split_list(entries.get("module_loads", ("", 0))[0]),
        interconnect=entries.get("interconnect", ("", 0))[0],
        partition=entries.get("partition", (None, 0))[0] or None,
        account=entries.get("account", (None, 0))[0] or None,
        default_mounts=_split_pairs(mounts_value, "default_mounts", mounts_line),
        extra=tuple((k, v) for k, (v, _) in entries.items() if k not in _KNOWN_CLUSTER_KEYS),
    )


def render_cluster_profile(profile: ClusterProfile) -> str:
    """Render a profile back to the canonical file format."""
    lines = [f"[{CLUSTER_SECTION}]"]
    lines.append(f"name = {profile.name}")
    lines.append(f"scheduler = {profile.scheduler}")
    lines.append(f"gpus_per_node = {profile.gpus_per_node}")
    lines.append(f"gpu_nodes = {profile.gpu_nodes}")
    lines.append(f"openmpi_version = {profile.openmpi_version}")
    lines.append(f"container_runtime_path = {profile.container_runtime_path}")
    if profile.module_loads:
        lines.append(f"module_loads = {', '.join(profile.module_loads)}")
    if profile.interconnect:
        lines.append(f"interconnect = {profile.interconnect}")
    if profile.partition is not None:
        lines.append(f"partition = {profile.partition}")
    if profile.account is not None:
        lines.append(f"account = {profile.account}")
    if profile.default_mounts:
        mounts = ", ".join(f"{src}:{dst}" for src, dst in profile.default_mounts)
        lines.append(f"default_mounts = {mounts}")
    for key, value in profile.extra:
        lines.append(f"{key} = {value}")
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


def parse_env_spec(text: str) -> EnvironmentSpec:
    """Parse an ``[environment]`` spec file into an :class:`EnvironmentSpec`.

    Enforces strategy consistency: ``tags`` defers the OpenMPI choice to
    the target cluster so must not pin one; ``ngc`` images ship a fixed
    OpenMPI so must state it; ``entrypoint`` needs the in-image script
    path.  An untagged base image is normalized to ``:latest`` (the
    linter's P1 rule will surface it); ``tags`` rejects a digest-pinned
    base image, since it picks the tag per cluster.

    Raises:
        ProfileError: on syntax errors, missing mandatory keys, or
            strategy/field inconsistencies.
    """
    entries = _read_section(text, ENVIRONMENT_SECTION)

    base_image_raw, base_image_line = _require(entries, "base_image")
    strategy, strategy_line = _require(entries, "strategy")
    horovod_version, _ = _require(entries, "horovod_version")
    if strategy not in STRATEGIES:
        raise ProfileError(
            f"strategy must be one of {', '.join(STRATEGIES)}, got {strategy!r}",
            line=strategy_line,
        )

    openmpi_version: SemVer | None = None
    if "openmpi_version" in entries:
        value, lineno = entries["openmpi_version"]
        try:
            openmpi_version = SemVer.parse(value)
        except ProfileError as exc:
            raise ProfileError(str(exc), line=lineno) from None

    entrypoint_path = entries.get("entrypoint_path", (None, 0))[0] or None

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
    if strategy == "entrypoint" and entrypoint_path is None:
        raise ProfileError(
            "strategy 'entrypoint' installs versions at first container start; "
            "entrypoint_path is required",
            line=strategy_line,
        )

    base_image = ImageRef.parse(base_image_raw)
    if base_image.digest is not None and strategy == "tags":
        raise ProfileError(
            "strategy 'tags' picks the image tag per cluster; "
            "base_image must not be digest-pinned",
            line=base_image_line,
        )
    if base_image.tag is None and base_image.digest is None:
        base_image = base_image.replace(tag="latest")

    copies_value, copies_line = entries.get("code_copies", ("", 0))

    return EnvironmentSpec(
        base_image=str(base_image),
        strategy=strategy,
        horovod_version=horovod_version,
        openmpi_version=openmpi_version,
        system_packages=tuple(p for p in _split_list(entries.get("system_packages", ("", 0))[0]) if p),
        code_copies=_split_pairs(copies_value, "code_copies", copies_line),
        entrypoint_path=entrypoint_path,
        registry=entries.get("registry", (DEFAULT_REGISTRY, 0))[0],
    )
