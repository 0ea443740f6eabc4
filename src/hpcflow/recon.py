"""Reconcile image and cluster OpenMPI/Horovod versions.

Three strategies are supported: picking a version-encoding image tag,
checking a prebuilt (NGC-style) image against the cluster, or deferring
installation to an entrypoint script executed at first container start.
"""

from __future__ import annotations

import re

from hpcflow.errors import ImageRef, ReconcileError, Record, one_line
from hpcflow.profiles import DEFAULT_REGISTRY, ClusterProfile, EnvironmentSpec, SemVer

_TAG = r"ompi([0-9]+\.[0-9]+)(?:-[A-Za-z0-9._-]+)?"  # Docker tags are ASCII

STATE_DIR_ENV = "HPCFLOW_STATE_DIR"
DEFAULT_STATE_DIR = "/opt/.hpcflow"


class InstallerConfig(Record):
    """Shell command templates used wherever versions get installed.

    Templates may use the placeholders ``{openmpi_version}`` and
    ``{horovod_version}``; in generated shell contexts these resolve to
    variable references, so one template serves both the entrypoint script
    (runtime arguments) and Dockerfile RUN steps (build arguments).
    """

    openmpi_install: str = (
        "wget -q -O /tmp/openmpi.tar.gz "
        "https://download.open-mpi.org/release/open-mpi/"
        "v$(echo {openmpi_version} | cut -d. -f1,2)/openmpi-{openmpi_version}.tar.gz"
        " && tar -xzf /tmp/openmpi.tar.gz -C /tmp"
        " && cd /tmp/openmpi-{openmpi_version}"
        " && ./configure --prefix=/usr/local && make -j4 install && ldconfig"
        " && cd / && rm -rf /tmp/openmpi.tar.gz /tmp/openmpi-{openmpi_version}"
    )
    horovod_install: str = (
        "HOROVOD_WITH_MPI=1 pip install --no-cache-dir horovod=={horovod_version}"
    )

    def version_installs(self, openmpi_version: str, horovod_version: str) -> list[str]:
        """The OpenMPI and Horovod install commands with their placeholders filled."""
        versions = {"openmpi_version": openmpi_version, "horovod_version": horovod_version}
        return [t.format_map(versions) for t in (self.openmpi_install, self.horovod_install)]


DEFAULT_INSTALLERS = InstallerConfig()


class ReconcilePlan(Record):
    """Resolved image reference plus the arguments the run command needs."""

    image_ref: str
    runtime_args: tuple[str, ...]
    match_note: str


def versions_match(image_version: SemVer, cluster_version: SemVer) -> bool:
    """Decide whether two OpenMPI versions are interchangeable.

    Match means equal major.minor; the patch level is compared only when
    both sides actually stated one.  This predicate is the single place
    where match granularity is defined.
    """
    if (image_version.major, image_version.minor) != (cluster_version.major, cluster_version.minor):
        return False
    if image_version.patch_specified and cluster_version.patch_specified:
        return image_version.patch == cluster_version.patch
    return True


def encoded_tag_version(tag: str) -> SemVer | None:
    """The ``M.m`` version an ``ompiM.m[-variant]`` tag encodes, read by
    ``SemVer.parse``, or None for any other tag."""
    m = re.fullmatch(_TAG, tag)
    try:
        return SemVer.parse(m.group(1)) if m else None
    except ValueError:
        return None


def select_tag(available_tags: list[str], cluster_mpi: SemVer) -> str:
    """Pick the image tag whose version ``versions_match`` the cluster's OpenMPI.

    Tags that do not follow the ``ompiM.m[-variant]`` convention are
    ignored.  Ties between variants are broken lexicographically so the
    choice is deterministic.

    Raises:
        ReconcileError: when no tag encodes the cluster's major.minor; it
            names each ``ompi`` tag that was ignored.
    """
    encoded = {tag: v for tag in available_tags if (v := encoded_tag_version(tag)) is not None}
    matches = [tag for tag, version in encoded.items() if versions_match(version, cluster_mpi)]
    if not matches:
        known = ", ".join(sorted(set(map(str, encoded.values())))) or "none"
        ignored = [t for t in dict.fromkeys(available_tags) if t[:4] == "ompi" and t not in encoded]
        if ignored:  # each named by at most the 128 characters a Docker tag can have
            named = (one_line(t[:128]) + ("..." if len(t) > 128 else "") for t in ignored)
            known += f"; ignored, not ompiM.m[-variant]: {', '.join(named)}"
        raise ReconcileError(
            f"no tag for OpenMPI {cluster_mpi.major}.{cluster_mpi.minor} "
            f"(encoded versions available: {known})"
        )
    return min(matches)


def resolve_image_ref(spec: EnvironmentSpec, tag: str | None = None) -> str:
    """Build the full reference to pull, honouring a non-default registry."""
    ref = spec.base_image
    if tag is not None:
        ref = str(ImageRef.parse(ref).replace(tag=tag))
    if spec.registry and spec.registry != DEFAULT_REGISTRY:
        return f"{spec.registry}/{ref}"
    return ref


def reconcile(
    spec: EnvironmentSpec,
    cluster: ClusterProfile,
    available_tags: list[str] | None = None,
) -> ReconcilePlan:
    """Produce the image reference and run arguments for one cluster.

    Only the entrypoint strategy sets ``runtime_args``; the container
    setup's first run and a job without a command follow them:

    * ``tags``: resolve the tag encoding the cluster's OpenMPI major.minor
      (``available_tags`` is required); nothing to pass at run time.
    * ``ngc``: keep the image as-is but check its pinned OpenMPI against
      the cluster's; a mismatch is an error.
    * ``entrypoint``: keep the image as-is and pass the cluster's OpenMPI
      version plus the requested Horovod version as run arguments.

    Raises:
        ReconcileError: on a version mismatch, a missing tag, or missing
            ``available_tags`` for the tags strategy.
    """
    tag, runtime_args = None, ()
    if spec.strategy == "tags":
        if available_tags is None:
            raise ReconcileError("strategy 'tags' needs the list of available image tags")
        tag = select_tag(available_tags, cluster.openmpi_version)
        note = (
            f"tag {tag} encodes OpenMPI "
            f"{cluster.openmpi_version.major}.{cluster.openmpi_version.minor}, "
            f"matching cluster {cluster.name}"
        )
    elif spec.strategy == "ngc":
        if not versions_match(spec.openmpi_version, cluster.openmpi_version):
            raise ReconcileError(
                f"image OpenMPI {spec.openmpi_version} does not match cluster "
                f"{cluster.name} OpenMPI {cluster.openmpi_version} "
                "(prebuilt images only work where their versions match)"
            )
        note = (
            f"image OpenMPI {spec.openmpi_version} vs cluster "
            f"{cluster.openmpi_version}: major.minor match"
        )
    else:  # entrypoint: the script inside the image installs what the cluster has
        runtime_args = (str(cluster.openmpi_version), spec.horovod_version)
        note = (
            f"entrypoint installs OpenMPI {cluster.openmpi_version} and "
            f"Horovod {spec.horovod_version} on first start"
        )
    return ReconcilePlan(resolve_image_ref(spec, tag), runtime_args, note)


def generate_entrypoint(installers: InstallerConfig = DEFAULT_INSTALLERS) -> str:
    """Generate the POSIX shell entrypoint script.

    Behavioural contract:

    1. arguments 1 and 2 are the OpenMPI and Horovod versions; missing
       arguments print usage on stderr and exit 2;
    2. a marker file ``<state_dir>/installed-<ompi>-<hvd>`` (state dir
       ``/opt/.hpcflow``, overridable via ``HPCFLOW_STATE_DIR``) makes the
       installation step a no-op when present;
    3. otherwise the configured installer commands run and the marker is
       written atomically (temp file + rename);
    4. the process replaces itself with arguments 3..N, or with
       ``/bin/bash`` when none are given;
    5. an installer failure propagates its exit code and leaves no marker.

    The output is a pure function of ``installers``, so it is byte-stable.
    """
    openmpi_cmd, horovod_cmd = installers.version_installs(
        "${OPENMPI_VERSION}", "${HOROVOD_VERSION}"
    )
    return f"""#!/bin/sh
# Install the requested OpenMPI/Horovod pair on first start, then hand
# control to the user command.
set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <openmpi_version> <horovod_version> [command...]" >&2
    exit 2
fi

OPENMPI_VERSION=$1
HOROVOD_VERSION=$2
shift 2

STATE_DIR=${{{STATE_DIR_ENV}:-{DEFAULT_STATE_DIR}}}
MARKER=$STATE_DIR/installed-$OPENMPI_VERSION-$HOROVOD_VERSION

if [ ! -f "$MARKER" ]; then
    {openmpi_cmd}
    {horovod_cmd}
    mkdir -p "$STATE_DIR"
    echo "openmpi=$OPENMPI_VERSION horovod=$HOROVOD_VERSION" > "$MARKER.tmp"
    mv "$MARKER.tmp" "$MARKER"
fi

if [ "$#" -gt 0 ]; then
    exec "$@"
fi
exec /bin/bash
"""
