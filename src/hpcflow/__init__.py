"""Cluster-agnostic toolkit for container-based distributed training on HPC.

Generates and validates every artifact of the workflow: Dockerfiles and
their smell reports, version-reconciling entrypoint scripts, container
setup command sequences, batch job scripts, and multi-GPU scaling
predictions with benchmark statistics.
"""

from hpcflow.errors import (
    BenchLogError,
    DockerfileError,
    HpcflowError,
    LaunchError,
    LineError,
    ProfileError,
    ReconcileError,
)


def __getattr__(name: str):
    # the names in __all__ not bound above come from profiles, loaded on
    # first use (PEP 562), so importing hpcflow.cli or hpcflow.errors does
    # not load it
    if name in __all__:
        from hpcflow import profiles

        return getattr(profiles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "BenchLogError",
    "ClusterProfile",
    "DockerfileError",
    "EnvironmentSpec",
    "HpcflowError",
    "ImageRef",
    "LaunchError",
    "LineError",
    "ProfileError",
    "ReconcileError",
    "SemVer",
    "parse_cluster_profile",
    "parse_env_spec",
    "render_cluster_profile",
    "validate_profile",
    "__version__",
]
