from __future__ import annotations

import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hpcflow.errors import ProfileError
from hpcflow.profiles import (
    SCHEDULERS,
    ClusterProfile,
    ImageRef,
    SemVer,
    parse_cluster_profile,
    parse_env_spec,
    render_cluster_profile,
    validate_profile,
)


class TestSemVer:
    def test_parse_full_triple(self):
        v = SemVer.parse("4.0.1")
        assert (v.major, v.minor, v.patch) == (4, 0, 1)
        assert v.patch_specified
        assert str(v) == "4.0.1"

    def test_parse_major_minor_records_unspecified_patch(self):
        v = SemVer.parse("4.0")
        assert (v.major, v.minor, v.patch) == (4, 0, 0)
        assert not v.patch_specified
        assert str(v) == "4.0"

    def test_equality_ignores_patch_flag(self):
        assert SemVer.parse("4.0") == SemVer.parse("4.0.0")

    @pytest.mark.parametrize("bad", ["", "4", "4.", "a.b.c", "1.2.3.4", "-1.2.3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ProfileError):
            SemVer.parse(bad)

    @given(
        st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)),
        st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)),
    )
    def test_total_order_matches_tuple_order(self, a, b):
        va, vb = SemVer(*a), SemVer(*b)
        assert (va < vb) == (a < b)
        assert (va == vb) == (a == b)
        assert (va > vb) == (a > b)
        assert (va < vb) + (va == vb) + (va > vb) == 1


class TestParseClusterProfile:
    def test_csic_counts(self, csic_profile):
        assert csic_profile.gpus_per_node == 2
        assert csic_profile.gpu_nodes == 20
        assert csic_profile.scheduler == "slurm"
        assert csic_profile.openmpi_version == SemVer(4, 0, 1)

    def test_forhlr2_counts(self, forhlr2_profile):
        assert forhlr2_profile.gpus_per_node == 4
        assert forhlr2_profile.gpu_nodes == 21
        assert forhlr2_profile.module_loads == ("compiler/gnu/8.3", "mpi/openmpi/4.0")
        assert forhlr2_profile.account == "hk-project"

    def test_zero_gpus_rejected(self, fixtures):
        text = (fixtures / "profiles" / "csic.profile").read_text()
        text = text.replace("gpus_per_node = 2", "gpus_per_node = 0")
        with pytest.raises(ProfileError, match="gpus_per_node must be >= 1"):
            parse_cluster_profile(text)

    def test_missing_mandatory_key(self):
        with pytest.raises(ProfileError, match="missing mandatory key 'scheduler'"):
            parse_cluster_profile("[cluster]\nname = x\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ProfileError, match="line 3"):
            parse_cluster_profile("[cluster]\nname = x\nnot a kv line\n")

    def test_unparseable_version(self):
        text = (
            "[cluster]\nname = x\nscheduler = slurm\ngpus_per_node = 1\n"
            "gpu_nodes = 1\nopenmpi_version = four\ncontainer_runtime_path = /u\n"
        )
        with pytest.raises(ProfileError, match="unparseable version"):
            parse_cluster_profile(text)

    def test_duplicate_key(self):
        with pytest.raises(ProfileError, match="duplicate key"):
            parse_cluster_profile("[cluster]\nname = x\nname = y\n")

    def test_wrong_section(self):
        with pytest.raises(ProfileError, match="expected a \\[cluster\\] section"):
            parse_cluster_profile("[environment]\nname = x\n")

    def test_unknown_keys_are_kept_not_rejected(self):
        text = (
            "[cluster]\nname = x\nscheduler = slurm\ngpus_per_node = 1\n"
            "gpu_nodes = 1\nopenmpi_version = 4.0\ncontainer_runtime_path = /u\n"
            "future_field = whatever\n"
        )
        profile = parse_cluster_profile(text)
        assert profile.extra == (("future_field", "whatever"),)
        warnings = [i for i in validate_profile(profile) if i.severity == "warning"]
        assert any("future_field" in i.message for i in warnings)


    @pytest.mark.parametrize(
        "key",
        [
            "partition",
            "account",
            "module_loads",
            "name",
            "container_runtime_path",
            "interconnect",
            "default_mounts",
            "future_key",
        ],
    )
    @pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1e", "\x85", "\u2028", "\t"])
    def test_control_characters_rejected_with_field_and_line(self, key, char):
        mandatory = (
            "[cluster]\nname = x\nscheduler = slurm\ngpus_per_node = 1\n"
            "gpu_nodes = 1\nopenmpi_version = 4.0\ncontainer_runtime_path = /u\n"
        )
        text = re.sub(f"(?m)^{key} = .*\n", "", mandatory) + f"{key} = a{char}sudo true\n"
        line = text.count("\n")
        with pytest.raises(ProfileError, match=f"line {line}: {key} must not contain line breaks"):
            parse_cluster_profile(text)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["csic.profile", "forhlr2.profile", "local.profile"])
    def test_parse_render_parse_fixed_point(self, fixtures, name):
        first = parse_cluster_profile((fixtures / "profiles" / name).read_text())
        second = parse_cluster_profile(render_cluster_profile(first))
        assert first == second

    def test_round_trip_preserves_unspecified_patch(self):
        text = (
            "[cluster]\nname = x\nscheduler = slurm\ngpus_per_node = 1\n"
            "gpu_nodes = 1\nopenmpi_version = 4.0\ncontainer_runtime_path = /u\n"
            "extra_key = kept\n"
        )
        first = parse_cluster_profile(text)
        second = parse_cluster_profile(render_cluster_profile(first))
        assert second.openmpi_version.patch_specified is False
        assert first == second

    @pytest.mark.parametrize(
        "name, text",
        [
            (
                "csic.profile",
                "[cluster]\nname = csic-dl\nscheduler = slurm\ngpus_per_node = 2\n"
                "gpu_nodes = 20\nopenmpi_version = 4.0.1\n"
                "container_runtime_path = /home/researcher/.local/udocker/udocker\n"
                "module_loads = openmpi/4.0.1\ninterconnect = InfiniBand EDR ConnectX-5\n"
                "partition = gpu\ndefault_mounts = /scratch:/scratch\n",
            ),
            (
                "forhlr2.profile",
                "[cluster]\nname = forhlr2\nscheduler = slurm\ngpus_per_node = 4\n"
                "gpu_nodes = 21\nopenmpi_version = 4.0.2\n"
                "container_runtime_path = /home/researcher/.local/udocker/udocker\n"
                "module_loads = compiler/gnu/8.3, mpi/openmpi/4.0\n"
                "interconnect = InfiniBand 4X EDR\npartition = accelerated\n"
                "account = hk-project\ndefault_mounts = /lustre:/lustre\n",
            ),
            (
                "local.profile",
                "[cluster]\nname = workstation\nscheduler = none\ngpus_per_node = 2\n"
                "gpu_nodes = 2\nopenmpi_version = 4.0.1\n"
                "container_runtime_path = /home/researcher/.local/udocker/udocker\n",
            ),
        ],
    )
    def test_render_text_is_pinned(self, fixtures, name, text):
        profile = parse_cluster_profile((fixtures / "profiles" / name).read_text())
        assert render_cluster_profile(profile) == text

    def test_parsed_profiles_have_no_syntax_issues(self, csic_profile, forhlr2_profile):
        for profile in (csic_profile, forhlr2_profile):
            assert validate_profile(profile) == []


# one line without control characters, as every value needs
_CLEAN_LINE = st.text(
    st.characters(blacklist_categories=("Cc",), blacklist_characters="\u2028\u2029"), max_size=8
)
_MOUNT_WORD = st.text(st.sampled_from("ab/._- "), max_size=4)
_COUNT = st.integers(1, 10**6).map(str) | st.sampled_from(["+3", "007", "1_000", "\u0663"])


@st.composite
def _profile_text(draw) -> str:
    """``[cluster]`` text, each optional key present or not, in any order."""
    part = st.integers(0, 20)
    version = draw(st.tuples(part, part, st.none() | part))
    values = {
        "name": draw(_CLEAN_LINE),
        "scheduler": draw(st.sampled_from(SCHEDULERS)),
        "gpus_per_node": draw(_COUNT),
        "gpu_nodes": draw(_COUNT),
        "openmpi_version": ".".join(str(n) for n in version if n is not None),
        "container_runtime_path": draw(_CLEAN_LINE),
    }
    optional = {
        "module_loads": _CLEAN_LINE,
        "interconnect": _CLEAN_LINE,
        "partition": _CLEAN_LINE,
        "account": _CLEAN_LINE,
        "default_mounts": st.lists(st.tuples(_MOUNT_WORD, _MOUNT_WORD), max_size=3).map(
            lambda pairs: ", ".join(f"{src}:{dst}" for src, dst in pairs)
        ),
        "site": _CLEAN_LINE,
        "future_key": _CLEAN_LINE,
    }
    for key, values_of in optional.items():
        if draw(st.booleans()):
            values[key] = draw(values_of)
    lines = draw(st.permutations([f"{key} = {value}" for key, value in values.items()]))
    return "\n".join(["[cluster]", *lines]) + "\n"


@given(_profile_text())
def test_render_is_a_fixed_point_of_parse(text):
    try:
        profile = parse_cluster_profile(text)
    except ProfileError:  # an empty mount word
        assume(False)
    rendered = render_cluster_profile(profile)
    assert parse_cluster_profile(rendered) == profile
    assert render_cluster_profile(parse_cluster_profile(rendered)) == rendered


class TestValidateProfile:
    def _base(self, **overrides) -> ClusterProfile:
        values = dict(
            name="x",
            scheduler="slurm",
            gpus_per_node=1,
            gpu_nodes=1,
            openmpi_version=SemVer(4, 0, 1),
            container_runtime_path="/usr/local/bin/udocker",
        )
        values.update(overrides)
        return ClusterProfile(**values)

    def test_valid_profile_no_issues(self):
        assert validate_profile(self._base()) == []

    def test_relative_runtime_path_warns(self):
        issues = validate_profile(self._base(container_runtime_path="bin/udocker"))
        assert [i.severity for i in issues] == ["warning"]

    def test_empty_module_entry_is_error(self):
        issues = validate_profile(self._base(module_loads=("gcc", "")))
        assert [i.severity for i in issues] == ["error"]

    def test_whitespace_module_entry_is_error(self):
        issues = validate_profile(self._base(module_loads=("open mpi",)))
        assert [i.severity for i in issues] == ["error"]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"name": ""}, "name must be non-empty"),
            ({"scheduler": "pbs"}, "scheduler must be one of slurm, none, got 'pbs'"),
            ({"container_runtime_path": ""}, "container_runtime_path must be non-empty"),
            ({"default_mounts": (("/a", ""),)}, "default_mounts entries must have non-empty"),
            ({"default_mounts": (("", "/a"),)}, "default_mounts entries must have non-empty"),
        ],
    )
    def test_record_built_in_code_is_checked(self, overrides, message):
        issues = validate_profile(self._base(**overrides))
        assert [i.severity for i in issues] == ["error"]
        assert issues[0].message.startswith(message)

    def test_nonpositive_counts_are_errors(self):
        issues = validate_profile(self._base(gpus_per_node=0, gpu_nodes=0))
        assert [i.severity for i in issues] == ["error", "error"]


class TestParseEnvSpec:
    def test_entrypoint_spec(self, entrypoint_spec):
        assert entrypoint_spec.strategy == "entrypoint"
        assert entrypoint_spec.entrypoint_path == "/usr/local/bin/entry.sh"
        assert entrypoint_spec.horovod_version == "0.21.3"
        assert entrypoint_spec.system_packages == ("wget", "git")
        assert entrypoint_spec.code_copies == (("train.py", "/workspace/train.py"),)

    def test_tags_rejects_pinned_openmpi(self):
        text = (
            "[environment]\nbase_image = a/b:1\nstrategy = tags\n"
            "horovod_version = 0.21.3\nopenmpi_version = 4.0.1\n"
        )
        with pytest.raises(ProfileError, match="tags"):
            parse_env_spec(text)

    def test_ngc_requires_openmpi(self):
        text = "[environment]\nbase_image = a/b:1\nstrategy = ngc\nhorovod_version = 0.21.3\n"
        with pytest.raises(ProfileError, match="openmpi_version is required"):
            parse_env_spec(text)

    def test_entrypoint_requires_path(self):
        text = (
            "[environment]\nbase_image = a/b:1\nstrategy = entrypoint\n"
            "horovod_version = 0.21.3\n"
        )
        with pytest.raises(ProfileError, match="entrypoint_path"):
            parse_env_spec(text)

    def test_untagged_base_image_normalized(self):
        text = (
            "[environment]\nbase_image = org/img\nstrategy = ngc\n"
            "horovod_version = 0.21.3\nopenmpi_version = 4.0.1\n"
        )
        spec = parse_env_spec(text)
        assert spec.base_image == "org/img:latest"

    def test_tags_rejects_digest_pinned_base_image(self):
        text = (
            "[environment]\nstrategy = tags\n"
            "base_image = org/img@sha256:abcd\nhorovod_version = 0.21.3\n"
        )
        with pytest.raises(ProfileError, match="digest-pinned") as info:
            parse_env_spec(text)
        assert info.value.line == 3
        assert str(info.value).startswith("line 3: ")

    def test_empty_entrypoint_path_is_none(self):
        text = (
            "[environment]\nbase_image = a/b:1\nstrategy = ngc\n"
            "horovod_version = 0.21.3\nopenmpi_version = 4.0.1\nentrypoint_path =\n"
        )
        assert parse_env_spec(text).entrypoint_path is None

    def test_registry_default(self, entrypoint_spec):
        assert entrypoint_spec.registry == "docker.io"

    def test_missing_mandatory_key(self):
        with pytest.raises(ProfileError, match="missing mandatory key 'horovod_version'"):
            parse_env_spec("[environment]\nbase_image = a/b:1\nstrategy = ngc\n")


def _entrypoint_spec(**values: str) -> tuple[str, int]:
    """An entrypoint spec text with ``values`` set, and the line of the last one."""
    lines = {
        "base_image": "a/b:1",
        "strategy": "entrypoint",
        "openmpi_version": "4.0.1",
        "horovod_version": "0.21.3",
        "entrypoint_path": "/e.sh",
        **values,
    }
    text = "[environment]\n" + "".join(f"{k} = {v}\n" for k, v in lines.items())
    return text, 1 + list(lines).index(list(values)[-1]) + 1


class TestSpecWords:
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("system_packages", "wget, vim; sudo rm -rf /x", "'vim; sudo rm -rf /x' is not"),
            ("system_packages", "$(doas id)", "is not a package name"),
            ("system_packages", "Vim", "is not a package name"),
            ("system_packages", "-o", "is not a package name"),
            ("system_packages", "vim=", "is not a package name"),
            ("system_packages", "git, sudo", "'sudo' names a privileged command"),
            ("horovod_version", "0.21.3 && sudo id", "is not one version word"),
            ("horovod_version", "", "is not one version word"),
            ("code_copies", "a b:/c", "'a b' is not a path"),
            ("code_copies", "a:/c, b:$HOME/c", "'$HOME/c' is not a path"),
            ("code_copies", "x:/bin/su", "names a privileged command"),
            ("entrypoint_path", "/opt/my entry.sh", "is not a path"),
            ("entrypoint_path", "/opt/", "does not end in a file name"),
            ("entrypoint_path", "/opt/..", "does not end in a file name"),
            ("entrypoint_path", "/opt/doas", "names a privileged command"),
            ("entrypoint_path", "/opt/-x", "does not end in a file name"),
            ("code_copies", "--from=img:/y", "'--from=img' is not a path"),
            ("base_image", "--platform=x", "is not an image reference"),
            ("registry", "reg istry", "is not a path"),
            ("registry", "r$x", "is not a path"),
            ("base_image", "a:\\", "is not an image reference"),
            ("base_image", "sudo x", "is not an image reference"),
            ("horovod_version", "0.21\x0b3", "must not contain line breaks or control characters"),
            ("registry", "r\x85x", "must not contain line breaks or control characters"),
        ],
    )
    def test_refused_with_key_and_line(self, key, value, message):
        text, line = _entrypoint_spec(**{key: value})
        with pytest.raises(ProfileError, match=rf"^line {line}: {key} .*{re.escape(message)}"):
            parse_env_spec(text)

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("system_packages", "libc6=2.31-0u9, g++, , x", ("libc6=2.31-0u9", "g++", "x")),
            ("horovod_version", "0.28.1+cu117", "0.28.1+cu117"),
            ("code_copies", "src/:/w/, a=b:c:d", (("src/", "/w/"), ("a=b", "c:d"))),
            ("entrypoint_path", "entry.sh", "entry.sh"),
            ("registry", "", ""),
            ("registry", "reg.example.com:5000", "reg.example.com:5000"),
            ("base_image", "example/\u00dcn\u00ef:1", "example/\u00dcn\u00ef:1"),
        ],
    )
    def test_accepted(self, key, value, field):
        assert getattr(parse_env_spec(_entrypoint_spec(**{key: value})[0]), key) == field


class TestNormalizeImageRef:
    @pytest.mark.parametrize(
        "ref,expected,unpinned",
        [
            ("org/img", "org/img:latest", True),
            ("org/img:latest", "org/img:latest", True),
            ("org/img:1.0", "org/img:1.0", False),
            ("reg.example.com:5000/org/img", "reg.example.com:5000/org/img:latest", True),
            ("org/img@sha256:abcd", "org/img@sha256:abcd", False),
        ],
    )
    def test_normalization(self, ref, expected, unpinned):
        assert ImageRef.parse(ref).pinned is not unpinned
        text = (
            f"[environment]\nbase_image = {ref}\nstrategy = ngc\n"
            "horovod_version = 0.21.3\nopenmpi_version = 4.0.1\n"
        )
        assert parse_env_spec(text).base_image == expected

    @pytest.mark.parametrize(
        "ref,repo,tag,digest,name",
        [
            ("img", "img", None, None, "img"),
            ("org/img:1.0", "org/img", "1.0", None, "img"),
            ("reg.example.com:5000/org/img", "reg.example.com:5000/org/img", None, None, "img"),
            ("reg:5000/img:2", "reg:5000/img", "2", None, "img"),
            ("org/img@sha256:ab", "org/img", None, "sha256:ab", "img"),
            ("org/img:1.0@sha256:ab", "org/img", "1.0", "sha256:ab", "img"),
        ],
    )
    def test_fields(self, ref, repo, tag, digest, name):
        parsed = ImageRef.parse(ref)
        assert (parsed.repo, parsed.tag, parsed.digest, parsed.name) == (repo, tag, digest, name)

    @given(st.text() | st.text(alphabet="a1:/@"))
    def test_round_trip(self, ref):
        assert str(ImageRef.parse(ref)) == ref
