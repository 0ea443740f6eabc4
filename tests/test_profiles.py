from __future__ import annotations

import re
import shlex
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hpcflow.errors import ProfileError
from hpcflow.launch import _sh_word
from hpcflow.profiles import (
    SCHEDULERS,
    ClusterProfile,
    EnvironmentSpec,
    ImageRef,
    SemVer,
    find_privileged_tokens,
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
        with pytest.raises(ValueError):
            SemVer.parse(bad)

    # each part is a count, read as read_int reads one: the text str() writes
    @pytest.mark.parametrize(
        "bad",
        ["04.0", "4.00.1", "4.0.01", "\u0664.\u0660", "4.+1", "1_0.0", "4. 0", "4.-0"],
    )
    def test_rejects_parts_not_written_as_str_writes(self, bad):
        expected = r" \(expected MAJOR\.MINOR\[\.PATCH\]\)$"
        with pytest.raises(ValueError, match=r"^unparseable version .*" + expected):
            SemVer.parse(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            "1" * 5000 + ".0",
            "4.1" + "1" * 4999,
            "4.0." + "1" * 4998,
            "04." + "1" * 4999,  # the first part refused is not the long one
            "4.0." + "a" * 4998,
            "4.0\n" + "1" * 4998,
        ],
        ids=["first", "second", "third", "short-first", "letters", "line-break"],
    )
    def test_long_text_is_named_by_its_length(self, bad):
        # the text is not echoed: its error line stays short
        message = "unparseable version (5002 characters; expected MAJOR.MINOR[.PATCH])"
        with pytest.raises(ValueError) as info:
            SemVer.parse(bad)
        assert str(info.value) == message

    def test_text_is_echoed_while_its_repr_is_short(self):
        for bad, echoed in (("4." * 31, True), ("4." * 32, False), ("\x1b" * 16, False)):
            with pytest.raises(ValueError) as info:
                SemVer.parse(bad)
            assert (repr(bad) in str(info.value)) is echoed

    @given(
        st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)),
        st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)),
    )
    def test_equality_matches_tuple_equality(self, a, b):
        va, vb = SemVer(*a), SemVer(*b)
        assert (va == vb) == (a == b)
        if a == b:
            assert hash(va) == hash(vb)


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
        assert validate_profile(profile) == ["unknown key 'future_field' ignored"]


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
# a line that is not empty once stripped, as a name or a runtime path must be
_LINE_WITH_WORD = st.tuples(
    _CLEAN_LINE, st.characters(blacklist_categories=("Cc", "Z")), _CLEAN_LINE
).map("".join)
# module names without whitespace, as a list value
_MODULE = st.characters(blacklist_categories=("Cc", "Z"), blacklist_characters=",")
_MODULES = st.lists(st.text(_MODULE, min_size=1, max_size=4), max_size=3).map(", ".join)
_MOUNT_PAD = st.text(st.sampled_from("ab/._- "), max_size=2)
_MOUNT_WORD = st.tuples(_MOUNT_PAD, st.sampled_from("ab/._-"), _MOUNT_PAD).map("".join)
_COUNT = st.integers(1, 10**6).map(str) | st.sampled_from(["+3", "007", "1_000", "\u0663"])
# a version part, written as str() writes it or not
_VERSION_PART = st.integers(0, 20).map(str) | st.sampled_from(["04", "\u0663", "9" * 4301])
# a version as str() writes one: each part has no more digits than int() reads
_VERSION_PART_TEXT = f"(?:0|[1-9][0-9]{{0,{sys.get_int_max_str_digits() - 1}}})"
_VERSION_TEXT = rf"{_VERSION_PART_TEXT}(?:\.{_VERSION_PART_TEXT}){{1,2}}"


@st.composite
def _profile_text(draw) -> str:
    """``[cluster]`` text, each optional key present or not, in any order."""
    version = draw(st.tuples(_VERSION_PART, _VERSION_PART, st.none() | _VERSION_PART))
    values = {
        "name": draw(_LINE_WITH_WORD),
        "scheduler": draw(st.sampled_from(SCHEDULERS)),
        "gpus_per_node": draw(_COUNT),
        "gpu_nodes": draw(_COUNT),
        "openmpi_version": ".".join(part for part in version if part is not None),
        "container_runtime_path": draw(_LINE_WITH_WORD),
    }
    optional = {
        "module_loads": _MODULES,
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
    # a count or a version part not written as str() writes it is refused,
    # naming its key and line
    lines = text.split("\n")
    for key, written, reason in (  # in the readers' order
        ("gpus_per_node", "[1-9][0-9]*", "must be an integer, "),
        ("gpu_nodes", "[1-9][0-9]*", "must be an integer, "),
        ("openmpi_version", _VERSION_TEXT, "unparseable version "),
    ):
        number, value = next(
            (n, line.partition(" = ")[2]) for n, line in enumerate(lines, 1)
            if line.startswith(f"{key} = ")
        )
        if not re.fullmatch(written, value):
            with pytest.raises(ProfileError, match=rf"^line {number}: {key} {reason}"):
                parse_cluster_profile(text)
            return
    try:
        profile = parse_cluster_profile(text)
    except ProfileError as exc:  # a value that names a privileged command
        assert "names a privileged command" in str(exc)
        assume(False)
    rendered = render_cluster_profile(profile)
    assert parse_cluster_profile(rendered) == profile
    assert render_cluster_profile(parse_cluster_profile(rendered)) == rendered


# pieces of a value a profile could hold: quotes, operators, expansions and
# the privileged command, bare and as a path
_SCRIPT_PIECE = st.sampled_from(
    [*"ab/$(){}`'\";&|^ =:-_.@%+,\\", "sudo", "$HOME", "${X}", "$(", "/usr/bin/sudo"]
)


@settings(max_examples=500)
@given(st.lists(_SCRIPT_PIECE, max_size=8).map("".join))
@example("$HOME/bin/sudo")
@example("a^sudo")
@example("$('sudo')")
@example("/usr/bin/sudo")
def test_scan_of_the_script_word_agrees_with_the_quoted_word(value):
    # the job script writes a plain word bare and any other word quoted;
    # a plain word has no quote, operator, parenthesis, backtick or ``$(``,
    # so the scan reads it alike either way
    for word in (value, f"--volume={value}:{value}", f"--volume=/a:{value}"):
        assert find_privileged_tokens(_sh_word(word)) == find_privileged_tokens(shlex.quote(word))


def _profile(**overrides) -> ClusterProfile:
    values = dict(
        name="x",
        scheduler="slurm",
        gpus_per_node=1,
        gpu_nodes=1,
        openmpi_version=SemVer(4, 0, 1),
        container_runtime_path="/usr/local/bin/udocker",
    )
    return ClusterProfile(**{**values, **overrides})


def _file_value(value: object) -> str:
    """A field value as a profile file writes it."""
    if isinstance(value, tuple):
        return ", ".join(v if isinstance(v, str) else ":".join(v) for v in value)
    return value


class TestValidateProfile:
    def test_valid_profile_no_issues(self):
        assert validate_profile(_profile()) == []

    @pytest.mark.parametrize(
        "overrides",
        [
            {"container_runtime_path": "/opt/sudo/bin/udocker"},
            {"container_runtime_path": "/opt/my sudo/udocker"},
            {"module_loads": ("sudo/1.9", "visudo-tools")},
            {"partition": "sudo", "account": "/usr/bin/sudo"},
            {"default_mounts": (("/usr/bin/sudo", "/usr/bin/sudo"),)},
        ],
    )
    def test_privileged_word_elsewhere_in_a_value_passes(self, overrides):
        # a directory named like a command, a word in a quoted path, or the
        # value of a ``--key=value`` word runs nothing
        assert validate_profile(_profile(**overrides)) == []

    def test_relative_runtime_path_warns(self):
        warnings = validate_profile(_profile(container_runtime_path="bin/udocker"))
        assert warnings == ["container_runtime_path 'bin/udocker' is not absolute"]

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"name": ""}, "name must be non-empty"),
            ({"container_runtime_path": ""}, "container_runtime_path must be non-empty"),
            (
                {"container_runtime_path": "/usr/bin/sudo"},
                "container_runtime_path '/usr/bin/sudo' names a privileged command",
            ),
            (
                {"container_runtime_path": "su"},
                "container_runtime_path 'su' names a privileged command",
            ),
            (
                {"container_runtime_path": "/opt/rt;doas"},
                "container_runtime_path '/opt/rt;doas' names a privileged command",
            ),
            (
                {"container_runtime_path": "/opt/$(sudo id)"},
                "container_runtime_path '/opt/$(sudo id)' names a privileged command",
            ),
            (
                {"module_loads": ("gcc", "sudo")},
                "module_loads entry 'sudo' names a privileged command",
            ),
            (
                {"module_loads": ("tools/pkexec",)},
                "module_loads entry 'tools/pkexec' names a privileged command",
            ),
            ({"partition": "gpu;sudo"}, "partition 'gpu;sudo' names a privileged command"),
            ({"partition": "gpu sudo"}, "partition 'gpu sudo' names a privileged command"),
            ({"account": "a&&(doas)"}, "account 'a&&(doas)' names a privileged command"),
            (
                {"default_mounts": (("/a", "/b;sudo"),)},
                "default_mounts entry '/a:/b;sudo' names a privileged command",
            ),
            ({"module_loads": ("gcc", "")}, "module_loads entries must be non-empty"),
            (
                {"module_loads": ("open mpi",)},
                "module_loads entry 'open mpi' must not contain whitespace",
            ),
        ],
    )
    def test_record_built_in_code_is_checked(self, overrides, message, fixtures):
        # refused by the reader of its key, in code and in a file alike
        with pytest.raises(ProfileError) as info:
            _profile(**overrides)
        assert (str(info.value), info.value.line) == (message, None)
        ((key, value),) = overrides.items()
        lines = (fixtures / "profiles" / "csic.profile").read_text().splitlines()
        at = next((i for i, line in enumerate(lines) if line.startswith(f"{key} =")), len(lines))
        lines[at : at + 1] = [f"{key} = {_file_value(value)}"]
        with pytest.raises(ProfileError) as info:
            parse_cluster_profile("\n".join(lines) + "\n")
        assert (str(info.value), info.value.line) == (f"line {at + 1}: {message}", at + 1)

    def test_first_fault_in_reader_order_is_reported(self):
        faults = {
            "default_mounts": (("/a", "/b;su"),),
            "account": "a;pkexec",
            "partition": "p;doas",
            "module_loads": ("sudo", "", "a b"),
            "container_runtime_path": "",
            "name": "",
        }
        # a file is read in reader order too, not in line order
        text = "[cluster]\nscheduler = slurm\ngpus_per_node = 1\ngpu_nodes = 1\n"
        text += "openmpi_version = 4.0\n"
        text += "".join(f"{key} = {_file_value(value)}\n" for key, value in faults.items())
        with pytest.raises(ProfileError, match="^line 11: name must be non-empty$"):
            parse_cluster_profile(text)
        reported = []
        while faults:
            with pytest.raises(ProfileError) as info:
                _profile(**faults)
            reported.append(str(info.value))
            del faults[str(info.value).partition(" ")[0]]
        assert reported == [
            "name must be non-empty",
            "container_runtime_path must be non-empty",
            "module_loads entry 'sudo' names a privileged command",
            "partition 'p;doas' names a privileged command",
            "account 'a;pkexec' names a privileged command",
            "default_mounts entry '/a:/b;su' names a privileged command",
        ]

    def test_warnings_in_order(self):
        profile = _profile(
            container_runtime_path="bin/udocker", extra=(("site", "x"), ("future_key", "y"))
        )
        assert validate_profile(profile) == [
            "container_runtime_path 'bin/udocker' is not absolute",
            "unknown key 'site' ignored",
            "unknown key 'future_key' ignored",
        ]


_MOUNT_REFUSED = "default_mounts entries must be 'src:dst', got "


class TestProfileBuiltInCode:
    """A ``ClusterProfile`` built in code is checked like a parsed one, when built."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"scheduler": "pbs"}, "scheduler must be one of slurm, none, got 'pbs'"),
            ({"gpus_per_node": 0}, "gpus_per_node must be >= 1, got 0"),
            ({"gpu_nodes": 0}, "gpu_nodes must be >= 1, got 0"),
            ({"default_mounts": (("/a", ""),)}, _MOUNT_REFUSED + "'/a:'"),
            ({"default_mounts": (("", "/a"),)}, _MOUNT_REFUSED + "':/a'"),
            (
                {"container_runtime_path": "/u\nsudo true"},
                "container_runtime_path must not contain line breaks or control characters",
            ),
            ({"name": " x"}, "name ' x' reads back as 'x'"),
            ({"name": None}, "name None reads back as 'None'"),
            ({"partition": ""}, "partition '' reads back as None"),
            ({"extra": (("name", "y"),)}, "duplicate key 'name'"),
            ({"extra": (("site", "a"), ("site", "b"))}, "duplicate key 'site'"),
            ({"extra": (("Site", "a"),)}, "invalid key 'Site' (keys match [a-z_]+)"),
            (
                {"extra": (("site", "x\nscheduler = none"),)},
                "site must not contain line breaks or control characters",
            ),
            ({"extra": (("site", "x "),)}, "site 'x ' reads back as 'x'"),
        ],
        ids=[
            "scheduler",
            "gpus_per_node",
            "gpu_nodes",
            "mount-dst",
            "mount-src",
            "runtime-line-break",
            "name-space",
            "name-none",
            "partition-empty",
            "extra-field-key",
            "extra-twice",
            "extra-key",
            "extra-line-break",
            "extra-space",
        ],
    )
    def test_refused_naming_the_key(self, overrides, message):
        with pytest.raises(ProfileError) as info:
            _profile(**overrides)
        assert (str(info.value), info.value.line) == (message, None)

    def test_replace_is_checked(self, csic_profile):
        with pytest.raises(ProfileError, match="^gpu_nodes must be >= 1, got 0$"):
            csic_profile.replace(gpu_nodes=0)


# a word any profile value may be, and text that tries each edge of the format
_PLAIN = st.text(st.sampled_from("ab1/._-"), min_size=1, max_size=4)
_EDGY = st.text(st.sampled_from("a :,=#\t\n\x1f\x85\u2028"), max_size=4)


@st.composite
def _profile_fields(draw) -> dict:
    """The fields of a profile of plain words, with none or one drawn from edge values."""
    fields = {
        "name": draw(_PLAIN),
        "scheduler": draw(st.sampled_from(SCHEDULERS)),
        "gpus_per_node": draw(st.integers(1, 8)),
        "gpu_nodes": draw(st.integers(1, 8)),
        "openmpi_version": SemVer(4, 0, 1),
        "container_runtime_path": draw(_PLAIN),
        "module_loads": tuple(draw(st.lists(_PLAIN, max_size=2))),
        "interconnect": draw(_PLAIN),
        "partition": draw(st.none() | _PLAIN),
        "account": draw(st.none() | _PLAIN),
        "default_mounts": tuple(draw(st.lists(st.tuples(_PLAIN, _PLAIN), max_size=2))),
        "extra": (("site", draw(_PLAIN)),),
    }
    edges = {
        "name": _EDGY | st.none(),
        "scheduler": st.sampled_from(["pbs", "Slurm", ""]),
        "gpus_per_node": st.integers(-1, 1) | st.just(True),
        "gpu_nodes": st.integers(-1, 1),
        "openmpi_version": st.builds(
            SemVer, st.integers(-1, 2), st.integers(0, 2), st.integers(0, 2), st.booleans()
        ),
        "container_runtime_path": _EDGY,
        "module_loads": st.lists(_EDGY, max_size=2).map(tuple),
        "interconnect": _EDGY,
        "partition": _EDGY,
        "account": _EDGY,
        "default_mounts": st.lists(st.tuples(_EDGY, _EDGY), max_size=2).map(tuple),
        "extra": st.lists(
            st.tuples(st.sampled_from(["site", "name", "Site", "a_b", ""]), _EDGY), max_size=2
        ).map(tuple),
    }
    spoiled = draw(st.sampled_from([None, *edges]))
    if spoiled is not None:
        fields[spoiled] = draw(edges[spoiled])
    return fields


@given(_profile_fields())
def test_every_built_profile_reads_back_from_its_text(fields):
    try:
        profile = ClusterProfile(**fields)
    except ProfileError:
        return
    assert parse_cluster_profile(render_cluster_profile(profile)) == profile


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

    def test_entrypoint_requires_openmpi_for_cmd(self):
        # the image's CMD bakes in a default pair, so a spec without one is refused
        text = (
            "[environment]\nbase_image = a/b:1\nstrategy = entrypoint\n"
            "horovod_version = 0.21.3\nentrypoint_path = /entry.sh\n"
        )
        with pytest.raises(ProfileError) as info:
            parse_env_spec(text)
        assert str(info.value) == (
            "line 3: strategy 'entrypoint' bakes a default version pair into the image's CMD; "
            "openmpi_version is required"
        )

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
            ("base_image", "example/\u00dcn\u00ef:1", "is not an image reference"),
            ("base_image", "nvidia/cud\u00e4:\u0661\u0661.\u0660", "is not an image reference"),
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
        ],
    )
    def test_accepted(self, key, value, field):
        assert getattr(parse_env_spec(_entrypoint_spec(**{key: value})[0]), key) == field


_PATH_CHARS = "letters, digits and @%+=:,./^_-, not starting with -"


class TestReaderErrorLines:
    """The whole message of one failing value per fallible reader, pinned."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("scheduler", "pbs", "line 3: scheduler must be one of slurm, none, got 'pbs'"),
            ("gpus_per_node", "two", "line 4: gpus_per_node must be an integer, got 'two'"),
            ("gpu_nodes", "0", "line 5: gpu_nodes must be >= 1, got 0"),
            ("gpu_nodes", "-1", "line 5: gpu_nodes must be >= 1, got -1"),
            # a count is written back as it was read, so no leading zero is taken
            ("gpu_nodes", "007", "line 5: gpu_nodes must be an integer, got '007'"),
            ("gpu_nodes", "\u0662", "line 5: gpu_nodes must be an integer, got '\u0662'"),
            ("gpus_per_node", "1_0", "line 4: gpus_per_node must be an integer, got '1_0'"),
            ("gpus_per_node", "+2", "line 4: gpus_per_node must be an integer, got '+2'"),
            # int() refuses more than 4300 digits with its own message
            (
                "gpus_per_node",
                "1" * 5000,
                "line 4: gpus_per_node has 5000 digits, more than Python reads as an integer",
            ),
            (
                "openmpi_version",
                "four",
                "line 6: openmpi_version unparseable version 'four' (expected MAJOR.MINOR[.PATCH])",
            ),
            (
                "default_mounts",
                "/a:/b, /c",
                "line 8: default_mounts entries must be 'src:dst', got '/c'",
            ),
        ],
    )
    def test_cluster(self, key, value, message):
        lines = {
            "name": "x",
            "scheduler": "slurm",
            "gpus_per_node": "1",
            "gpu_nodes": "1",
            "openmpi_version": "4.0",
            "container_runtime_path": "/u",
            key: value,
        }
        text = "[cluster]\n" + "".join(f"{k} = {v}\n" for k, v in lines.items())
        with pytest.raises(ProfileError) as info:
            parse_cluster_profile(text)
        assert str(info.value) == message

    def test_version_too_long_for_int_names_key_and_line(self):
        # int() refuses more than 4300 digits with ValueError, not ProfileError;
        # in "04.111…" the first part refused is not the long one
        for version in ("1" * 5000 + ".1", "04." + "1" * 5000):
            text = (
                "[cluster]\nname = x\nscheduler = slurm\ngpus_per_node = 1\ngpu_nodes = 1\n"
                f"openmpi_version = {version}\ncontainer_runtime_path = /u\n"
            )
            with pytest.raises(ProfileError, match="^line 6: openmpi_version ") as info:
                parse_cluster_profile(text)
            # the text is named by its length, not echoed: the error line stays short
            assert f"({len(version)} characters; " in str(info.value)
            assert len(str(info.value)) < 120

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (
                "base_image",
                "--platform=x",
                f"line 2: base_image '--platform=x' is not an image reference of {_PATH_CHARS}",
            ),
            ("base_image", "sudo", "line 2: base_image 'sudo' names a privileged command"),
            (
                "strategy",
                "docker",
                "line 3: strategy must be one of tags, ngc, entrypoint, got 'docker'",
            ),
            (
                "horovod_version",
                "1 2",
                "line 5: horovod_version '1 2' is not one version word "
                "([A-Za-z0-9][A-Za-z0-9.+_-]*)",
            ),
            (
                "openmpi_version",
                "4",
                "line 4: openmpi_version unparseable version '4' (expected MAJOR.MINOR[.PATCH])",
            ),
            (
                "system_packages",
                "Vim",
                "line 7: system_packages 'Vim' is not a package name "
                "([a-z0-9][a-z0-9+.-]*, optionally =version)",
            ),
            (
                "system_packages",
                "git, sudo",
                "line 7: system_packages 'sudo' names a privileged command",
            ),
            ("code_copies", "a", "line 7: code_copies entries must be 'src:dst', got 'a'"),
            ("code_copies", "a b:/c", f"line 7: code_copies 'a b' is not a path of {_PATH_CHARS}"),
            (
                "entrypoint_path",
                "/opt/",
                "line 6: entrypoint_path '/opt/' does not end in a file name",
            ),
            (
                "entrypoint_path",
                "/opt/my entry.sh",
                f"line 6: entrypoint_path '/opt/my entry.sh' is not a path of {_PATH_CHARS}",
            ),
            ("registry", "r$x", f"line 7: registry 'r$x' is not a path of {_PATH_CHARS}"),
            ("registry", "/bin/su", "line 7: registry '/bin/su' names a privileged command"),
        ],
    )
    def test_spec(self, key, value, message):
        with pytest.raises(ProfileError) as info:
            parse_env_spec(_entrypoint_spec(**{key: value})[0])
        assert str(info.value) == message


class TestSpecBuiltInCode:
    """An ``EnvironmentSpec`` built in code is checked like a parsed one."""

    _NGC = dict(base_image="a:1", strategy="ngc", horovod_version="1")

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"system_packages": ("vim; sudo id",)},
                "system_packages 'vim; sudo id' is not a package name "
                "([a-z0-9][a-z0-9+.-]*, optionally =version)",
            ),
            (
                {"code_copies": (("a b", "/c"),)},
                f"code_copies 'a b' is not a path of {_PATH_CHARS}",
            ),
            (
                {"code_copies": (("a:b", "/c"),)},
                "code_copies (('a:b', '/c'),) reads back as (('a', 'b:/c'),)",
            ),
            (
                {"strategy": "tags", "horovod_version": "0.21.3 && sudo id"},
                "horovod_version '0.21.3 && sudo id' is not one version word "
                "([A-Za-z0-9][A-Za-z0-9.+_-]*)",
            ),
            (
                {"strategy": "entrypoint", "entrypoint_path": "/opt/my entry.sh"},
                f"entrypoint_path '/opt/my entry.sh' is not a path of {_PATH_CHARS}",
            ),
            (
                {"system_packages": ("git,vim",)},
                "system_packages ('git,vim',) reads back as ('git', 'vim')",
            ),
            (
                {"openmpi_version": "4.0.1"},
                "openmpi_version '4.0.1' reads back as "
                "SemVer(major=4, minor=0, patch=1, patch_specified=True)",
            ),
            (
                {"openmpi_version": SemVer(-1, 0)},
                "openmpi_version unparseable version '-1.0.0' (expected MAJOR.MINOR[.PATCH])",
            ),
            (
                {"registry": "a\nb"},
                "registry must not contain line breaks or control characters",
            ),
        ],
        ids=[
            "package",
            "copy-space",
            "copy-colon",
            "horovod",
            "entrypoint",
            "package-comma",
            "version-text",
            "version-negative",
            "line-break",
        ],
    )
    def test_refused_naming_the_key(self, fields, message):
        with pytest.raises(ProfileError) as info:
            EnvironmentSpec(**{**self._NGC, **fields})
        assert (str(info.value), info.value.line) == (message, None)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"strategy": "tags", "openmpi_version": SemVer(4, 0, 1)},
                "strategy 'tags' defers the OpenMPI version to the target cluster's "
                "matching image tag; remove openmpi_version",
            ),
            (
                {},
                "strategy 'ngc' uses a prebuilt image with a fixed OpenMPI; "
                "openmpi_version is required so it can be checked against the cluster",
            ),
            (
                {"strategy": "entrypoint"},
                "strategy 'entrypoint' installs versions at first container start; "
                "entrypoint_path is required",
            ),
            (
                {"strategy": "entrypoint", "entrypoint_path": "/entry.sh"},
                "strategy 'entrypoint' bakes a default version pair into the image's CMD; "
                "openmpi_version is required",
            ),
            (
                {"strategy": "tags", "base_image": "a@sha256:0"},
                "strategy 'tags' picks the image tag per cluster; "
                "base_image must not be digest-pinned",
            ),
        ],
        ids=[
            "tags-openmpi", "ngc-no-openmpi", "entrypoint-no-path", "entrypoint-no-openmpi",
            "tags-digest",
        ],
    )
    def test_strategy_rules(self, fields, message):
        with pytest.raises(ProfileError) as info:
            EnvironmentSpec(**{**self._NGC, **fields})
        assert (str(info.value), info.value.line) == (message, None)

    def test_replace_is_checked(self, entrypoint_spec):
        with pytest.raises(ProfileError, match="^registry 'a b' is not a path"):
            entrypoint_spec.replace(registry="a b")

    def test_parsed_fixtures_build_again(self, entrypoint_spec, ngc_spec, tags_spec):
        for spec in (entrypoint_spec, ngc_spec, tags_spec):
            assert spec.replace() == spec


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
