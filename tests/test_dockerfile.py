from __future__ import annotations

import random
import string

import pytest

from conftest import corpus_paths
from hpcflow.dockerfile import (
    DockerfileAst,
    Instruction,
    exec_tokens,
    generate_dockerfile,
    make_exec,
    parse_dockerfile,
    render_dockerfile,
)
from hpcflow.errors import DockerfileError, ReconcileError
from hpcflow.lint import lint
from hpcflow.profiles import parse_env_spec

FIG2_TEXT = 'FROM ubuntu:18.04\nENTRYPOINT ["ls"]\nCMD ["-la"]\n'


class TestParse:
    def test_exec_form_entrypoint_cmd(self):
        ast = parse_dockerfile(FIG2_TEXT)
        kinds = [i.kind for i in ast.instructions]
        assert kinds == ["FROM", "ENTRYPOINT", "CMD"]
        assert ast.instructions[1].exec_form and ast.instructions[2].exec_form
        assert exec_tokens(ast.instructions[1]) == ["ls"]
        assert exec_tokens(ast.instructions[2]) == ["-la"]

    def test_empty_text(self):
        assert parse_dockerfile("").instructions == ()

    def test_continuation_joins_lines(self):
        ast = parse_dockerfile("FROM a:1\nRUN wget x \\\n && tar xf x\n")
        run = ast.instructions[1]
        assert run.kind == "RUN"
        assert run.args == "wget x  && tar xf x"
        assert run.line_span == (2, 3)

    def test_comment_inside_continuation_is_skipped(self):
        ast = parse_dockerfile("FROM a:1\nRUN echo one \\\n# note\n && echo two\n")
        run = ast.instructions[1]
        assert run.args == "echo one  && echo two"
        assert run.line_span == (2, 4)

    def test_continuation_at_end_of_file_keeps_its_span(self):
        # only blank and comment lines follow the backslash
        run = parse_dockerfile("FROM a:1\nRUN echo \\\n\n# c\n").instructions[1]
        assert (run.kind, run.args, run.line_span) == ("RUN", "echo", (2, 4))

    @pytest.mark.parametrize("text", ["FROM a:1\n\\\n", "FROM a:1\n  \\\n# c\n\n"])
    def test_continuation_without_instruction_rejected(self, text):
        with pytest.raises(DockerfileError, match="line 2: line continuation without an instr"):
            parse_dockerfile(text)

    def test_bracket_that_is_not_json_stays_shell_form(self):
        run = parse_dockerfile("FROM a:1\nRUN [not json\n").instructions[1]
        assert (run.args, run.exec_form) == ("[not json", False)

    def test_every_line_attributed_to_one_instruction(self):
        for path in corpus_paths():
            text = path.read_text()
            ast = parse_dockerfile(text, source_name=path.name)
            covered = []
            for instr in ast.instructions:
                first, last = instr.line_span
                assert first <= last
                covered.extend(range(first, last + 1))
            line_count = len(text.split("\n")) - (1 if text.endswith("\n") else 0)
            assert covered == list(range(1, line_count + 1)), path.name

    def test_unknown_directive_never_fails(self):
        ast = parse_dockerfile("FROM a:1\nMAINTAINER x\n")
        unknown = ast.instructions[1]
        assert unknown.kind == "UNKNOWN"
        assert unknown.args == "MAINTAINER x"

    def test_instruction_before_from_rejected(self):
        with pytest.raises(DockerfileError, match="line 1: RUN"):
            parse_dockerfile("RUN echo hi\nFROM a:1\n")

    def test_arg_and_comment_allowed_before_from(self):
        ast = parse_dockerfile("# header\nARG v=1\nFROM a:1\n")
        assert [i.kind for i in ast.instructions] == ["COMMENT", "ARG", "FROM"]

    def test_escape_directive_rejected(self):
        with pytest.raises(DockerfileError, match="escape"):
            parse_dockerfile("# escape=`\nFROM a:1\n")

    def test_escape_syntax_only_in_directive_zone(self):
        # past the first instruction it is an ordinary comment
        ast = parse_dockerfile("FROM a:1\n# escape=`\n")
        assert ast.instructions[1].kind == "COMMENT"

    @pytest.mark.parametrize(
        "line",
        [
            "RUN <<EOF",
            "RUN cat <<-EOF > /etc/motd",
            'COPY <<"EOF" /app/run.sh',
            "RUN python3 <<'EOF'",
            "ADD 2<<EOF /x",
        ],
    )
    def test_heredoc_rejected_with_line(self, line):
        text = f"FROM alpine:3.18\n{line}\napt-get update\nFROM alpine\nEOF\n"
        kind = line.split()[0]
        with pytest.raises(DockerfileError, match=f"line 2: {kind} heredocs are not supported"):
            parse_dockerfile(text)

    @pytest.mark.parametrize(
        "line",
        [
            'RUN echo "<<EOF"',
            "RUN echo '<<EOF' a",
            "RUN cat <<< hi",
            "RUN echo $((1<<2))",
            "RUN echo \\<<EOF",
            'RUN ["sh", "-c", "cat <<EOF"]',
            "ENV A=<<EOF",
        ],
    )
    def test_quoted_or_non_heredoc_chevrons_parse(self, line):
        ast = parse_dockerfile(f"FROM alpine:3.18\n{line}\n")
        assert len(ast.instructions) == 2

    def test_multistage_keeps_stage_name_in_args(self):
        ast = parse_dockerfile("FROM golang:1.19 AS builder\n")
        assert ast.instructions[0].args == "golang:1.19 AS builder"

    def test_lowercase_keywords_recognized(self):
        ast = parse_dockerfile("from a:1\nrun echo HI\n")
        assert [i.kind for i in ast.instructions] == ["FROM", "RUN"]

    def test_blank_lines_become_comment_nodes(self):
        ast = parse_dockerfile("FROM a:1\n\nRUN echo x\n")
        assert ast.instructions[1].kind == "COMMENT"
        assert ast.instructions[1].args == ""


class TestWhitespace:
    # (kind, args, exec_form, line_span) pinned from the regex-based parser:
    # every str.isspace character separates the keyword from its arguments
    # and is stripped, while JSON reads only its own four whitespace characters
    @pytest.mark.parametrize(
        "text,expected",
        [
        pytest.param(
            'FROM\ta:1\nRUN\techo\thi\t\n\tCMD\t["a",\t"b"]\nONBUILD\tx\t\n',
            [
                ("FROM", "a:1", False, (1, 1)),
                ("RUN", "echo\thi", False, (2, 2)),
                ('CMD', '["a", "b"]', True, (3, 3)),
                ("UNKNOWN", "ONBUILD\tx\t", False, (4, 4)),
            ],
            id="tab",
        ),
        pytest.param(
            'FROM\x0ba:1\nRUN\x0becho\x0bhi\x0b\n\x0bCMD\x0b["a",\x0b"b"]\nONBUILD\x0bx\x0b\n',
            [
                ("FROM", "a:1", False, (1, 1)),
                ("RUN", "echo\x0bhi", False, (2, 2)),
                ('CMD', '["a",\x0b"b"]', False, (3, 3)),
                ("UNKNOWN", "ONBUILD\x0bx\x0b", False, (4, 4)),
            ],
            id="vt",
        ),
        pytest.param(
            'FROM\x0ca:1\nRUN\x0cecho\x0chi\x0c\n\x0cCMD\x0c["a",\x0c"b"]\nONBUILD\x0cx\x0c\n',
            [
                ("FROM", "a:1", False, (1, 1)),
                ("RUN", "echo\x0chi", False, (2, 2)),
                ('CMD', '["a",\x0c"b"]', False, (3, 3)),
                ("UNKNOWN", "ONBUILD\x0cx\x0c", False, (4, 4)),
            ],
            id="ff",
        ),
        pytest.param(
            'FROM\x1ca:1\nRUN\x1cecho\x1chi\x1c\n\x1cCMD\x1c["a",\x1c"b"]\nONBUILD\x1cx\x1c\n',
            [
                ("FROM", "a:1", False, (1, 1)),
                ("RUN", "echo\x1chi", False, (2, 2)),
                ('CMD', '["a",\x1c"b"]', False, (3, 3)),
                ("UNKNOWN", "ONBUILD\x1cx\x1c", False, (4, 4)),
            ],
            id="fs",
        ),
        pytest.param(
            'FROM\x85a:1\nRUN\x85echo\x85hi\x85\n\x85CMD\x85["a",\x85"b"]\nONBUILD\x85x\x85\n',
            [
                ("FROM", "a:1", False, (1, 1)),
                ("RUN", "echo\x85hi", False, (2, 2)),
                ('CMD', '["a",\x85"b"]', False, (3, 3)),
                ("UNKNOWN", "ONBUILD\x85x\x85", False, (4, 4)),
            ],
            id="nel",
        ),
        pytest.param(
            'FROM\xa0a:1\nRUN\xa0echo\xa0hi\xa0\n\xa0CMD\xa0["a",\xa0"b"]\nONBUILD\xa0x\xa0\n',
            [
                ("FROM", "a:1", False, (1, 1)),
                ("RUN", "echo\xa0hi", False, (2, 2)),
                ('CMD', '["a",\xa0"b"]', False, (3, 3)),
                ("UNKNOWN", "ONBUILD\xa0x\xa0", False, (4, 4)),
            ],
            id="nbsp",
        ),
        pytest.param(
            'FROM a:1\nRUN echo hi \n CMD ["a", "b"]\nONBUILD x \n',
            [
                ("FROM", "a:1", False, (1, 1)),
                ("RUN", "echo hi", False, (2, 2)),
                ('CMD', '["a", "b"]', True, (3, 3)),
                ("UNKNOWN", "ONBUILD x ", False, (4, 4)),
            ],
            id="line-sep",
        ),
        pytest.param(
            'FROM\u3000a:1\nRUN\u3000echo\u3000hi\u3000\n'
            '\u3000CMD\u3000["a",\u3000"b"]\nONBUILD\u3000x\u3000\n',
            [
                ("FROM", "a:1", False, (1, 1)),
                ("RUN", "echo\u3000hi", False, (2, 2)),
                ('CMD', '["a",\u3000"b"]', False, (3, 3)),
                ("UNKNOWN", "ONBUILD\u3000x\u3000", False, (4, 4)),
            ],
            id="ideographic",
        ),
        pytest.param(
            'from a:1 as build\nrun echo hi\nCopy a b\nentrypoint ["x"]\n',
            [
                ("FROM", "a:1 as build", False, (1, 1)),
                ("RUN", "echo hi", False, (2, 2)),
                ("COPY", "a b", False, (3, 3)),
                ('ENTRYPOINT', '["x"]', True, (4, 4)),
            ],
            id="lower-case",
        ),
        pytest.param(
            'FROM a:1\r\nRUN echo hi\r\nMAINTAINER x\r\n\r\n',
            [
                ("FROM", "a:1", False, (1, 1)),
                ("RUN", "echo hi", False, (2, 2)),
                ("UNKNOWN", "MAINTAINER x\r", False, (3, 3)),
                ("COMMENT", "\r", False, (4, 4)),
            ],
            id="crlf",
        ),
        pytest.param(
            'FROM a:1\nRUN echo one \\\n  # note\n\n  && echo two\\\n  && echo three\nLABEL a=b\n',
            [
                ("FROM", "a:1", False, (1, 1)),
                ("RUN", "echo one   && echo two  && echo three", False, (2, 6)),
                ("LABEL", "a=b", False, (7, 7)),
            ],
            id="continuation-over-comment",
        ),
        ],
    )
    def test_pinned_instructions(self, text, expected):
        ast = parse_dockerfile(text)
        assert [(i.kind, i.args, i.exec_form, i.line_span) for i in ast.instructions] == expected


class TestRender:
    def test_fig2_round_trip_text(self):
        ast = parse_dockerfile(FIG2_TEXT)
        text = render_dockerfile(ast)
        assert 'ENTRYPOINT ["ls"]' in text
        assert 'CMD ["-la"]' in text

    def test_empty_ast_renders_empty_string(self):
        assert render_dockerfile(DockerfileAst(())) == ""

    def test_instruction_without_arguments_renders_keyword_alone(self):
        assert render_dockerfile(parse_dockerfile("FROM a:1\nEXPOSE\n")) == "FROM a:1\nEXPOSE\n"

    def test_unknown_rendered_verbatim(self):
        ast = parse_dockerfile("FROM a:1\nMAINTAINER x\n")
        assert "MAINTAINER x" in render_dockerfile(ast).split("\n")

    @pytest.mark.parametrize(
        "line,tokens",
        [
            ('COPY ["src.tar", "/opt/"]', ["src.tar", "/opt/"]),
            ('ADD  [ "a b",\t"c" ,"/d/" ]', ["a b", "c", "/d/"]),
            ('copy ["x\\u00e9", "/y"]', ["x\u00e9", "/y"]),
        ],
    )
    def test_json_copy_and_add_round_trip(self, line, tokens):
        ast = parse_dockerfile(f"FROM a:1\n{line}\n")
        copy = ast.instructions[1]
        assert copy.exec_form and exec_tokens(copy) == tokens
        assert parse_dockerfile(render_dockerfile(ast)) == ast

    def test_corpus_fixed_point(self):
        for path in corpus_paths():
            first = parse_dockerfile(path.read_text(), source_name=path.name)
            second = parse_dockerfile(render_dockerfile(first))
            assert first == second, path.name


_WORDS = string.ascii_lowercase + string.digits + "./-_="


def _word(rng: random.Random, min_len: int = 1, max_len: int = 10) -> str:
    return "".join(rng.choice(_WORDS) for _ in range(rng.randint(min_len, max_len)))


def random_ast(rng: random.Random) -> DockerfileAst:
    """A structurally valid AST with varied kinds, forms, and raw lines."""
    instructions: list[Instruction] = []
    for _ in range(rng.randint(0, 3)):  # preamble
        if rng.random() < 0.5:
            instructions.append(Instruction("COMMENT", f"# {_word(rng)}"))
        else:
            instructions.append(Instruction("ARG", _word(rng)))
    instructions.append(Instruction("FROM", f"{_word(rng)}:{_word(rng, 1, 4)}"))
    body_kinds = ["RUN", "COPY", "ADD", "ENV", "WORKDIR", "EXPOSE", "USER", "LABEL", "VOLUME"]
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.15:
            instructions.append(Instruction("COMMENT", rng.choice(["", f"# {_word(rng)}"])))
        elif roll < 0.25:
            instructions.append(Instruction("UNKNOWN", f"MAINTAINER {_word(rng)}"))
        elif roll < 0.40:
            kind = rng.choice(["RUN", "CMD", "ENTRYPOINT"])
            tokens = [_word(rng) for _ in range(rng.randint(1, 4))]
            instructions.append(make_exec(kind, tokens))
        else:
            kind = rng.choice(body_kinds)
            args = " ".join(_word(rng) for _ in range(rng.randint(1, 4)))
            instructions.append(Instruction(kind, args))
    return DockerfileAst(tuple(instructions))


class TestRandomizedRoundTrip:
    def test_200_random_asts(self):
        rng = random.Random(20260810)
        for i in range(200):
            ast = random_ast(rng)
            first = parse_dockerfile(render_dockerfile(ast))
            second = parse_dockerfile(render_dockerfile(first))
            assert first == second, f"mismatch at sample {i}"


class TestGenerate:
    def test_entrypoint_strategy_tail(self, entrypoint_spec):
        ast = generate_dockerfile(entrypoint_spec)
        tail = ast.instructions[-2:]
        assert tail[0].kind == "ENTRYPOINT"
        assert exec_tokens(tail[0]) == ["/usr/local/bin/entry.sh"]
        assert tail[1].kind == "CMD"
        assert exec_tokens(tail[1]) == ["4.0.1", "0.21.3"]

    def test_entrypoint_strategy_layout(self, entrypoint_spec):
        ast = generate_dockerfile(entrypoint_spec)
        kinds = [i.kind for i in ast.instructions]
        assert kinds == ["FROM", "RUN", "COPY", "COPY", "RUN", "ENTRYPOINT", "CMD"]
        assert ast.instructions[0].args == entrypoint_spec.base_image
        # system packages are merged into one RUN with cleanup in-layer
        run = ast.instructions[1]
        assert "wget git" in run.args
        assert "rm -rf /var/lib/apt/lists/*" in run.args

    def test_ngc_minimal_is_single_from(self):
        spec = parse_env_spec(
            "[environment]\nbase_image = nvcr.io/org/img:21.02\nstrategy = ngc\n"
            "horovod_version = 0.21.0\nopenmpi_version = 4.0.1\n"
        )
        ast = generate_dockerfile(spec)
        assert [i.kind for i in ast.instructions] == ["FROM"]

    def test_tags_strategy_uses_build_arg(self, tags_spec):
        ast = generate_dockerfile(tags_spec)
        kinds = [i.kind for i in ast.instructions]
        # FROM, build arg, package install, OpenMPI install, Horovod install
        assert kinds == ["FROM", "ARG", "RUN", "RUN", "RUN"]
        assert ast.instructions[1].args == "openmpi_version"
        assert "${openmpi_version}" in ast.instructions[3].args
        assert "horovod==0.21.3" in ast.instructions[4].args

    def test_output_reparses_and_respects_structure(self, entrypoint_spec, tags_spec):
        for spec in (entrypoint_spec, tags_spec):
            ast = generate_dockerfile(spec)
            reparsed = parse_dockerfile(render_dockerfile(ast))
            assert reparsed == ast

    def test_output_is_lint_clean(self, entrypoint_spec, ngc_spec, tags_spec):
        for spec in (entrypoint_spec, ngc_spec, tags_spec):
            report = lint(generate_dockerfile(spec))
            assert report.findings == (), spec.strategy

    def test_unpinned_base_yields_only_p1(self):
        spec = parse_env_spec(
            "[environment]\nbase_image = org/img\nstrategy = ngc\n"
            "horovod_version = 0.21.0\nopenmpi_version = 4.0.1\n"
        )
        report = lint(generate_dockerfile(spec))
        assert [f.rule_id for f in report.findings] == ["P1"]
        assert report.counts["error"] == 0

    def test_entrypoint_needs_default_openmpi_for_cmd(self):
        spec = parse_env_spec(
            "[environment]\nbase_image = a/b:1\nstrategy = entrypoint\n"
            "horovod_version = 0.21.3\nentrypoint_path = /entry.sh\n"
        )
        with pytest.raises(ReconcileError, match="openmpi_version"):
            generate_dockerfile(spec)
