from __future__ import annotations

import hashlib
import json
import random
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, corpus_paths
from hpcflow.dockerfile import Instruction, parse_dockerfile, render_dockerfile
from hpcflow.lint import RULES, _words, lint, machine_report

CORPUS = FIXTURES / "lint_corpus"
LABELS = json.loads((CORPUS / "labels.json").read_text())


def _findings(path: Path):
    ast = parse_dockerfile(path.read_text(), source_name=path.name)
    return lint(ast)


class TestCorpusAgreement:
    @pytest.mark.parametrize("name", sorted(LABELS))
    def test_matches_labels(self, name):
        report = _findings(CORPUS / name)
        got = [[f.rule_id, f.line] for f in report.findings]
        assert got == LABELS[name]

    def test_corpus_is_large_enough(self):
        assert len(LABELS) >= 10


def _shell_words(text: str) -> list[str]:
    """The oracle: ``shlex`` with each run of ``; & |`` a word of its own."""
    lexer = shlex.shlex(text, posix=True, punctuation_chars=";&|")
    lexer.whitespace_split = True
    lexer.commenters = ""
    try:
        return list(lexer)
    except ValueError:  # lint falls back to its unquoted-text regex
        return re.findall(r"[^ \t\r\n;&|]+|[;&|]+", text)


class TestWords:
    @settings(max_examples=1000, deadline=None)
    @given(st.text(st.sampled_from("'\"\\ \t\r\n\x0b\x0c#$()`;&|é")))
    def test_shell_form_matches_shlex(self, text):
        assert _words(Instruction("RUN", text)) == _shell_words(text)

    @pytest.mark.parametrize(
        "text,words",
        [
            ("echo 'u;'", ["echo", "u;"]),
            ("a&&b;c", ["a", "&&", "b", ";", "c"]),
            ("ls 2>&1|sort", ["ls", "2>", "&", "1", "|", "sort"]),
            ("a\\;b", ["a;b"]),
            ("'' a#b", ["", "a#b"]),
            ('"a\\"b\\$c"', ['a"b\\$c']),
            ("a 'b", ["a", "'b"]),
        ],
    )
    def test_examples(self, text, words):
        assert _words(Instruction("RUN", text)) == words

    @pytest.mark.parametrize(
        "text",
        [
            "a" * 200_000,
            "a;" * 100_000,
            " &" * 100_000,
            '"' + "a b " * 250_000 + '"',
            "a" * 199_999 + "'",
            "\\;" * 100_000,
        ],
        ids=["plain", "semicolons", "ampersands", "double-quoted", "unbalanced", "escapes"],
    )
    def test_text_in_linear_time(self, text):
        # milliseconds when linear; the bound catches only backtracking or a
        # quadratic reader
        start = time.perf_counter()
        _words(Instruction("RUN", text))
        assert time.perf_counter() - start < 2


class TestTf1:
    def test_download_then_later_delete_fires_on_rm_line(self):
        report = _findings(CORPUS / "01_download_later_delete.dockerfile")
        (finding,) = report.findings
        assert finding.rule_id == "TF1"
        assert finding.severity == "error"
        assert finding.line == 4
        assert "merge" in finding.suggestion

    def test_same_layer_delete_is_silent(self):
        report = _findings(CORPUS / "02_same_layer_delete.dockerfile")
        assert report.findings == ()

    def test_monotone_under_appended_instructions(self):
        # appending an unrelated instruction never removes a TF1 finding
        for name, labels in LABELS.items():
            expected = {(rule, line) for rule, line in labels if rule == "TF1"}
            if not expected:
                continue
            ast = parse_dockerfile((CORPUS / name).read_text())
            extended = ast.instructions + (
                Instruction("WORKDIR", "/srv", line_span=(99, 99)),
                Instruction("LABEL", "k=v", line_span=(100, 100)),
            )
            got = {
                (f.rule_id, f.line)
                for f in lint(type(ast)(extended)).findings
                if f.rule_id == "TF1"
            }
            assert expected <= got, name

    @pytest.mark.parametrize(
        "body,expect",
        [
            # the command word comes after NAME=value words and an env prefix
            ("RUN env X=1 wget http://h/u\nRUN rm u\n", [(3, "u", 2)]),
            # one finding per creating RUN
            (
                "RUN wget -O /tmp/f u\nRUN wget -O /tmp/f u\nRUN rm /tmp/f\n",
                [(4, "/tmp/f", 2), (4, "/tmp/f", 3)],
            ),
            # the -o value is not also taken as a -O URL
            ("RUN curl -o x -O http://h/y.tgz\nRUN rm x y.tgz\n", [(3, "x", 2), (3, "y.tgz", 2)]),
            # an operator glued to a word ends the command
            ("RUN wget http://h/u; echo v\nRUN rm u v\n", [(3, "u", 2)]),
            ("RUN wget -O /a u&&rm /a\n", []),
            ("RUN curl -o f u|sh\nRUN rm f sh\n", [(3, "f", 2)]),
            ("RUN curl -O http://h/u|sh\nRUN rm u\n", [(3, "u", 2)]),
            # a quoted operator is part of its word
            ("RUN wget 'http://h/u;' v\nRUN rm 'u;' v\n", [(3, "u;", 2), (3, "v", 2)]),
            ('RUN ["wget", "-O", "/tmp/a b", "u"]\nRUN rm "/tmp/a b"\n', [(3, "/tmp/a b", 2)]),
            # unbalanced quoting falls back to the unquoted-text regex
            ("RUN wget -O /tmp/f u 'oops\nRUN rm /tmp/f\n", [(3, "/tmp/f", 2)]),
            # NAME=value words without env come before the command word too
            ("RUN X=1 Y=2 curl -o f u\nRUN rm f\n", [(3, "f", 2)]),
            # a command word elsewhere in a command is an argument
            ("RUN echo wget is used to fetch\nRUN rm fetch\n", []),
            ("RUN apt-get install -y wget curl\nRUN rm curl\n", []),
            # one finding per (path, creating line), however often either repeats
            ("RUN wget -O /a u && wget -O /a u\nRUN rm /a\n", [(3, "/a", 2)]),
            ("RUN wget -O /a u\nRUN rm /a /a\n", [(3, "/a", 2)]),
            # with unbalanced quoting, a glued operator still ends the command
            ("RUN wget http://h/u; echo v 'x\nRUN rm u v\n", [(3, "u", 2)]),
        ],
    )
    def test_creation_patterns(self, body, expect):
        report = lint(parse_dockerfile(f"FROM a:1\n{body}"))
        got = [(f.line, f.message) for f in report.findings if f.rule_id == "TF1"]
        assert got == [
            (
                rm_line,
                f"{path} was created on line {created} and removed in a later layer; "
                "the space is not freed, only the reference is removed",
            )
            for rm_line, path, created in expect
        ], body

    def test_large_run(self):
        # the shape of the benchmark's command ladder: one RUN of 1,600
        # commands that cleans up its downloads, then later removals of
        # three extracted directories and of one path never created
        parts = []
        for k in range(0, 1600, 4):
            parts += [
                f"wget -O /tmp/c{k}.tgz http://example.com/c{k}.tgz",
                f"tar -xzf /tmp/c{k}.tgz -C /srv/x{k}",
                f"rm -f /tmp/c{k}.tgz",
                f"echo unpacked{k + 3}",
            ]
        removed = [0, 796, 1596]
        text = "FROM a:1\nRUN " + " \\\n    && ".join(parts) + "\n"
        text += "".join(f"RUN rm -rf /srv/x{k}\n" for k in removed) + "RUN rm -rf /srv/y\n"
        report = lint(parse_dockerfile(text))
        assert [(f.rule_id, f.line, f.message.split(";")[0]) for f in report.findings] == [
            ("TF1", 1602 + i, f"/srv/x{k} was created on line 2 and removed in a later layer")
            for i, k in enumerate(removed)
        ]


class TestTf2:
    @pytest.mark.parametrize(
        "body,expect",
        [
            # the value of tar -C is a directory, never an extraction target
            ("COPY b.tar /srv/\nRUN tar -xzf c.tgz -C /srv/b.tar\n", []),
            # one finding per COPY line, for the first archive extracted
            (
                "COPY b.tar c.zip /srv/\nRUN unzip /srv/c.zip && tar -xf /srv/b.tar\n",
                [(2, "/srv/c.zip", 3)],
            ),
        ],
    )
    def test_extraction_patterns(self, body, expect):
        report = lint(parse_dockerfile(f"FROM a:1\n{body}"))
        got = [(f.line, f.message) for f in report.findings if f.rule_id == "TF2"]
        assert got == [
            (
                copy_line,
                f"archive {path} is copied here and extracted on line {run_line}, "
                "leaving the archive in its own layer",
            )
            for copy_line, path, run_line in expect
        ], body

    def test_json_form_copy_then_extract(self):
        text = 'FROM a:1\nCOPY ["src.tar", "/opt/"]\nRUN tar xf /opt/src.tar\n'
        assert machine_report(lint(parse_dockerfile(text))) == (
            "TF2:warning:2:archive /opt/src.tar is copied here and extracted on line 3, "
            "leaving the archive in its own layer\n"
        )

    @pytest.mark.parametrize(
        "source", ["a.tgz", "a.'t'gz", 'a."tgz"', "a.''tgz", "a.\\tgz", "a.\\zip", "'a'.zip"]
    )
    def test_quoted_archive_suffix(self, source):
        # the shell word names the archive whether or not the text holds ".t" or ".z"
        name = source.replace("'", "").replace('"', "").replace("\\", "")
        text = f"FROM a:1\nCOPY {source} /d/\nRUN tar xf /d/{name}\n"
        assert [(f.rule_id, f.line) for f in lint(parse_dockerfile(text)).findings] == [("TF2", 2)]

    def test_copy_archive_then_extract(self):
        report = _findings(CORPUS / "04_copy_archive_extract.dockerfile")
        (finding,) = report.findings
        assert finding.rule_id == "TF2"
        assert "ADD" in finding.suggestion

    def test_add_is_not_flagged(self):
        assert _findings(CORPUS / "14_add_archive_ok.dockerfile").findings == ()

    def test_copy_without_extraction_not_flagged(self):
        assert _findings(CORPUS / "15_copy_archive_no_extract.dockerfile").findings == ()


class TestTf3:
    @pytest.mark.parametrize(
        "snippet,expect",
        [
            ("RUN apt-get update && apt-get install -y x", True),
            ("RUN apt-get update && apt-get install -y x && rm -rf /var/lib/apt/lists/*", False),
            ("RUN yum install -y x", True),
            ("RUN yum install -y x && yum clean all", False),
            ("RUN apk add x", True),
            ("RUN apk add --no-cache x", False),
            ("RUN pip install x", True),
            ("RUN pip install --no-cache-dir x", False),
            ("RUN pip3 install x && pip3 cache purge", False),
            ("RUN apt-get install -y x && apt-get clean", False),
            ("RUN apk add x && rm -rf /var/cache/apk/*", False),
            ("RUN pip install x && pip cache list", True),  # cache without purge
            ("RUN pip3 install x", True),
            ("RUN yum update -y", False),  # only install installs for yum
            ("RUN apt-get --version", False),
        ],
    )
    def test_manager_patterns(self, snippet, expect):
        report = lint(parse_dockerfile(f"FROM a:1\n{snippet}\n"))
        hits = [f for f in report.findings if f.rule_id == "TF3"]
        assert bool(hits) == expect, snippet

    def test_one_finding_per_run(self):
        report = lint(
            parse_dockerfile("FROM a:1\nRUN apt-get install -y x && pip install y\n")
        )
        assert len([f for f in report.findings if f.rule_id == "TF3"]) == 1


class TestP1:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("FROM ubuntu\n", ["base image ubuntu has no tag"]),
            ("FROM ubuntu:latest\n", ["base image ubuntu:latest uses the floating tag 'latest'"]),
            ("FROM ubuntu:22.04\n", []),
            ("FROM reg.io:5000/ubuntu\n", ["base image reg.io:5000/ubuntu has no tag"]),
            ("FROM ubuntu@sha256:abcd\n", []),
            ("FROM --platform=linux/amd64 ubuntu:22.04\n", []),
            ("FROM --platform=linux/amd64 ubuntu\n", ["base image ubuntu has no tag"]),
            ("FROM ubuntu:22.04 AS base\nFROM base\n", []),
            ("FROM ubuntu:22.04 AS Base\nFROM base AS test\nFROM test\n", []),
            ("FROM base\nFROM ubuntu:22.04 AS base\n", ["base image base has no tag"]),
            ("FROM scratch\n", []),
            ("FROM --platform=x\n", []),
            # $NAME and ${NAME} take the defaults of the ARGs before the first FROM
            ("ARG BASE=ubuntu\nFROM $BASE AS build\n", ["base image ubuntu has no tag"]),
            ("ARG base=ubuntu:20.04\nFROM ${base}\n", []),
            (
                'ARG a=1 b="ubuntu:latest"\nFROM ${b}\n',
                ["base image ubuntu:latest uses the floating tag 'latest'"],
            ),
            ("ARG s=build\nFROM u:1 AS build\nFROM ${s}\n", []),
            # a reference without such a default is checked as written
            ("ARG B\nFROM ${B}\n", ["base image ${B} has no tag"]),
            ("FROM a:1\nARG c=ubuntu\nFROM $c\n", ["base image $c has no tag"]),
            ("ARG t=1\nFROM ubuntu:${t}-$u\n", []),
        ],
    )
    def test_from_patterns(self, text, expect):
        report = lint(parse_dockerfile(text))
        got = [f.message.split(";")[0] for f in report.findings if f.rule_id == "P1"]
        assert got == expect, text


    def test_arg_before_from_resolves_fixture(self):
        text = (FIXTURES / "dockerfiles" / "p04_comments_blanks.dockerfile").read_text()
        assert lint(parse_dockerfile(text)).findings == ()


class TestStructure:
    def test_rule_ids_come_from_registry(self):
        for path in corpus_paths():
            for finding in _findings(path).findings:
                assert finding.rule_id in RULES
                assert finding.severity == RULES[finding.rule_id]

    def test_ordering_by_line_then_rule(self):
        report = _findings(CORPUS / "12_multiple_smells.dockerfile")
        keys = [(f.line, f.rule_id) for f in report.findings]
        assert keys == sorted(keys)

    def test_findings_point_into_source(self):
        for path in corpus_paths():
            text = path.read_text()
            line_count = len(text.splitlines())
            for finding in _findings(path).findings:
                assert 1 <= finding.line <= line_count

    def test_idempotent_on_canonical_asts(self):
        # canonical form: one instruction per line, so line numbers are stable
        for path in corpus_paths():
            canonical = parse_dockerfile(render_dockerfile(parse_dockerfile(path.read_text())))
            once = lint(canonical)
            twice = lint(parse_dockerfile(render_dockerfile(canonical)))
            assert once == twice, path.name

    def test_rule_multiset_stable_across_rerender(self):
        # for raw sources with continuations only line numbers may move
        for path in corpus_paths():
            ast = parse_dockerfile(path.read_text())
            before = sorted(f.rule_id for f in lint(ast).findings)
            after = sorted(
                f.rule_id for f in lint(parse_dockerfile(render_dockerfile(ast))).findings
            )
            assert before == after, path.name


class TestMachineReport:
    def test_line_format(self):
        report = _findings(CORPUS / "12_multiple_smells.dockerfile")
        lines = machine_report(report).splitlines()
        assert len(lines) == len(report.findings)
        for line, finding in zip(lines, report.findings):
            rule_id, severity, lineno, message = line.split(":", 3)
            assert rule_id == finding.rule_id
            assert severity == finding.severity
            assert int(lineno) == finding.line
            assert message == finding.message


def _large_dockerfile(seed: int, instructions: int) -> str:
    """A seeded multi-stage Dockerfile that mixes every rule's shapes.

    Besides the smells it holds quoted and unbalanced text, exec-form RUNs,
    ``NAME=value`` and ``env`` prefixes, operators glued to words,
    continuations with comment lines inside, lower-case keywords and FROM
    flags.  Its FROMs hold no ``$`` and its COPYs and ADDs no JSON list.
    """
    rng = random.Random(seed)
    lines: list[str] = []
    count = 0
    stage = 0
    later: list[str] = []  # removals and extractions written a few lines on

    def add(*physical: str) -> None:
        nonlocal count
        lines.extend(physical)
        count += 1

    def new_stage() -> None:
        nonlocal stage
        base = rng.choice([
            "ubuntu", "ubuntu:latest", "ubuntu:22.04", "python:3.11-slim",
            "reg.io:5000/team/img", "img@sha256:abcd", "--platform=linux/amd64 alpine",
            "--platform=linux/arm64 debian:12", "scratch",
        ] + ([f"s{stage - 1}", f"S{stage - 1}"] if stage else []))
        add(f"{rng.choice(['FROM', 'from', 'From'])} {base} AS s{stage}")
        stage += 1

    new_stage()
    while count < instructions:
        k = count
        roll = rng.randrange(40)
        if roll == 0:
            if rng.random() < 0.25:  # a stage of about 160 instructions
                new_stage()
        elif roll == 1:
            add(f"RUN wget http://example.com/a{k}.tgz")
            later.append(f"RUN rm a{k}.tgz")
        elif roll == 2:
            add(f"RUN curl -o /tmp/t{k}.tgz http://example.com/t{k}.tgz")
            later.append(f"RUN rm -rf /tmp/t{k}.tgz/")
        elif roll == 3:
            add(f"RUN curl -sSL -O http://example.com/d/c{k}.zip -o /tmp/o{k}")
            later.append(f"RUN rm c{k}.zip /tmp/o{k} && unzip c{k}.zip")
        elif roll == 4:
            add(f"RUN A{k}=1 env B=2 wget -O /opt/p{k}.tgz http://e/p{k}.tgz"
                f" && tar -xzf /opt/p{k}.tgz -C /srv/t{k}")
            later.append(f"RUN X=1 rm -rf /srv/t{k} /opt/p{k}.tgz")
        elif roll == 5:
            add(f"COPY bundle{k}.tar.gz lib{k}.zip /srv/")
            later.append(f"RUN tar xzf /srv/bundle{k}.tar.gz;unzip /srv/lib{k}.zip")
        elif roll == 6:
            add(f"COPY --chown=app src{k}.tgz /data/in{k}.tgz")
            later.append(f"RUN tar -x -f /data/in{k}.tgz -C /tmp")
        elif roll == 7:
            add(f"ADD pkg{k}.tar.gz /opt/")
            later.append(f"RUN tar xzf /opt/pkg{k}.tar.gz")
        elif roll == 8:
            add(f"RUN apt-get update && apt-get install -y p{k}")
        elif roll == 9:
            add(f"RUN apt-get install -y q{k} && rm -rf /var/lib/apt/lists/*")
        elif roll == 10:
            add(f"RUN yum install -y r{k}" + rng.choice(["", " && yum clean all"]))
        elif roll == 11:
            add(f"RUN apk add {rng.choice(['', '--no-cache '])}s{k}")
        elif roll == 12:
            add(f"RUN {rng.choice(['pip', 'pip3'])} install m{k}"
                + rng.choice(["", " --no-cache-dir", " && pip cache purge"]))
        elif roll == 13:
            add(f"RUN echo 'apt-get install && rm -rf /srv/t{k}' > /tmp/q{k}")
        elif roll == 14:
            add(f'RUN echo "unbalanced {k} && rm -rf /srv/t{k}')
        elif roll == 15:
            add(f"RUN echo 'open {k} ; wget http://e/u{k}.tgz")
        elif roll == 16:
            add(f'RUN ["rm", "-rf", "/srv/t{k}"]')
        elif roll == 17:
            add(f'RUN ["sh", "-c", "wget http://e/x{k}.tgz"]')
        elif roll == 18:
            add(f"RUN wget http://e/g{k}.tgz&&rm g{k}.tgz||true")
        elif roll == 19:
            add(f"RUN wget http://e/h{k}.tgz \\", "# got", "", f"  && tar xzf h{k}.tgz -C /s/{k}")
            later.append(f"RUN rm -rf /s/{k}/")
        elif roll == 20:
            add(f'ENTRYPOINT ["/bin/run{k}"]')
        elif roll == 21:
            add(rng.choice([f"CMD run{k}", f'CMD ["--flag{k}"]']))
        elif roll == 22:
            add(f"ENTRYPOINT /bin/sh -c run{k}")
        elif roll == 23:
            add(f"run rm a{k - 1}.tgz x\\ y{k} 'q z{k}'")
        elif roll == 24:
            add(f"copy a{k}.tar /srv/a{k}.tar")
            later.append(f"RUN cd /srv && tar xf /srv/a{k}.tar")
        elif roll == 25 and later:
            add(later.pop(rng.randrange(len(later))))
        elif roll == 26:
            add(f"# comment {k}")
        elif roll == 27:
            add("")
        elif roll == 28:
            add(f"ARG v{k}=1")
        elif roll == 29:
            add(f"MAINTAINER someone{k}")
        elif roll == 30:
            add(f"RUN env rm -f /tmp/t{k - 1}.tgz | cat ; true")
        else:
            add(rng.choice([
                f"RUN echo step{k} > /srv/log/{k}.txt",
                f"ENV STEP_{k}=v{k}",
                f"WORKDIR /srv/w{k}",
                f"COPY s{k}.py /app/",
                f"LABEL l{k}=v",
                f"RUN mkdir -p /srv/d{k} && chmod 755 /srv/d{k}",
            ]))
        if later and rng.random() < 0.3:
            add(later.pop(0))
    lines.extend(later)
    return "\n".join(lines) + "\n"


# lines, findings and the sha256 of the machine report of _large_dockerfile(15, 3000)
_LARGE_REPORT = (3163, 739, "f9b7fee389e9f79444dd83c996151ea4d28eff07c4507d8456037fcd6312a369")


class TestLargeFile:
    def test_report_is_pinned(self):
        # the report as the rules read it when the walk was rewritten; a
        # change here is a change of findings, to be made on purpose
        text = _large_dockerfile(15, 3000)
        report = lint(parse_dockerfile(text))
        assert {f.rule_id for f in report.findings} == set(RULES)
        digest = hashlib.sha256(machine_report(report).encode()).hexdigest()
        assert (len(text.splitlines()), len(report.findings), digest) == _LARGE_REPORT
