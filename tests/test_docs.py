"""The README's Library example runs as written, its command lines parse,
and every name the package exports exists."""

import re
import shlex
from pathlib import Path

import qnarayana
from qnarayana.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_command_lines_parse():
    lines = re.findall(r"^\$ qnarayana (.*)$", README.read_text(encoding="utf-8"), re.M)
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True))


def test_all_names_resolve():
    missing = [name for name in qnarayana.__all__ if not hasattr(qnarayana, name)]
    assert missing == []
    assert len(set(qnarayana.__all__)) == len(qnarayana.__all__)
