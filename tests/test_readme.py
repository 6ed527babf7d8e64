"""README.md against the code it describes.

- Every line of a ```sh block that starts with ``hypermoment `` runs
  through ``cli.run`` and exits 0, in a directory that holds the README's
  example documents. The README introduces each ```json document with a
  paragraph that ends in a colon and names its file (`state.json`); the
  ```json blocks that follow take the names of that paragraph in order.
- The ```python session runs.
- Every inline-code name whose first part is a hypermoment module, such as
  `solver._march` or `hypermoment.inputs`, resolves by import and getattr.
- Every cited `tests/<file>.py`, and `tests/<file>.py::<Name>`, exists.
"""

import ast
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import hypermoment
from hypermoment import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
MODULES = [m.name for m in pkgutil.iter_modules(hypermoment.__path__)]
FILE_SUFFIXES = ("json", "csv", "py", "md", "toml")


def _parse(text):
    """(blocks, prose, documents): the fenced blocks as (language, first
    line number, lines), the lines outside them, and the ```json documents
    by file name."""
    blocks, prose, documents = [], [], {}
    names, paragraph, block = [], [], None
    for number, line in enumerate(text.splitlines(), 1):
        if line.startswith("```"):
            if block is None:
                if paragraph:
                    names, paragraph = _names(paragraph), []
                block = (line[3:].strip(), number + 1, [])
            else:
                blocks.append(block)
                if block[0] == "json" and names:
                    documents[names.pop(0)] = json.loads("\n".join(block[2]))
                block = None
        elif block is not None:
            block[2].append(line)
        else:
            prose.append(line)
            if line.strip():
                paragraph.append(line)
            elif paragraph:
                names, paragraph = _names(paragraph), []
    return blocks, prose, documents


def _names(paragraph):
    """The file names of a paragraph that introduces documents."""
    text = " ".join(paragraph).rstrip()
    return re.findall(r"`([\w.-]+\.json)`", text) if text.endswith(":") else []


BLOCKS, PROSE, DOCUMENTS = _parse(README)
COMMANDS = [
    line
    for lang, _, lines in BLOCKS
    if lang == "sh"
    for line in lines
    if line.startswith("hypermoment ")
]
SPANS = re.findall(r"`([^`]+)`", "\n".join(PROSE))
NAMES = sorted({
    m.group(0)
    for m in (re.match(rf"(hypermoment|{'|'.join(MODULES)})(\.\w+)*", s) for s in SPANS)
    if m and "." in m.group(0) and m.group(0).rsplit(".", 1)[1] not in FILE_SUFFIXES
})
CITED = sorted(set(re.findall(r"tests/(\w+\.py)(?:::(\w+(?:::\w+)?))?", README)))


def test_readme_shows_commands_for_its_documents():
    assert COMMANDS
    used = {arg for line in COMMANDS for arg in shlex.split(line) if arg.endswith(".json")}
    assert used and used <= set(DOCUMENTS), f"no README document for {sorted(used - set(DOCUMENTS))}"


# ids are the command text, so that README edits above the block keep them
@pytest.mark.parametrize("line", COMMANDS, ids=[line.removeprefix("hypermoment ") for line in COMMANDS])
def test_command_exits_0(line, tmp_path, monkeypatch, capsys):
    for name, doc in DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert cli.run(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_python_session_runs():
    sessions = [lines for lang, _, lines in BLOCKS if lang == "python"]
    assert sessions
    for lines in sessions:
        exec(compile("\n".join(lines), "README.md", "exec"), {})


@pytest.mark.parametrize("name", NAMES)
def test_name_resolves(name):
    parts = name.split(".")
    if parts[0] == "hypermoment":
        parts = parts[1:]
    obj = importlib.import_module(f"hypermoment.{parts[0]}")
    for part in parts[1:]:
        assert hasattr(obj, part), f"{name}: no {part!r}"
        obj = getattr(obj, part)


def _defined(path):
    """Top-level classes and functions of a test file, and Class::method."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef))
    return names


@pytest.mark.parametrize("path, name", CITED, ids=[f"{p}::{n}" if n else p for p, n in CITED])
def test_cited_test_exists(path, name):
    file = ROOT / "tests" / path
    assert file.is_file()
    assert not name or name in _defined(file)
