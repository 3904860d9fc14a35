"""The README's Python blocks run, in order, in one namespace, and the
shapes their comments state are the shapes they compute; its config
table lists the CLI's schema."""

import ast
import json
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}
    shapes_checked = 0
    for block in blocks:
        lines = block.splitlines()
        for statement in ast.parse(block).body:
            exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
            stated = re.search(r"# shape (\(.*?\))", lines[statement.end_lineno - 1])
            if stated:
                (target,) = statement.targets
                assert np.shape(namespace[target.id]) == ast.literal_eval(stated.group(1))
                shapes_checked += 1
    assert shapes_checked == 3
    # the first block prints e_equiv, which is at round-off under rk4
    assert float(capsys.readouterr().out) <= 1e-12


def test_readme_config_table_is_the_schema():
    # every key of the schema, each section's keys after the section, with
    # its JSON type and, where it has one, its default as JSON
    from nrigid.cli import _REQUIRED, _SCHEMA

    types = {"integer": "integer", "number": "number", "string": "string", "object": "object",
             "array": "array of numbers", "attitude": '`"identity"` or array of numbers'}

    def rows(name="config", prefix=""):
        for key, (kind, default) in _SCHEMA[name].items():
            yield prefix + key, kind, default
            if kind == "object":
                yield from rows(key, key + ".")

    table = README.read_text().split("| key | JSON type | default |\n")[1].split("\n\n")[0]
    documented = [line.split(" | ") for line in table.splitlines()[1:]]
    assert [key.strip("| `") for key, _, _ in documented] == [key for key, _, _ in rows()]
    for (_, kind, default), (_, json_type, text) in zip(rows(), documented):
        assert json_type == types[kind]
        text = text.rstrip(" |")
        if default is _REQUIRED:
            assert text == "required"
        elif default is not None:
            assert json.loads(text.strip("`")) == default
