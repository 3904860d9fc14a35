"""The README's Python blocks run, in order, in one namespace, and the
shapes their comments state are the shapes they compute."""

import ast
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
