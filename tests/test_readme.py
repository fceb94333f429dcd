"""The README's examples run as printed."""

import json
import re
from pathlib import Path

from congprimes.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs_as_printed():
    # each `expr  # text` line of the python block under "## Library" must
    # evaluate to an object whose repr is text; other lines are executed
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.S | re.M)[1]
    namespace, checked = {}, 0
    for line in block.splitlines():
        if m := re.fullmatch(r"(.*?\S) {2,}# (.*)", line):
            assert repr(eval(m[1], namespace)) == m[2], line
            checked += 1
        elif line.strip():
            exec(line, namespace)
    assert checked == 4


def _example(command):
    """The lines printed after `$ congprimes COMMAND` in a README text block,
    up to the next blank line or the end of the block."""
    text = README.read_text(encoding="utf-8")
    return re.search(rf"^\$ congprimes {re.escape(command)}\n(.*?)^(?:\n|```)", text, re.S | re.M)[1]


def test_classify_examples_run_as_printed(capsys):
    assert main(["classify", "41"]) == 0
    assert capsys.readouterr().out == _example("classify 41")
    # the JSON line is wrapped over three lines in the README
    assert main(["classify", "113", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(_example("classify 113 --json"))
