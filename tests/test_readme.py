"""The README's examples run as printed."""

import re
from pathlib import Path

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
