"""The Python examples of README.md run as written.

Every ```python block is executed in the order it appears, all in one
namespace, as a reader pasting them into one session would run them.
"""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run_in_order():
    blocks = _blocks()
    assert len(blocks) >= 4
    namespace = {}
    for i, src in enumerate(blocks):
        exec(compile(src, "README.md block %d" % i, "exec"), namespace)
