"""The README's library-surface block runs against the package, so a
removed export cannot stay in the docs."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_surface_block_runs():
    text = README.read_text(encoding="utf-8")
    _, sep, section = text.partition("\n## Library surface\n")
    assert sep, "README has no '## Library surface' section"
    block = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    assert block, "no python block under '## Library surface'"
    exec(compile(block.group(1), str(README), "exec"), {})
