"""The README's library-surface block runs against the package, so a
removed export cannot stay in the docs, and the section names every
export, so an added one cannot go undocumented."""

import pathlib
import re

import hckernel

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_surface() -> str:
    text = README.read_text(encoding="utf-8")
    _, sep, section = text.partition("\n## Library surface\n")
    assert sep, "README has no '## Library surface' section"
    return section.split("\n## ", 1)[0]


def test_library_surface_block_runs():
    block = re.search(r"```python\n(.*?)```", library_surface(), re.S)
    assert block, "no python block under '## Library surface'"
    exec(compile(block.group(1), str(README), "exec"), {})


def test_library_surface_names_every_export():
    section = library_surface()
    missing = [name for name in hckernel.__all__
               if not re.search(rf"\b{re.escape(name)}\b", section)]
    assert not missing, f"README '## Library surface' never mentions {missing}"
