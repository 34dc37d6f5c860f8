"""README examples run as written, so the documented API cannot go stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert block is not None, "no python block under ## Library use"
    exec(compile(block.group(1), f"{README.name} (Library use)", "exec"), {})
