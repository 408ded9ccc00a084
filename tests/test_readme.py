"""The README's examples run: every fenced python block executes, and every
fenced json block is a config that load_config accepts."""

import re
from pathlib import Path

from modfix import load_config

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$", README.read_text(), re.M | re.S)


def _blocks(lang):
    blocks = [body for kind, body in BLOCKS if kind == lang]
    assert blocks, f"README.md has no fenced {lang} block"
    return blocks


def test_readme_python_blocks_run():
    for source in _blocks("python"):
        exec(compile(source, str(README), "exec"), {})


def test_readme_json_blocks_load():
    for text in _blocks("json"):
        load_config(text)
