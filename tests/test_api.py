"""The public surface: every exported name exists, and the README's
Quick-start example runs as written."""
import re
from pathlib import Path

import qkdrelay

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in qkdrelay.__all__
               if not hasattr(qkdrelay, name)]
    assert not missing


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:quick-start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    n_star, d_max = printed[1].split()
    assert int(n_star) == 18 and 600.0 <= float(d_max) <= 700.0
