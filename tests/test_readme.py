"""The README's examples run: the library example prints what its comment
says, and the CLI example's config goes through `clt` and `report`."""

import contextlib
import io
import pathlib
import re

from pslab.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_one():
    example = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue() == "1\n"


def test_readme_clt_config_runs(tmp_path):
    config = re.search(r"cat > clt.json <<'JSON'\n(.*?)\nJSON\n", README.read_text(), re.S).group(1)
    path = tmp_path / "clt.json"
    path.write_text(config)
    out = str(tmp_path / "results")
    assert main(["clt", "--config", str(path), "--out", out]) == 0
    assert main(["report", "--out", out]) == 0
