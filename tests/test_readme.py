"""Every ```python block of the README runs against the package as it is.

The command-line session (the ```sh block that starts with ``$ cat``) is
replayed too: each ``cat`` writes its file, and each ``qform`` command
must print exactly the lines that follow it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from qform import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(BLOCKS[index], "README.md example %d" % index, "exec"), {})


SESSION = re.search(r"^```sh\n(\$ cat .*?)^```$", README.read_text(), flags=re.M | re.S).group(1)


def test_readme_session_is_verbatim(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for step in re.split(r"^\$ ", SESSION, flags=re.M)[1:]:
        command, shown = step.split("\n", 1)
        program, *argv = shlex.split(command)
        if program == "cat":
            Path(argv[0]).write_text(shown)
            continue
        assert program == "qform"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(argv) == 0
        assert out.getvalue() == shown, command
