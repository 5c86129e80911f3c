"""The README's examples run as written.

- The library quick start (its one `python` block) runs in a fresh interpreter.
- The command line section: its `ini` block, written as `run.cfg`, and the four
  `waveinput` lines of the `sh` block below it, each run through `cli.main` in a
  temporary directory, exit 0.
"""

import re
import shlex
from pathlib import Path

from waveinput.cli import main

from conftest import Child, spawns

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
QUICK_START = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


@spawns(lambda t: {"quick-start": Child(["-c", *QUICK_START[:1]])})
def test_library_quick_start_runs(children):
    assert len(QUICK_START) == 1
    ran = children["quick-start"]
    assert ran.code == 0, ran.stderr.decode()
    verdict, value = ran.stdout.decode().split()
    assert verdict in ("MS_candidate", "pseudo_MS", "infeasible")
    float(value)


def test_command_line_walk_through_runs(tmp_path, monkeypatch):
    config, commands = re.search(
        r"^```ini\n(.*?)^```\n.*?^```sh\n(.*?)^```", README, re.MULTILINE | re.DOTALL
    ).groups()
    (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    argvs = [shlex.split(line, comments=True) for line in commands.splitlines()]
    assert [argv[:2] for argv in argvs] == [
        ["waveinput", "solve"], ["waveinput", "verify"], ["waveinput", "oracle"], ["waveinput", "pms"]
    ]
    for argv in argvs:
        assert main(argv[1:]) == 0, argv
