"""The README's examples run as written.

- The library quick start (its one `python` block) runs in a fresh interpreter.
- The command line section: its `ini` block, written as `run.cfg`, and the four
  `waveinput` lines of the `sh` block below it, each run through `cli.main` in a
  temporary directory, exit 0.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from waveinput.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_library_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    verdict, value = proc.stdout.split()
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
