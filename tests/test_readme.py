import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    # the first print line carries the output it expects in its comment
    first_print = next(line for line in code.splitlines() if line.startswith("print("))
    expected = ast.literal_eval(first_print.split("#", 1)[1].strip())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert ast.literal_eval(proc.stdout.splitlines()[0]) == expected
