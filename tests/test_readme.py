import ast
import re

import pytest

from helpers import ROOT, run_python


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    # the first print line carries the output it expects in its comment
    first_print = next(line for line in code.splitlines() if line.startswith("print("))
    expected = ast.literal_eval(first_print.split("#", 1)[1].strip())
    proc = run_python("-c", code)
    assert ast.literal_eval(proc.stdout.splitlines()[0]) == expected


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("0*.py")), ids=lambda path: path.stem)
def test_demo_runs(demo):
    run_python(str(demo))
