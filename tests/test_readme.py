"""README's Python quick start runs as written, with every warning an error."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(README), "exec"), {})
    coskew_hat, rho_hat = map(float, capsys.readouterr().out.split())
    # 0.25 s_max + 0.75 s_min = -s_max/2 for normal margins
    assert abs(coskew_hat + 1.5957691216057308 / 2) < 0.05
    assert abs(rho_hat) < 0.02
