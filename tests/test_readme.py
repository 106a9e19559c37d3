"""The README's Python examples run as written, in order, in one namespace,
and back the claim they make."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run_and_isolate_the_outliers():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # "The three largest entries of `errors` land on the outlier columns"
    # (synth_outliers appends its three outliers as columns 10, 11 and 12)
    assert sorted(np.argsort(namespace["errors"])[-3:]) == [10, 11, 12]
