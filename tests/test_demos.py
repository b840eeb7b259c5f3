"""The narrative demos run to completion.

Demo 07 keeps the dataset file it writes, so that a reader can open it:
each demo runs with its temporary directory under the test's own.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = ["01_parsing_and_transforms.py", "02_finite_models.py",
         "03_equivalence_and_countermodels.py", "04_profiles_and_guards.py",
         "05_necessary_symbols.py", "06_explanations.py", "07_batch_evaluation.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "TMPDIR": str(tmp_path)}
    run = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
