"""Session set-up shared by tests/ and perfbench/tests/.

``pythonpath`` in pyproject.toml puts src/ on the test process's import
path; the command-line tests also start ``python -m cnls_gauge`` in
subprocesses, which read PYTHONPATH instead. Prepending src/ there makes a
plain ``pytest`` run the whole suite without an install.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
