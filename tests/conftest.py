import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

# tests that spawn `python -m logcy.cli` need the package on the child's path
# too; pyproject's pytest `pythonpath` only reaches this process
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
