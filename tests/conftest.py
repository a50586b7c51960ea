"""Makes ``tests/support`` importable as the ``support`` package."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
