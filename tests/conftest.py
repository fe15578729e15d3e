import sys
from pathlib import Path

from hypothesis import settings

# every run draws the same examples, and no failure database replays others:
# a property test checks the same cases on every machine
settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))
