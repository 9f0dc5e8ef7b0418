import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# Property tests draw the same examples on every run, a bounded number of
# them, and write no example database into the checkout.
settings.register_profile("cfhankel", derandomize=True, max_examples=60, database=None)
settings.load_profile("cfhankel")
