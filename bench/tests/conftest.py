import os
import sys

# the benchmark's modules, the package sources and the corpus protocol helper
_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_ROOT = os.path.dirname(_BENCH)
sys.path[:0] = [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests"), _BENCH]
