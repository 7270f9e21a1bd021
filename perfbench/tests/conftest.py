import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

# Translation and printing recurse over terms; the small test terms stay
# far below this.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))
