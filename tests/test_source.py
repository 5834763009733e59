import os

import rrsitr

MAX_COLUMNS = 100
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(rrsitr.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))


def test_every_source_line_fits_in_100_columns():
    # every line of the package and of its tests, counted in characters
    too_long = []
    for top in (ROOT, TESTS):
        for folder, dirs, files in os.walk(top):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as f:
                    widths = [len(line.rstrip("\n")) for line in f]
                too_long += [f"{os.path.relpath(path, os.path.dirname(TESTS))}:{i} ({w})"
                             for i, w in enumerate(widths, 1) if w > MAX_COLUMNS]
    assert not too_long, "\n".join(too_long)
