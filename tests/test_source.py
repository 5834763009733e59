import os
import re

import rrsitr

MAX_COLUMNS = 100
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(rrsitr.__file__)))
TESTS = os.path.dirname(os.path.abspath(__file__))


def _sources(top):
    """(path, text) of every .py file under top, in a fixed order."""
    for folder, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as f:
                yield path, f.read()


def test_every_source_line_fits_in_100_columns():
    # every line of the package and of its tests, counted in characters
    too_long = []
    for top in (ROOT, TESTS):
        for path, text in _sources(top):
            too_long += [f"{os.path.relpath(path, os.path.dirname(TESTS))}:{i} ({len(line)})"
                         for i, line in enumerate(text.split("\n"), 1)
                         if len(line) > MAX_COLUMNS]
    assert not too_long, "\n".join(too_long)


def test_no_source_wraps_pool_run_in_list():
    # pool.run returns a list on both paths, so a wrapper only copies it
    found = [f"{os.path.relpath(path, ROOT)}:{text.count(chr(10), 0, m.start()) + 1}"
             for path, text in _sources(ROOT)
             for m in re.finditer(r"list\(\s*pool\.run\(", text)]
    assert not found, "\n".join(found)
