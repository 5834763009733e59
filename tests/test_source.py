import importlib
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


MODULES = ("data", "similarity", "trainer", "pool", "evaluation", "losses", "selfpaced",
           "cli", "errors")


def test_src_names_only_existing_attributes():
    # a module-qualified name in the package's code, comments or docstrings,
    # such as pool.PARALLEL_WORK, names something that module has: a rename or
    # a deletion must take its mentions along. "data.py" names a file.
    pattern = re.compile(r"(?<![\w.])(%s)\.([A-Za-z_]\w*)" % "|".join(MODULES))
    stale = [f"{os.path.relpath(path, ROOT)}:{text.count(chr(10), 0, m.start()) + 1} "
             f"{m.group(0)}"
             for path, text in _sources(ROOT)
             for m in pattern.finditer(text)
             if m.group(2) != "py"
             and not hasattr(importlib.import_module(f"rrsitr.{m.group(1)}"), m.group(2))]
    assert not stale, "\n".join(stale)
