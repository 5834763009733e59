import json
import os
import subprocess
import sys

import rrsitr

HERE = os.path.dirname(os.path.abspath(__file__))


def test_outputs_match_golden_digests():
    # heads, epoch records, traces, reports, objective values and gradients of
    # fixed small runs, computed in a fresh process at one BLAS thread, against
    # the digests pinned in golden_digests.json (rewrite it with
    # `python tests/golden.py --write` and name every moved case)
    _check_digests(["--workers", "1"])


def test_outputs_match_golden_digests_on_two_workers():
    # the same digests with every pool-capable call split into tasks on two
    # worker threads, however small its shape
    _check_digests(["--workers", "2", "--force-parallel"])


def _check_digests(args):
    src = os.path.dirname(os.path.dirname(rrsitr.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "golden.py"), *args],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    got = json.loads(proc.stdout)
    with open(os.path.join(HERE, "golden_digests.json")) as f:
        want = json.load(f)
    problems = [f"{key}: {want[key]} pinned, {got[key]} here"
                for key in ("numpy", "blas") if got[key] != want[key]]
    for name in sorted(want["cases"].keys() | got["cases"].keys()):
        pinned, now = want["cases"].get(name), got["cases"].get(name)
        if pinned is None or now is None:
            problems.append(f"{name}: {'not pinned' if pinned is None else 'not computed'}")
        elif pinned != now:
            moved = [k for k in sorted(pinned) if pinned[k] != now.get(k)]
            problems.append(f"{name}: {', '.join(moved)} moved")
    assert not problems, "\n".join(problems)
