#!/usr/bin/env python3
"""Byte-for-byte output checks of the examples (ctest -L examples).

Runs each example binary, and any other binary that takes no
arguments (the Table 1 bench, tab01_config), in a temporary directory
with every RCNVM_* variable removed from the environment, so that an
ambient setting cannot change a result, and compares its stdout with
the pinned <golden-dir>/<name>.txt. Every binary is deterministic, so
any difference is a change in what the simulator computes or prints.

Usage: examples_test.py <golden-dir> <example-binary>...
"""

import difflib
import os
import pathlib
import subprocess
import sys
import tempfile


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    golden_dir = pathlib.Path(sys.argv[1]).resolve()
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RCNVM_")}
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for binary in sys.argv[2:]:
            binary = os.path.abspath(binary)
            name = os.path.basename(binary)
            want = (golden_dir / (name + ".txt")).read_bytes()
            proc = subprocess.run([binary], cwd=tmp, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
            if proc.returncode != 0:
                failures.append(name)
                print("FAIL %s exited %d\n%s" % (
                    name, proc.returncode,
                    proc.stderr.decode(errors="replace")))
            elif proc.stdout != want:
                failures.append(name)
                diff = difflib.unified_diff(
                    want.decode(errors="replace").splitlines(True),
                    proc.stdout.decode(errors="replace").splitlines(True),
                    "pinned/" + name, "printed/" + name)
                print("FAIL %s output differs\n%s" % (name, "".join(diff)))
            else:
                print("PASS %s" % name)

    print("\nFAILED: " + ", ".join(failures) if failures
          else "\nall example outputs match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
