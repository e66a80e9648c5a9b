#!/usr/bin/env python3
"""End-to-end checks of the rcnvm_trace command line (ctest -L trace_cli).

Drives the tool as a user does, in a temporary directory and with every
RCNVM_* variable removed from the environment, so that an ambient
setting cannot change a result. Each numbered block below is one
group of checks. The stats artifact and the chrome trace are read by
Python's json module, a parser independent of the simulator's writers,
in strict mode: NaN, Infinity and duplicate keys are errors.

Usage: trace_cli_test.py <rcnvm_trace-binary> <sample.trace>
"""

import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

# Pinned replay ticks of the sample, (label, ticks) per device.
SAMPLE_TICKS = [("RC-NVM", 495500), ("DRAM", 286750)]

DRCACHESIM_LISTING = """\
     1: T1001 <marker: version 5>
     2: T1001 ifetch 8 byte(s) @ 0x0000000000401000
     3: T1001 read 8 byte(s) @ 0x00000000000a1000
     4: T2002 write 4 byte(s) @ 0x00000000000b2040
     5: T1001 read 64 byte(s) @ 0x00000000000a1040
"""

# User-space addresses, as real listings hold them; the last is the
# first plus 64 GB.
WIDE_LISTING = """\
     1: T7 read 8 byte(s) @ 0x00007ffd3a2c1f40
     2: T7 write 8 byte(s) @ 0x00005555e8a01000
     3: T8 read 64 byte(s) @ 0x00007ffd3a2c1f80
     4: T8 write 4 byte(s) @ 0x0000800d3a2c1f40
     5: T7 read 8 byte(s) @ 0x00005555e8a01008
"""

failures = []


def check(cond, what, detail=""):
    if cond:
        print("PASS %s" % what)
    else:
        failures.append(what)
        print("FAIL %s\n%s" % (what, detail))


def uncommented(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("#")]


def reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate key in %s" % keys)
    return dict(pairs)


def strict_json(data):
    """Parse data as standard JSON, or raise ValueError."""
    return json.loads(data, parse_constant=reject_constant,
                      object_pairs_hook=unique_keys)


def artifact_problems(doc):
    """What is wrong with the runs of a stats artifact (empty if
    nothing): each is one rcnvm-stats-v1 object whose stats and kinds
    name the same entries, each kind additive or scalar."""
    problems = []
    for run in doc["runs"]:
        label = run.get("label")
        if run.get("schema") != "rcnvm-stats-v1":
            problems.append("%s: schema %r" % (label, run.get("schema")))
        if set(run["stats"]) != set(run["kinds"]):
            problems.append("%s: stats and kinds name different entries"
                            % label)
        bad = sorted(k for k, v in run["kinds"].items()
                     if v not in ("additive", "scalar"))
        if bad:
            problems.append("%s: unknown kinds for %s" % (label, bad))
    return problems


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    tool = os.path.abspath(sys.argv[1])
    sample = pathlib.Path(sys.argv[2]).resolve()
    base_env = {k: v for k, v in os.environ.items()
                if not k.startswith("RCNVM_")}

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = pathlib.Path(tmpdir)

        def rc(*args, **env):
            proc = subprocess.run(
                [tool] + [str(a) for a in args], cwd=tmp,
                env=dict(base_env, **env), stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
            return proc.returncode, proc.stdout

        def ok(what, *args, **env):
            code, out = rc(*args, **env)
            check(code == 0, what, "exit %d\n%s" % (code, out))
            return out

        # 1. Text -> binary -> text, and the header.
        ok("convert text to binary", "convert", sample, "sample.rtb")
        ok("convert binary to text", "convert", "sample.rtb",
           "roundtrip.trace")
        check(uncommented(sample) ==
              uncommented(tmp / "roundtrip.trace"),
              "text round trip is the identity")
        out = ok("info", "info", "sample.rtb")
        check("cores:    4" in out and "records:  33" in out,
              "info reports 4 cores and 33 records", out)

        # 2. The replay, traced, at the pinned ticks.
        (tmp / "replay").mkdir()
        ok("run on rcnvm dram", "run", "sample.rtb", "rcnvm", "dram",
           RCNVM_STATS_DIR=str(tmp / "replay"),
           RCNVM_CHROME_TRACE=str(tmp / "trace.json"))
        doc = strict_json((tmp / "replay" /
                           "rcnvm_trace.json").read_bytes())
        problems = artifact_problems(doc)
        check(not problems, "rcnvm_trace.json holds valid stats runs",
              "\n".join(problems))
        got = [(r["label"], r["ticks"]) for r in doc["runs"]]
        check(got == SAMPLE_TICKS, "sample replay ticks",
              "got %s, want %s" % (got, SAMPLE_TICKS))

        # 2b. The default build compiles tracing in, so the trace is
        #     there, and holds metadata, duration and instant events.
        events = strict_json((tmp / "trace.json").read_bytes())[
            "traceEvents"]
        phases = sorted(set(e["ph"] for e in events))
        check(phases == ["M", "X", "i"],
              "chrome trace holds M, X and i events", "got %s" % phases)

        # 3. A drcachesim view listing converts onto 2 cores and runs.
        (tmp / "drsample.txt").write_text(DRCACHESIM_LISTING)
        out = ok("convert --drcachesim", "convert", "--drcachesim",
                 "drsample.txt", "dr.rtb", "2")
        check("converted 3 record(s) from 2 thread(s) onto 2 core(s)"
              in out, "drcachesim listing keeps 3 of 5 lines", out)
        ok("run drcachesim trace", "run", "dr.rtb")

        # 3b. The 4 GB devices decode an address's low 32 bits, and so
        #     do the caches: a listing of user-space addresses replays
        #     exactly as the same listing folded below 4 GB.
        folded = re.sub(r"0x([0-9a-f]+)",
                        lambda m: "0x%x" % (int(m.group(1), 16) &
                                            0xffffffff),
                        WIDE_LISTING)
        replays = []
        for name, listing in (("wide", WIDE_LISTING),
                              ("folded", folded)):
            (tmp / (name + ".txt")).write_text(listing)
            ok("convert %s listing" % name, "convert", "--drcachesim",
               name + ".txt", name + ".rtb")
            (tmp / name).mkdir()
            ok("run %s listing" % name, "run", name + ".rtb",
               RCNVM_STATS_DIR=str(tmp / name))
            replays.append((tmp / name / "rcnvm_trace.json").read_bytes())
        check(replays[0] == replays[1],
              "user-space addresses replay as their folded twins")

        # 4. Any dump replays on any device: RC-NVM's has column ops,
        #    GS-DRAM's gathered loads.
        for device in ("rcnvm", "gsdram"):
            dump = "q1.%s.rtb" % device
            ok("dump Q1 %s" % device, "dump", "Q1", device, dump,
               RCNVM_TUPLES="4096")
            out = ok("run Q1 %s dump on all devices" % device, "run",
                     dump)
            check(all("\n%s " % label in out
                      for label in ("DRAM", "RRAM", "RC-NVM", "GS-DRAM")),
                  "Q1 %s dump prints one row per device" % device, out)

        # 5. Exit codes.
        code, out = rc("run", "sample.rtb", "nosuchdevice")
        check(code == 2, "unknown device exits 2", out)
        code, out = rc("run", "missing.rtb", "rcnvm")
        check(code == 1, "missing trace file exits 1", out)

    print("\nFAILED: " + ", ".join(failures) if failures
          else "\nall trace CLI checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
