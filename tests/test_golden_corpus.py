"""Golden corpus: every subcommand's exit code and output bytes, pinned by sha256.

Each entry of golden_corpus.json holds an argv, the text on stdin, the exit
code and the sha256 of stdout, stderr and the --out file (null when the run
leaves none).  The test replays each entry through `cli.dispatch` in a fresh
working directory, so relative --out paths land there.

The corpus is the only place where output bytes are pinned.  To add an
entry, add its (id, argv, stdin) to `cases()`, with a network document
written out in this module, then regenerate.  Regenerate the corpus (to
add entries, or after a deliberate output change, which the change log
then lists) with:

    PYTHONPATH=src python tests/test_golden_corpus.py

Before it rewrites the file, it prints one line per entry that is added,
removed or changed (in exit code, a digest, argv or stdin): the list the
change log needs.  Adding entries prints only `added:` lines.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from oracles import DEMO_MAP, FIG_SEVEN, prufer_edges
from twinfield_qka import cli

CORPUS = Path(__file__).with_name("golden_corpus.json")


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_entry(argv, stdin):
    """Exit code and digests of one dispatch call, in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal width, which it reads from COLUMNS.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    return {
        "exit": code,
        "stdout_sha256": _sha(out.getvalue().encode()),
        "stderr_sha256": _sha(err.getvalue().encode()),
        "out_sha256": _sha(path.read_bytes()) if path is not None and path.exists() else None,
    }


#: Run as a script, the module rewrites the corpus instead of reading it.
ENTRIES = json.loads(CORPUS.read_text()) if __name__ != "__main__" else []


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["id"])
def test_golden(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_entry(entry["argv"], entry["stdin"])
    assert got == {k: entry[k] for k in got}


# --- regeneration ------------------------------------------------------------

ODD_IDS = {"parties": [
    {"id": 'quote"d', "x": 0.0, "y": 0.0}, {"id": "back\\slash", "x": 3.0, "y": 1.0},
    {"id": "nul\0", "x": 6.0, "y": -1.0}, {"id": "comma, [bracket]", "x": 9.0, "y": 2.0},
    {"id": "café ☃", "x": 12.0, "y": 0.5}, {"id": 2**53 + 1, "x": 1.5, "y": 4.0},
    {"id": None, "x": 4.5, "y": 5.0}, {"id": True, "x": 7.5, "y": 4.5},
]}
#: Coordinate parties whose ids hold the plan writer's NUL and bracket
#: separators, other escapes and non-ASCII, an int beyond 2**53, null, true and 7.5.
SEPARATOR_IDS = {"parties": [
    {"id": 'quote"d', "x": 0.0, "y": 0.0}, {"id": "back\\slash", "x": 7.5, "y": 1.25},
    {"id": "nul\x00byte", "x": 15.0, "y": -3.0}, {"id": "comma,", "x": 22.0, "y": 4.5},
    {"id": "bracket]", "x": 9.0, "y": 12.0}, {"id": "]\x00[", "x": 30.5, "y": 0.5},
    {"id": "Z\u00fcrich", "x": 3.0, "y": 20.0}, {"id": "\u6771\u4eac", "x": 18.0, "y": 18.0},
    {"id": 2**53 + 1, "x": 40.0, "y": 9.0}, {"id": None, "x": 52.0, "y": 16.0},
    {"id": True, "x": 35.0, "y": -6.0}, {"id": 7.5, "x": 46.0, "y": 2.0},
]}
MIXED_TREE = {
    "parties": [True, None, 2**53 + 1, "tab\there", "ümläut", 2.5, -3, "\\\"\n"],
    "edges": [{"a": a, "b": b, "km": km} for a, b, km in [
        (True, None, 4.0), (None, 2**53 + 1, 6.5), (None, "tab\there", 3.0),
        ("tab\there", "ümläut", 9.0), (2.5, True, 1.25), (-3, 2.5, 7.0),
        ("\\\"\n", -3, 2.0), ("\\\"\n", True, 30.0)]],
}


def mixed_networks(seed=20240917, sizes=range(7, 42, 3)):
    """(name, document, flags): a random tree and a random point cloud per size.

    Shaped like the plan-mixed benchmark workload: trees of 5-40 km edges and
    point clouds scaled with sqrt(n), each with its own --mu, --delta-ec and --seed.
    """
    rng = np.random.default_rng(seed)
    for n in sizes:
        kms = rng.uniform(5.0, 40.0, n - 1)
        tree = {"parties": [{"id": i} for i in range(n)],
                "edges": [{"a": a, "b": b, "km": float(km)}
                          for (a, b), km in zip(prufer_edges(rng.integers(0, n, n - 2), n), kms)]}
        xy = rng.uniform(0.0, 1.0, (n, 2)) * 30.0 * math.sqrt(n) + rng.uniform(-500, 500, 2)
        cloud = {"parties": [{"id": i, "x": float(x), "y": float(y)}
                             for i, (x, y) in enumerate(xy)]}
        for kind, doc in (("tree", tree), ("coord", cloud)):
            flags = ["--mu", repr(float(rng.uniform(0.1, 0.4))),
                     "--delta-ec", repr(float(rng.choice([0.0, 0.05]))),
                     "--seed", str(int(rng.integers(2**31)))]
            yield f"plan-mixed-{kind}-{n}", doc, flags


def cases():
    """(id, argv, stdin) of every corpus entry."""
    sim = ["simulate", "--pulses", "200000"]
    yield from [
        ("usage-none", [], ""),
        ("usage-unknown", ["bogus"], ""),
        ("usage-help", ["--help"], ""),
        ("discriminate-default", ["discriminate"], ""),
        ("discriminate-json", ["discriminate", "--format", "json", "--mu", "0.5"], ""),
        ("discriminate-sweep", ["discriminate", "--sweep", "mu:0:1.2:7"], ""),
        ("discriminate-out", ["discriminate", "--mu", "0.3", "--out", "out.csv"], ""),
        ("discriminate-out-unwritable",
         ["discriminate", "--format", "json", "--out", "no-such-dir/out.json"], ""),
        ("discriminate-distance-sweep", ["discriminate", "--sweep", "distance_km:0:1:3"], ""),
        ("discriminate-negative-mu", ["discriminate", "--mu", "-1"], ""),
        ("discriminate-nan-mu", ["discriminate", "--mu", "nan"], ""),
        ("discriminate-bad-float", ["discriminate", "--mu", "abc"], ""),
        ("discriminate-mu-sweep-with-mu", ["discriminate", "--sweep", "mu:0.1:1:3",
                                           "--mu", "0.5"], ""),
        ("discriminate-minus-infinity-mu", ["discriminate", "--mu", "-Infinity"], ""),
        ("discriminate-fine-sweep", ["discriminate", "--sweep", "mu:0.01:1.5:150"], ""),
        ("keyrate-default", ["keyrate"], ""),
        ("keyrate-json", ["keyrate", "--format", "json", "--distance-km", "100"], ""),
        ("keyrate-distance-sweep", ["keyrate", "--sweep", "distance_km:0:300:7"], ""),
        ("keyrate-mu-sweep", ["keyrate", "--sweep", "mu:0.05:1:5",
                              "--arm-km", "1", "2", "3", "4"], ""),
        ("keyrate-asymmetric", ["keyrate", "--format", "json", "--mu", "0.3", "--mu2", "0.1",
                                "--arm-km", "10", "20", "30", "40", "--delta-ec", "0.05"], ""),
        ("keyrate-out", ["keyrate", "--distance-km", "50", "--out", "out.csv"], ""),
        ("keyrate-out-unwritable", ["keyrate", "--out", "no-such-dir/out.csv"], ""),
        ("keyrate-zero-mu", ["keyrate", "--mu", "0"], ""),
        ("keyrate-negative-mu2", ["keyrate", "--mu2", "-1"], ""),
        ("keyrate-negative-delta-ec", ["keyrate", "--delta-ec", "-0.1", "--out", "out.csv"], ""),
        ("keyrate-nan-delta-ec", ["keyrate", "--delta-ec", "nan"], ""),
        ("keyrate-delta-ec-one", ["keyrate", "--delta-ec", "1"], ""),
        ("keyrate-exponent-mu", ["keyrate", "--mu", "-1e3"], ""),
        ("keyrate-negative-distance-sweep", ["keyrate", "--sweep", "distance_km:-1:10:3"], ""),
        ("keyrate-zero-mu-sweep", ["keyrate", "--sweep", "mu:0:1:3"], ""),
        ("keyrate-overflowing-sweep", ["keyrate", "--sweep", "mu:-1e308:1e308:3"], ""),
        ("keyrate-distance-sweep-with-arms", ["keyrate", "--sweep", "distance_km:0:100:3",
                                              "--arm-km", "1", "2", "3", "400"], ""),
        ("keyrate-distance-sweep-with-distance", ["keyrate", "--sweep", "distance_km:0:100:3",
                                                  "--distance-km", "77"], ""),
        ("keyrate-underflow", ["keyrate", "--distance-km", "1e6"], ""),
        ("keyrate-arm-and-distance", ["keyrate", "--distance-km", "10",
                                      "--arm-km", "1", "1", "1", "1"], ""),
        ("keyrate-mu-sweep-with-mu2", ["keyrate", "--sweep", "mu:0.1:1:5", "--mu2", "0.2"], ""),
        ("keyrate-mu-sweep-with-mu", ["keyrate", "--sweep", "mu:0.1:1:3", "--mu", "0.5"], ""),
        ("keyrate-bad-sweep", ["keyrate", "--sweep", "distance_km:0:10"], ""),
        ("keyrate-bad-float", ["keyrate", "--mu", "abc"], ""),
        ("keyrate-fine-distance-sweep", ["keyrate", "--sweep", "distance_km:0:400:81"], ""),
        ("keyrate-asymmetric-csv", ["keyrate", "--mu", "0.3", "--mu2", "0.1", "--arm-km",
                                    "10", "20", "30", "40", "--delta-ec", "0.05"], ""),
        ("keyrate-fine-mu-sweep", ["keyrate", "--sweep", "mu:0.01:1.5:50",
                                   "--arm-km", "5", "15", "25", "35"], ""),
        ("simulate-default", ["simulate"], ""),
        ("simulate-0km-csv", [*sim, "--format", "csv", "--seed", "1"], ""),
        ("simulate-30km", [*sim, "--distance-km", "30", "--seed", "4"], ""),
        ("simulate-30km-csv", [*sim, "--distance-km", "30", "--seed", "4", "--format", "csv"], ""),
        ("simulate-250km", [*sim, "--distance-km", "250", "--seed", "2"], ""),
        ("simulate-250km-csv", [*sim, "--distance-km", "250", "--seed", "2",
                                "--format", "csv"], ""),
        ("simulate-arms", [*sim, "--arm-km", "1", "2", "3", "4", "--mu", "0.3",
                           "--y0", "1e-5", "--dark", "1e-7", "--seed", "9"], ""),
        ("simulate-out", [*sim, "--distance-km", "40", "--out", "out.json"], ""),
        ("simulate-csv-out", [*sim, "--format", "csv", "--out", "out.csv"], ""),
        ("simulate-out-unwritable", [*sim, "--out", "no-such-dir/out.json"], ""),
        ("simulate-zero-mu", ["simulate", "--mu", "0"], ""),
        ("simulate-nan-mu", ["simulate", "--mu", "nan", "--out", "out.json"], ""),
        ("simulate-negative-mu", ["simulate", "--mu", "-1"], ""),
        ("simulate-zero-pulses", ["simulate", "--pulses", "0"], ""),
        ("simulate-y0-one", ["simulate", "--y0", "1"], ""),
        ("simulate-nan-y0", ["simulate", "--y0", "nan"], ""),
        ("simulate-negative-dark", ["simulate", "--dark", "-0.1"], ""),
        ("simulate-negative-seed", ["simulate", "--seed", "-1"], ""),
        ("simulate-negative-arm", ["simulate", "--arm-km", "0", "-1", "0", "0"], ""),
        ("simulate-nan-arm", ["simulate", "--arm-km", "nan", "1", "1", "1"], ""),
        ("simulate-minus-inf-arm", ["simulate", "--arm-km", "1", "-inf", "1", "1"], ""),
        ("simulate-minus-nan-y0", ["simulate", "--y0", "-nan"], ""),
        ("simulate-underflow", ["simulate", "--distance-km", "1e6"], ""),
        ("simulate-bad-int", ["simulate", "--pulses", "abc"], ""),
        # Three blocks of 2^20 pulses: the only runs that join blocks.
        ("simulate-3m-250km", ["simulate", "--pulses", "3000000", "--distance-km", "250",
                               "--seed", "11"], ""),
        ("simulate-3m-250km-csv", ["simulate", "--format", "csv", "--pulses", "3000000",
                                   "--distance-km", "250", "--seed", "11"], ""),
        ("selftest", ["selftest"], ""),
    ]
    pinned = [("fig-seven", FIG_SEVEN, []), ("demo-map", DEMO_MAP, []),
              ("odd-ids", ODD_IDS, ["--key-length", "37"]),
              ("separator-ids", SEPARATOR_IDS, ["--key-length", "37"])]
    for name, doc, flags in pinned:
        text = json.dumps(doc)
        yield f"plan-{name}", ["plan", "-", "--seed", "3", *flags], text
        yield f"plan-{name}-out", ["plan", "-", "--seed", "3", *flags, "--out", "out.json"], text
    yield "plan-mixed-ids-tree", ["plan", "-", "--key-length", "9"], json.dumps(MIXED_TREE)
    for name, doc, flags in mixed_networks():
        yield name, ["plan", "-", *flags], json.dumps(doc)
    seven = json.dumps(FIG_SEVEN)
    yield from [
        ("plan-out-unwritable", ["plan", "-", "--out", "no-such-dir/out.json"], seven),
        ("plan-zero-mu", ["plan", "-", "--mu", "0", "--out", "out.json"], seven),
        ("plan-negative-delta-ec", ["plan", "-", "--delta-ec", "-1"], seven),
        ("plan-nan-delta-ec", ["plan", "-", "--delta-ec", "nan"], "not json"),
        ("plan-delta-ec-one", ["plan", "-", "--delta-ec", "1"], "not json"),
        ("plan-exponent-delta-ec", ["plan", "-", "--delta-ec", "-.5E-3"], "not json"),
        ("plan-zero-key-length", ["plan", "-", "--key-length", "0"], seven),
        ("plan-negative-seed", ["plan", "-", "--seed", "-1"], seven),
        ("plan-missing-file", ["plan", "no-such-net.json"], ""),
        ("plan-empty-stdin", ["plan", "-"], ""),
        ("plan-invalid-json", ["plan", "-"], '{"parties": [1, 2,'),
        ("plan-not-an-object", ["plan", "-"], "[1, 2]"),
        ("plan-one-party", ["plan", "-"], '{"parties": [1]}'),
        ("plan-bare-list-parties", ["plan", "-", "--out", "out.json"],
         '{"parties": [["a", 0, 0], ["b", 3, 4], ["c", 6, 8]]}'),
        ("plan-pair-entry", ["plan", "-"],
         '{"parties": [[1, 2], {"id": 2, "x": 3, "y": 4}, {"id": 3, "x": 6, "y": 8}]}'),
        ("plan-list-id", ["plan", "-"], '{"parties": [{"id": [1]}, {"id": 2}], "edges": []}'),
        ("plan-entry-without-id", ["plan", "-"], '{"parties": [{"x": 0, "y": 0}, {"id": 2}]}'),
        ("plan-duplicate-id", ["plan", "-"], '{"parties": [1, 1.0, 2]}'),
        ("plan-missing-coordinates", ["plan", "-"],
         '{"parties": [{"id": 1, "x": 0, "y": 0}, {"id": 2, "x": 1}]}'),
        ("plan-bool-coordinate", ["plan", "-"],
         '{"parties": [{"id": 1, "x": true, "y": 0}, {"id": 2, "x": 1, "y": 0}]}'),
        ("plan-nan-id", ["plan", "-"],
         '{"parties": [{"id": NaN, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0}]}'),
        ("plan-unknown-endpoint", ["plan", "-"],
         '{"parties": [1, 2], "edges": [{"a": 1, "b": 9, "km": 5}]}'),
        ("plan-edge-without-km", ["plan", "-"], '{"parties": [1, 2], "edges": [{"a": 1, "b": 2}]}'),
        ("plan-disconnected", ["plan", "-"],
         '{"parties": [1, 2, 3, 4], "edges": [{"a": 1, "b": 2, "km": 5},'
         ' {"a": 3, "b": 4, "km": 6}]}'),
        ("plan-edges-not-a-list", ["plan", "-"], '{"parties": [1, 2], "edges": 3}'),
        ("plan-no-network", ["plan"], ""),
    ]


def regenerate():
    old = {e["id"]: e for e in json.loads(CORPUS.read_text())} if CORPUS.exists() else {}
    entries = []
    home = os.getcwd()
    for name, argv, stdin in cases():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                entries.append({"id": name, "argv": argv, "stdin": stdin, **run_entry(argv, stdin)})
            finally:
                os.chdir(home)
    # What the rewrite moves, for the change log: the entries that are new, gone or different.
    new = {e["id"]: e for e in entries}
    for verb, names in (("added", [n for n in new if n not in old]),
                        ("removed", [n for n in old if n not in new]),
                        ("changed", [n for n in new if n in old and new[n] != old[n]])):
        for name in names:
            print(f"{verb}: {name}")
    CORPUS.write_text("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
