#!/usr/bin/env python3
"""Regenerate tests/data/census_golden.json and census_checkpoint.json.

Six census runs over tests/data/connected8.g6, pinned bit for bit: the
AND/OR minimal census over the whole stream, an arity-1 all-targets
filtered census over its first 1,500 records, an arity-2 all-targets
unfiltered census with ordered inputs and a 25 % sample (seed 3) over its
first 600 records, two all-targets minimal censuses over its first 1,000
records, one at arity 1 and one at arity 2 with ordered inputs, and an
arity-2 all-targets unfiltered census over its first 1,500 records.  Each
entry holds the number of records read and the report's to_json_dict()
without elapsed_s; the options in the report say how to rerun it.

census_checkpoint.json is the finished checkpoint of CHECKPOINT_RUN, an
arity-1 all-targets census over the first 300 records saved every 100
lines, pinned byte for byte.  Run with the package on the path:

    PYTHONPATH=src python tools/make_census_golden.py
"""

import json
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

from ladget.search import SearchOptions, search_stream

RUNS = {
    "and_or_minimal": (
        None, SearchOptions(targets=("AND", "OR"), minimal_mode=True)
    ),
    "arity1_all_filtered": (1500, SearchOptions(targets=(), arity=1)),
    "arity2_all_unfiltered_sampled": (
        600,
        SearchOptions(
            targets=(), ordered_inputs=True, use_filter=False,
            sample_rate=0.25, seed=3,
        ),
    ),
    "arity1_all_minimal": (
        1000, SearchOptions(targets=(), arity=1, minimal_mode=True)
    ),
    "arity2_all_minimal_ordered": (
        1000,
        SearchOptions(targets=(), ordered_inputs=True, minimal_mode=True),
    ),
    "arity2_all_unfiltered": (
        1500, SearchOptions(targets=(), use_filter=False)
    ),
}
CHECKPOINT_RUN = (300, SearchOptions(targets=(), arity=1, checkpoint_every=100))


def main() -> int:
    data = Path(__file__).resolve().parent.parent / "tests" / "data"
    lines = (data / "connected8.g6").read_text().splitlines(keepends=True)
    out = {}
    for name, (count, options) in RUNS.items():
        count = len(lines) if count is None else count
        report = search_stream(lines[:count], options).to_json_dict()
        del report["elapsed_s"]
        out[name] = {"lines": count, "report": report}
        print(f"{name}: {count} lines, hits_raw {report['hits_raw']}")
    path = data / "census_golden.json"
    # One compact line per run: the arity-1 run alone has 3,161 hits.
    compact = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    body = ",\n".join(f"{compact(k)}: {compact(v)}" for k, v in out.items())
    path.write_text("{\n" + body + "\n}\n")
    print(f"wrote {path}")
    count, options = CHECKPOINT_RUN
    with tempfile.TemporaryDirectory() as tmp:
        stream, ckpt = Path(tmp) / "head.g6", Path(tmp) / "ckpt.json"
        stream.write_text("".join(lines[:count]))
        search_stream(str(stream), replace(options, checkpoint=str(ckpt)))
        path = data / "census_checkpoint.json"
        path.write_bytes(ckpt.read_bytes())
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
