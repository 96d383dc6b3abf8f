#!/usr/bin/env python3
"""Build the stream of all connected graphs on N vertices.

    python tools/make_stream.py --order 8
    python tools/make_stream.py --order 9 --out ../streams/connected9.g6

Writes one graph per isomorphism class, one graph6 record per line.  The
built-in generator stops at 7 vertices, so orders 8 and 9 take one and two
more vertex-extension rounds.  On one core of a shared 2-CPU host order 8
takes about 3 s and order 9 about 64 s; the order-9 stream (2.1 MB) lives
outside the repository.

The output is deterministic, and the script checks it: the record count
(OEIS A001349) and the sha256 of the file.  At order 8 it rebuilds
tests/data/connected8.g6 byte for byte.  The hashes pin the record order,
ascending canonical_key, in which _extend_connected emits its graphs.
"""

import argparse
import hashlib
import sys
from pathlib import Path

from ladget.graphcore import (
    GENERATION_CAP,
    _extend_connected,
    encode_graph6,
    generate_connected,
)

# Per order: the number of connected graphs and the sha256 of the stream.
# Orders up to 7 come from generate_connected itself (ladget search --gen N).
EXPECTED = {
    8: (11117, "fa809cdd0d55ac8faa7912c1e8ccbd34e11988e7d115d3beba7c54801a4c3d63"),
    9: (261080, "64e9cebb9f589ab5afa8d204f3bc1559b5106f5c61e86347fb97e7163707d548"),
}
CONNECTED8 = Path(__file__).resolve().parent.parent / "tests" / "data" / "connected8.g6"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, required=True, choices=sorted(EXPECTED))
    parser.add_argument(
        "--out", type=Path,
        help="output file; defaults to tests/data/connected8.g6 at order 8",
    )
    args = parser.parse_args(argv)
    out = args.out or (CONNECTED8 if args.order == 8 else None)
    if out is None:
        parser.error(f"--order {args.order} needs --out")
    graphs = generate_connected(GENERATION_CAP)
    for _ in range(GENERATION_CAP, args.order):
        graphs = _extend_connected(graphs)
    count, digest = EXPECTED[args.order]
    if len(graphs) != count:
        print(f"expected {count} graphs, generated {len(graphs)}", file=sys.stderr)
        return 1
    data = "".join(encode_graph6(g) + "\n" for g in graphs).encode()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(data)
    got = hashlib.sha256(data).hexdigest()
    if got != digest:
        print(f"{out}: sha256 {got}, expected {digest}", file=sys.stderr)
        return 1
    print(f"wrote {count} records to {out}, sha256 {got}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
