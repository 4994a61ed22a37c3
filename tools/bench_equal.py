"""Fail unless two ``repro bench`` documents are equal outside ``env``.

Every number a bench document records is simulated and reproduces run
to run, so a freshly written document must equal the committed baseline
everywhere but the environment fingerprint::

    python tools/bench_equal.py bench/BENCH_smoke.json BENCH_smoke.json

Exit 0 when equal, 1 otherwise (the differing paths are printed).
"""

from __future__ import annotations

import json
import sys
from typing import Iterator, List


def differences(old: object, new: object, path: str = "") -> Iterator[str]:
    """The JSON paths where ``old`` and ``new`` differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key not in old or key not in new:
                yield f"{path}/{key} (only on one side)"
            else:
                yield from differences(old[key], new[key], f"{path}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{index}]")
    elif old != new:
        yield f"{path}: {old!r} -> {new!r}"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            document = json.load(handle)
        document.pop("env", None)
        documents.append(document)
    found = list(differences(*documents))
    for line in found[:20]:
        print(line)
    if found:
        print(f"{argv[1]} differs from {argv[0]} outside env "
              f"({len(found)} difference(s))")
        return 1
    print(f"{argv[1]} equals {argv[0]} outside env")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
