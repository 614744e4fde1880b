"""Compare two directories of seeded outputs field by field.

    python tools/compare_outputs.py OUT_A OUT_B

``OUT_A`` and ``OUT_B`` are written by ``tools/seeded_outputs.py``.  For
each file the script prints ``identical``, or one line per field whose
values moved: how many of its values moved, out of how many, and the
largest relative move ``|b - a| / |a|`` (``inf`` where ``a`` is zero).  A
field is a value's path with the row indices dropped: ``e`` in a table,
``curve.error`` in an alpha sweep, ``gtikh.worst_slack`` in ``verify``.

The exit status is 1 when a difference is more than a moved number: a file,
row or field present on one side only, a changed string or flag, or any
change in a gated field (``alpha_star``, ``is_alpha_star``, ``probe_rank``,
``note``) or in a row key (the problem, noise level, penalty, rank, repeat,
seeds, policy and method that name a row).  Otherwise it is 0.
"""

import csv
import json
import math
import sys
from collections import defaultdict
from pathlib import Path

GATED = {"alpha_star", "is_alpha_star", "probe_rank", "note"}
ROW_KEYS = {"example", "delta", "penalty", "n", "k", "p", "q", "repeat",
            "noise_seed", "rsvd_seed", "select_seed", "policy", "method"}


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def load(path):
    """The file's content: a JSON value, or a CSV file's list of rows with
    numeric cells as floats."""
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            return [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(f)]
    return json.loads(path.read_text())


def leaves(obj, path=()):
    """``(path, value)`` for every scalar in ``obj``; a path holds dict keys
    and list indices."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from leaves(value, path + (i,))
    else:
        yield path, obj


def _field(path):
    return ".".join(str(p) for p in path if not isinstance(p, int)) or "<value>"


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _rel_move(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(b - a) / abs(a) if a else math.inf


def compare(a, b):
    """``(moves, breaks)`` of two loaded files: per field ``[moved, total,
    largest relative move]``, and the descriptions of the differences that
    fail the comparison."""
    la, lb = dict(leaves(a)), dict(leaves(b))
    breaks = [f"{_field(p)} at {list(p)} only in {side}"
              for p, side in [(p, "A") for p in la.keys() - lb.keys()]
              + [(p, "B") for p in lb.keys() - la.keys()]]
    moves = defaultdict(lambda: [0, 0, 0.0])
    for path in la.keys() & lb.keys():
        va, vb = la[path], lb[path]
        field = _field(path)
        key = path[-1] if path else None
        numeric = _is_number(va) and _is_number(vb)
        moved = va != vb and not (numeric and _rel_move(va, vb) == 0.0)
        entry = moves[field]
        entry[1] += 1
        if not moved:
            continue
        if not numeric or key in GATED or key in ROW_KEYS:
            breaks.append(f"{field} at {list(path)}: {va!r} -> {vb!r}")
        if numeric:
            entry[0] += 1
            entry[2] = max(entry[2], _rel_move(va, vb))
    return {f: m for f, m in moves.items() if m[0]}, breaks


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(d) for d in argv)
    names_a = {p.name for p in dir_a.iterdir() if p.is_file()}
    names_b = {p.name for p in dir_b.iterdir() if p.is_file()}
    failed = False
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"{name}: only in {'A' if name in names_a else 'B'}")
            failed = True
            continue
        moves, breaks = compare(load(dir_a / name), load(dir_b / name))
        if not moves and not breaks:
            print(f"{name}: identical")
            continue
        print(f"{name}:")
        for field, (moved, total, rel) in sorted(moves.items()):
            print(f"  {field}: {moved}/{total} moved, largest relative move {rel:.3g}")
        for line in breaks:
            print(f"  DIFFERS: {line}")
        failed = failed or bool(breaks)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
