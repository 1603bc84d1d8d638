#!/usr/bin/env python3
"""Compare the artifacts of two `autosand run` output directories.

For every file under either directory, prints the largest absolute and the
largest relative deviation between the two runs.  The numbers of CSV, PLY
and JSON files are compared value by value (relative to the larger of the
two magnitudes; NaN equals NaN, and so do 0 and -0), and their text around
the numbers must match; any other file is compared byte for byte.  A last
column says whether the two files are the same bytes.  `report.json`'s
`wall_time` is left out, since it differs on every run.  The last line
counts the faces whose pass verdict changed, the faces whose number of
attempts changed, and the positions at which the face sequence changed.

Usage: python scripts/compare_runs.py RUN_A RUN_B

Exit status: 0 when both runs hold the same files with zero deviation and
no changed count, 1 when anything differs, 2 on bad arguments.
"""

import json
import sys
from pathlib import Path

import numpy as np

SKIPPED_KEYS = {"wall_time"}


def _json_numbers(node, numbers):
    """``node`` with every number moved into ``numbers`` (None left in its place)."""
    if isinstance(node, dict):
        return {k: _json_numbers(v, numbers) for k, v in node.items() if k not in SKIPPED_KEYS}
    if isinstance(node, list):
        return [_json_numbers(v, numbers) for v in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        numbers.append(float(node))
        return None
    return node


def read(path: Path):
    """(text around the numbers, the numbers as a float array) of an artifact."""
    if path.suffix == ".json":
        numbers = []
        skeleton = _json_numbers(json.loads(path.read_text()), numbers)
        return json.dumps(skeleton), np.array(numbers)
    if path.suffix in (".csv", ".ply"):
        text = path.read_text()
        marker = "\n" if path.suffix == ".csv" else "end_header\n"
        header, _, body = text.partition(marker)
        rows = [line.replace(",", " ").split() for line in body.splitlines()]
        widths = [len(r) for r in rows]
        return (header, widths), np.array([float(v) for r in rows for v in r])
    return path.read_bytes(), np.empty(0)


def deviation(a: Path, b: Path):
    """(max absolute, max relative) deviation of b from a; None if their
    structure differs."""
    (text_a, va), (text_b, vb) = read(a), read(b)
    if text_a != text_b or va.shape != vb.shape:
        return None
    same = (va == vb) | (np.isnan(va) & np.isnan(vb))
    diff = np.where(same, 0.0, np.abs(va - vb))
    scale = np.maximum(np.abs(va), np.abs(vb))
    rel = np.divide(diff, scale, out=np.where(same, 0.0, np.inf), where=scale > 0)
    return (float(diff.max(initial=0.0)), float(np.nan_to_num(rel, nan=np.inf).max(initial=0.0)))


def changed_counts(run_a: Path, run_b: Path) -> dict:
    """(changed, total) for the faces' pass verdicts, the faces' attempt
    counts and the positions of the face sequence."""
    def load(run, name):
        path = run / name
        return json.loads(path.read_text()) if path.exists() else {}

    faces = [{f["face_id"]: f for f in load(run, "report.json").get("faces", [])}
             for run in (run_a, run_b)]
    ids = sorted(set(faces[0]) | set(faces[1]))
    verdicts = sum(faces[0].get(i, {}).get("passed") != faces[1].get(i, {}).get("passed")
                   for i in ids)
    attempts = sum(faces[0].get(i, {}).get("resand_count")
                   != faces[1].get(i, {}).get("resand_count") for i in ids)
    orders = [load(run, "sequence.json").get("order", []) for run in (run_a, run_b)]
    n = max(map(len, orders))
    positions = sum(orders[0][k:k + 1] != orders[1][k:k + 1] for k in range(n))
    return {"faces": (verdicts, len(ids)), "attempts": (attempts, len(ids)),
            "sequence positions": (positions, n)}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: compare_runs.py RUN_A RUN_B (two run directories)", file=sys.stderr)
        return 2
    run_a, run_b = map(Path, args)
    names = sorted({p.relative_to(run).as_posix() for run in (run_a, run_b)
                    for p in run.rglob("*") if p.is_file()})
    width = max(map(len, names), default=8)
    print(f"{'artifact':<{width}}  {'max abs':>10}  {'max rel':>10}  bytes")
    differs = False
    for name in names:
        a, b = run_a / name, run_b / name
        if not (a.exists() and b.exists()):
            note = "only in " + (str(run_a) if a.exists() else str(run_b))
            print(f"{name:<{width}}  {'-':>10}  {'-':>10}  {note}")
            differs = True
            continue
        dev = deviation(a, b)
        if dev is None:
            print(f"{name:<{width}}  {'-':>10}  {'-':>10}  structure differs")
            differs = True
        else:
            same = "same" if a.read_bytes() == b.read_bytes() else "differ"
            print(f"{name:<{width}}  {dev[0]:>10.3g}  {dev[1]:>10.3g}  {same}")
            differs |= dev != (0.0, 0.0)
    changed = changed_counts(run_a, run_b)
    print(", ".join(f"{key} changed {c} of {n}" for key, (c, n) in changed.items()))
    differs |= any(c for c, _ in changed.values())
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
