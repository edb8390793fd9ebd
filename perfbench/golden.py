"""Merge output hashes from run records into ``perfbench/golden.json``.

    python3 perfbench/golden.py [RECORD.json ...]

With no arguments, reads every run record under ``perfbench/out/``. Only
ops that passed their check are taken. A hash that disagrees with the one
already stored is reported and left unchanged, and the exit code is 1.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def main(paths) -> int:
    paths = [Path(p) for p in paths] or sorted((HERE / "out").glob("*.json"))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    added = conflicts = 0
    for path in paths:
        record = json.loads(path.read_text())
        known = golden.setdefault(record["workload"], {})
        for op in record["ops"]:
            if op["error"] is not None:
                continue
            key = str(op["seed"])
            if key not in known:
                known[key] = op["sha256"]
                added += 1
            elif known[key] != op["sha256"]:
                conflicts += 1
                print(f"{path}: {record['workload']} op seed {key} hashes to "
                      f"{op['sha256']}, golden has {known[key]}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{added} hashes added, {conflicts} conflicts, "
          f"{sum(len(v) for v in golden.values())} stored")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
