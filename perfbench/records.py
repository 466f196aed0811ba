"""Saved result records (`run.py --save DIR`), as compare.py and summary.py
read them."""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_records(directory):
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        raise SystemExit(f"no result records in {directory}")
    return records


def metric_median(records, name):
    return statistics.median(r["metrics"][name] for r in records)
