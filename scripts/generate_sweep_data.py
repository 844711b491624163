#!/usr/bin/env python3
"""Regenerate the sweep CSV files behind the operator-comparison figures.

Each bundled description with a varying element is swept across the full
scale; one CSV per description lands in the output directory with columns
``varied,wem,wlam,nam`` plus ``hybrid`` when the description defines
groups.  Rerunning the script reproduces the files byte for byte.
"""

import argparse
from pathlib import Path

from aggeval.cli import _sweep_csv
from aggeval.description import load_description
from aggeval.hierarchy import sweep

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TARGETS = (
    ("weak_element.json", "s1"),
    ("weak_element_n4.json", "s1"),
    ("weak_element_n5.json", "s1"),
    ("two_group.json", "s1"),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        default="sweeps",
        help="directory for the CSV files (default: ./sweeps)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=101,
        help="grid points per sweep (default: 101)",
    )
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, varied in TARGETS:
        desc = load_description(str(FIXTURES / name))
        rows = sweep(
            desc.hierarchy_root(),
            desc.scale,
            varied,
            desc.scale.min,
            desc.scale.max,
            args.steps,
        )
        target = out_dir / f"{Path(name).stem}.csv"
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(_sweep_csv(rows))
        print(f"wrote {target} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
