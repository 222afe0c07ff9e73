"""``python -m repro.analysis [--preset P] [--out DIR] [PASS ...]``.

Loads the seed-0 dataset of preset ``P`` (default ``small``) and writes
``DIR/<pass>.txt`` (default ``out/``) for each named pass, or for every
pass of :data:`repro.analysis.PASSES` when none is named.  On ``tiny``
the files are byte for byte ``tests/golden/``.  The passes analyse IPv4
datasets, so a v6 preset is refused like an unknown one.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import PASSES, write_passes
from repro.census.loader import get_dataset

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Render the paper's figures, tables and statistics.",
    )
    parser.add_argument("--preset", default="small",
                        help="dataset preset (default: small)")
    parser.add_argument("--out", default="out",
                        help="output directory (default: out)")
    parser.add_argument("passes", nargs="*", metavar="PASS",
                        help=f"passes to render (default: all): "
                        f"{', '.join(PASSES)}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unknown = [name for name in args.passes if name not in PASSES]
    if unknown:
        parser.error(f"unknown pass(es): {', '.join(unknown)}")
    names = args.passes or list(PASSES)
    try:
        dataset = get_dataset(preset=args.preset, seed=0)
    except ValueError as exc:  # an unknown preset
        parser.error(str(exc))
    if dataset.family != "v4":
        parser.error(f"preset {args.preset!r} is {dataset.family}; the "
                     "paper's passes analyse IPv4 datasets")
    for name, path in zip(names, write_passes(dataset, args.out, names)):
        print(f"{path}  {PASSES[name].paper}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
