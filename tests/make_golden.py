"""Regenerate the golden trace fixtures (tests/golden/*.trace), the
corpus trace digests (tests/golden/corpus.sha256 and
tests/golden/config_corpus.sha256), the sender program digests
(tests/golden/sender_programs.sha256), the calibration digests
(tests/golden/calibrations.sha256), the seed-1 matrix CSV
(tests/golden/matrix_seed1.csv), the line tests/run_digest.py prints
for its first 20 seeds (tests/golden/run_digest_seeds20.txt) and the line
tests/channel_digest.py prints (tests/golden/channel_digest.txt).

Run after an intentional engine change: python3 tests/make_golden.py
For each file it prints how many of its lines (one pinned entry per line
in the digest files) are not in the file it replaces.

    python3 tests/make_golden.py --check

regenerates every file in memory and writes nothing: it prints the same
counts and exits 1 if any file's text would change, 0 if every file is
byte-identical. A change that must not move any output shows it with this
one command.
"""

import argparse
import sys
from collections.abc import Iterator
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from specsim.attacks import MATRIX_SCHEMES
from specsim.seccheck import matrix_calibrations
import channel_digest
import run_digest
from test_acceptance import CFG, GOLDEN_DIR, GOLDEN_RUNS, MATRIX_GOLDEN, golden_matrix, golden_trace_text
from test_corpus_digests import (
    CALIBRATION_DIGESTS,
    CHANNEL_DIGEST,
    CONFIG_CORPUS_DIGESTS,
    CORPUS_DIGESTS,
    RUN_DIGEST_SEEDS_20,
    SENDER_DIGESTS,
    calibration_digests,
    config_corpus_digests,
    corpus_digests,
    format_digests,
    sender_digests,
)


def golden_texts() -> Iterator[tuple[Path, str]]:
    """Every golden file and its freshly generated text, one at a time."""
    for name in GOLDEN_RUNS:
        yield GOLDEN_DIR / f"{name}.trace", golden_trace_text(name)
    yield CORPUS_DIGESTS, format_digests(corpus_digests())
    yield CONFIG_CORPUS_DIGESTS, format_digests(config_corpus_digests())
    yield SENDER_DIGESTS, format_digests(sender_digests())
    yield CALIBRATION_DIGESTS, format_digests(calibration_digests())
    res = golden_matrix(matrix_calibrations(CFG, MATRIX_SCHEMES))
    yield MATRIX_GOLDEN, "\n".join(res.csv_lines()) + "\n"
    yield RUN_DIGEST_SEEDS_20, run_digest.digest_line(20) + "\n"
    yield CHANNEL_DIGEST, channel_digest.digest_line() + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Regenerate the golden files under tests/golden/.")
    ap.add_argument("--check", action="store_true", help="write nothing; exit 1 if any file would change")
    args = ap.parse_args(argv)
    if not args.check:
        GOLDEN_DIR.mkdir(exist_ok=True)
    moved = False
    for path, text in golden_texts():
        old = path.read_text() if path.exists() else ""
        old_lines = set(old.splitlines())
        new = text.splitlines()
        changed = sum(1 for line in new if line not in old_lines)
        print(f"{path.name}: {changed} of {len(new)} changed")
        moved |= text != old
        if not args.check:
            path.write_text(text)
    return 1 if args.check and moved else 0


if __name__ == "__main__":
    sys.exit(main())
