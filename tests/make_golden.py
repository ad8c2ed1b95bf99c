"""Regenerate the golden trace fixtures (tests/golden/*.trace), the
corpus trace digests (tests/golden/corpus.sha256 and
tests/golden/config_corpus.sha256), the sender program digests
(tests/golden/sender_programs.sha256), the calibration digests
(tests/golden/calibrations.sha256) and the seed-1 matrix CSV
(tests/golden/matrix_seed1.csv).

Run after an intentional engine change: python3 tests/make_golden.py
For each file it prints how many of its lines (one pinned entry per line
in the digest files) are not in the file it replaces.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from specsim.attacks import MATRIX_SCHEMES
from specsim.seccheck import matrix_calibrations
from test_acceptance import CFG, GOLDEN_DIR, GOLDEN_RUNS, MATRIX_GOLDEN, golden_matrix, golden_trace_text
from test_corpus_digests import (
    CALIBRATION_DIGESTS,
    CONFIG_CORPUS_DIGESTS,
    CORPUS_DIGESTS,
    SENDER_DIGESTS,
    calibration_digests,
    config_corpus_digests,
    corpus_digests,
    format_digests,
    sender_digests,
)


def write(path: Path, text: str) -> None:
    """Write one golden file and report how far it moved from the old one."""
    old = set(path.read_text().splitlines()) if path.exists() else set()
    new = text.splitlines()
    changed = sum(1 for line in new if line not in old)
    path.write_text(text)
    print(f"{path.name}: {changed} of {len(new)} changed")


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GOLDEN_RUNS:
        write(GOLDEN_DIR / f"{name}.trace", golden_trace_text(name))
    write(CORPUS_DIGESTS, format_digests(corpus_digests()))
    write(CONFIG_CORPUS_DIGESTS, format_digests(config_corpus_digests()))
    write(SENDER_DIGESTS, format_digests(sender_digests()))
    write(CALIBRATION_DIGESTS, format_digests(calibration_digests()))
    res = golden_matrix(matrix_calibrations(CFG, MATRIX_SCHEMES))
    write(MATRIX_GOLDEN, "\n".join(res.csv_lines()) + "\n")


if __name__ == "__main__":
    main()
