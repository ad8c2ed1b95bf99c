"""Regenerate the golden trace fixtures (tests/golden/*.trace), the
corpus trace digests (tests/golden/corpus.sha256 and
tests/golden/config_corpus.sha256), the sender program digests
(tests/golden/sender_programs.sha256), the calibration digests
(tests/golden/calibrations.sha256) and the seed-1 matrix CSV
(tests/golden/matrix_seed1.csv).

Run after an intentional engine change: python3 tests/make_golden.py
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


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GOLDEN_RUNS:
        path = GOLDEN_DIR / f"{name}.trace"
        path.write_text(golden_trace_text(name))
        print(f"wrote {path}")
    digests = corpus_digests()
    CORPUS_DIGESTS.write_text(format_digests(digests))
    print(f"wrote {CORPUS_DIGESTS} ({len(digests)} runs)")
    digests = config_corpus_digests()
    CONFIG_CORPUS_DIGESTS.write_text(format_digests(digests))
    print(f"wrote {CONFIG_CORPUS_DIGESTS} ({len(digests)} runs)")
    digests = sender_digests()
    SENDER_DIGESTS.write_text(format_digests(digests))
    print(f"wrote {SENDER_DIGESTS} ({len(digests)} senders)")
    digests = calibration_digests()
    CALIBRATION_DIGESTS.write_text(format_digests(digests))
    print(f"wrote {CALIBRATION_DIGESTS} ({len(digests)} calibrations)")
    res = golden_matrix(matrix_calibrations(CFG, MATRIX_SCHEMES))
    MATRIX_GOLDEN.write_text("\n".join(res.csv_lines()) + "\n")
    print(f"wrote {MATRIX_GOLDEN}")


if __name__ == "__main__":
    main()
