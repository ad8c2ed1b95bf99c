"""Regenerate the golden trace fixtures (tests/golden/*.trace) and the
corpus trace digests (tests/golden/corpus.sha256).

Run after an intentional engine change: python3 tests/make_golden.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_acceptance import GOLDEN_DIR, GOLDEN_RUNS, golden_trace_text
from test_corpus_digests import CORPUS_DIGESTS, corpus_digests, format_digests


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GOLDEN_RUNS:
        path = GOLDEN_DIR / f"{name}.trace"
        path.write_text(golden_trace_text(name))
        print(f"wrote {path}")
    digests = corpus_digests()
    CORPUS_DIGESTS.write_text(format_digests(digests))
    print(f"wrote {CORPUS_DIGESTS} ({len(digests)} runs)")


if __name__ == "__main__":
    main()
