"""Report the conditions in src/specsim that the test suite only ever sees
one way.

Copies src/specsim to a temporary directory and rewrites every condition
there to pass through a recording hook: the test of each if, while and
conditional expression, each operand of an and/or, and each comprehension
if. Then runs the suite against the copy and prints, for each condition
that never came out both true and false,

    file:line only-true|only-false|never source

A condition that only ever comes out one way is a candidate for deletion
(it may restate a fact the code already guarantees) or for a new test.
The suite runs about twice as slowly instrumented. pytest does not
collect this file; run it from the repository root:

    python tests/branch_outcomes.py [pytest args...]
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specsim"
# The hook's name in every rewritten module. No leading double underscore:
# inside a class body that would be mangled to _Class__name.
HOOK = "branch_outcome"
PROBE = "specsim_branch_probe"

# The module the rewritten code imports the hook from. Each process that
# imports it writes the outcomes it saw to its own file in OUTCOMES_DIR.
PROBE_SOURCE = f'''
import atexit, json, os

seen = {{}}


def {HOOK}(site, value):
    seen.setdefault(site, set()).add(bool(value))
    return value


@atexit.register
def _dump():
    path = os.path.join(os.environ["OUTCOMES_DIR"], f"{{os.getpid()}}.json")
    with open(path, "w") as f:
        json.dump({{site: sorted(v) for site, v in seen.items()}}, f)
'''


class Instrument(ast.NodeTransformer):
    """Wraps each condition in a call HOOK(site, condition), which returns
    the condition's value unchanged, so short-circuiting and the value of
    an and/or stay as they were. Sites are "file:line:col" of the
    original source, listed in ``sites`` with their text."""

    def __init__(self, name: str, source: str):
        self.name, self.source = name, source
        self.sites: dict[str, str] = {}

    def wrap(self, node: ast.expr) -> ast.expr:
        site = f"{self.name}:{node.lineno}:{node.col_offset}"
        self.sites[site] = " ".join((ast.get_source_segment(self.source, node) or "").split())
        call = ast.Call(ast.Name(HOOK, ast.Load()), [ast.Constant(site), node], [])
        return ast.copy_location(call, node)

    def visit_If(self, node):
        self.generic_visit(node)
        node.test = self.wrap(node.test)
        return node

    visit_While = visit_If
    visit_IfExp = visit_If

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        node.values = [self.wrap(v) for v in node.values]
        return node

    def visit_comprehension(self, node):
        self.generic_visit(node)
        node.ifs = [self.wrap(c) for c in node.ifs]
        return node


def instrument(src: Path, dest: Path) -> dict[str, str]:
    """Write a rewritten copy of every module of src into dest; return the
    sites with their source text."""
    sites: dict[str, str] = {}
    dest.mkdir(parents=True)
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        tool = Instrument(path.name, source)
        tree = tool.visit(tree)
        sites.update(tool.sites)
        # The import goes after the docstring and any __future__ import.
        body = tree.body
        at = 0 if ast.get_docstring(tree) is None else 1
        while at < len(body) and isinstance(body[at], ast.ImportFrom) and body[at].module == "__future__":
            at += 1
        body.insert(at, ast.ImportFrom(PROBE, [ast.alias(HOOK)], 0))
        (dest / path.name).write_text(ast.unparse(ast.fix_missing_locations(tree)))
    return sites


def one_sided(sites: dict[str, str], seen: dict[str, set[bool]]) -> list[str]:
    """One report line per condition not seen both ways, in source order."""
    out = []
    for site in sorted(sites, key=lambda s: (s.split(":")[0], *map(int, s.split(":")[1:]))):
        got = seen.get(site, set())
        if len(got) == 2:
            continue
        outcome = "never" if not got else "only-true" if True in got else "only-false"
        name, line, _ = site.split(":")
        out.append(f"{name}:{line} {outcome} {sites[site]}")
    return out


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy, outcomes = Path(tmp) / "src", Path(tmp) / "outcomes"
        sites = instrument(PACKAGE, copy / "specsim")
        (copy / f"{PROBE}.py").write_text(PROBE_SOURCE)
        outcomes.mkdir()
        env = dict(os.environ, OUTCOMES_DIR=str(outcomes))
        # The suite's ini puts src first on sys.path; point it at the copy.
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={copy}", *argv]
        code = subprocess.call(cmd, cwd=ROOT, env=env)
        seen: dict[str, set[bool]] = {}
        for path in outcomes.glob("*.json"):
            for site, values in json.loads(path.read_text()).items():
                seen.setdefault(site, set()).update(values)
    for line in one_sided(sites, seen):
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
