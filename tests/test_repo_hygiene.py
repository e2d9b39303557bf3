"""Repository hygiene: no tracked file is one ``.gitignore`` excludes,
and no Python file points at a document the repository does not have.

A tracked file that matches an ignore pattern is an artefact that was
committed by accident (a checkpoint shard, a build output) — git keeps
tracking it, so the ignore rule silently stops protecting the tree.
That check is skipped outside a git checkout (e.g. an exported source
tarball).
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args],
        capture_output=True, text=True, check=True,
    ).stdout


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git not installed")
    try:
        toplevel = _git("rev-parse", "--show-toplevel").strip()
    except subprocess.CalledProcessError:
        pytest.skip("not a git checkout")
    if Path(toplevel).resolve() != ROOT:
        pytest.skip("not the repository's own checkout")
    ignored = _git("ls-files", "-ci", "--exclude-standard").split()
    assert not ignored, (
        f"tracked files match .gitignore (committed artefacts?): {ignored}"
    )


#: A Markdown file name, with or without a directory part.
_DOC_REF = re.compile(r"[\w./-]*\w\.md\b")


def test_referenced_docs_exist():
    """Every ``.md`` file that a Python file under ``src/``, ``tests/``,
    ``benchmarks/`` or ``examples/`` names exists in the repository, so
    a docstring cannot send its reader to a document nobody wrote."""
    docs = {
        path.relative_to(ROOT).as_posix()
        for path in ROOT.rglob("*.md")
        if not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
    }
    missing = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for name in _DOC_REF.findall(path.read_text(encoding="utf-8")):
                name = name.lstrip("./")
                if not any(doc == name or doc.endswith("/" + name) for doc in docs):
                    missing.append(f"{path.relative_to(ROOT)}: {name}")
    assert not missing, f"Python files name missing documents: {missing}"


#: Modules on the filter's per-key path, which must never materialise
#: an instance dict.  On CPython 3.11 ``vars(obj)`` or ``obj.__dict__``
#: turns a split instance dict's inline values into a dict object that
#: no specialised attribute store accepts, so every later store on the
#: object takes the generic path.  The per-key C ``access`` wrapper
#: stores ``flt.total_accesses += 1``; as a loop over a filter bound to
#: ``c`` that store read 49 ns per iteration, and 110 ns once a
#: ``vars(flt)`` had run (Python 3.11.7, 2-vCPU Xeon VM, best of 7).
_NO_INSTANCE_DICT = (
    "src/repro/filters/auto_cuckoo.py",
    "src/repro/engine/c_backend.py",
)


@pytest.mark.parametrize("path", _NO_INSTANCE_DICT)
def test_filter_path_never_materialises_an_instance_dict(path):
    text = (ROOT / path).read_text(encoding="utf-8")
    for probe in ("vars(", "__dict__"):
        assert probe not in text, f"{path} uses {probe}"
