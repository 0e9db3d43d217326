"""Every repo file the docs and the source docstrings name exists."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / name for name in
        ("README.md", "DESIGN.md", "EXPERIMENTS.md", "src/repro/lint/README.md")]
_PATH = re.compile(
    r"(?<![\w/.-])((?:benchmarks|tests|examples|src|vectors)/[\w./-]*\.(?:py|md|vec|json|toml))"
)


def test_named_files_exist():
    dangling = sorted(
        f"{source.relative_to(ROOT)}: {match.group(1)}"
        for source in DOCS + sorted((ROOT / "src").rglob("*.py"))
        for match in _PATH.finditer(source.read_text(encoding="utf-8"))
        if not (ROOT / match.group(1)).exists()
    )
    assert not dangling, "\n".join(dangling)
