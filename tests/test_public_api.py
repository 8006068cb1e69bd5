import re
from pathlib import Path

import twobridge
from twobridge import contfrac, enumeration, formulas, identities, knots

README = Path(__file__).resolve().parent.parent / "README.md"


def public_api_bullets():
    """The bullet list that opens README's "Public API" section."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("- "))
    end = next(i for i in range(start, len(lines)) if not lines[i].strip())
    return "\n".join(lines[start:end])


def test_readme_public_api_names_exactly_all():
    # A backticked identifier is an API name when the package or one of
    # its modules defines it; the rest are methods, fields and builtins.
    modules = (twobridge, contfrac, enumeration, formulas, identities, knots)
    named = {
        token.split("(")[0]
        for token in re.findall(r"`([^`]+)`", public_api_bullets())
    }
    defined = {n for n in named if any(hasattr(m, n) for m in modules)}
    assert defined == set(twobridge.__all__)
