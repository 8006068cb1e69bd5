import re
from decimal import Decimal
from pathlib import Path

import pytest

import twobridge
from twobridge import (
    Mode,
    avg_genus,
    avg_genus_mirror,
    cf_value,
    contfrac,
    correction,
    correction_mirror,
    enumerate_classes,
    enumerate_sequences,
    enumeration,
    even_expansion,
    formulas,
    identities,
    identity_suite,
    knots,
    residual,
    residual_mirror,
    stratum_closed_A,
    stratum_closed_B,
    tallies,
    tally,
    tg_closed,
    tg_mirror_closed,
    tk_closed,
    tk_mirror_closed,
)

README = Path(__file__).resolve().parent.parent / "README.md"
D = Mode.MIRROR_DISTINCT

# Every public entry point that takes an integer argument: its id, the
# argument's name in the error, and the call with that argument set to v.
GUARDED = [
    *[(fn.__name__, "crossing number", fn) for fn in (
        tk_closed, tg_closed, tk_mirror_closed, tg_mirror_closed, correction,
        correction_mirror, avg_genus, avg_genus_mirror, residual, residual_mirror)],
    ("stratum_closed_A-k", "k", lambda v: stratum_closed_A(v, 0, "odd")),
    ("stratum_closed_A-l", "l", lambda v: stratum_closed_A(3, v, "even")),
    ("stratum_closed_B-k", "k", lambda v: stratum_closed_B(v, 0, "even")),
    ("stratum_closed_B-l", "l", lambda v: stratum_closed_B(3, v, "odd")),
    ("tallies-c", "crossing number", lambda v: tallies([v])),
    ("tallies-threads", "threads", lambda v: tallies([5], threads=v)),
    ("tally-threads", "threads", lambda v: tally(5, D, threads=v)),
    ("enumerate_sequences", "crossing number", lambda v: next(enumerate_sequences(v))),
    ("enumerate_classes", "crossing number", lambda v: next(enumerate_classes(v, D))),
    ("identity_suite", "n_max", identity_suite),
    ("wellknown_check", "n_max", identities.wellknown_check),
    ("x2_specialization_check", "n_max", identities.x2_specialization_check),
    ("weighted_sum_check", "n_max", identities.weighted_sum_check),
    ("alpha_recurrence_check", "n_max", lambda v: identities.alpha_recurrence_check(v, 2)),
    ("alpha_sum", "n", lambda v: identities.alpha_sum(v, 2)),
    ("beta_sum", "n", lambda v: identities.beta_sum(v, 2)),
    ("cf_value-first", "entry 0", lambda v: cf_value([v, 2])),
    ("cf_value-last", "entry 3", lambda v: cf_value((2, -2, 4, v))),
]

NON_INTS = {"True": True, "7.0": 7.0, "5000x": "x" * 5000}

# One call below each lower bound: (id, argument, bound, call with that argument set to v).
BELOW = [
    ("crossing_number", "crossing number", 3, tk_closed),
    ("k_even", "k", 2, lambda v: stratum_closed_A(v, 0, "even")),
    ("k_odd", "k", 1, lambda v: stratum_closed_B(v, 0, "odd")),
    ("l", "l", 0, lambda v: stratum_closed_A(3, v, "odd")),
    ("threads", "threads", 1, lambda v: tallies([5], threads=v)),
    ("alpha_sum", "n", 0, lambda v: identities.alpha_sum(v, 2)),
    ("beta_sum", "n", 0, lambda v: identities.beta_sum(v, 2)),
]

# Every public entry point that takes an exact point: its id and the call with the point v.
EXACT = [
    ("even_expansion", even_expansion),
    ("alpha_sum", lambda v: identities.alpha_sum(3, v)),
    ("beta_sum", lambda v: identities.beta_sum(3, v)),
    ("alpha_recurrence_check", lambda v: identities.alpha_recurrence_check(8, v)),
]

# Points that are no int and no Fraction, each with its exact message where one is pinned.
NON_EXACT = {
    "0.1": (0.1, "0.1 is a float; pass a Fraction or an int"),
    "True": (True, "True is a bool; pass a Fraction or an int"),
    "False": (False, "False is a bool; pass a Fraction or an int"),
    "text": ("2/5", None),
    "Decimal": (Decimal("0.4"), None),
    "5000x": ("x" * 5000, None),
}


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


@pytest.mark.parametrize("value", list(NON_INTS.values()), ids=list(NON_INTS))
@pytest.mark.parametrize("name,call", [row[1:] for row in GUARDED], ids=[row[0] for row in GUARDED])
def test_non_int_refused_by_name(name, call, value):
    # A bool is no number: True must not count as 1.
    with pytest.raises(TypeError) as err:
        call(value)
    message = str(err.value)
    assert message.startswith(f"{name} ") and message.endswith(" is not an int"), message
    assert len(message) < 200, message


@pytest.mark.parametrize("huge", [False, True], ids=["by_one", "huge"])
@pytest.mark.parametrize("name,low,call", [row[1:] for row in BELOW], ids=[row[0] for row in BELOW])
def test_below_bound_refused_by_name(name, low, call, huge):
    # -10**5000 is past the int/text digit limit, so the message gives its size.
    value = -(10**5000) if huge else low - 1
    with pytest.raises(ValueError) as err:
        call(value)
    message = str(err.value)
    assert message.startswith(f"{name} must be >= {low}, not "), message
    assert len(message) < 200, message


@pytest.mark.parametrize("value,pinned", list(NON_EXACT.values()), ids=list(NON_EXACT))
@pytest.mark.parametrize("call", [row[1] for row in EXACT], ids=[row[0] for row in EXACT])
def test_non_exact_point_refused(call, value, pinned):
    # True would count as x = 1 (alpha_sum(3, True) would be 8), and
    # Fraction() would parse the text and the Decimal.
    with pytest.raises(TypeError) as err:
        call(value)
    message = str(err.value)
    assert message.endswith(f" is a {type(value).__name__}; pass a Fraction or an int"), message
    assert pinned in (None, message), message
    assert len(message) < 200, message
