import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """Set the int/text digit limit of Python 3.11+ to 640, its smallest, and restore it after.

    Skips on Python 3.10, which has no limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python 3.10 has no int/text digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)
