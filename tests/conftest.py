import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """Set the int/text digit limit to 640, its smallest, and restore it after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)
