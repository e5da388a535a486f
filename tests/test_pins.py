"""The six pinned output fixtures of tests/fixtures/pin.py: each file holds
what its function computes today, in the layout the writer gives it."""
import json

import pytest

from fixtures import pin


@pytest.mark.parametrize("name", pin.PINS)
def test_pinned_outputs_have_not_moved(name):
    pinned = json.loads((pin.HERE / name).read_text())
    assert pin.moved(pinned, pin.computed(name)) == []
    if name == "cdc_reports.json":
        assert len(pinned) > 300


@pytest.mark.parametrize("name", pin.PINS)
def test_each_pin_file_is_a_fixed_point_of_the_writer(name):
    text = (pin.HERE / name).read_text()
    assert pin.dump(json.loads(text)) == text
