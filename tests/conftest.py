import pytest

from lpmln import engine


@pytest.fixture(params=[0, 1, 2, engine._LANE_BITS])
def lane_bits(request, monkeypatch):
    """Run a test with slices of 2 ** n lanes, for each n in the params."""
    monkeypatch.setattr(engine, "_LANE_BITS", request.param)
    return request.param
