import gc
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixture_path():
    """Absolute path of a bundled description fixture by file name."""

    def get(name: str) -> str:
        return str(FIXTURES / name)

    return get


@pytest.fixture(autouse=True)
def collector_setting_kept(request):
    """Fail a test that leaves the cyclic collector switched other than it
    found it; the setting is put back first, so later tests run as usual."""
    enabled = gc.isenabled()
    yield
    if gc.isenabled() != enabled:
        (gc.enable if enabled else gc.disable)()
        pytest.fail(
            f"{request.node.nodeid} left gc.isenabled() {not enabled}, found {enabled}",
            pytrace=False,
        )
