import pytest

from crl_lab import cli


@pytest.fixture(scope="session", autouse=True)
def cli_malloc_thresholds():
    """Run every test under the allocator setting that each CLI call makes,
    also the acceptance criteria that train in this process."""
    cli.fix_malloc_thresholds()
