import shutil

import pytest

from gvccarbon import ingest, synthetic

#: The file names of kept accounts entries in a cache directory.
ACCOUNTS_GLOB = f"*.{ingest.ACCOUNTS_TAG}.npy"


def kept_accounts(config_path):
    """Names of the kept accounts entries beside the tables of a config."""
    cache = config_path.parent / ingest.CACHE_DIR
    return sorted(p.name for p in cache.glob(ACCOUNTS_GLOB))


def drop_kept_accounts(config_path):
    for name in kept_accounts(config_path):
        (config_path.parent / ingest.CACHE_DIR / name).unlink()


@pytest.fixture(scope="session")
def demo_config(tmp_path_factory):
    """One shared demo data directory; returns its config path."""
    target = tmp_path_factory.mktemp("demo-data")
    return synthetic.write_demo_dataset(target, seed=0)


@pytest.fixture
def cold_demo_config(demo_config, tmp_path):
    """A copy of the demo data directory without its kept accounts, so that
    a run parses and solves every year. Returns its config path."""
    target = tmp_path / "cold-demo"
    shutil.copytree(demo_config.parent, target,
                    ignore=shutil.ignore_patterns(ACCOUNTS_GLOB))
    return target / demo_config.name
