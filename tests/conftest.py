"""Shared fixtures: build each algebra once per test session, and keep the
default algebra cache inside the session's temporary directory."""

import pytest

from confsys.cache import ENV_CACHE_DIR
from confsys.diffops import OperatorCalculus
from confsys.liealg import build_lie_algebra
from confsys.omega import OmegaSystem
from confsys.pbw import Enveloping
from confsys.roots import RootSystemSpec, build_root_system
from confsys.verma import VermaModule


@pytest.fixture(scope="session", autouse=True)
def isolated_cache_dir(tmp_path_factory):
    """Point the default cache directory (tests that pass no cache_dir, and
    the processes they start) away from the user's cache."""
    path = tmp_path_factory.mktemp("confsys-cache")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(ENV_CACHE_DIR, str(path))
        yield path


def _make(label: str):
    return build_lie_algebra(build_root_system(RootSystemSpec.parse(label)),
                             check=False)


@pytest.fixture(scope="session")
def alg_d4():
    return _make("D4")


@pytest.fixture(scope="session")
def alg_a3():
    return _make("A3")


@pytest.fixture(scope="session")
def alg_d5():
    return _make("D5")


@pytest.fixture(scope="session")
def env_d4(alg_d4):
    return Enveloping(alg_d4)


@pytest.fixture(scope="session")
def normal_order(env_d4):
    """Normal-ordered image in U(g) of D4 of a left-to-right product of
    basis vectors."""
    def product(word: list[int]):
        out = env_d4.one()
        for g in word:
            out = env_d4.mul(out, env_d4.gen(g))
        return out
    return product


@pytest.fixture(scope="session")
def verma_d4(env_d4):
    return VermaModule(env_d4)


@pytest.fixture(scope="session")
def omega_d4(env_d4):
    return OmegaSystem(env_d4)


@pytest.fixture(scope="session")
def calc_d4(alg_d4):
    return OperatorCalculus(alg_d4)
