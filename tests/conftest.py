"""Shared fixtures: build each algebra once per test session, and keep the
default algebra cache inside the session's temporary directory.  Also the
rational references the int kernels are compared against: the inverse by
rref, and the quadratic and cubic maps with a Fraction per term."""

from fractions import Fraction as Q

import pytest

from confsys.cache import ENV_CACHE_DIR
from confsys.diffops import OperatorCalculus
from confsys.liealg import build_lie_algebra
from confsys.linalg import rref
from confsys.memo import memo
from confsys.omega import OmegaSystem
from confsys.pbw import Elt, Enveloping, elt_add, elt_scale
from confsys.roots import RootSystemSpec, build_root_system
from confsys.verma import VermaModule


def inverse(m):
    """The inverse of a square rational matrix by rref, or None."""
    n = len(m)
    aug = [list(m[i]) + [Q(1) if i == j else Q(0) for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def random_dual_bases(alg, rng):
    """A random basis of V+, with coefficients in [-3, 3], and its dual basis
    of V- under the form."""
    m = len(alg.v_plus)
    while True:
        a = [[Q(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        binv = inverse(a)
        if binv is not None:
            break
    w_basis = [{alg.v_plus[j]: a[i][j] for j in range(m) if a[i][j]}
               for i in range(m)]
    w_dual = [{alg.opposite[alg.v_plus[k]]: binv[k][i]
               for k in range(m) if binv[k][i]} for i in range(m)]
    return w_basis, w_dual


class RationalOmega:
    """OmegaSystem's quadratic and cubic maps with one Fraction per term:
    the oracle for its int kernel."""

    def __init__(self, env: Enveloping):
        self.env, self.alg = env, env.alg
        opposite = self.alg.opposite
        self._legs = []
        for b in self.alg.v_plus:
            c, n = self.alg.partner[b]
            self._legs.append((opposite[c], opposite[b], n))

    @memo
    def omega2_basis(self, i: int) -> Elt:
        env, alg = self.env, self.alg
        if alg.grade[i] != 0:
            raise ValueError(f"basis index {i} is not in the Levi factor")
        half_dchi = Q(alg.dchi_on_basis[i], 2)
        out: Elt = {}
        for mcomp_idx, mb_idx, pair_n in self._legs:
            t = dict(alg.table[i][mcomp_idx])
            if half_dchi:
                t[mcomp_idx] = t.get(mcomp_idx, 0) + half_dchi
            for j, cj in t.items():
                if not cj:
                    continue
                term = env.mono_mul(((j, 1),), ((mb_idx, 1),))
                out = elt_add(out, elt_scale(term, Q(-1, 2) * pair_n * cj))
        return out

    def omega2(self, z) -> Elt:
        out: Elt = {}
        for i, c in z.items():
            w2 = self.omega2_basis(i)
            if c:
                out = elt_add(out, elt_scale(w2, c))
        return out

    def omega3_from_basis(self, w_basis, w_dual, y) -> Elt:
        env = self.env
        inner: dict[int, Elt] = {}
        for w, wstar in zip(w_basis, w_dual):
            w2 = self.omega2(self.alg.bracket_elem(w, y))
            if not w2:
                continue
            for c, b in wstar.items():
                inner[c] = elt_add(inner.get(c, {}), elt_scale(w2, b))
        out: Elt = {}
        for c, acc in inner.items():
            out = elt_add(out, env.mul(env.gen(c), acc))
        return out


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
def verma_d4(alg_d4):
    return VermaModule(alg_d4)


@pytest.fixture(scope="session")
def omega_d4(env_d4):
    return OmegaSystem(env_d4.alg)


@pytest.fixture(scope="session")
def calc_d4(alg_d4):
    return OperatorCalculus(alg_d4)
