import sys

import numpy as np
import pytest

from dkpair.grid_alg import AlgElement, TorusGrid
from dkpair.kclass import BasePoint, osu_validate
from dkpair.models import qwz_symbol

SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def point_grid():
    return TorusGrid(())


@pytest.fixture
def grid16():
    return TorusGrid((16, 16))


@pytest.fixture
def tgrid64():
    return TorusGrid((64,), ("time",))


def random_matrix_field(rng, grid, m, modes=2):
    """Band-limited random matrix field: trig polynomial of degree <= modes."""
    shape = (*grid.sizes, m, m)
    out = np.zeros(shape, dtype=complex)
    coords = [grid.coordinates(a) for a in range(grid.d)]
    if grid.d == 0:
        return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    for _ in range(4):
        ns = rng.integers(-modes, modes + 1, grid.d)
        amp = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        phase = np.ones(grid.sizes, dtype=complex)
        for axis, n in enumerate(ns):
            sh = [1] * grid.d
            sh[axis] = coords[axis].size
            period = coords[axis][1] * coords[axis].size
            phase = phase * np.exp(2j * np.pi * n * coords[axis] / period).reshape(sh)
        out += phase[..., None, None] * amp
    return out


def random_element(rng, grid, m, k, modes=2, parity=None):
    x = AlgElement(grid, m, k)
    for mask in range(1 << k):
        if parity is not None and bin(mask).count("1") % 2 != parity:
            continue
        x.data[mask] = random_matrix_field(rng, grid, m, modes)
    return x


def random_hermitian_field(rng, grid, m, modes=2, shift=0.0):
    f = random_matrix_field(rng, grid, m, modes)
    h = (f + np.conj(np.swapaxes(f, -1, -2))) / 2
    return AlgElement.from_matrix_field(grid, h + shift * np.eye(m))


def ko2_generator(point_grid):
    """Base point, generator and auxiliary symmetry of the order-two class
    carried by quaternion-like 2x2 real-structure data."""
    e = AlgElement(point_grid, 2, 1)
    e.data[1] = -SY
    x = AlgElement(point_grid, 2, 1)
    x.data[1] = SY
    y = AlgElement(point_grid, 2, 1)
    y.data[0] = 1j * SY
    return osu_validate(x, 1e-12), BasePoint(e), y


def spin_y(grid, m):
    """diag(-i, i) (x) 1 on a spin-doubled block of total size m."""
    y = AlgElement(grid, m, 1)
    y.data[0] = np.kron(np.diag([-1j, 1j]), np.eye(m // 2))
    return y


def chern_fhs(p: AlgElement) -> float:
    """Plaquette Berry-flux Chern number of a projection field (independent
    oracle; equals minus the convention of pairing.chern_number)."""
    arr = p.data[0]
    n1, n2 = arr.shape[0], arr.shape[1]
    w, v = np.linalg.eigh(arr)
    rank = int(round(w[0, 0].sum().real))
    frames = v[..., arr.shape[-1] - rank:]
    u1 = np.zeros((n1, n2), complex)
    u2 = np.zeros((n1, n2), complex)
    for i in range(n1):
        for j in range(n2):
            f = frames[i, j]
            u1[i, j] = np.linalg.det(np.conj(f.T) @ frames[(i + 1) % n1, j])
            u2[i, j] = np.linalg.det(np.conj(f.T) @ frames[i, (j + 1) % n2])
    total = 0.0
    for i in range(n1):
        for j in range(n2):
            z = u1[i, j] * u2[(i + 1) % n1, j] / (u1[i, (j + 1) % n2] * u2[i, j])
            total += np.angle(z)
    return total / (2 * np.pi)


def count_calls(monkeypatch, fn):
    """Wrap every binding of fn in the loaded dkpair modules; returns the
    list of first arguments the calls receive."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "dkpair" or name.startswith("dkpair."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.fixture
def qwz_osu(grid16):
    from dkpair.kclass import make_osu_from_hamiltonian
    x = make_osu_from_hamiltonian(qwz_symbol(grid16, 1.0))
    e = BasePoint.standard_rho(grid16, 2, 1, sign=-1)
    return x, e
