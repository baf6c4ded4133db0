"""Seeded inputs, solves and reference checks of the three benchmark workloads.

A workload object does its set-up in the constructor (seeded model
parameters, config files and, for ``floquet-drive``, the contraction-grid
files) and then answers ``solve(i)``: one unit of user work, checked against
the reference the seed implies.  dkpair sees only the generated configs and
grid files.  CLI commands run in-process through ``dkpair.cli.main``; the
torsion routes have no command and go through the public API.

dkpair functions are always reached through their module (``pairing.pair``,
never a name imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dkpair import cli, floquet, gridio, kclass, models, pairing
from dkpair.grid_alg import AlgElement, TorusGrid

TOPOLOGICAL, TRIVIAL = "topological", "trivial"
# Chern number of the positive-energy band of one QWZ block, per window
BLOCK_CHERN = {TOPOLOGICAL: 1, TRIVIAL: 0}


@dataclass(frozen=True)
class Profile:
    """Problem sizes and tolerances.  `full` is what the benchmark measures;
    `tiny` only exercises the plumbing in the smoke test."""

    z2_grid: int
    torsion_grid: int
    torsion_order: int
    floquet_grid: int
    floquet_tgrid: int
    cli_tol: float
    route_tol: float
    # share of each mass window kept, around its centre; small grids only
    # resolve masses far from the gap closings at 0, 2 and 4
    window_share: float


PROFILES = {
    "full": Profile(z2_grid=64, torsion_grid=32, torsion_order=32,
                    floquet_grid=24, floquet_tgrid=128,
                    cli_tol=1e-6, route_tol=1e-6, window_share=1.0),
    "tiny": Profile(z2_grid=24, torsion_grid=12, torsion_order=8,
                    floquet_grid=12, floquet_tgrid=32,
                    cli_tol=5e-2, route_tol=5e-2, window_share=0.1),
}


class SolveFailure(Exception):
    """A solve whose command failed or whose output differs from the reference."""


def run_cli(argv: list[str]) -> dict:
    """Run one dkpair command in-process and return its JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SolveFailure(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    report = json.loads(out.getvalue())
    if report["status"] != "ok":
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        raise SolveFailure(f"{argv[0]} status {report['status']}: {failed}")
    return report


def expect(name: str, got, want):
    if got != want:
        raise SolveFailure(f"{name} = {got!r}, reference {want!r}")


def hoppings_json(hoppings: dict) -> list[dict]:
    return [{"offset": list(off),
             "matrix": np.stack([mat.real, mat.imag], axis=-1).tolist()}
            for off, mat in hoppings.items()]


def write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def qwz_block(mass: float, layers: int) -> dict:
    """QWZ hoppings, stacked `layers` times (Chern number `layers` x C)."""
    return {off: np.kron(np.eye(layers), mat)
            for off, mat in models.qwz_hoppings(mass).items()}


def hopping_noise(rng, m: int, amp: float) -> dict:
    """Random onsite and nearest-neighbour terms, each of spectral norm amp.
    M_{-n} = M_n^dagger keeps H(k) hermitian; the five terms move the
    spectrum by at most 5 amp, which leaves every window's gap open."""
    def rand():
        return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))

    onsite = rand()
    onsite = onsite + onsite.conj().T
    noise = {(0, 0): amp * onsite / np.linalg.norm(onsite, 2)}
    for off in ((1, 0), (0, 1)):
        b = rand()
        b *= amp / np.linalg.norm(b, 2)
        noise[off] = b
        noise[(-off[0], -off[1])] = b.conj().T
    return noise


def window(bounds: tuple[float, float], profile: Profile) -> tuple[float, float]:
    centre, half = (bounds[0] + bounds[1]) / 2, (bounds[1] - bounds[0]) / 2
    return centre - profile.window_share * half, centre + profile.window_share * half


def draw_window(rng, windows: dict, profile: Profile) -> tuple[str, float]:
    kind = (TOPOLOGICAL, TRIVIAL)[int(rng.integers(2))]
    return kind, float(rng.uniform(*window(windows[kind], profile)))


# ---------------------------------------------------------------------------
# z2-sweep
# ---------------------------------------------------------------------------

class Z2Sweep:
    """One solve is one sweep point: a two-band QWZ block and a stacked
    four-band block (spin Chern 2), each with its own seeded mass window and
    hopping noise.  Each block goes through `pair --cycle ch2`, and its spin
    doubling through `z2`."""

    # at grid 64 both windows keep the integerness residual below 1e-6
    WINDOWS = {TOPOLOGICAL: (0.3, 1.7), TRIVIAL: (2.3, 3.5)}
    NOISE = 0.006
    POOL = 16

    def __init__(self, seed: int, profile: Profile, workdir: Path):
        rng = np.random.default_rng(seed)
        self.grid = str(profile.z2_grid)
        self.tol = str(profile.cli_tol)
        self.points = []
        for j in range(self.POOL):
            models_j = []
            for layers in (1, 2):
                kind, mass = draw_window(rng, self.WINDOWS, profile)
                m = 2 * layers
                hops = qwz_block(mass, layers)
                for off, mat in hopping_noise(rng, m, self.NOISE).items():
                    hops[off] = hops.get(off, 0) + mat
                raw = {"dimension": 2, "matrix_size": m,
                       "hoppings": hoppings_json(hops)}
                block = write_json(workdir / f"z2_{j}_{m}_block.json", raw)
                tri = write_json(workdir / f"z2_{j}_{m}_tri.json",
                                 {**raw, "spin_doubling": True,
                                  "real_structure": "quaternionic"})
                models_j.append({"matrix_size": m, "window": kind,
                                 "mass": mass, "chern": layers * BLOCK_CHERN[kind],
                                 "block": block, "tri": tri})
            self.points.append(models_j)

    def inputs(self, i: int) -> list[dict]:
        return [{k: v for k, v in mod.items() if k not in ("block", "tri")}
                for mod in self.points[i % self.POOL]]

    def solve(self, i: int) -> list[dict]:
        values = []
        for mod in self.points[i % self.POOL]:
            tag = f"m={mod['matrix_size']}"
            pair = run_cli(["pair", "--cycle", "ch2", "--config", mod["block"],
                            "--grid", self.grid, "--tol", self.tol])
            z2 = run_cli(["z2", "--config", mod["tri"],
                          "--grid", self.grid, "--tol", self.tol])
            chern = mod["chern"]
            expect(f"{tag} chern", pair["values"]["chern"]["rounded"], chern)
            expect(f"{tag} spin_chern", z2["values"]["spin_chern"]["rounded"], chern)
            expect(f"{tag} z2_class", z2["values"]["z2_class"]["rounded"], chern % 2)
            values.append({
                "chern": pair["values"]["chern"]["value"],
                "pairing_re": pair["values"]["pairing"]["re"],
                "spin_chern": z2["values"]["spin_chern"]["value"],
                "torsion_pairing": z2["values"]["torsion_pairing"]["value"],
                "z2_class": z2["values"]["z2_class"]["rounded"],
            })
        return values


# ---------------------------------------------------------------------------
# km-torsion
# ---------------------------------------------------------------------------

class KmTorsion:
    """One solve is one seeded decoupled TRI model; the Kane-Mele torsion
    class is computed by the closed form and by the suspended pairing of the
    four-segment torsion loop, and the two routes must agree."""

    # narrower than z2-sweep's: at grid 32 the two routes differ by 4e-5 at
    # mass 0.3, and by less than 1e-8 inside these windows
    WINDOWS = {TOPOLOGICAL: (0.7, 1.5), TRIVIAL: (2.7, 3.5)}
    POOL = 16

    def __init__(self, seed: int, profile: Profile, workdir: Path):
        rng = np.random.default_rng(seed)
        self.n = profile.torsion_grid
        self.order = profile.torsion_order
        self.tol = profile.route_tol
        self.points = [draw_window(rng, self.WINDOWS, profile)
                       for _ in range(self.POOL)]

    def inputs(self, i: int) -> dict:
        kind, mass = self.points[i % self.POOL]
        return {"window": kind, "mass": mass}

    def solve(self, i: int) -> dict:
        kind, mass = self.points[i % self.POOL]
        grid = TorusGrid((self.n, self.n))
        h = models.decoupled_tri_symbol(grid, mass)
        x = kclass.make_osu_from_hamiltonian(h)
        e = kclass.BasePoint.standard_rho(grid, h.m, 1, sign=-1)
        y = AlgElement(grid, h.m, 1)
        y.data[0] = np.kron(np.diag([-1j, 1j]), np.eye(h.m // 2))
        cycle = pairing.ch2()
        modulus = pairing.MODULUS_KANE_MELE_CH2
        closed = pairing.torsion_pairing_closed_form(cycle, x, e, y, modulus)
        loop = kclass.torsion_loop(x, e, y, rs=models.quaternionic_structure(k=1),
                                   derivations=cycle.derivations, order=self.order)
        via_loop = pairing.torsion_pairing_via_loop(cycle, loop, modulus)
        distance = closed.distance(via_loop)
        if not distance <= self.tol:
            raise SolveFailure(f"torsion routes differ by {distance:.3e}")
        want = BLOCK_CHERN[kind] % 2
        expect("closed-form class", closed.z2_class(2 * np.pi), want)
        expect("loop class", via_loop.z2_class(2 * np.pi), want)
        return {"closed_form": closed.value, "via_loop": via_loop.value,
                "distance": distance, "z2_class": want}


# ---------------------------------------------------------------------------
# floquet-drive
# ---------------------------------------------------------------------------

class FloquetDrive:
    """One solve is one palindromic drive [A 1/4, B 1/2, A 1/4] through the
    `floquet` command twice: strategy `decoupled`, and strategy
    `user_supplied` with contraction grids written during set-up.  Solves
    alternate between a topological and a trivial drive."""

    # A and B are spin-doubled, scaled QWZ blocks with masses in one window.
    # Where sin k vanishes their z components share a sign, so the
    # stroboscopic phases stay off 0; at scale <= 0.45 they stay below
    # 0.45 * 5.5 < pi.  At grid 24 the windows keep the Chern residual of
    # the decoupled route below 2e-7 (6e-6 at mass 0.6).
    WINDOWS = {TOPOLOGICAL: (0.9, 1.4), TRIVIAL: (2.9, 3.5)}
    SCALES = (0.25, 0.45)
    ARC = ("0", repr(float(np.pi)))

    def __init__(self, seed: int, profile: Profile, workdir: Path):
        rng = np.random.default_rng(seed)
        self.common = ["--grid", str(profile.floquet_grid),
                       "--tgrid", str(profile.floquet_tgrid),
                       "--arc0", self.ARC[0], "--arc1", self.ARC[1],
                       "--tol", str(profile.cli_tol)]
        self.drives = []
        for d, kind in enumerate((TOPOLOGICAL, TRIVIAL)):
            masses = rng.uniform(*window(self.WINDOWS[kind], profile), size=2)
            scales = rng.uniform(*self.SCALES, size=2)
            hops = [{off: s * mat for off, mat in models.qwz_hoppings(mass).items()}
                    for mass, s in zip(masses, scales)]
            segments = [(0.25, hops[0]), (0.5, hops[1]), (0.25, hops[0])]
            raw = {"dimension": 2, "matrix_size": 2, "spin_doubling": True,
                   "real_structure": "quaternionic",
                   "hoppings": hoppings_json(hops[0]),
                   "drive": {"period": 1.0, "segments": [
                       {"duration": tau, "hoppings": hoppings_json(h)}
                       for tau, h in segments]}}
            config = write_json(workdir / f"floquet_{d}.json", raw)
            files = self._write_contractions(raw, profile, workdir / f"floquet_{d}")
            self.drives.append({"window": kind, "masses": masses.tolist(),
                                "scales": scales.tolist(), "config": config,
                                "contraction": files})

    @staticmethod
    def _write_contractions(raw: dict, profile: Profile, stem: Path) -> list[str]:
        """Second halves of the decoupled contractions of both branches, on
        closed uniform nodes over [1/2, 1], in the binary grid format."""
        cfg = cli.ModelConfig(raw)
        drive = cfg.drive_object(cfg.grid(profile.floquet_grid))
        z0, z1 = (complex(np.exp(1j * float(a))) for a in FloquetDrive.ARC)
        files = []
        for b, branch in enumerate(floquet.branch_pair(z0, z1, drive.period)):
            loop = floquet.periodized_evolution(drive, branch, profile.floquet_tgrid)
            second = [seg for seg in floquet.decoupled_contraction(loop).segments
                      if seg.t0 >= 0.5 - 1e-12]
            samples = np.concatenate([second[0].values[0]]
                                     + [seg.values[0, 1:] for seg in second[1:]])
            path = f"{stem}_branch{b}.grid"
            gridio.write_contraction_grid(path, samples, binary=True)
            files.append(path)
        return files

    def inputs(self, i: int) -> dict:
        drive = self.drives[i % 2]
        return {k: drive[k] for k in ("window", "masses", "scales")}

    def solve(self, i: int) -> dict:
        drive = self.drives[i % 2]
        base = ["floquet", "--config", drive["config"], *self.common]
        decoupled = run_cli([*base, "--strategy", "decoupled"])
        supplied = run_cli([*base, "--strategy", "user_supplied",
                            "--contraction", *drive["contraction"]])
        k_dec = decoupled["values"]["k_invariant"]["value"]
        k_sup = supplied["values"]["k_invariant"]["value"]
        expect("user_supplied K vs decoupled K", k_sup, k_dec)
        expect("K", k_dec, float(BLOCK_CHERN[drive["window"]]))
        return {"k_invariant": k_dec,
                "spin_chern": decoupled["values"]["spin_chern"]["value"],
                "gap_margin": decoupled["values"]["gap_margin"]["value"]}


WORKLOADS = {"z2-sweep": Z2Sweep, "km-torsion": KmTorsion,
             "floquet-drive": FloquetDrive}

# ops that must be called at least once per traced solve of each workload
# (the layer-to-metric map of the README)
EXPECTED_OPS = {
    "z2-sweep": ("grid_alg.product", "grid_alg.norm_inf",
                 "grid_alg.real_structure", "kclass.flatten",
                 "kclass.osu_validate", "pairing.pair", "pairing.closed_form",
                 "pairing.chern_number", "models.symbol", "cli"),
    "km-torsion": ("grid_alg.product", "grid_alg.derivation",
                   "grid_alg.real_structure", "kclass.torsion_loop",
                   "pairing.closed_form", "pairing.pair_suspended"),
    "floquet-drive": ("grid_alg.derivation", "pairing.chern_number",
                      "floquet.evolve", "floquet.unitary_eig",
                      "floquet.periodized_evolution", "floquet.degree_t3",
                      "gridio.read"),
}
