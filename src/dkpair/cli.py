"""Command-line front end: model construction from JSON configs, invariant
computation commands, verification suites, machine-readable reports.

Exit codes: 0 success, 2 validation error, 3 convergence/integerness
failure or a failed report check, 4 spectral gap closed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import floquet as fl
from . import models, pairing
from .grid_alg import AlgElement, TorusGrid, check_invariance, even_subgrid
from .kclass import (BasePoint, GapClosedError, flatten_refinement,
                     make_osu_from_hamiltonian, osu_validate)

REPORT_SCHEMA = "dkpair-report/4"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_GAP = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _as_complex_matrix(rows, m, where):
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected {m}x{m} [re, im] pairs of numbers") from exc
    if arr.shape != (m, m, 2):
        raise ConfigError(f"{where}: expected {m}x{m} [re, im] pairs, "
                          f"got shape {arr.shape}")
    # np.asarray reads a string or a boolean entry as a number: each entry,
    # as given, goes through the scalar fields' check
    for value in np.asarray(rows, dtype=object).flat:
        _number(value, float, where)
    return arr[..., 0] + 1j * arr[..., 1]


def _number(value, kind, where):
    """kind(value) when value is a finite number, neither a boolean nor a
    string, and for kind int an integral one; else a ConfigError naming it."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = float("nan")
    if isinstance(value, (bool, str)) or not abs(out) < float("inf") or kind(out) != out:
        raise ConfigError(f"{where}: expected {'an integer' if kind is int else 'a finite number'}"
                          f", got {value!r}")
    return kind(out)


def _tolerance(args) -> float:
    """--tol, a finite number >= 0, or a ConfigError naming it."""
    tol = _number(args.tol, float, "--tol")
    if tol < 0:
        raise ConfigError(f"--tol: expected a number >= 0, got {tol!r}")
    return tol


def _flag_grid(flag: str, n: int, role: str, d: int) -> TorusGrid:
    """d axes of n samples in role, or a ConfigError naming the flag that
    set n: TorusGrid's own rule judges the size."""
    try:
        return TorusGrid((n,) * d, (role,) * d)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


class ModelConfig:
    """Validated model description.

    JSON fields: dimension, matrix_size, hoppings (list of {offset, matrix}),
    optional spin_doubling, rashba (hopping list for the off-diagonal block),
    drive ({period, segments: [{duration, hoppings}]}) and real_structure,
    which restates spin_doubling: "quaternionic" with it, "none" without.
    """

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError(f"config: expected a JSON object, got {type(raw).__name__}")
        self.raw = raw
        self.dimension = _number(raw.get("dimension", 2), int, "dimension")
        if not 0 <= self.dimension <= 3:
            raise ConfigError("dimension must be 0..3")
        self.matrix_size = _number(raw.get("matrix_size", 1), int, "matrix_size")
        if self.matrix_size < 1:
            raise ConfigError("matrix_size must be positive")
        self.spin_doubling = raw.get("spin_doubling", False)
        if not isinstance(self.spin_doubling, bool):
            raise ConfigError(f"spin_doubling: expected a boolean, got {self.spin_doubling!r}")
        self.hoppings = self._parse_hoppings(raw.get("hoppings", []), "hoppings")
        self.rashba = self._parse_hoppings(raw.get("rashba", []), "rashba") \
            if "rashba" in raw else None
        implied = "quaternionic" if self.spin_doubling else "none"
        if raw.get("real_structure", implied) != implied:
            raise ConfigError(f"real_structure: expected {implied!r}, as spin_doubling is "
                              f"{str(self.spin_doubling).lower()}, got {raw['real_structure']!r}")
        self.drive = raw.get("drive")
        if self.drive is not None:
            if not (isinstance(self.drive, dict) and "period" in self.drive
                    and isinstance(self.drive.get("segments"), list)):
                raise ConfigError("drive: needs a period and a list of segments")

    def _parse_hoppings(self, items, where):
        if not isinstance(items, list):
            raise ConfigError(f"{where}: expected a list of hoppings, got {items!r}")
        out = {}
        m = self.matrix_size
        for i, item in enumerate(items):
            try:
                offset = tuple(_number(v, int, where) for v in item["offset"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"{where}[{i}]: bad offset") from exc
            if len(offset) != self.dimension:
                raise ConfigError(f"{where}[{i}]: offset dimension mismatch")
            mat = _as_complex_matrix(item.get("matrix"), m, f"{where}[{i}].matrix")
            if offset in out:
                raise ConfigError(f"{where}[{i}]: duplicate offset {offset}")
            out[offset] = mat
        return out

    @classmethod
    def load(cls, path: str) -> "ModelConfig":
        with open(path) as fh:
            return cls(json.load(fh))

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:16]

    # -- builders -----------------------------------------------------
    def grid(self, n: int) -> TorusGrid:
        """The momentum grid of --grid n."""
        return _flag_grid("--grid", n, "momentum", self.dimension)

    def block_symbol(self, grid: TorusGrid) -> AlgElement:
        try:
            return models.symbol_from_hoppings(grid, self.hoppings,
                                               self.matrix_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def symbol(self, grid: TorusGrid) -> AlgElement:
        h1 = self.block_symbol(grid)
        if not self.spin_doubling:
            if self.rashba:
                raise ConfigError("rashba terms need spin_doubling")
            return h1
        h = models.spin_double(h1)
        if self.rashba:
            r = models.block_from_hoppings(grid, self.rashba, self.matrix_size)
            m1 = self.matrix_size
            h.data[0][..., :m1, m1:] += r.data[0]
            h.data[0][..., m1:, :m1] += np.conj(np.swapaxes(r.data[0], -1, -2))
        return h

    def drive_object(self, grid: TorusGrid) -> fl.FloquetDrive:
        """The block drive of matrix_size segments; for a spin-doubled model,
        its partner doubling, which solves nothing at double size."""
        if self.drive is None:
            raise ConfigError("config has no drive section")
        if self.rashba:
            raise ConfigError("a drive takes no rashba terms: its spin blocks stay decoupled")
        period = _number(self.drive["period"], float, "drive.period")
        segments = []
        try:
            for i, seg in enumerate(self.drive["segments"]):
                try:
                    tau = _number(seg["duration"], float, f"drive[{i}]")
                except (KeyError, TypeError, ValueError) as exc:
                    raise ConfigError(f"drive[{i}]: missing or non-numeric duration") from exc
                hop = self._parse_hoppings(seg.get("hoppings", []), f"drive[{i}].hoppings")
                segments.append(
                    (tau, models.symbol_from_hoppings(grid, hop, self.matrix_size)))
            block = fl.FloquetDrive(period, tuple(segments))
            return fl.SpinDoubledDrive(block) if self.spin_doubling else block
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Report:
    def __init__(self, command: str, config_digest: str | None, grids: dict):
        self.payload = {
            "schema": REPORT_SCHEMA,
            "command": command,
            "config_digest": config_digest,
            "grids": grids,
            "values": {},
            "checks": [],
            "status": "ok",
        }
        self._t0 = time.perf_counter()

    def value(self, name, val, **extra):
        if isinstance(val, complex):
            entry = {"re": val.real, "im": val.imag}
        else:
            entry = {"value": val}
        entry.update(extra)
        self.payload["values"][name] = entry

    def check(self, name, residual, tolerance):
        """Record a contract; it passes when residual <= tolerance, so a NaN
        residual fails.  A verdict records its mismatch against 0.0."""
        residual, tolerance = float(residual), float(tolerance)
        passed = residual <= tolerance
        self.payload["checks"].append({
            "name": name, "passed": passed,
            "residual": residual, "tolerance": tolerance,
        })
        if not passed:
            self.payload["status"] = "failed"

    def finish(self, path=None):
        self.payload["wall_time_s"] = round(time.perf_counter() - self._t0, 4)
        text = json.dumps(self.payload, indent=2)
        if path:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        print(text)
        return self.payload


def _finish(report: Report, path: str | None) -> int:
    """Emit the report; a failed check makes the exit code 3."""
    report.finish(path)
    return EXIT_OK if report.payload["status"] == "ok" else EXIT_CONVERGENCE


def _quantized(report: Report, name: str, coarse: float, fine: float,
               tol: float) -> int:
    """Record a quantized value with its integerness and refinement checks."""
    n_coarse, n_fine = round(coarse), round(fine)
    report.value(name, coarse, rounded=n_coarse,
                 residual=abs(coarse - n_coarse), refined=fine,
                 refinement_stable=n_coarse == n_fine)
    report.check(f"{name}_integer",
                 max(abs(coarse - n_coarse), abs(fine - n_fine)), tol)
    report.check(f"{name}_refinement", abs(n_coarse - n_fine), 0.0)
    return n_coarse


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _refined_symbol(cfg: ModelConfig, n: int, symbol) -> AlgElement:
    """symbol(grid) on the 2n grid, the refinement of a quantized value; its
    even subgrid is the n grid.  The n grid is checked first, so a bad
    --grid fails before the model is read."""
    cfg.grid(n)
    return symbol(cfg.grid(2 * n))


def cmd_pair(cfg: ModelConfig, args) -> int:
    # ch1 reads a time circle, ch0 and ch2 the momentum grid, which a
    # dimension-0 model has none of
    grids = ({"time": args.tgrid} if args.cycle == "ch1"
             else {"momentum": args.grid} if cfg.dimension else {})
    report = Report("pair", cfg.digest(), grids)
    tol = _tolerance(args)
    cycle_name = args.cycle
    if cycle_name == "ch0":
        grid = cfg.grid(args.grid) if cfg.dimension else TorusGrid(())
        h = cfg.symbol(grid)
        x = make_osu_from_hamiltonian(h)
        e = BasePoint.standard_rho(grid, h.m, 1, sign=-1)
        val = pairing.pair(pairing.ch0(), x, e)
        report.value("pairing", val)
        rank = round(val.real)
        report.value("rank", float(rank), rounded=rank)
        report.check("integer", abs(val.real - rank), tol)
    elif cycle_name == "ch1":
        if cfg.dimension != 1:
            raise ConfigError("ch1 needs a one-dimensional model")
        grid = _flag_grid("--tgrid", args.tgrid, "time", 1)
        u = models.unitary_loop_from_modes(grid, cfg.hoppings, cfg.matrix_size)
        try:
            w = pairing.winding_number(u)
        except ValueError as exc:
            raise ConfigError(f"loop modes do not define a unitary: {exc}")
        n = round((w / (2j * np.pi)).real)
        report.value("pairing", w, winding=n)
        report.check("integer", abs(w / (2j * np.pi) - n), tol)
    elif cycle_name == "ch2":
        if cfg.dimension != 2:
            raise ConfigError("ch2 needs a two-dimensional model")
        flats = flatten_refinement(_refined_symbol(cfg, args.grid, cfg.symbol))
        ch = _quantized(report, "chern", *map(pairing.band_chern, flats), tol)
        x = osu_validate(flats[0].append_generator())
        e = BasePoint.standard_rho(x.grid, x.m, 1, sign=-1)
        val = pairing.pair(pairing.ch2(), x, e)
        report.value("pairing", val, two_pi_times=2 * np.pi * val.real)
        report.check("ray", abs(val.imag), tol)
        report.check("chern_consistency", abs(2 * np.pi * val.real - ch), tol)
    else:
        raise ConfigError(f"unknown cycle {cycle_name!r} (use ch0|ch1|ch2)")
    return _finish(report, args.report)


def cmd_z2(cfg: ModelConfig, args) -> int:
    if cfg.dimension != 2:
        raise ConfigError("z2 needs a two-dimensional model")
    if not cfg.spin_doubling:
        raise ConfigError("z2 needs a spin-doubled model")
    if cfg.rashba:
        raise ConfigError("z2 via the closed form needs a decoupled model "
                          "(no rashba terms); supply a contraction through "
                          "the floquet command otherwise")
    report = Report("z2", cfg.digest(), {"momentum": args.grid})
    tol = _tolerance(args)
    rs = models.quaternionic_structure(k=0)
    spins = []
    torsions = []
    m = cfg.matrix_size
    h1 = _refined_symbol(cfg, args.grid, cfg.block_symbol)
    # without rashba terms the model's symbol is diag(h1, f h1)
    report.check("time_reversal_invariance",
                 check_invariance(rs, models.spin_double(even_subgrid(h1))), 1e-9)
    # sign(diag(h1, f h1)) = diag(sign h1, f sign h1): one flattening of the
    # block gives the spin Chern number and the class.  With the spin
    # symmetry diag(-i, i) (x) 1 the closed form reads only the block
    # f(s1) (x) rho of the doubled class, so z2 passes it with y = i 1,
    # grid-constant like the base point: a broadcast view of one block
    signs = list(flatten_refinement(h1))
    del h1
    iy = np.zeros((2, 1, 1, m, m), dtype=complex)
    iy[0] = 1j * np.eye(m)
    while signs:
        # each of a grid's arrays is freed once read, so that no pairing
        # holds a sign or another grid's class
        s1 = signs.pop(0)
        grid = s1.grid
        spins.append(pairing.band_chern(s1))
        x = osu_validate(models.conjugate_flip(s1).append_generator())
        del s1
        e = BasePoint.standard_rho(grid, m, 1, sign=-1)
        y = AlgElement(grid, m, 1, np.broadcast_to(iy, (2, *grid.sizes, m, m)))
        torsions.append(pairing.torsion_pairing_closed_form(
            pairing.ch2(), x, e, y, pairing.MODULUS_KANE_MELE_CH2))
        del x, e, y
    sc = _quantized(report, "spin_chern", spins[0], spins[1], tol)
    report.value("torsion_pairing", torsions[0].reduced,
                 modulus=torsions[0].modulus)
    report.check("torsion_refinement", torsions[0].distance(torsions[1]), 1e-6)
    z2 = torsions[0].z2_class(2 * np.pi)
    report.value("z2_class", float(z2), rounded=z2)
    report.check("parity_consistency", (z2 - sc) % 2, 0.0)
    return _finish(report, args.report)


def cmd_floquet(cfg: ModelConfig, args) -> int:
    if cfg.dimension != 2:
        raise ConfigError("floquet needs a two-dimensional model")
    if not cfg.spin_doubling:
        raise ConfigError("floquet needs a spin-doubled model")
    if args.strategy == "user_supplied" and not args.contraction:
        raise ConfigError("user_supplied strategy needs --contraction")
    report = Report("floquet", cfg.digest(), {"momentum": args.grid})
    tol = _tolerance(args)
    z0, z1 = (complex(np.exp(1j * _number(phase, float, flag)))
              for phase, flag in ((args.arc0, "--arc0"), (args.arc1, "--arc1")))
    grid = cfg.grid(args.grid)
    drive = cfg.drive_object(grid)
    inv = fl.ArcInvariant(drive, z0, z1)
    # the decoupled route reads the spin block alone; the contraction files
    # are full size, so the degree route reads the doubled drive
    route = inv.block if args.strategy == "decoupled" else inv
    report.check("branch_identity", route.branch_identity(), 1e-9)
    report.check("time_reversal", inv.time_reversal, 1e-9)
    report.check("periodicity", fl.periodicity_residual(route.loop0), 1e-9)
    if args.strategy == "user_supplied":
        # each file is read when its branch's degree is taken
        contractions = (_read_contraction(f, (*grid.sizes, drive.m, drive.m))
                        for f in args.contraction)
        kval, degrees = inv.degrees(contractions)
        for b, (deg, n) in enumerate(zip(degrees, map(round, degrees))):
            report.value(f"degree_branch{b}", deg, rounded=n, residual=abs(deg - n))
            report.check(f"degree_branch{b}_integer", abs(deg - n), fl.DEGREE_TOL)
    else:
        kval, spin_chern = inv.decoupled()
    report.value("k_invariant", float(kval), modulus=2.0)
    # the drive's arc has twice the block's rank and the block's margin
    report.value("rank", float(route.arc.rank * drive.m // route.drive.m))
    report.value("gap_margin", float(route.arc.gap_margin))
    if args.strategy == "decoupled":
        del inv, route, drive  # the n grid's arrays, before the 2n grid's
        kfine, fine = fl.ArcInvariant(cfg.drive_object(cfg.grid(2 * args.grid)),
                                      z0, z1).decoupled()
        _quantized(report, "spin_chern", spin_chern, fine, tol)
        report.check("k_refinement_stable", (kval - kfine) % 2, 0.0)
    else:
        report.value("k_refinement", 0.0,
                     note="fixed user-supplied contraction grid")
    return _finish(report, args.report)


def _read_contraction(path: str, shape: tuple) -> np.ndarray:
    """A contraction grid file's samples (nt, *shape), or a ConfigError."""
    from .gridio import read_contraction_grid
    try:
        samples = read_contraction_grid(path)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"contraction grid file: {exc}") from exc
    if samples.shape[1:] != shape or samples.shape[0] < 7 or samples.shape[0] % 2 == 0:
        raise ConfigError(f"contraction grid file {path} holds shape {samples.shape}, the "
                          f"grid needs (nt, {', '.join(map(str, shape))}), nt odd >= 7")
    return samples


def cmd_verify(args) -> int:
    from . import verify as verify_mod
    # each suite with the sample counts it reads: (keyword, grids key and
    # axis role, flag, size)
    momentum = ("grid_n", "momentum", "--grid", args.grid)
    time_ = ("t_n", "time", "--tgrid", args.tgrid)
    suites = {
        "clifford": (verify_mod.suite_clifford, ()),
        "selection-rules": (verify_mod.suite_selection_rules, (momentum, time_)),
        "pimsner": (verify_mod.suite_pimsner, (momentum,)),
        "torsion": (verify_mod.suite_torsion, (momentum,)),
        "ko-examples": (verify_mod.suite_ko_examples, (time_,)),
    }
    if args.suite not in suites:
        raise ConfigError(f"unknown suite {args.suite!r}; "
                          f"choose from {sorted(suites)}")
    suite, sizes = suites[args.suite]
    for _, role, flag, n in sizes:
        _flag_grid(flag, n, role, 1)
    report = Report(f"verify:{args.suite}", None, {key: n for _, key, _, n in sizes})
    suite(report, **{kw: n for kw, _, _, n in sizes})
    return _finish(report, args.report)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dkpair",
        description="Character pairings, torsion-valued pairings and Floquet "
                    "invariants of tight-binding torus models.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="model JSON file")
        p.add_argument("--grid", type=int, default=32,
                       help="momentum samples per axis (default 32)")
        p.add_argument("--tgrid", type=int, default=256,
                       help="time samples per period, read only by pair --cycle ch1 "
                            "and the verify suites selection-rules and ko-examples "
                            "(default 256)")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="integerness and Chern-consistency tolerance (default 1e-6)")
        p.add_argument("--report", help="write the JSON report to this file")

    p = sub.add_parser("pair", help="pair a character with the model's class")
    p.add_argument("--cycle", required=True, choices=["ch0", "ch1", "ch2"])
    common(p)

    p = sub.add_parser("z2", help="spin Chern number and Kane-Mele class")
    common(p)

    p = sub.add_parser("floquet", help="driven-model branch data and K invariant")
    p.add_argument("--arc0", type=float, required=True,
                   help="phase of the first gap point z0")
    p.add_argument("--arc1", type=float, required=True,
                   help="phase of the second gap point z1")
    p.add_argument("--strategy", default="decoupled",
                   choices=["decoupled", "user_supplied"])
    p.add_argument("--contraction", nargs=2, metavar=("FILE0", "FILE1"),
                   help="contraction grids for the two branches")
    common(p)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", help="clifford | selection-rules | pimsner | "
                                 "torsion | ko-examples")
    common(p, needs_config=False)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        cfg = ModelConfig.load(args.config)
        if args.command == "pair":
            return cmd_pair(cfg, args)
        if args.command == "z2":
            return cmd_z2(cfg, args)
        if args.command == "floquet":
            return cmd_floquet(cfg, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GapClosedError as exc:
        print(f"gap closed: {exc}", file=sys.stderr)
        return EXIT_GAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
