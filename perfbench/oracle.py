"""Independent oracles and output readers for the benchmark's checks.

Populations come from ``scipy.linalg.expm`` of the 4x4 rate matrix, built
here from the paper's rate equations rather than taken from the package,
and the concurrence from the package's general spin-flip construction
``atompair.concurrence_wootters`` applied to the full density matrix; the
production path uses an eigendecomposition and the X-state closed form
instead. Only the Kossakowski coefficients come from the package.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm

EPS_DEAD = 1e-12


def rate_matrix(A1, B1, A2, B2):
    """d/dtau (pGG, pAA, pSS, pEE) = M p in the coupled basis."""
    down_s = 2.0 * (A1 + B1 + A2 + B2)
    down_a = 2.0 * (A1 + B1 - A2 - B2)
    up_s = 2.0 * (A1 - B1 + A2 - B2)
    up_a = 2.0 * (A1 - B1 - A2 + B2)
    G, A, S, E = range(4)
    M = np.zeros((4, 4))
    M[G, A] = M[A, E] = down_a
    M[G, S] = M[S, E] = down_s
    M[A, G] = M[E, A] = up_a
    M[S, G] = M[E, S] = up_s
    M -= np.diag(M.sum(axis=0))
    return M


def density_matrix(p, cAS, cGE):
    """X state in the product basis |00>, |01>, |10>, |11>."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[3, 3] = p[0], p[3]
    rho[0, 3], rho[3, 0] = cGE, np.conj(cGE)
    half = 0.5 * (p[1] + p[2])
    rho[1, 1] = half - cAS.real
    rho[2, 2] = half + cAS.real
    rho[1, 2] = 0.5 * (p[2] - p[1]) - 1j * cAS.imag
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


class Oracle:
    """Exact evolution of one initial state under one cell and bath mode."""

    def __init__(self, ap, state, a, L, d1, d2, thermal, atom_order=12):
        bath = ap.BathKind.THERMAL_AT_UNRUH if thermal else ap.BathKind.ACCELERATED_VACUUM
        cs = ap.assemble(ap.SystemParams(
            a_over_omega=float(a), omega_L=float(L),
            dipole1=ap.DipoleOrientation.from_axis(d1),
            dipole2=ap.DipoleOrientation.from_axis(d2), bath=bath), atom_order)
        self.ap = ap
        self.M = rate_matrix(cs.A1, cs.B1, cs.A2, cs.B2)
        self.decay = 4.0 * cs.A1
        self.p0 = state.populations()
        self.cAS = complex(state.cAS)
        self.cGE = complex(state.cGE)

    def populations(self, taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        return expm(self.M[None, :, :] * taus[:, None, None]) @ self.p0

    def concurrence(self, taus):
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        pops = self.populations(taus)
        damp = np.exp(-self.decay * taus)
        return np.array([self.ap.concurrence_wootters(
            density_matrix(p, self.cAS * d, self.cGE * d))
            for p, d in zip(pops, damp)])


def log_grid(stop, num, beta=6.0):
    u = np.linspace(0.0, 1.0, num)
    return stop * np.expm1(beta * u) / np.expm1(beta)


def read_csv(path):
    """(columns, rows as lists of strings) of an emitted table."""
    lines = Path(path).read_text(encoding="utf-8").rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def digests(out_dir):
    """sha256 of every file in an output directory, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir())}


def meta_checks(out_dir, digest_map):
    """Each meta.json sidecar's recorded checksums match the files."""
    checks = []
    metas = sorted(Path(out_dir).glob("*.meta.json"))
    checks.append(("meta sidecars present", bool(metas), f"{len(metas)} found"))
    for meta in metas:
        files = json.loads(meta.read_text(encoding="utf-8")).get("files", {})
        for name, digest in sorted(files.items()):
            checks.append((f"checksum {name}", digest_map.get(name) == digest,
                           "meta.json sha256 vs file"))
    return checks


def output_size(out_dir):
    """(data rows in CSV tables, bytes in all files) of an output directory."""
    rows = 0
    size = 0
    for p in Path(out_dir).iterdir():
        data = p.read_bytes()
        size += len(data)
        if p.suffix == ".csv":
            rows += max(0, data.count(b"\n") - 1)
    return rows, size
