"""Config-driven scenario runner.

One JSON config describes one experiment: a lattice, a basis, a model, bound
constants, and a scenario block naming one of the predefined kinds.  The
runner executes it and writes CSV/JSON reports plus a run-manifest capturing
every resolved constant.  Exit status is 0 only when all inequality rows
pass, 1 when any fails, 2 on configuration or computation errors.

Determinism contract: a fixed config and seed produce byte-identical CSV.
Timestamps appear only in the manifest sidecar.  CSV floats use 17
significant digits; JSON uses the shortest exact representation, so a
JSON emit/parse round trip reproduces rows bit-exactly.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from . import evolve as _ev
from .bounds import (
    BoundConditionError,
    BoundConstants,
    BoundValue,
    adjacency_exp_bound,
    clustering_bound,
    concentration_bound,
    first_moment_bound,
    fs_polynomial,
    initial_moment_bounds,
    lightcone_radius,
    main_lr_bound,
    moment_bound,
    quench_bounds,
    short_lr_bound,
    subtheorem_bound,
    tail_bound,
    truncation_error_bound,
)
from .evolve import StateVector, evolve_state, heisenberg, spectral_norm
from .fock import FockBasis, enumerate_basis
from .lattice import LatticeGraph, ball, boundary, build_lattice, geometric_constants
from .model import (
    HamiltonianSpec,
    Interaction,
    Monomial,
    OperatorMatrix,
    _wrap,
    assemble_hamiltonian,
    effective_hamiltonian,
    local_operator,
)
from .probes import (
    ground_state,
    connected_correlation,
    heisenberg_apply,
    mgf_condition,
    moment,
    restricted_error,
    tail_probability,
)
from .approx import approximate_heisenberg, local_step_unitary, run_quench

SCENARIO_KINDS = (
    "lightcone-map",
    "moment-check",
    "tail-check",
    "truncation-check",
    "short-lr-check",
    "approx-sweep",
    "quench-sim",
    "clustering",
    "bound-report",
    "fs-check",
    "adjacency-check",
)


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(block: Mapping, allowed: Iterable[str], where: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _need(block: Mapping, key: str, where: str):
    if key not in block:
        raise ConfigError(f"{where}: missing required key '{key}'")
    return block[key]


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(
        cfg, ("lattice", "basis", "model", "constants", "scenario", "output"), "config"
    )
    scn = _need(cfg, "scenario", "config")
    if not isinstance(scn, dict):
        raise ConfigError("scenario: must be an object")
    kind = _need(scn, "kind", "scenario")
    if kind not in SCENARIO_KINDS:
        raise ConfigError(
            f"scenario.kind: '{kind}' is not one of {sorted(SCENARIO_KINDS)}"
        )
    return cfg


def _build_lattice(cfg: Mapping) -> LatticeGraph:
    block = cfg.get("lattice")
    if block is None:
        raise ConfigError("lattice: block required for this scenario")
    _check_keys(block, ("kind", "dims"), "lattice")
    kind = _need(block, "kind", "lattice")
    dims = _need(block, "dims", "lattice")
    try:
        return build_lattice(kind, dims)
    except ValueError as exc:
        raise ConfigError(f"lattice: {exc}") from exc


def _build_basis(cfg: Mapping, g: LatticeGraph) -> FockBasis:
    block = cfg.get("basis")
    if block is None:
        raise ConfigError("basis: block required for this scenario")
    _check_keys(block, ("cutoff", "cutoffs", "sector"), "basis")
    if "cutoff" in block and "cutoffs" in block:
        raise ConfigError("basis: give either 'cutoff' or 'cutoffs', not both")
    if "cutoff" in block:
        cutoffs: int | list[int] = int(block["cutoff"])
    elif "cutoffs" in block:
        cutoffs = [int(c) for c in block["cutoffs"]]
    else:
        raise ConfigError("basis: missing 'cutoff' or 'cutoffs'")
    sector = block.get("sector")
    try:
        return enumerate_basis(g, cutoffs, None if sector is None else int(sector))
    except ValueError as exc:
        raise ConfigError(f"basis: {exc}") from exc


def _build_model(cfg: Mapping, g: LatticeGraph) -> HamiltonianSpec:
    block = cfg.get("model")
    if block is None:
        raise ConfigError("model: block required for this scenario")
    _check_keys(
        block, ("J", "U", "mu", "hoppings", "interactions", "k_max", "J_bar"), "model"
    )
    explicit = "hoppings" in block or "interactions" in block
    if explicit and ("J" in block or "U" in block or "mu" in block):
        raise ConfigError("model: use either (J, U, mu) or explicit term lists")
    try:
        if not explicit:
            from .model import bose_hubbard

            return bose_hubbard(
                g,
                float(_need(block, "J", "model")),
                float(_need(block, "U", "model")),
                float(block.get("mu", 0.0)),
            )
        hoppings = tuple(
            (int(i), int(j), float(Jij)) for i, j, Jij in block.get("hoppings", [])
        )
        terms = []
        for item in block.get("interactions", []):
            _check_keys(item, ("region", "monomials"), "model.interactions[]")
            region = tuple(int(i) for i in _need(item, "region", "interaction"))
            monos = tuple(
                Monomial(float(c), tuple(int(p) for p in powers))
                for c, powers in _need(item, "monomials", "interaction")
            )
            terms.append(Interaction(region, monos))
        k_max = int(block.get("k_max", max((len(t.region) for t in terms), default=1)))
        J_bar = float(
            block.get("J_bar", max((abs(J) for _, _, J in hoppings), default=0.0))
        )
        return HamiltonianSpec(
            lattice=g,
            hoppings=hoppings,
            interactions=tuple(terms),
            k_max=k_max,
            J_bar=J_bar,
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


_STATE_DOC = "psi0 must be 'mott-<n>', 'vacuum', 'ground', or 'fock:[n0,n1,...]'"


def _build_state(
    kind: str, b: FockBasis, H_provider: Callable[[], OperatorMatrix]
) -> StateVector:
    if kind == "ground":
        return ground_state(H_provider()).ground
    if kind == "vacuum":
        occ: tuple[int, ...] = (0,) * b.n_sites
    elif kind.startswith("mott-"):
        try:
            n = int(kind[len("mott-") :])
        except ValueError as exc:
            raise ConfigError(_STATE_DOC) from exc
        occ = (n,) * b.n_sites
    elif kind.startswith("fock:"):
        try:
            filled = json.loads(kind[len("fock:") :])
        except json.JSONDecodeError as exc:
            raise ConfigError(_STATE_DOC) from exc
        occ = tuple(int(n) for n in filled)
    else:
        raise ConfigError(_STATE_DOC)
    try:
        idx = b.index_of(occ)
    except KeyError:
        raise ConfigError(
            f"scenario.psi0: occupation {occ} is not in the basis"
        ) from None
    amps = np.zeros(b.dim, dtype=np.complex128)
    amps[idx] = 1.0
    return StateVector(b, amps)


def _qbar_default(kind: str) -> float:
    if kind.startswith("mott-"):
        return float(int(kind[len("mott-") :]))
    if kind == "vacuum":
        return 0.0
    if kind.startswith("fock:"):
        return float(max(json.loads(kind[len("fock:") :]), default=0))
    return 1.0


def _build_observable(
    obs: Mapping, b: FockBasis, rng: np.random.Generator
) -> OperatorMatrix:
    _check_keys(obs, ("kind", "site", "sites", "value", "op"), "observable")
    kind = _need(obs, "kind", "observable")
    if "site" in obs and "sites" in obs:
        raise ConfigError("observable: give 'site' or 'sites', not both")
    sites = obs.get("sites", [obs["site"]] if "site" in obs else None)
    if sites is None:
        raise ConfigError("observable: needs 'site' or 'sites'")
    sites = [int(i) for i in sites]
    if kind == "number":
        return local_operator("number", sites, b)
    if kind in ("creation", "annihilation"):
        return local_operator(kind, sites, b)
    if kind == "projector":
        value = int(_need(obs, "value", "observable"))
        return local_operator("projector", sites, b, predicate=(obs.get("op", "=="), value))
    if kind == "phase":
        if len(sites) != 1:
            raise ConfigError("phase observable acts on a single site")
        cut = b.site_cutoffs[sites[0]]
        theta = rng.uniform(0.0, 2.0 * math.pi)
        mat = np.diag(np.exp(1j * theta * np.arange(cut + 1)))
        return local_operator("custom-matrix", sites, b, matrix=mat, unitary=True)
    raise ConfigError(
        "observable.kind must be number, creation, annihilation, projector, or phase"
    )


_CONST_KEYS = (
    "c0", "qbar", "t0", "J_bar", "dG", "gamma", "lambda0", "D",
    "q0", "k", "zeta0", "eta", "C0", "C1", "C2", "C3", "C3p", "c2", "Gamma_c",
)


def _resolve_constants(
    cfg: Mapping,
    g: LatticeGraph,
    spec: HamiltonianSpec | None,
    *,
    t0_default: float = 1.0,
    qbar_default: float = 1.0,
    zeta0_default: float = 1.0,
) -> BoundConstants:
    block = cfg.get("constants", {})
    _check_keys(block, _CONST_KEYS, "constants")
    geo = geometric_constants(g)
    vals: dict = {
        "c0": 1.0,
        "qbar": qbar_default,
        "t0": t0_default,
        "J_bar": spec.J_bar if spec is not None else 1.0,
        "dG": geo.max_degree_dG,
        "gamma": geo.gamma,
        "lambda0": geo.lambda0,
        "D": geo.dimension_D,
        "zeta0": zeta0_default,
    }
    for key in _CONST_KEYS:
        if key in block:
            v = block[key]
            vals[key] = v if v is None else (int(v) if key in ("dG", "D", "k") else float(v))
    try:
        return BoundConstants(**vals)
    except (ValueError, AssertionError) as exc:
        raise ConfigError(f"constants: {exc}") from exc


# ---------------------------------------------------------------------------
# report emission


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit_report(
    rows: Sequence[Mapping], fmt: str, path: str | Path, columns: Sequence[str]
) -> Path:
    """Write rows to CSV (fixed column order, 17-significant-digit floats) or JSON.

    JSON keeps native numbers so a parse reproduces the rows bit-exactly;
    an empty row set still produces the declared CSV header.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(list(columns))
            for row in rows:
                writer.writerow([_fmt_cell(row.get(c)) for c in columns])
    elif fmt == "json":
        payload = [{c: row.get(c) for c in columns} for row in rows]
        with path.open("w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ConfigError(f"output format '{fmt}' not supported (csv, json)")
    return path


def _map_cells(fn: Callable, cells: Sequence, threads: int) -> list:
    """Run independent scenario cells, preserving canonical cell order."""
    if threads <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


def _bv_columns(bv: BoundValue) -> tuple[float, float, bool]:
    return bv.value, bv.log_value, bv.valid


# ---------------------------------------------------------------------------
# scenario implementations; each returns (columns, rows, extras)

_Scn = tuple[list[str], list[dict], dict]


def _scn_lightcone_map(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(scn, ("kind", "i0", "times", "observable", "probe", "sites"), "scenario")
    g, b = ctx["g"], ctx["b"]
    H = ctx["H"]()
    i0 = int(scn.get("i0", 0))
    times = [float(t) for t in _need(scn, "times", "scenario")]
    obs_cfg = scn.get("observable", {"kind": "number", "site": i0})
    O_A = _build_observable(obs_cfg, b, ctx["rng"])
    probe_kind = scn.get("probe", "number")
    sites = [int(i) for i in scn.get("sites", list(g.sites))]
    probes_by_site = {
        i: _build_observable({"kind": probe_kind, "site": i}, b, ctx["rng"])
        for i in sites
    }

    def cell(t: float) -> list[dict]:
        evolved = heisenberg(H, O_A, t)
        out = []
        for i in sites:
            Bm = probes_by_site[i].matrix
            comm = (evolved.matrix @ Bm - Bm @ evolved.matrix).toarray()
            out.append(
                {
                    "scenario": "lightcone-map",
                    "i": i,
                    "t": t,
                    "commutator_norm": float(np.linalg.norm(comm, 2)),
                }
            )
        return out

    parts = _map_cells(cell, times, ctx["threads"])
    rows = [r for part in parts for r in part]
    rows.sort(key=lambda r: (sites.index(r["i"]), times.index(r["t"])))
    return ["scenario", "i", "t", "commutator_norm"], rows, {}


def _low_density_guard(psi0: StateVector, consts: BoundConstants) -> float:
    mgf = mgf_condition(psi0, consts.c0, consts.qbar)
    if mgf > 1.0 + 1e-9:
        raise ConfigError(
            f"initial state violates the low-density condition: "
            f"mgf = {mgf:.6g} > 1 at c0 = {consts.c0}, qbar = {consts.qbar}"
        )
    return mgf


def _scn_moment_check(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(
        scn,
        ("kind", "i0", "observable", "s_values", "times", "psi0", "sites"),
        "scenario",
    )
    g, b = ctx["g"], ctx["b"]
    H = ctx["H"]()
    i0 = int(scn.get("i0", 0))
    obs_cfg = scn.get("observable", {"kind": "projector", "site": i0, "value": 1})
    O_X = _build_observable(obs_cfg, b, ctx["rng"])
    s_values = [int(s) for s in scn.get("s_values", [1, 2, 3])]
    times = [float(t) for t in _need(scn, "times", "scenario")]
    sites = [int(i) for i in scn.get("sites", list(g.sites))]
    psi0 = _build_state(scn.get("psi0", "mott-1"), b, ctx["H"])
    consts: BoundConstants = ctx["consts"](O_X)
    ctx["manifest"]["mgf_value"] = _low_density_guard(psi0, consts)
    size_x = len(O_X.support)
    dists = {i: min(int(g.distances[i, j]) for j in O_X.support) for i in sites}

    def cell(t: float) -> list[dict]:
        phi = heisenberg_apply(H, O_X, psi0, t)
        out = []
        for i in sites:
            for s in s_values:
                probe = moment(phi, i, s)
                bv = moment_bound(s, size_x, float(dists[i]), consts)
                out.append(
                    {
                        "scenario": "moment-check",
                        "i": i,
                        "s": s,
                        "t": t,
                        "M_probe": probe,
                        "M_bound": bv.value,
                        "log_M_bound": bv.log_value,
                        "pass": bool(probe <= bv.value) if bv.valid else None,
                    }
                )
        return out

    parts = _map_cells(cell, times, ctx["threads"])
    by_t = {times[k]: parts[k] for k in range(len(times))}
    rows = []
    for i in sites:
        for s in s_values:
            for t in times:
                rows.extend(
                    r for r in by_t[t] if r["i"] == i and r["s"] == s
                )
    return (
        ["scenario", "i", "s", "t", "M_probe", "M_bound", "log_M_bound", "pass"],
        rows,
        {},
    )


def _scn_tail_check(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(
        scn,
        ("kind", "i0", "observable", "z_values", "times", "psi0", "sites", "r", "mode"),
        "scenario",
    )
    g, b = ctx["g"], ctx["b"]
    H = ctx["H"]()
    i0 = int(scn.get("i0", 0))
    obs_cfg = scn.get("observable", {"kind": "projector", "site": i0, "value": 1})
    O_X = _build_observable(obs_cfg, b, ctx["rng"])
    z_values = [int(z) for z in scn.get("z_values", [1, 2, 3, 4, 5])]
    times = [float(t) for t in _need(scn, "times", "scenario")]
    sites = [int(i) for i in scn.get("sites", list(g.sites))]
    r = float(scn.get("r", 3.0))
    mode = scn.get("mode", "markov-optimized")
    psi0 = _build_state(scn.get("psi0", "mott-1"), b, ctx["H"])
    consts: BoundConstants = ctx["consts"](O_X)
    ctx["manifest"]["mgf_value"] = _low_density_guard(psi0, consts)
    dists = {i: min(int(g.distances[i, j]) for j in O_X.support) for i in sites}

    def cell(t: float) -> list[dict]:
        phi = heisenberg_apply(H, O_X, psi0, t)
        out = []
        for i in sites:
            for z0 in z_values:
                probe = tail_probability(phi, i, z0)
                bv = tail_bound(z0, float(dists[i]), r, consts, mode=mode, check=False)
                out.append(
                    {
                        "scenario": "tail-check",
                        "i": i,
                        "z0": z0,
                        "t": t,
                        "P_probe": probe,
                        "P_bound": bv.value,
                        "log_P_bound": bv.log_value,
                        "pass": bool(probe <= bv.value) if bv.valid else None,
                    }
                )
        return out

    parts = _map_cells(cell, times, ctx["threads"])
    by_t = {times[k]: parts[k] for k in range(len(times))}
    rows = []
    for i in sites:
        for z0 in z_values:
            for t in times:
                rows.extend(r_ for r_ in by_t[t] if r_["i"] == i and r_["z0"] == z0)
    return (
        ["scenario", "i", "z0", "t", "P_probe", "P_bound", "log_P_bound", "pass"],
        rows,
        {},
    )


def _scn_truncation_check(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(
        scn,
        ("kind", "X", "ell0", "q_values", "t", "psi0", "observable", "r"),
        "scenario",
    )
    g, b, spec = ctx["g"], ctx["b"], ctx["spec"]
    H = ctx["H"]()
    X = scn.get("X", [g.site_count // 2])
    X = [int(i) for i in (X if isinstance(X, list) else [X])]
    ell0 = int(scn.get("ell0", 1))
    max_cut = max(b.site_cutoffs)
    q_values = [int(q) for q in scn.get("q_values", list(range(1, max_cut + 1)))]
    t = float(scn.get("t", 0.1))
    r = float(scn.get("r", 3.0))
    obs_cfg = scn.get("observable", {"kind": "creation", "site": min(X)})
    O_X = _build_observable(obs_cfg, b, ctx["rng"])
    psi0 = _build_state(scn.get("psi0", "mott-1"), b, ctx["H"])
    consts: BoundConstants = ctx["consts"](O_X)

    L1 = ball(g, X, ell0)
    L2 = ball(g, X, 2 * ell0)
    Ltilde = sorted(L2 - L1)
    v = StateVector(b, O_X.matrix @ psi0.amplitudes)
    exact = evolve_state(H, v, t)

    def cell(q: int) -> dict:
        H_eff = effective_hamiltonian(spec, b, [(Ltilde, q)])
        approx = evolve_state(H_eff, v, t)
        err = float(np.linalg.norm(exact.amplitudes - approx.amplitudes))
        bv = truncation_error_bound(q, len(L2), ell0, r, consts, check=False)
        return {
            "scenario": "truncation-check",
            "q": q,
            "t": t,
            "error": err,
            "bound": bv.value,
            "log_bound": bv.log_value,
            "bound_valid": bv.valid,
            "pass": bool(err <= bv.value) if bv.valid else None,
        }

    rows = _map_cells(cell, q_values, ctx["threads"])
    return (
        ["scenario", "q", "t", "error", "bound", "log_bound", "bound_valid", "pass"],
        rows,
        {},
    )


def _scn_short_lr_check(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(
        scn,
        ("kind", "X", "ell0_values", "t", "q", "psi0", "observable"),
        "scenario",
    )
    g, b, spec = ctx["g"], ctx["b"], ctx["spec"]
    H = ctx["H"]()
    X = scn.get("X", [g.site_count // 2])
    X = [int(i) for i in (X if isinstance(X, list) else [X])]
    ell0_values = [int(e) for e in scn.get("ell0_values", [1, 2])]
    t = float(scn.get("t", 0.05))
    q = int(scn.get("q", max(b.site_cutoffs)))
    obs_cfg = scn.get("observable", {"kind": "number", "site": min(X)})
    O_X = _build_observable(obs_cfg, b, ctx["rng"])
    psi0 = _build_state(scn.get("psi0", "mott-1"), b, ctx["H"])
    consts: BoundConstants = ctx["consts"](O_X)
    if consts.eta is None:
        raise ConfigError(
            "short-lr-check: constants.eta is required (the step bound depends on it)"
        )

    def cell(ell0: int) -> dict:
        step = local_step_unitary(spec, b, X, ell0, q, t)
        U = step.materialize()
        approx_mat = U.conj().T @ O_X.dense() @ U
        O_apx = _wrap(
            b,
            sparse.csr_matrix(approx_mat),
            declared_support=sorted(step.support | O_X.support),
            verify_support=False,
        )
        err = restricted_error(H, O_X, O_apx, psi0, t)
        k = spec.k_max
        L2p = ball(g, X, max(0, 2 * ell0 - 2 * k))
        bsize = len(boundary(g, L2p)) if L2p else 0
        bv = short_lr_bound(ell0, bsize, t, consts, check=False)
        return {
            "scenario": "short-lr-check",
            "ell0": ell0,
            "t": t,
            "error": err,
            "bound": bv.value,
            "log_bound": bv.log_value,
            "conditions_ok": bv.valid,
            "pass": bool(err <= bv.value) if bv.valid else None,
        }

    rows = _map_cells(cell, ell0_values, ctx["threads"])
    return (
        ["scenario", "ell0", "t", "error", "bound", "log_bound", "conditions_ok", "pass"],
        rows,
        {},
    )


def _scn_approx_sweep(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(
        scn,
        ("kind", "i0", "r0", "R_values", "t", "observable", "psi0",
         "ell0", "q", "delta_t0"),
        "scenario",
    )
    g, b, spec = ctx["g"], ctx["b"], ctx["spec"]
    H = ctx["H"]()
    i0 = int(scn.get("i0", 0))
    r0 = int(scn.get("r0", 0))
    R_values = [int(R) for R in _need(scn, "R_values", "scenario")]
    t = float(scn.get("t", 0.1))
    obs_cfg = scn.get("observable", {"kind": "number", "site": i0})
    O_X = _build_observable(obs_cfg, b, ctx["rng"])
    psi0 = _build_state(scn.get("psi0", "mott-1"), b, ctx["H"])
    consts: BoundConstants = ctx["consts"](O_X)
    ell0 = scn.get("ell0")
    q = scn.get("q")
    delta_t0 = scn.get("delta_t0")

    def cell(R: int) -> dict:
        O_R, trace = approximate_heisenberg(
            O_X, i0, r0, R, t, spec, b, consts,
            ell0=None if ell0 is None else int(ell0),
            q=None if q is None else int(q),
            delta_t0=None if delta_t0 is None else float(delta_t0),
            return_trace=True,
        )
        err = restricted_error(H, O_X, O_R, psi0, t)
        return {
            "scenario": "approx-sweep",
            "R": R,
            "t": t,
            "ell0": trace.ell0,
            "q": trace.q,
            "m_t": trace.schedule.m_t,
            "error": err,
        }

    rows = _map_cells(cell, R_values, ctx["threads"])
    return ["scenario", "R", "t", "ell0", "q", "m_t", "error"], rows, {}


def _scn_quench_sim(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(
        scn,
        ("kind", "h", "psi0", "t", "R_values", "ell0", "q", "qprime",
         "delta_t0", "stationarity_tol"),
        "scenario",
    )
    b, spec = ctx["b"], ctx["spec"]
    h_cfg = _need(scn, "h", "scenario")
    _check_keys(h_cfg, ("site", "coeff", "power"), "scenario.h")
    site = int(_need(h_cfg, "site", "scenario.h"))
    coeff = float(h_cfg.get("coeff", 1.0))
    power = int(h_cfg.get("power", 2))
    cut = b.site_cutoffs[site]
    h_mat = np.diag(coeff * np.arange(cut + 1, dtype=np.float64) ** power)
    h_X0 = local_operator("custom-matrix", [site], b, matrix=h_mat)
    psi0 = _build_state(scn.get("psi0", "ground"), b, ctx["H"])
    t = float(scn.get("t", 0.1))
    R_values = [int(R) for R in _need(scn, "R_values", "scenario")]
    consts: BoundConstants = ctx["consts"](None)
    kwargs = {}
    for key in ("ell0", "q", "qprime"):
        if scn.get(key) is not None:
            kwargs[key] = int(scn[key])
    if scn.get("delta_t0") is not None:
        kwargs["delta_t0"] = float(scn["delta_t0"])
    if scn.get("stationarity_tol") is not None:
        kwargs["stationarity_tol"] = float(scn["stationarity_tol"])

    def cell(R: int) -> tuple[dict, dict]:
        err, report = run_quench(spec, h_X0, psi0, t, R, consts, **kwargs)
        bv = report.bound.error
        row = {
            "scenario": "quench-sim",
            "R": R,
            "t": t,
            "error": err,
            "bound": bv.value,
            "log_bound": bv.log_value,
            "cost_states": report.cost_states,
            "pass": bool(err <= bv.value) if bv.valid else None,
        }
        trace = {
            "R": R,
            "params": dict(report.params),
            "stationarity_residual": report.stationarity_residual,
            "steps": [
                {k: v for k, v in rec.items()} for rec in report.step_records
            ],
        }
        return row, trace

    results = _map_cells(cell, R_values, ctx["threads"])
    rows = [row for row, _ in results]
    traces = [tr for _, tr in results]
    return (
        ["scenario", "R", "t", "error", "bound", "log_bound", "cost_states", "pass"],
        rows,
        {"quench_steps.json": traces},
    )


def _scn_clustering(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(scn, ("kind", "anchor", "d_values", "psi0"), "scenario")
    g, b = ctx["g"], ctx["b"]
    anchor = int(scn.get("anchor", 0))
    d_values = [int(d) for d in scn.get("d_values", list(range(1, g.diameter + 1)))]
    psi = _build_state(scn.get("psi0", "ground"), b, ctx["H"])

    rows = []
    for d in d_values:
        cands = [j for j in g.sites if int(g.distances[anchor, j]) == d]
        if not cands:
            continue
        j = min(cands)
        O_i = local_operator("number", [anchor], b)
        O_j = local_operator("number", [j], b)
        cor = connected_correlation(psi, O_i, O_j)
        rows.append(
            {
                "scenario": "clustering",
                "i": anchor,
                "j": j,
                "d": d,
                "correlation": cor,
                "abs_correlation": abs(cor),
            }
        )
    return ["scenario", "i", "j", "d", "correlation", "abs_correlation"], rows, {}


def _bound_registry(consts: BoundConstants) -> dict[str, tuple[tuple[str, ...], Callable]]:
    return {
        "moment": (
            ("s", "sizeX", "d_iX"),
            lambda p: moment_bound(int(p["s"]), p["sizeX"], p["d_iX"], consts),
        ),
        "first-moment": (
            ("d_iX", "t", "N_X", "n0"),
            lambda p: first_moment_bound(p["d_iX"], p["t"], p["N_X"], p["n0"], consts),
        ),
        "initial-moment-single": (
            ("s", "sizeX"),
            lambda p: initial_moment_bounds(int(p["s"]), p["sizeX"], consts)[0],
        ),
        "initial-moment-region": (
            ("s", "sizeX"),
            lambda p: initial_moment_bounds(int(p["s"]), p["sizeX"], consts)[1],
        ),
        "tail": (
            ("z0", "d_iX", "r"),
            lambda p: tail_bound(
                p["z0"], p["d_iX"], p["r"], consts,
                mode=p.get("mode", "markov-optimized"), check=False,
            ),
        ),
        "truncation": (
            ("q", "sizeL", "ell0", "r"),
            lambda p: truncation_error_bound(
                int(p["q"]), p["sizeL"], p["ell0"], p["r"], consts, check=False
            ),
        ),
        "concentration": (
            ("q", "sizeL", "ell0", "r"),
            lambda p: concentration_bound(
                int(p["q"]), p["sizeL"], p["ell0"], p["r"], consts
            ),
        ),
        "short-lr": (
            ("ell0", "boundary_size", "t"),
            lambda p: short_lr_bound(
                p["ell0"], p["boundary_size"], p["t"], consts, check=False
            ),
        ),
        "subtheorem": (
            ("ell", "r"),
            lambda p: subtheorem_bound(p["ell"], p["r"], consts),
        ),
        "main-lr": (
            ("R", "r0", "t"),
            lambda p: main_lr_bound(p["R"], p["r0"], p["t"], consts),
        ),
        "clustering": (
            ("R", "DeltaE"),
            lambda p: clustering_bound(p["R"], p["DeltaE"], consts),
        ),
        "quench-error": (
            ("R", "r0", "t"),
            lambda p: quench_bounds(p["R"], p["r0"], p["t"], consts).error,
        ),
        "quench-cost": (
            ("R", "r0", "t"),
            lambda p: quench_bounds(p["R"], p["r0"], p["t"], consts).cost,
        ),
        "quench-cost-1d": (
            ("R", "r0", "t"),
            lambda p: quench_bounds(p["R"], p["r0"], p["t"], consts).cost_1d,
        ),
    }


def _scn_bound_report(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(scn, ("kind", "bound", "grid", "fixed"), "scenario")
    consts: BoundConstants = ctx["consts"](None)
    registry = _bound_registry(consts)
    name = _need(scn, "bound", "scenario")
    if name == "lightcone-radius":
        grid = _need(scn, "grid", "scenario")
        _check_keys(grid, ("t", "delta"), "scenario.grid")
        rows = []
        for t in grid.get("t", [1.0]):
            for delta in grid.get("delta", [1.0]):
                R = lightcone_radius(float(t), float(delta), consts)
                rows.append(
                    {
                        "scenario": "bound-report",
                        "bound": name,
                        "params": json.dumps({"t": t, "delta": delta}, sort_keys=True),
                        "log_value": math.log(R),
                        "value": R,
                        "valid": True,
                    }
                )
        return (
            ["scenario", "bound", "params", "log_value", "value", "valid"], rows, {}
        )
    if name not in registry:
        raise ConfigError(
            f"scenario.bound: '{name}' is not one of "
            f"{sorted(registry) + ['lightcone-radius']}"
        )
    param_names, fn = registry[name]
    grid = dict(_need(scn, "grid", "scenario"))
    fixed = dict(scn.get("fixed", {}))
    given = set(grid) | set(fixed)
    missing = [p for p in param_names if p not in given]
    if missing:
        raise ConfigError(f"scenario: bound '{name}' needs parameters {missing}")
    extra = sorted(given - set(param_names) - {"mode"})
    if extra:
        raise ConfigError(f"scenario: bound '{name}' got unknown parameters {extra}")

    keys = sorted(grid)
    rows = []
    value_lists = [grid[k] if isinstance(grid[k], list) else [grid[k]] for k in keys]
    for combo in itertools.product(*value_lists) if keys else [()]:
        p = dict(fixed)
        p.update({k: v for k, v in zip(keys, combo)})
        p = {k: (float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v) for k, v in p.items()}
        try:
            bv = fn(p)
            value, log_value, valid = _bv_columns(bv)
        except BoundConditionError:
            value, log_value, valid = float("nan"), float("nan"), False
        rows.append(
            {
                "scenario": "bound-report",
                "bound": name,
                "params": json.dumps(
                    {k: p[k] for k in sorted(p)}, sort_keys=True
                ),
                "log_value": log_value,
                "value": value,
                "valid": valid,
            }
        )
    return ["scenario", "bound", "params", "log_value", "value", "valid"], rows, {}


def _scn_fs_check(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(scn, ("kind", "s_max", "m_max"), "scenario")
    s_max = int(scn.get("s_max", 10))
    m_max = int(scn.get("m_max", 100))
    rows = []
    for s in range(1, s_max + 1):
        poly = fs_polynomial(s)
        for m in range(1, m_max + 1):
            val = poly(m)
            lower = (m - 1) ** s
            upper = m**s
            ok = lower <= val <= upper
            rows.append(
                {
                    "scenario": "fs-check",
                    "s": s,
                    "m": m,
                    "lower": int(lower),
                    "f_s": int(val),
                    "upper": int(upper),
                    "pass": bool(ok),
                }
            )
    return ["scenario", "s", "m", "lower", "f_s", "upper", "pass"], rows, {}


def _scn_adjacency_check(ctx: dict) -> _Scn:
    scn = ctx["scenario"]
    _check_keys(scn, ("kind", "times", "J_scale"), "scenario")
    g = ctx["g"]
    times = [float(t) for t in scn.get("times", [0.1, 0.5, 1.0])]
    J_scale = float(scn.get("J_scale", 1.0))
    n = g.site_count
    adj = np.zeros((n, n))
    for i, j in g.edges:
        adj[i, j] = adj[j, i] = 1.0

    def cell(t: float) -> dict:
        bound = adjacency_exp_bound(g, J_scale, t)
        measured = scipy.linalg.expm(J_scale * t * adj)
        ratio = measured / bound.matrix
        violations = int(np.sum(measured > bound.matrix * (1.0 + 1e-12)))
        return {
            "scenario": "adjacency-check",
            "t": t,
            "max_ratio": float(ratio.max()),
            "violations": violations,
            "pass": violations == 0,
        }

    rows = _map_cells(cell, times, ctx["threads"])
    return ["scenario", "t", "max_ratio", "violations", "pass"], rows, {}


_SCENARIOS: dict[str, Callable[[dict], _Scn]] = {
    "lightcone-map": _scn_lightcone_map,
    "moment-check": _scn_moment_check,
    "tail-check": _scn_tail_check,
    "truncation-check": _scn_truncation_check,
    "short-lr-check": _scn_short_lr_check,
    "approx-sweep": _scn_approx_sweep,
    "quench-sim": _scn_quench_sim,
    "clustering": _scn_clustering,
    "bound-report": _scn_bound_report,
    "fs-check": _scn_fs_check,
    "adjacency-check": _scn_adjacency_check,
}

# scenarios that can run without a basis/model (lattice-only or pure arithmetic)
_NO_MODEL = {"fs-check", "adjacency-check", "bound-report"}
_NO_LATTICE = {"fs-check"}


def run_scenario(
    config_path: str | Path,
    *,
    out_dir: str | Path | None = None,
    seed: int = 0,
    threads: int = 1,
    dense_cap: int | None = None,
) -> int:
    """Execute one scenario config; write reports; return the exit status."""
    if dense_cap is not None:
        _ev.DENSE_CAP = int(dense_cap)
    cfg = load_config(config_path)
    scn = cfg["scenario"]
    kind = scn["kind"]

    out_block = cfg.get("output", {})
    _check_keys(out_block, ("directory", "formats"), "output")
    formats = out_block.get("formats", ["csv"])
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.formats: '{fmt}' not supported")
    directory = Path(out_dir) if out_dir is not None else Path(out_block.get("directory", "."))

    rng = np.random.default_rng(seed)
    manifest: dict = {"scenario": kind, "seed": int(seed), "config": str(config_path)}

    g = None if kind in _NO_LATTICE and "lattice" not in cfg else _build_lattice(cfg)
    b = spec = None
    H_cache: list[OperatorMatrix | None] = [None]
    if kind not in _NO_MODEL:
        b = _build_basis(cfg, g)
        spec = _build_model(cfg, g)

        def H_provider() -> OperatorMatrix:
            if H_cache[0] is None:
                H_cache[0] = assemble_hamiltonian(spec, b)
            return H_cache[0]

    else:

        def H_provider() -> OperatorMatrix:
            raise ConfigError(f"scenario '{kind}' has no Hamiltonian")

    times = scn.get("times") or ([scn["t"]] if "t" in scn else None)
    t0_default = max(float(t) for t in times) if times else 1.0
    qbar_default = _qbar_default(scn.get("psi0", "mott-1"))

    def consts_for(O: OperatorMatrix | None) -> BoundConstants:
        zeta0 = 1.0
        if O is not None and "zeta0" not in cfg.get("constants", {}):
            zeta0 = spectral_norm(O)
        return _resolve_constants(
            cfg,
            g,
            spec,
            t0_default=t0_default,
            qbar_default=qbar_default,
            zeta0_default=zeta0,
        )

    ctx = {
        "g": g,
        "b": b,
        "spec": spec,
        "H": H_provider,
        "consts": consts_for,
        "scenario": scn,
        "rng": rng,
        "threads": max(1, int(threads)),
        "manifest": manifest,
    }

    columns, rows, extras = _SCENARIOS[kind](ctx)

    outputs = []
    for fmt in formats:
        path = emit_report(rows, fmt, directory / f"{kind}.{fmt}", columns)
        outputs.append(str(path))
    for name, payload in extras.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        outputs.append(str(path))

    failed = any(row.get("pass") is False for row in rows)

    if g is not None:
        geo = geometric_constants(g)
        manifest["geometry"] = {
            "gamma": geo.gamma,
            "lambda0": geo.lambda0,
            "dG": geo.max_degree_dG,
            "D": geo.dimension_D,
        }
    try:
        consts = consts_for(None) if g is not None else None
    except ConfigError:
        consts = None
    if consts is not None:
        resolved = {
            "c0": consts.c0,
            "qbar": consts.qbar,
            "t0": consts.t0,
            "J_bar": consts.J_bar,
            "zeta0": consts.zeta0,
            "c1": consts.c1,
            "c1_prime_sizeX1": consts.c1p(1),
            "c1_double_prime": consts.c1pp,
            "effective_C1": consts.effective_C1,
            "effective_C2": consts.effective_C2,
            "eta": consts.eta,
        }
        if consts.eta is not None:
            resolved["c3"] = consts.c3
            resolved["c3_prime"] = consts.c3p
            resolved["delta_t0"] = consts.delta_t0
        manifest["resolved_constants"] = resolved
    manifest["outputs"] = outputs
    manifest["rows"] = len(rows)
    manifest["failed_rows"] = sum(1 for row in rows if row.get("pass") is False)
    manifest["created_utc"] = datetime.now(timezone.utc).isoformat()
    with (directory / "run_manifest.json").open("w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")

    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="boselab",
        description="Run a boson-lattice experiment scenario from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one scenario config")
    runp.add_argument("config", help="path to a JSON scenario config")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--seed", type=int, default=0, help="RNG seed")
    runp.add_argument("--threads", type=int, default=1, help="worker threads")
    runp.add_argument(
        "--dense-cap", type=int, default=None,
        help="override the dense-matrix dimension cap",
    )
    args = parser.parse_args(argv)

    try:
        return run_scenario(
            args.config,
            out_dir=args.out,
            seed=args.seed,
            threads=args.threads,
            dense_cap=args.dense_cap,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failures surface with their type
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
