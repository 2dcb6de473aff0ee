"""Config-driven scenario runner.

One JSON config describes one experiment: a lattice, a basis, a model, bound
constants, and a scenario block naming one of the predefined kinds.  The
runner executes it and writes CSV/JSON reports plus a run manifest that
records the bound constants the run resolved.  Exit status is 0 only when
all inequality rows pass, 1 when any fails, 2 on configuration or
computation errors.

Each kind is one entry of the ``_SCENARIOS`` table: the scenario keys it
accepts, its report columns, the config blocks it needs, and a runner that
returns its rows.  A runner reads everything through one ``_Run``, which
builds the lattice, basis, model and a lazy H once, resolves the
observable, the initial state and the bound constants, reads scenario
values with their types (a bad value is a ``ConfigError`` naming its
field), and maps the runner's cells over the thread pool.

Determinism contract: a fixed config and seed produce byte-identical CSV.
Timestamps appear only in the manifest sidecar.  CSV floats use 17
significant digits; JSON uses the shortest exact representation, so a
JSON emit/parse round trip reproduces rows bit-exactly.
"""

from __future__ import annotations

import argparse
import contextvars
import csv
import itertools
import json
import math
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg

from .bounds import (
    BoundConditionError,
    BoundConstants,
    BoundValue,
    ConstantError,
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
from .evolve import RUN_DENSE_CAP, DenseCapError, StateVector, evolve_state, spectral_norm
from .fock import FockBasis, ResourceLimitError, enumerate_basis
from .lattice import LatticeGraph, boundary, build_lattice, geometric_constants
from .model import (
    HamiltonianSpec,
    Interaction,
    Monomial,
    OperatorMatrix,
    assemble_hamiltonian,
    bose_hubbard,
    creation_degree,
    local_operator,
)
from .probes import (
    commutator_norms,
    connected_correlation,
    ground_state,
    heisenberg_apply,
    mgf_condition,
    moments,
    tail_probabilities,
)
from .approx import (
    ScheduleError,
    StationarityError,
    approximate_heisenberg,
    halo,
    local_step_unitary,
    quench_reference,
    run_quench,
)


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(block: Mapping, allowed: Iterable[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: {block!r} is not an object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


_REQUIRED = object()


def _need(
    block: Mapping, where: str, key: str, conv: Callable | None = None, default=_REQUIRED
):
    """``block[key]`` through ``conv``; a bad value is a ConfigError naming ``where.key``.

    An optional key whose default is None reads as None when absent or null.
    """
    value = block.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"{where}: missing required key '{key}'")
    if conv is None or (value is None and default is None):
        return value
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from None


def _as_list(value) -> list:
    """A list as it is; any other value as a list of one."""
    return value if isinstance(value, list) else [value]


def _of_type(kind: type, noun: str) -> Callable[[object], object]:
    """A converter that refuses any value that is not a ``kind``."""

    def check(value):
        if not isinstance(value, kind):
            raise ValueError(f"{value!r} is not {noun}")
        return value

    return check


_list, _object = _of_type(list, "a list"), _of_type(dict, "an object")


def _integer(value) -> int:
    """An int, or a float with an integral value; a bool or any other value is refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _finite(value) -> float:
    """A float that is a finite number; NaN and the infinities are refused."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{value!r} is not a finite number")
    return x


def _bounded(
    lo: float, hi: float | None = None, conv: Callable = _integer, noun: str = "value"
) -> Callable[[object], object]:
    """A converter through ``conv`` that refuses values below ``lo`` or above ``hi``."""

    def check(value):
        x = conv(value)
        if x < lo or (hi is not None and x > hi):
            span = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
            raise ValueError(f"{noun} {x} is not {span}")
        return x

    return check


def _positive(value) -> float:
    """A finite float above zero."""
    if (x := _finite(value)) <= 0:
        raise ValueError(f"{x} is not positive")
    return x


def _site_index(n_sites: int) -> Callable[[object], int]:
    """A converter to a site index that refuses indices outside 0..n_sites-1."""
    return _bounded(0, n_sites - 1, noun="site")


def _one_of(options: Sequence[str]) -> Callable[[object], str]:
    """A converter that refuses any value but one of ``options``."""

    def check(value) -> str:
        if value not in options:
            raise ValueError(f"{value!r} is not one of {list(options)}")
        return value

    return check


# ranges the library refuses outside of, read here so the error names the field
_POSITIVE = _bounded(1)
_NON_NEGATIVE = _bounded(0.0, conv=_finite)
_RADIUS = _bounded(3.0, conv=_finite)  # r of the distance-window bounds
_PROBES = ("number", "creation", "annihilation", "phase")
_TAIL_MODES = ("markov-optimized", "paper")


def _flag(lo: int) -> Callable[[str], int]:
    """An argparse type for an integer of at least ``lo``; argparse names the flag it refuses."""
    check = _bounded(lo, conv=int)

    def convert(text: str) -> int:
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


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
    scn = _need(cfg, "config", "scenario", _object)
    kind = _need(scn, "scenario", "kind")
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
    kind = _need(block, "lattice", "kind")
    dims = _need(block, "lattice", "dims", lambda ds: [_integer(d) for d in _list(ds)])
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
        cutoffs: int | list[int] = _need(block, "basis", "cutoff", _integer)
    elif "cutoffs" in block:
        cutoffs = _need(block, "basis", "cutoffs", lambda cs: [_integer(c) for c in cs])
    else:
        raise ConfigError("basis: missing 'cutoff' or 'cutoffs'")
    sector = _need(block, "basis", "sector", _integer, None)
    try:
        return enumerate_basis(g, cutoffs, sector)
    except ResourceLimitError as exc:
        raise ConfigError(
            f"basis: {exc}; shrink it through lattice.dims, basis.cutoff(s) or basis.sector"
        ) from exc
    except ValueError as exc:
        raise ConfigError(f"basis: {exc}") from exc


def _build_model(cfg: Mapping, g: LatticeGraph) -> HamiltonianSpec:
    block = cfg.get("model")
    if block is None:
        raise ConfigError("model: block required for this scenario")
    _check_keys(
        block, ("J", "U", "mu", "hoppings", "interactions", "k_max", "J_bar"), "model"
    )
    items = _need(block, "model", "interactions", _list, [])
    explicit = "hoppings" in block or "interactions" in block
    if explicit and ("J" in block or "U" in block or "mu" in block):
        raise ConfigError("model: use either (J, U, mu) or explicit term lists")
    if not explicit:
        for key in ("k_max", "J_bar"):
            if key in block:
                # bose_hubbard derives both from its terms; a value here would be ignored
                raise ConfigError(
                    f"model.{key}: set only with explicit term lists, not with (J, U, mu)"
                )
    site = _site_index(g.site_count)
    try:
        if not explicit:
            return bose_hubbard(
                g,
                _need(block, "model", "J", _finite),
                _need(block, "model", "U", _finite),
                _need(block, "model", "mu", _finite, 0.0),
            )
        hoppings = _need(
            block, "model", "hoppings",
            lambda hs: tuple((site(i), site(j), _finite(Jij)) for i, j, Jij in hs), [],
        )
        terms, where = [], "model.interactions[]"
        for item in items:
            _check_keys(item, ("region", "monomials"), where)
            region = _need(item, where, "region", lambda r: tuple(site(i) for i in r))
            monos = _need(item, where, "monomials", lambda ms: tuple(
                Monomial(_finite(c), tuple(_integer(p) for p in powers)) for c, powers in ms
            ))
            terms.append(Interaction(region, monos))
        k_max = _need(
            block, "model", "k_max", _integer, max((len(t.region) for t in terms), default=1)
        )
        J_bar = _need(
            block, "model", "J_bar", _finite, max((abs(J) for _, _, J in hoppings), default=0.0)
        )
        return HamiltonianSpec(
            lattice=g,
            hoppings=hoppings,
            interactions=tuple(terms),
            k_max=k_max,
            J_bar=J_bar,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


_PSI0_DOC = "must be 'mott-<n>', 'vacuum', 'ground', or 'fock:[n0,n1,...]'"


def _parse_psi0(text, n_sites: int) -> tuple[int, ...] | None:
    """The occupations a ``psi0`` string names; None for the ground state."""
    if text == "ground":
        return None
    try:
        if text == "vacuum":
            return (0,) * n_sites
        if text.startswith("mott-"):
            return (int(text[len("mott-") :]),) * n_sites
        if text.startswith("fock:"):
            return tuple(_integer(n) for n in json.loads(text[len("fock:") :]))
    except (AttributeError, TypeError, ValueError):
        pass
    raise ConfigError(f"scenario.psi0: {text!r} {_PSI0_DOC}")


def _build_observable(
    obs: Mapping, b: FockBasis, rng: np.random.Generator
) -> OperatorMatrix:
    _check_keys(obs, ("kind", "site", "sites", "value", "op"), "observable")
    kind = _need(obs, "observable", "kind")
    if "site" in obs and "sites" in obs:
        raise ConfigError("observable: give 'site' or 'sites', not both")
    if "site" not in obs and "sites" not in obs:
        raise ConfigError("observable: needs 'site' or 'sites'")
    key = "sites" if "sites" in obs else "site"
    site = _site_index(b.n_sites)
    sites = _need(obs, "observable", key, lambda v: [site(i) for i in _as_list(v)])
    if kind in ("number", "creation", "annihilation"):
        return local_operator(kind, sites, b)
    if kind == "projector":
        value = _need(obs, "observable", "value", _integer)
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


_CONST_KEYS = tuple(f.name for f in fields(BoundConstants))


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


def _write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return path


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
        _write_json(path, [{c: row.get(c) for c in columns} for row in rows])
    else:
        raise ConfigError(f"output format '{fmt}' not supported (csv, json)")
    return path


# ---------------------------------------------------------------------------
# the scenario table and the run it reads from


@dataclass(frozen=True)
class Scenario:
    """One scenario kind: what its config accepts and needs, and what it reports."""

    keys: tuple[str, ...]  # scenario keys it accepts besides "kind"
    columns: tuple[str, ...]  # report columns, in order
    needs: tuple[str, ...]  # config blocks built before it runs: "lattice", "model"
    run: Callable[[_Run], list[dict]]  # rows, without the "scenario" column


_LATTICE = ("lattice",)
_MODEL = ("lattice", "model")


class _Run:
    """What the runners of one scenario call share, resolved once.

    The lattice, basis and model that the scenario ``needs``, a lazy H, the
    t0 and qbar defaults of the bound constants, typed scenario reads, the
    seeded RNG, the manifest and the extra JSON outputs.
    """

    def __init__(self, cfg: Mapping, config_path, seed: int, threads: int) -> None:
        self.cfg = cfg
        self.scn = scn = cfg["scenario"]
        self.kind = scn["kind"]
        self.entry = _SCENARIOS[self.kind]
        _check_keys(scn, ("kind", *self.entry.keys), "scenario")
        self.rng = np.random.default_rng(seed)
        self.threads = max(1, int(threads))
        self.manifest: dict = {
            "scenario": self.kind, "seed": int(seed), "config": str(config_path)
        }
        self.extras: dict[str, object] = {}
        needs = self.entry.needs
        self.g = _build_lattice(cfg) if "lattice" in needs or "lattice" in cfg else None
        self.b = self.spec = None
        if "model" in needs:
            self.b = _build_basis(cfg, self.g)
            self.spec = _build_model(cfg, self.g)
        # t0 defaults to the largest |t| the scenario asks for, qbar to the
        # highest occupation of psi0
        times = self.values("times", _finite, None) or (
            [self.value("t", _finite)] if "t" in scn else []
        )
        self.t0 = max(map(abs, times), default=1.0)
        self.t0_field = "scenario.times" if "times" in scn else "scenario.t"
        occ = _parse_psi0(scn["psi0"], self.b.n_sites) if "psi0" in scn else None
        self.qbar = 1.0 if occ is None else float(max(occ, default=0))

    @cached_property
    def H(self) -> OperatorMatrix:
        return assemble_hamiltonian(self.spec, self.b)

    @cached_property
    def site(self) -> Callable[[object], int]:
        """Converter to a site index of the run's lattice, for typed reads."""
        return _site_index(self.g.site_count)

    def value(self, key: str, conv: Callable, default=_REQUIRED):
        return _need(self.scn, "scenario", key, conv, default)

    def values(self, key: str, conv: Callable, default=_REQUIRED):
        """``scenario[key]`` as a list, each item through ``conv``."""
        return self.value(key, lambda v: [conv(x) for x in _as_list(v)], default)

    def region(self) -> list[int]:
        """The sites of ``scenario.X``, at least one; the middle site by default."""
        X = self.values("X", self.site, [self.g.site_count // 2])
        if not X:
            raise ConfigError("scenario.X: the region has no site")
        return X

    def observable(self, default: Mapping) -> OperatorMatrix:
        return _build_observable(self.value("observable", _object, default), self.b, self.rng)

    def state(self, default: str) -> StateVector:
        """The initial state ``psi0`` names, ``default`` if the scenario names none."""
        occ = _parse_psi0(self.scn.get("psi0", default), self.b.n_sites)
        if occ is None:
            gs = ground_state(self.H)
            # a degenerate ground state is an arbitrary vector of its eigenspace
            self.manifest["ground_state"] = {
                "E0": gs.E0, "gap": gs.gap_DeltaE, "degenerate": gs.degenerate,
                "dim": self.b.dim,
            }
            return gs.ground
        try:
            idx = self.b.index_of(occ)
        except KeyError:
            raise ConfigError(
                f"scenario.psi0: occupation {occ} is not in the basis"
            ) from None
        amps = np.zeros(self.b.dim, dtype=np.complex128)
        amps[idx] = 1.0
        return StateVector(self.b, amps)

    def constants(self, O: OperatorMatrix | None = None) -> BoundConstants:
        """The ``constants`` block over geometric and run defaults, recorded in the manifest.

        zeta0 defaults to the norm of ``O``, or to 1 without one; q0 to the
        creation degree of ``O`` on its support, or to 0 without one; k to
        the model's k_max, or to 1 without a model.
        """
        block = self.cfg.get("constants", {})
        _check_keys(block, _CONST_KEYS, "constants")
        zeta0, q0 = 1.0, 0.0
        if O is not None and "zeta0" not in block:
            zeta0 = spectral_norm(O)
        if O is not None and "q0" not in block:
            degree = creation_degree(O, O.support)
            if degree == "unbounded":
                raise ConfigError(
                    f"constants.q0: the observable's creation degree on sites "
                    f"{sorted(O.support)} spans their whole occupation range; set constants.q0"
                )
            q0 = float(degree)
        geo = geometric_constants(self.g)
        vals: dict = {
            "c0": 1.0,
            "qbar": self.qbar,
            "t0": self.t0,
            "J_bar": self.spec.J_bar if self.spec is not None else 1.0,
            "dG": geo.max_degree_dG,
            "gamma": geo.gamma,
            "lambda0": geo.lambda0,
            "D": geo.dimension_D,
            "k": self.spec.k_max if self.spec is not None else 1,
            "zeta0": zeta0,
            "q0": q0,
        }
        for key in block:
            conv = _integer if key in ("dG", "D", "k") else _finite
            vals[key] = _need(block, "constants", key, conv, None)
        try:
            consts = BoundConstants(**vals)
        except ConstantError as exc:
            # a field the block leaves out is blamed on where its default comes from
            path = f"constants.{exc.field}"
            if exc.field not in block:
                defaults = {"t0": self.t0_field, "k": "model.k_max", "zeta0": "scenario.observable"}
                path = defaults.get(exc.field, path)
            raise ConfigError(f"{path}: {exc}") from None
        resolved = {
            "c0": consts.c0,
            "qbar": consts.qbar,
            "t0": consts.t0,
            "J_bar": consts.J_bar,
            "zeta0": consts.zeta0,
            "q0": consts.q0,
            "k": consts.k,
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
        self.manifest["resolved_constants"] = resolved
        return consts

    def map(self, fn: Callable, *iterables) -> list:
        """``[fn(*args) for args in zip(*iterables)]``, the calls independent.

        With more than one thread they run in the pool, each in a copy of
        this context, so the run's dense cap holds there too.
        """
        args = list(zip(*iterables))
        if self.threads <= 1 or len(args) <= 1:
            return [fn(*a) for a in args]
        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            futures = [pool.submit(contextvars.copy_context().run, fn, *a) for a in args]
            return [f.result() for f in futures]

    def sweep(self, cell: Callable, values: Sequence) -> list[dict]:
        """The rows of ``cell(v)`` (one row or a list) for every v, v the innermost axis.

        Cells are independent and run through ``map``.
        """
        ranked = itertools.zip_longest(*map(_as_list, self.map(cell, values)))
        return [row for rows in ranked for row in rows if row is not None]


def _passes(x: float, bv: BoundValue) -> bool | None:
    return bool(x <= bv.value) if bv.valid else None


def _error_cells(err: float, bv: BoundValue) -> dict:
    return {
        "error": err, "bound": bv.value, "log_bound": bv.log_value, "pass": _passes(err, bv)
    }


# ---------------------------------------------------------------------------
# scenario runners


def _lightcone_map(run: _Run) -> list[dict]:
    H = run.H
    i0 = run.value("i0", run.site, 0)
    times = run.values("times", _finite)
    O_A = run.observable({"kind": "number", "site": i0})
    probe_kind = run.value("probe", _one_of(_PROBES), "number")
    sites = run.values("sites", run.site, list(run.g.sites))
    probes = {i: _build_observable({"kind": probe_kind, "site": i}, run.b, run.rng) for i in sites}

    norms = commutator_norms(H, O_A, [probes[i] for i in sites], times)
    return [
        {"i": i, "t": t, "commutator_norm": row[k]}
        for k, i in enumerate(sites)
        for t, row in zip(times, norms)
    ]


def _moment_bound(run: _Run, O_X: OperatorMatrix, consts: BoundConstants) -> Callable:
    size_x = len(O_X.support)
    return lambda s, d: moment_bound(s, size_x, d, consts)


def _tail_bound(run: _Run, O_X: OperatorMatrix, consts: BoundConstants) -> Callable:
    r = run.value("r", _RADIUS, 3.0)
    mode = run.value("mode", _one_of(_TAIL_MODES), "markov-optimized")
    return lambda z0, d: tail_bound(z0, d, r, consts, mode=mode)


def _transport_check(
    run: _Run, values_key: str, default: list[int], probe: Callable, bound: Callable
) -> list[dict]:
    """moment-check and tail-check: a probe of O_X(t) psi0 at each site, against its bound.

    ``probe(phi, sites, values)`` measures every (site, v) pair at once, as
    a (sites, values) array; ``bound(run, O_X, consts)`` returns the bound as
    a function of (v, d(i, X)); the columns name the parameter v, the probe
    and the bound.
    """
    param, probe_col, bound_col, log_col = (run.entry.columns[k] for k in (2, 4, 5, 6))
    H, g = run.H, run.g
    i0 = run.value("i0", run.site, 0)
    O_X = run.observable({"kind": "projector", "site": i0, "value": 1})
    params = run.values(values_key, _POSITIVE, default)
    times = run.values("times", _finite)
    sites = run.values("sites", run.site, list(g.sites))
    psi0 = run.state("mott-1")
    consts = run.constants(O_X)
    mgf = mgf_condition(psi0, consts.c0, consts.qbar)
    if mgf > 1.0 + 1e-9:
        raise ConfigError(
            f"initial state violates the low-density condition: "
            f"mgf = {mgf:.6g} > 1 at c0 = {consts.c0}, qbar = {consts.qbar}"
        )
    run.manifest["mgf_value"] = mgf
    bound_at = bound(run, O_X, consts)
    dists = {i: float(min(int(g.distances[i, j]) for j in O_X.support)) for i in sites}

    # the forward legs march once over the grid, the backward legs run in the pool
    phis = heisenberg_apply(H, O_X, psi0, times, map_legs=run.map)

    def cell(j: int) -> list[dict]:
        t, phi = times[j], phis[j]
        rows = []
        for i, values in zip(sites, probe(phi, sites, params).tolist()):
            for v, x in zip(params, values):
                bv = bound_at(v, dists[i])
                rows.append({
                    "i": i, param: v, "t": t, probe_col: x, bound_col: bv.value,
                    log_col: bv.log_value, "pass": _passes(x, bv),
                })
        return rows

    return run.sweep(cell, range(len(times)))


def _truncation_check(run: _Run) -> list[dict]:
    b, spec = run.b, run.spec
    X = run.region()
    ell0 = run.value("ell0", _POSITIVE, 1)
    q_values = run.values("q_values", _POSITIVE, list(range(1, max(b.site_cutoffs) + 1)))
    t = run.value("t", _finite, 0.1)
    r = run.value("r", _RADIUS, 3.0)
    O_X = run.observable({"kind": "creation", "site": min(X)})
    psi0 = run.state("mott-1")
    consts = run.constants(O_X)

    regions = halo(run.g, X, ell0, spec.k_max)
    annulus = sorted(regions.annulus)
    v = StateVector(b, O_X.matrix @ psi0.amplitudes)
    exact = evolve_state(run.H, v, t)

    def cell(q: int) -> dict:
        H_eff = assemble_hamiltonian(spec, b, truncation=[(annulus, q)])
        approx = evolve_state(H_eff, v, t)
        err = float(np.linalg.norm(exact.amplitudes - approx.amplitudes))
        bv = truncation_error_bound(q, len(regions.L2), ell0, r, consts)
        return {"q": q, "t": t, **_error_cells(err, bv), "bound_valid": bv.valid}

    return run.sweep(cell, q_values)


def _short_lr_check(run: _Run) -> list[dict]:
    g, b, spec = run.g, run.b, run.spec
    X = run.region()
    ell0_values = run.values("ell0_values", _POSITIVE, [1, 2])
    t = run.value("t", _NON_NEGATIVE, 0.05)
    q = run.value("q", _POSITIVE, max(b.site_cutoffs))
    O_X = run.observable({"kind": "number", "site": min(X)})
    psi0 = run.state("mott-1")
    consts = run.constants(O_X)
    if consts.eta is None:
        raise ConfigError(
            "short-lr-check: constants.eta is required (the step bound depends on it)"
        )
    # O(t) psi0 does not depend on ell0: one exact evolution serves every cell
    exact = heisenberg_apply(run.H, O_X, psi0, t)

    def cell(ell0: int) -> dict:
        # U^dagger O_X U psi0, each e^{-iGt} applied to the state by Krylov
        step = local_step_unitary(spec, b, X, ell0, q, t)
        hit = StateVector(b, O_X.matrix @ step.apply(psi0).amplitudes)
        v = step.apply(hit, adjoint=True)
        # the trace norm of the rank-one (O(t) - O_R)|psi0><psi0| is the
        # 2-norm of (O(t) - O_R) psi0, so the state-restricted error is exact
        err = float(np.linalg.norm(exact.amplitudes - v.amplitudes))
        bsize = len(boundary(g, halo(g, X, ell0, spec.k_max).L2p))
        bv = short_lr_bound(ell0, bsize, t, consts)
        return {"ell0": ell0, "t": t, **_error_cells(err, bv), "conditions_ok": bv.valid}

    return run.sweep(cell, ell0_values)


def _approx_sweep(run: _Run) -> list[dict]:
    spec = run.spec
    i0 = run.value("i0", run.site, 0)
    r0 = run.value("r0", _bounded(0), 0)
    R_values = run.values("R_values", _bounded(r0 + 1))
    t = run.value("t", _positive, 0.1)
    O_X = run.observable({"kind": "number", "site": i0})
    psi0 = run.state("mott-1")
    consts = run.constants(O_X)
    ell0, q = run.value("ell0", _POSITIVE, None), run.value("q", _POSITIVE, None)
    delta_t0 = run.value("delta_t0", _positive, None)
    # O(t) psi0 does not depend on R: one exact evolution serves every cell
    exact = heisenberg_apply(run.H, O_X, psi0, t)

    def cell(R: int) -> dict:
        try:
            v, trace = approximate_heisenberg(
                O_X, i0, r0, R, t, spec, psi0, consts, ell0=ell0, q=q, delta_t0=delta_t0
            )
        except ScheduleError as exc:
            raise ConfigError(f"scenario.R_values: R={R}: {exc}") from None
        # the state-restricted error of a pure psi0, exact as in _short_lr_check
        err = float(np.linalg.norm(exact.amplitudes - v.amplitudes))
        return {
            "R": R, "t": t, "ell0": trace.ell0, "q": trace.q,
            "m_t": trace.schedule.m_t, "error": err,
        }

    return run.sweep(cell, R_values)


def _quench_sim(run: _Run) -> list[dict]:
    spec = run.spec
    h_cfg = run.value("h", _object)
    _check_keys(h_cfg, ("site", "coeff", "power"), "scenario.h")
    site = _need(h_cfg, "scenario.h", "site", run.site)
    coeff = _need(h_cfg, "scenario.h", "coeff", _finite, 1.0)
    power = _need(h_cfg, "scenario.h", "power", _bounded(0), 2)
    h = Interaction((site,), (Monomial(coeff, (power,)),))
    psi0 = run.state("ground")
    t = run.value("t", _positive, 0.1)
    R_values = run.values("R_values", _POSITIVE)
    consts = run.constants()
    options = {
        key: run.value(key, conv, None)
        for key, conv in (("ell0", _POSITIVE), ("q", _POSITIVE), ("qprime", _POSITIVE),
                          ("delta_t0", _positive), ("stationarity_tol", _NON_NEGATIVE))
    }
    kwargs = {key: v for key, v in options.items() if v is not None}
    stationarity = {k: kwargs.pop(k) for k in ["stationarity_tol"] if k in kwargs}
    # the stationarity check and the exact quenched state serve every R
    try:
        reference = quench_reference(spec, h, psi0, t, **stationarity)
    except StationarityError as exc:
        raise ConfigError(
            f"scenario.psi0: {exc}; scenario.stationarity_tol sets the tolerance"
        ) from None

    def cell(R: int) -> dict:
        try:
            err, report = run_quench(reference, R, consts, **kwargs)
        except ScheduleError as exc:
            raise ConfigError(f"scenario.R_values: R={R}: {exc}") from None
        trace = {
            "R": R,
            "params": dict(report.params),
            "stationarity_residual": report.stationarity_residual,
            "steps": [dict(rec) for rec in report.step_records],
        }
        return {
            "R": R, "t": t, **_error_cells(err, report.bound.error),
            "cost_states": report.cost_states, "trace": trace,
        }

    rows = run.sweep(cell, R_values)
    run.extras["quench_steps.json"] = [row.pop("trace") for row in rows]
    return rows


def _clustering(run: _Run) -> list[dict]:
    g, b = run.g, run.b
    anchor = run.value("anchor", run.site, 0)
    d_values = run.values("d_values", _integer, list(range(1, g.diameter + 1)))
    psi = run.state("ground")

    def cell(d: int) -> list[dict]:
        cands = [j for j in g.sites if int(g.distances[anchor, j]) == d]
        if not cands:
            return []
        j = min(cands)
        O_i = local_operator("number", [anchor], b)
        O_j = local_operator("number", [j], b)
        cor = connected_correlation(psi, O_i, O_j)
        return [{"i": anchor, "j": j, "d": d, "correlation": cor, "abs_correlation": abs(cor)}]

    return run.sweep(cell, d_values)


# a bound's parameter names, its optional keyword names and its evaluator
_BoundEntry = tuple[tuple[str, ...], tuple[str, ...], Callable]


def _bound_registry(consts: BoundConstants) -> dict[str, _BoundEntry]:
    """Bound name -> (parameter names, optional keyword names, evaluator of a parameter dict)."""

    def entry(fn: Callable, names: str, **kwargs) -> _BoundEntry:
        # fn takes these parameters in this order (s and q as integers), then
        # the constants; a parameter named like a keyword (tail's mode) sets it
        params = tuple(names.split())

        def evaluate(p: Mapping) -> BoundValue:
            args = (_integer(p[k]) if k in ("s", "q") else p[k] for k in params)
            return fn(*args, consts, **{**kwargs, **{k: p[k] for k in kwargs if k in p}})

        return params, tuple(kwargs), evaluate

    return {
        "moment": entry(moment_bound, "s sizeX d_iX"),
        "first-moment": entry(first_moment_bound, "d_iX t N_X n0"),
        "initial-moment-single": entry(lambda *a: initial_moment_bounds(*a)[0], "s sizeX"),
        "initial-moment-region": entry(lambda *a: initial_moment_bounds(*a)[1], "s sizeX"),
        "tail": entry(tail_bound, "z0 d_iX r", mode="markov-optimized"),
        "truncation": entry(truncation_error_bound, "q sizeL ell0 r"),
        "concentration": entry(concentration_bound, "q sizeL ell0 r"),
        "short-lr": entry(short_lr_bound, "ell0 boundary_size t"),
        "subtheorem": entry(subtheorem_bound, "ell r"),
        "main-lr": entry(main_lr_bound, "R r0 t"),
        "clustering": entry(clustering_bound, "R DeltaE"),
        "quench-error": entry(lambda *a: quench_bounds(*a).error, "R r0 t"),
        "quench-cost": entry(lambda *a: quench_bounds(*a).cost, "R r0 t"),
        "quench-cost-1d": entry(lambda *a: quench_bounds(*a).cost_1d, "R r0 t"),
    }


def _report_bounds(run: _Run) -> list[dict]:
    consts = run.constants()
    name = run.value("bound", str)
    registry = _bound_registry(consts)
    if name not in registry and name != "lightcone-radius":
        raise ConfigError(
            f"scenario.bound: '{name}' is not one of "
            f"{sorted(registry) + ['lightcone-radius']}"
        )
    grid = run.value("grid", _object)
    fixed = run.value("fixed", _object, {})
    given = grid.keys() | fixed.keys()
    if name == "lightcone-radius":
        param_names = ("t", "delta")
        _check_keys(grid, param_names, "scenario.grid")
        _check_keys(fixed, param_names, "scenario.fixed")
    else:
        param_names, optional, bound = registry[name]
        extra = sorted(given - {*param_names, *optional})
        if extra:
            raise ConfigError(f"scenario: bound '{name}' got unknown parameters {extra}")
    both = sorted(grid.keys() & fixed.keys())
    if both:
        raise ConfigError(f"scenario.fixed: keys {both} are also in scenario.grid")
    missing = [p for p in param_names if p not in given]
    if missing:
        raise ConfigError(f"scenario: bound '{name}' needs parameters {missing}")
    where = {k: "scenario.grid" if k in grid else "scenario.fixed" for k in given}
    if name == "lightcone-radius":
        # t and delta from the grid, else as one fixed value; t outer, delta
        # inner, and params keep the values as the config gave them
        values = {**{k: [v] for k, v in fixed.items()}, **grid}
        axes = (_as_list(values[k]) for k in param_names)
        points = [{"t": t, "delta": delta} for t, delta in itertools.product(*axes)]

        def evaluate(p: Mapping) -> tuple[float, float, bool]:
            t, delta = (_need(p, where[k], k, _finite) for k in ("t", "delta"))
            R = lightcone_radius(t, delta, consts)
            return R, math.log(R), True

    else:
        # every grid combination over the fixed values, numbers as floats
        keys = sorted(grid)
        points = [
            {
                k: float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v
                for k, v in {**fixed, **dict(zip(keys, combo))}.items()
            }
            for combo in itertools.product(*(_as_list(grid[k]) for k in keys))
        ]
        # s and q must be integers, the other numbers finite; the params
        # column still writes them as floats
        for p in points:
            for k, v in p.items():
                if k in ("s", "q"):
                    _need(p, where[k], k, _integer)
                elif isinstance(v, float):
                    _need(p, where[k], k, _finite)

        def evaluate(p: Mapping) -> tuple[float, float, bool]:
            try:
                bv = bound(p)
            except BoundConditionError:
                return float("nan"), float("nan"), False
            return bv.value, bv.log_value, bv.valid

    rows = []
    for p in points:
        params = json.dumps(p, sort_keys=True)
        try:
            value, log_value, valid = evaluate(p)
        except ConfigError:
            raise
        except ValueError as exc:  # the evaluator refused this point of the grid
            raise ConfigError(f"scenario.grid: {params}: {exc}") from None
        rows.append({
            "bound": name, "params": params,
            "log_value": log_value, "value": value, "valid": valid,
        })
    return rows


def _fs_check(run: _Run) -> list[dict]:
    s_max = run.value("s_max", _bounded(1, 20), 10)  # fs_polynomial's range
    m_max = run.value("m_max", _POSITIVE, 100)
    rows = []
    for s in range(1, s_max + 1):
        poly = fs_polynomial(s)
        for m in range(1, m_max + 1):
            val, lower, upper = poly(m), (m - 1) ** s, m**s
            rows.append({
                "s": s, "m": m, "lower": int(lower), "f_s": int(val), "upper": int(upper),
                "pass": bool(lower <= val <= upper),
            })
    return rows


def _adjacency_check(run: _Run) -> list[dict]:
    g = run.g
    times = run.values("times", _NON_NEGATIVE, [0.1, 0.5, 1.0])
    J_scale = run.value("J_scale", _NON_NEGATIVE, 1.0)
    adj = (g.distances == 1).astype(np.float64)

    def cell(t: float) -> dict:
        bound = adjacency_exp_bound(g, J_scale, t)
        measured = scipy.linalg.expm(J_scale * t * adj)
        ratio = measured / bound.matrix
        violations = int(np.sum(measured > bound.matrix * (1.0 + 1e-12)))
        return {
            "t": t, "max_ratio": float(ratio.max()), "violations": violations,
            "pass": violations == 0,
        }

    return run.sweep(cell, times)


_TRANSPORT_KEYS = ("i0", "observable", "times", "psi0", "sites")

_SCENARIOS: dict[str, Scenario] = {
    "lightcone-map": Scenario(
        ("i0", "times", "observable", "probe", "sites"),
        ("scenario", "i", "t", "commutator_norm"),
        _MODEL, _lightcone_map,
    ),
    "moment-check": Scenario(
        (*_TRANSPORT_KEYS, "s_values"),
        ("scenario", "i", "s", "t", "M_probe", "M_bound", "log_M_bound", "pass"),
        _MODEL,
        lambda run: _transport_check(
            run, "s_values", [1, 2, 3], moments, _moment_bound
        ),
    ),
    "tail-check": Scenario(
        (*_TRANSPORT_KEYS, "z_values", "r", "mode"),
        ("scenario", "i", "z0", "t", "P_probe", "P_bound", "log_P_bound", "pass"),
        _MODEL,
        lambda run: _transport_check(
            run, "z_values", [1, 2, 3, 4, 5], tail_probabilities, _tail_bound
        ),
    ),
    "truncation-check": Scenario(
        ("X", "ell0", "q_values", "t", "psi0", "observable", "r"),
        ("scenario", "q", "t", "error", "bound", "log_bound", "bound_valid", "pass"),
        _MODEL, _truncation_check,
    ),
    "short-lr-check": Scenario(
        ("X", "ell0_values", "t", "q", "psi0", "observable"),
        ("scenario", "ell0", "t", "error", "bound", "log_bound", "conditions_ok", "pass"),
        _MODEL, _short_lr_check,
    ),
    "approx-sweep": Scenario(
        ("i0", "r0", "R_values", "t", "observable", "psi0", "ell0", "q", "delta_t0"),
        ("scenario", "R", "t", "ell0", "q", "m_t", "error"),
        _MODEL, _approx_sweep,
    ),
    "quench-sim": Scenario(
        ("h", "psi0", "t", "R_values", "ell0", "q", "qprime", "delta_t0",
         "stationarity_tol"),
        ("scenario", "R", "t", "error", "bound", "log_bound", "cost_states", "pass"),
        _MODEL, _quench_sim,
    ),
    "clustering": Scenario(
        ("anchor", "d_values", "psi0"),
        ("scenario", "i", "j", "d", "correlation", "abs_correlation"),
        _MODEL, _clustering,
    ),
    "bound-report": Scenario(
        ("bound", "grid", "fixed"),
        ("scenario", "bound", "params", "log_value", "value", "valid"),
        _LATTICE, _report_bounds,
    ),
    "fs-check": Scenario(
        ("s_max", "m_max"),
        ("scenario", "s", "m", "lower", "f_s", "upper", "pass"),
        (), _fs_check,
    ),
    "adjacency-check": Scenario(
        ("times", "J_scale"),
        ("scenario", "t", "max_ratio", "violations", "pass"),
        _LATTICE, _adjacency_check,
    ),
}

SCENARIO_KINDS = tuple(_SCENARIOS)


def run_scenario(
    config_path: str | Path,
    *,
    out_dir: str | Path | None = None,
    seed: int = 0,
    threads: int = 1,
    dense_cap: int | None = None,
) -> int:
    """Execute one scenario config; write reports; return the exit status.

    ``dense_cap`` replaces the dense-matrix dimension cap for this call
    only, in every thread it uses.
    """
    token = None if dense_cap is None else RUN_DENSE_CAP.set(int(dense_cap))
    try:
        cfg = load_config(config_path)
        kind = cfg["scenario"]["kind"]

        out_block = cfg.get("output", {})
        _check_keys(out_block, ("directory", "formats"), "output")
        formats = _as_list(out_block.get("formats", ["csv"]))
        for fmt in formats:
            if fmt not in ("csv", "json"):
                raise ConfigError(f"output.formats: '{fmt}' not supported")
        directory = (
            Path(out_dir) if out_dir is not None else Path(out_block.get("directory", "."))
        )

        run = _Run(cfg, config_path, seed, threads)
        rows = [{"scenario": kind, **row} for row in run.entry.run(run)]

        outputs = []
        for fmt in formats:
            path = emit_report(rows, fmt, directory / f"{kind}.{fmt}", run.entry.columns)
            outputs.append(str(path))
        for name, payload in run.extras.items():
            outputs.append(str(_write_json(directory / name, payload)))

        failed = sum(1 for row in rows if row.get("pass") is False)
        manifest = run.manifest
        if run.g is not None:
            geo = geometric_constants(run.g)
            manifest["geometry"] = {
                "gamma": geo.gamma,
                "lambda0": geo.lambda0,
                "dG": geo.max_degree_dG,
                "D": geo.dimension_D,
            }
        manifest["outputs"] = outputs
        manifest["rows"] = len(rows)
        manifest["failed_rows"] = failed
        manifest["created_utc"] = datetime.now(timezone.utc).isoformat()
        _write_json(directory / "run_manifest.json", manifest)
        return 1 if failed else 0
    finally:
        if token is not None:
            RUN_DENSE_CAP.reset(token)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="boselab",
        description="Run a boson-lattice experiment scenario from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one scenario config")
    runp.add_argument("config", help="path to a JSON scenario config")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--seed", type=_flag(0), default=0, help="RNG seed")
    runp.add_argument("--threads", type=_flag(1), default=1, help="worker threads")
    runp.add_argument(
        "--dense-cap", type=_flag(1), default=None,
        help="dense-matrix dimension cap for this run only",
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
    except DenseCapError as exc:
        print(f"error: {exc}; --dense-cap raises the cap for one run", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failures surface with their type
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
