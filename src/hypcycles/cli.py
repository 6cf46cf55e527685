"""Batch driver: every verification suite and experiment as a subcommand.

Outputs are byte-reproducible: fixed seeds, fixed summation order, floats
rendered with repr.  Exit codes: 0 all checks pass, 1 a check failed,
2 a refused argument: a ValueError from the config layer or the library,
its message on one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import _checks, bounds, cycles, decompose, lorentz, orbits, transform

DEFAULT_TOLERANCES = {
    "group": lorentz.TOL_GROUP,
    "roundtrip": 1e-9,
    "dist": 1e-10,
    "gr": 1e-7,
    "transform": 1e-6,
    "geom": 1e-6,
    "coset": lorentz.TOL_G0,
    "quant": orbits.QUANT,
    "quad": 1e-9,
}

SEED = 20211130


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)     # JSON true is no number


# the check of each RunConfig field, by its annotation, with what it asks for
_FIELD_CHECKS = {
    "int": (lambda v: isinstance(v, int) and _is_number(v), "an integer"),
    "float": (_is_number, "a number"),
    "tuple": (lambda v: isinstance(v, tuple) and all(map(_is_number, v)), "a list of numbers"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "str": (lambda v: v is None or isinstance(v, str), "a string"),
}


@dataclass(frozen=True)
class RunConfig:
    """The run settings: the field names are the config-file keys and the
    destinations of the command-line flags."""

    d: int = 3
    n: int = 2
    mu_list: tuple = (1.0,)
    nu_re: float = 0.0
    nu_im: float = 0.0
    u: tuple = ()
    generators_path: str = None
    max_word_length: int = 6
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output_path: str = None
    format: str = "csv"

    def __post_init__(self):
        for f in fields(self):
            check, what = _FIELD_CHECKS[f.type]
            if not check(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be {what}, got {getattr(self, f.name)!r}")
        if not self.mu_list:    # verify would compare nothing
            raise ValueError("mu_list must hold at least one entry")
        _checks.positive(mu_list=self.mu_list)
        _checks.finite(nu_re=self.nu_re, nu_im=self.nu_im)
        if self.u:
            cycles._directions(np.ravel(self.u)[None], self.n)
        for name, t in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValueError(f"unknown tolerance {name!r}; "
                                 f"known: {', '.join(DEFAULT_TOLERANCES)}")
            if not _is_number(t):
                raise ValueError(f"tolerance {name} must be a number, got {t!r}")
            _checks.positive(**{f"tolerance {name}": t})
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")

    @property
    def nu(self):
        return complex(self.nu_re, self.nu_im)

    @property
    def cfg(self):
        """The cycle configuration, for the commands that read n."""
        return lorentz.CycleConfig(self.d, self.n)

    def tol(self, name):
        return self.tolerances[name]


def _number_list(text):
    """A comma-separated flag value as a tuple of floats, every entry a
    number; commas alone give no entry, which RunConfig refuses."""
    entries = text.split(",")
    try:
        return tuple(float(x) for x in entries) if any(entries) else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _build_parser():
    # each flag but --tol and --config writes to the RunConfig field it sets
    p = argparse.ArgumentParser(
        prog="hypcycles", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="verification suites and experiments for hyperbolic cycle numerics",
        epilog="commands:\n" + "\n".join(f"  {name:<10} {cmd.__doc__.splitlines()[0]}"
                                         for name, cmd in COMMANDS.items()))
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--mu", dest="mu_list", type=_number_list, help="comma-separated list")
    p.add_argument("--nu-re", type=float)
    p.add_argument("--nu-im", type=float)
    p.add_argument("--u", type=_number_list, help="comma-separated direction")
    p.add_argument("--gens", dest="generators_path", help="generator JSON file")
    p.add_argument("--max-len", dest="max_word_length", type=int)
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VAL")
    p.add_argument("--out", dest="output_path")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--config", help="JSON config file")
    return p


def _config_from_args(args):
    """RunConfig's defaults, overridden by the config file, overridden by
    the flags; --tol overrides single tolerances."""
    settings = {}
    if args.config:
        try:
            with open(args.config) as fh:
                settings = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config file: {exc}")
        if not isinstance(settings, dict):
            raise ValueError("config file must hold a JSON object")
    tolerances = settings.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ValueError(f"tolerances must be an object, got {tolerances!r}")
    keys = {f.name for f in fields(RunConfig)}
    # JSON arrays give the tuple fields
    settings = {k: tuple(v) if isinstance(v, list) else v for k, v in settings.items() if k in keys}
    settings.update((k, v) for k, v in vars(args).items() if k in keys and v is not None)
    settings["tolerances"] = tolerances = {**DEFAULT_TOLERANCES, **tolerances}
    for item in args.tol:
        if "=" not in item:
            raise ValueError(f"bad --tol {item!r}, expected NAME=VAL")
        name, val = item.split("=", 1)
        try:
            tolerances[name] = float(val)
        except ValueError:
            raise ValueError(f"bad --tol value {val!r}")
    return RunConfig(**settings)


def _load_generators(config, default=None):
    """The --gens generator set, else ``default``; its dimension must be --d."""
    gens = default
    if config.generators_path is not None:
        try:
            gens = orbits.GeneratorSet.from_json(config.generators_path)
        except (OSError, KeyError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot load generators: {exc}")
        except ValueError as exc:
            raise ValueError(f"invalid generators: {exc}")
    if gens is None:
        raise ValueError("this command needs --gens FILE")
    if gens.d != config.d:
        raise ValueError(f"generator dimension {gens.d} does not match --d {config.d}")
    return gens


def _tol_comment(config, names):
    return "tolerances: " + " ".join(f"{k}={config.tol(k)!r}" for k in names)


def _write(config, obj, comments, columns, rows):
    """Write a command's result to the output path or stdout: ``obj`` as
    JSON, or as CSV the ``# `` comment lines, the header of ``columns`` and
    one line per row dict, strings as they are and other values by repr."""
    if config.format == "json":
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# {c}" for c in comments] + [",".join(columns)]
        lines += [",".join(v if isinstance(v, str) else repr(v) for v in (row[c] for c in columns))
                  for row in rows]
        text = "\n".join(lines) + "\n"
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify


def _bundled_picard(d):
    """The bundled Picard set, for d > 3 acting on coordinates 0, 1, 2 and d
    (identity elsewhere): its last coordinate stays normal to every cycle."""
    gens = orbits.picard_generators()
    if d == gens.d:
        return gens
    axes = np.ix_([0, 1, 2, d], [0, 1, 2, d])
    mats = []
    for g in gens.matrices:
        h = np.eye(d + 1)
        h[axes] = g
        mats.append(h)
    return orbits.GeneratorSet(labels=gens.labels, matrices=tuple(mats))


def cmd_verify(config):
    """Run the cross-check suites (decompositions, identities, transform, distances).

    Each check records its worst error against its oracle, the largest of 0.0
    and its errors, NaN if one is (a check comparing nothing fails), with
    ``n`` the number of errors.  One generator seeded with SEED gives every
    draw, check after check as below and draw after draw within a check; the
    three roundtrip checks share one set of 200 draws."""
    cfg = config.cfg
    gens = _load_generators(config, _bundled_picard(config.d))
    # built before any check, so that a bad --max-len is refused first; it draws nothing
    ball = orbits.ball_enumerate(gens, min(3, config.max_word_length), quant=config.tol("quant"))
    rng = np.random.default_rng(SEED)
    d = config.d
    checks, tol_names = [], {}      # the header's tolerances, in order of first use

    def record(name, tol_name, errors):
        err, tol = np.max([0.0, *errors]), config.tol(tol_name)     # unlike max, keeps a NaN
        tol_names[tol_name] = None
        checks.append({"check": name, "max_err": float(err), "tol": float(tol),
                       "n": len(errors), "status": "pass" if err <= tol else "fail"})

    record("constructor_group_residual", "group",
           [lorentz.group_residual(lorentz.random_lorentz(rng, d)) for _ in range(200)])

    draws = [lorentz.random_lorentz(rng, d) for _ in range(200)]
    for name in ("nak", "ank", "kak"):
        factor = getattr(decompose, name)
        record(f"roundtrip_{name}", "roundtrip",
               [float(np.max(np.abs(factor(g).product() - g))) for g in draws])

    def horospherical():
        return 2 * rng.uniform(-1, 1, d - 1), float(np.exp(rng.uniform(-1, 1)))

    pairs = [(horospherical(), horospherical()) for _ in range(200)]
    record("distance_duality", "dist",
           [abs(decompose.dist(decompose.from_horospherical(*p), decompose.from_horospherical(*q))
                - decompose.dist_horospherical(*p, *q)) for p, q in pairs])

    # each identity's arguments are drawn left to right
    record("gr_3_471_9", "gr", [transform.gr_identity_3_471_9(
        rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0),
        rng.uniform(-2, 2) if rng.uniform() < 0.5 else 1j * rng.uniform(0, 2))[2]
        for _ in range(10)])
    record("gr_6_726_4", "gr", [transform.gr_identity_6_726_4(
        rng.uniform(0.4, 2.5), rng.uniform(0.4, 2.5), rng.uniform(0.0, 2.0),
        rng.uniform(-1.5, 1.5), (-1) ** int(rng.integers(2)))[2] for _ in range(10)])
    record("gr_6_592_12", "gr", [transform.gr_identity_6_592_12(
        rng.uniform(0.4, 2.5), rng.uniform(-2, 2), rng.uniform(0.5, 2.5))[2] for _ in range(10)])

    record("transform_agreement", "transform",
           [transform.selberg_transform_agreement(dd, mu, nu, rel_tol=config.tol("quad"))[2]
            for dd in (3, 4) for mu in config.mu_list for nu in (0.0, 1j)])

    record("cycle_distance_oracle", "geom",
           [cycles.verify_f_geometric(g, rng.uniform(-1.5, 1.5, size=cfg.n - 1),
                                      float(np.exp(rng.uniform(-1, 1))), cfg)[2]
            for g in ball.mats[1:13]])

    _write(config, {"tolerances": {k: config.tol(k) for k in sorted(config.tolerances)},
                    "checks": checks},
           [_tol_comment(config, tol_names)],
           ["check", "status", "max_err", "tol", "n"], checks)
    return 0 if all(c["status"] == "pass" for c in checks) else 1


# ---------------------------------------------------------------------------
# delta / count


def _experiment_table(table):
    """A delta/count command: ``table(config, reduced, spec)`` of the --gens ball's
    double-coset delta spectrum gives _write's obj, comments (the first ends the
    ``d= n= max_len=`` line), columns and rows; exit 1 if no class is nontrivial."""
    @functools.wraps(table)
    def command(config):
        cfg = config.cfg
        gens = _load_generators(config)
        ball = orbits.ball_enumerate(gens, config.max_word_length, quant=config.tol("quant"))
        reduced = orbits.coset_reduce(ball, cfg, mode="double", tol=config.tol("coset"))
        u = np.asarray(config.u if config.u else np.zeros(cfg.n - 1))
        spec = orbits.delta_spectrum(reduced, u, cfg)
        if not spec.entries:
            sys.stderr.write("no nontrivial classes\n")
            return 1
        obj, (line, *comments), columns, rows = table(config, reduced, spec)
        _write(config, obj, [_tol_comment(config, ["coset", "quant"]),
                             f"d={config.d} n={config.n} max_len={config.max_word_length} {line}",
                             *comments], columns, rows)
        return 0
    return command


@_experiment_table
def cmd_delta(config, reduced, spec):
    """Delta table of a generator-set experiment."""
    rows = [{"word": e.word, "word_length": e.word_length, "M": e.M, "N_u": e.N_u,
             "Q_u": e.Q_u, "delta_u": e.delta,
             "dist": float(np.arccosh(max(np.sqrt(e.delta), 1.0)))}
            for e in spec.entries]
    return (rows, [f"u={list(config.u)!r} mode=double gamma0_max_len={reduced.gamma0_max_len}"],
            ["word", "word_length", "M", "N_u", "Q_u", "delta_u", "dist"], rows)


@_experiment_table
def cmd_count(config, reduced, spec):
    """Counting function and growth fit of a generator-set experiment."""
    grid = np.geomspace(1.0, max(e.delta for e in spec.entries) * 1.05, 60)
    pts, slope = orbits.counting_function(spec, grid)
    stat_min, _ = orbits.ordering_statistic(spec, config.cfg)
    points = [{"x": x, "count": c} for x, c in pts]
    return ({"slope": slope, "ordering_stat_min": stat_min,
             "classes": len(spec.entries), "points": points},
            [f"classes={len(spec.entries)}", f"slope={slope!r}", f"ordering_stat_min={stat_min!r}"],
            ["x", "count"], points)


# ---------------------------------------------------------------------------
# transform / asymptote


def cmd_transform(config):
    """Spherical-transform values, closed form vs quadrature."""
    records = []
    for mu in config.mu_list:
        hc, hq, rel = transform.selberg_transform_agreement(config.d, mu, config.nu,
                                                            rel_tol=config.tol("quad"))
        records.append({
            "d": config.d, "mu": mu,
            "nu_re": float(config.nu_re), "nu_im": float(config.nu_im),
            "h_closed": float(np.real(hc)), "h_quad": float(np.real(hq)),
            "rel_err": float(rel),
        })
    _write(config, {"tolerances": {"transform": config.tol("transform")}, "records": records},
           [_tol_comment(config, ["transform", "quad"])],
           ["d", "mu", "nu_re", "nu_im", "h_closed", "h_quad", "rel_err"], records)
    return 0 if all(r["rel_err"] <= config.tol("transform") for r in records) else 1


def cmd_asymptote(config):
    """Rescaled large-mu main term with its error envelope."""
    cfg = config.cfg
    box = bounds.BoxDomain(v_bounds=tuple((0.0, 1.0) for _ in range(cfg.n - 1)),
                           r_bounds=(1.0, 2.0))
    mu_grid = sorted(set(list(config.mu_list) + [40.0, 60.0]))
    shape = bounds.rescaled_limit_shape(cfg, mu_grid, config.nu, box)
    gap = bounds.plateau_gap(shape, 40.0, 60.0)
    env_frac = bounds.envelope_fraction(shape[-1])
    props = {
        "plateau_gap_40_60": gap,
        "plateau_within_1pct": bool(gap < 1e-2),
        "envelope_fraction_at_max": env_frac,
        "envelope_below_1pct_of_main": bool(env_frac < 1e-2),
        "envelope_decreasing": bool(shape[-1].envelope_log < shape[0].envelope_log),
    }
    rows = [{"mu": r.mu, "value_log": r.value_log, "sign": r.sign,
             "envelope_log": r.envelope_log} for r in shape]
    _write(config, {"rows": rows, "properties": props},
           [f"d={config.d} n={config.n} nu={config.nu!r} box=[0,1]^(n-1)x[1,2]",
            *(f"{k}={props[k]!r}" for k in sorted(props))],
           ["mu", "value_log", "sign", "envelope_log"], rows)
    return 0 if props["plateau_within_1pct"] and props["envelope_below_1pct_of_main"] else 1


COMMANDS = {
    "verify": cmd_verify,
    "delta": cmd_delta,
    "count": cmd_count,
    "transform": cmd_transform,
    "asymptote": cmd_asymptote,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return COMMANDS[args.command](config)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
