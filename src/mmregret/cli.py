"""Command-line front end.

Subcommands: medical, scan, bounds, wald-mse, alloc, oracle. Every command is
deterministic given its configuration and seed; CSV output uses '.' decimals
and 17 significant digits. The wald-mse command reads a flat key=value config
file, with command-line flags overriding file values.

Exit codes: 0 success, 2 config error, 3 precondition violation, 4 I/O error.
"""

from __future__ import annotations

import gc
import math
import sys

if __name__ == "__main__":
    # no collection walks the import graph below: main() freezes it, then
    # enables the collector
    gc.disable()

import argparse

from . import engine, states
from .errors import ConfigError, PreconditionError
from .mathutil import fmt17
from .rules import RULES, DecisionRule, Predictor
from .sampling import SeedSpec, SurveyDesign, TrialDesign, _check_integer

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4


def _global_flags(parser: argparse.ArgumentParser, method_default: str) -> None:
    # None marks a flag not given, so that a config value can stand in for it
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--reps", type=int,
                        help="Monte Carlo draws of the sample statistic per observed "
                             "shape, and per observed count under random missingness, "
                             "1000 to 2^63 - 1 (default 100000); --method exact rejects "
                             "it, and a scan that runs exact draws none")
    parser.add_argument("--method", choices=("exact", "mc"),
                        help=f"evaluation method (default {method_default}); an mc "
                             "request that has an exact path runs it, and every run "
                             "prints the method that ran. scan is exact at every n it "
                             "accepts; wald-mse draws only for a nonlinear predictor "
                             "on Beta outcomes")
    parser.add_argument("--out", help="CSV output path")


def _setting(args, cfg: dict[str, str], key: str, default, parse=str):
    """A global flag's value if given, else the config's, else the default."""
    value = getattr(args, key)
    if value is not None:
        return value
    return parse(cfg[key]) if key in cfg else default


def _run_settings(args, cfg: dict[str, str], method_default: str):
    """(reps, SeedSpec, out path) from the global flags and the config, each
    checked; reps is None under method exact. scan's --workers is checked, and unused."""
    name = _setting(args, cfg, "method", method_default)
    if name not in ("exact", "mc"):
        raise ConfigError(f"method must be 'exact' or 'mc', got {name!r}")
    reps = _setting(args, cfg, "reps", 100_000, _integer)
    workers = getattr(args, "workers", None)  # scan alone takes --workers
    # a config's reps goes with its method: --method overrides both
    if name == "exact" and (args.reps is not None or workers is not None
                            or ("reps" in cfg and args.method is None)):
        settings = "reps and workers apply" if hasattr(args, "workers") else "reps applies"
        raise ConfigError(f"{settings} to method mc only")
    if workers is not None:
        _check_integer(workers, "workers", 1)
    if name == "exact":
        reps = None
    else:
        engine._check_reps(reps)
    seed = SeedSpec(_setting(args, cfg, "seed", 0, _integer))
    return reps, seed, _setting(args, cfg, "out", None)


# ---------------------------------------------------------------------------
# medical

def medical_regrets(w_statusquo, w_worse, w_better, alpha1, alpha2):
    """Regret of the conventional and reversed tests under each hypothesis.

    Returns ((conv_sq, conv_innov), (rev_sq, rev_innov)): the regret when the
    status quo is superior (a Type I error adopts the inferior innovation) and
    when the innovation is superior (a Type II error keeps the status quo).
    """
    if not all(0 < w < math.inf for w in (w_statusquo, w_worse, w_better)):  # and not NaN
        raise PreconditionError("welfare values must be positive and finite")
    for a in (alpha1, alpha2):
        if not 0.0 < a < 1.0:
            raise PreconditionError(f"error probability {a} outside (0, 1)")
    if not w_worse < w_statusquo < w_better:
        raise PreconditionError("expected ordering w_worse < w_statusquo < w_better")

    def regrets(p_type1, p_type2):
        return (p_type1 * (w_statusquo - w_worse),
                p_type2 * (w_better - w_statusquo))

    return regrets(alpha1, alpha2), regrets(alpha2, alpha1)


def cmd_medical(args) -> int:
    conv, rev = medical_regrets(args.w_statusquo, args.w_worse, args.w_better,
                                args.alpha1, args.alpha2)
    print("test          regret_sq_superior  regret_innov_superior  max_regret")
    print(f"conventional  {fmt17(conv[0]):<19} {fmt17(conv[1]):<22} {fmt17(max(conv))}")
    print(f"reversed      {fmt17(rev[0]):<19} {fmt17(rev[1]):<22} {fmt17(max(rev))}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan

def _argmax_coordinates(report) -> list[float]:
    """The argmax state's coordinates, read from the grid's columns in CSV column order."""
    _, columns = engine._coordinate_columns(report.grid)
    return [values[position(report.argmax)].item() for values, position in columns]


def cmd_scan(args) -> int:
    # the z-test's flags default to None, so that ZTest's own defaults stand in for them
    ztest = {k: v for k, v in (("alpha", args.alpha), ("status_quo", args.status_quo))
             if v is not None}
    if args.rule == "es" and ztest:
        raise ConfigError("--alpha and --status-quo apply to --rule ztest only")
    rule = DecisionRule(args.rule, ztest)
    grid = states.build_binary_grid(args.step)
    design = TrialDesign(per_arm_n=args.n)
    # the MC settings are checked, and go unused: a trial scan is exact at every n
    # it accepts, so an MC request runs exact and says so
    out = _run_settings(args, {}, "exact")[-1]
    report = engine.max_regret_scan(rule, grid, design)
    if out:
        engine.report_to_csv(report, out)
    p_a, p_b = _argmax_coordinates(report)
    error_prob = report.error_prob[report.argmax].item()  # NaN at a tie
    print(f"max_regret={fmt17(report.max_regret)}")
    print(f"argmax_state=(p_a={fmt17(p_a)}, p_b={fmt17(p_b)})")
    if error_prob == error_prob:  # off the diagonal
        print(f"argmax_error_prob={fmt17(error_prob)}")
    print(f"argmax_effect_size={fmt17(p_b - p_a)}")
    print(f"method={report.method}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds

def cmd_bounds(args) -> int:
    try:
        n_list = [int(x) for x in args.n.split(",")]
    except ValueError:
        raise ConfigError(f"--n must be comma-separated integers, got {args.n!r}") from None
    # every row before the first print, so that a bad n prints nothing
    rows = [(n, engine.regret_bounds(args.k, args.m, n)) for n in n_list]
    print("n       bound_10              bound_11              tighter")
    for n, b in rows:
        print(f"{n:<7} {fmt17(b.bound_10):<21} {fmt17(b.bound_11):<21} {b.tighter}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wald-mse

def parse_config(path) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment; unknown keys rejected."""
    cfg: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _WALD_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                if key in cfg:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                cfg[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return cfg


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _pair(text: str, sep: str, message: str) -> tuple[float, float]:
    """The two numbers of ``text``, cut at ``sep``; ``message`` rejects any other
    count of pieces, or a blank piece."""
    pieces = text.split(sep)
    if len(pieces) != 2 or not all(piece.strip() for piece in pieces):
        raise ConfigError(message)
    return _number(pieces[0]), _number(pieces[1])


def _bounds(text: str, flag: str) -> tuple[float, float]:
    return _pair(text, ",", f"{flag} must be 'y0,y1', got {text!r}")


def _entries(text: str, sep: str, form: str) -> list[tuple[float, float]]:
    """The pairs of ``text``, separated by ';', each cut at ``sep``; ``form`` says
    what an entry should be."""
    return [_pair(chunk, sep, f"{form}, got {chunk!r}")
            for chunk in map(str.strip, text.split(";")) if chunk]


def _coordinate(cfg, name: str):
    """A grid coordinate's values: the list ``{name}_values`` or the lattice ``{name}_step``."""
    if f"{name}_values" in cfg and f"{name}_step" in cfg:
        raise ConfigError(f"give one of {name}_values and {name}_step, not both")
    if f"{name}_values" in cfg:  # a blank piece of the list is dropped
        return [_number(x) for x in cfg[f"{name}_values"].split(",") if x.strip()]
    if f"{name}_step" in cfg:
        return states._lattice(_number(cfg[f"{name}_step"]))
    raise ConfigError(f"config needs {name}_step or {name}_values")


def _wald_predictor(cfg) -> Predictor:
    """The config's predictor: a predictor of ``RULES`` that takes no parameter, or
    ``custom``, the table of ``custom_table``."""
    name = cfg.get("predictor")
    if name == "custom":
        return DecisionRule("custom", {"mean_table": _custom_table(cfg)})
    rule = DecisionRule(name) if name in RULES and not RULES[name][1] else None
    if not isinstance(rule, Predictor):
        raise ConfigError(f"unknown predictor {name!r}")
    if "custom_table" in cfg:
        raise ConfigError("custom_table applies to predictor = custom only")
    return rule


def _custom_table(cfg) -> list[tuple[float, float]]:
    rows = _entries(cfg.get("custom_table", ""), ":",
                    "custom_table entries must be 'mean:prediction'")
    if not rows:
        raise ConfigError("custom predictor needs custom_table")
    return rows


# the outcome parameter keys of each family; the other family's keys are rejected
_FAMILY_KEYS = {
    "bernoulli": ("theta_obs_step", "theta_obs_values", "theta_miss_step", "theta_miss_values"),
    "beta": ("beta_obs_shapes", "beta_miss_shapes"),
}
# the grid restrictions: config key -> keyword of states.build_prediction_grid
_FILTER_KEYS = {"max_miss": "max_miss_rate", "min_miss_mean": "min_missing_mean",
                "max_miss_mean": "max_missing_mean", "max_mean_diff": "max_mean_abs_diff"}
# every key a config may hold
_WALD_KEYS = {"predictor", "custom_table", "family", "miss_step", "miss_values", "support",
              "n", "miss_known", "method", "reps", "seed", "out", *_FILTER_KEYS,
              *(key for keys in _FAMILY_KEYS.values() for key in keys)}


def _wald_grid(cfg) -> states.StateGrid:
    family = cfg.get("family", "bernoulli")
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown family {family!r}")
    for other in set(_FAMILY_KEYS) - {family}:
        stray = [key for key in _FAMILY_KEYS[other] if key in cfg]
        if stray:
            raise ConfigError(f"{stray[0]} applies to family = {other} only")
    support = _bounds(cfg.get("support", "0,1"), "support")
    miss = _coordinate(cfg, "miss")
    filters = {keyword: _number(cfg[key]) for key, keyword in _FILTER_KEYS.items() if key in cfg}
    if family == "bernoulli":
        obs = _coordinate(cfg, "theta_obs")
        mis = _coordinate(cfg, "theta_miss")
    else:
        if not all(key in cfg for key in _FAMILY_KEYS["beta"]):
            raise ConfigError("beta family needs beta_obs_shapes and beta_miss_shapes")
        obs, mis = (_entries(cfg[key], ",", "expected 'a,b' pairs separated by ';'")
                    for key in _FAMILY_KEYS["beta"])
    return states.build_prediction_grid(
        family, obs_params=obs, miss_params=mis, miss_rates=miss,
        support=support, **filters)


def cmd_wald_mse(args) -> int:
    cfg = parse_config(args.config)
    rule = _wald_predictor(cfg)
    grid = _wald_grid(cfg)
    if "n" not in cfg:
        raise ConfigError("config needs n (sample size)")
    n = _integer(cfg["n"])
    miss_known = cfg.get("miss_known", "true").lower()
    if miss_known not in ("true", "yes", "1", "false", "no", "0"):
        raise ConfigError(f"miss_known must be true or false, got {miss_known!r}")
    design = SurveyDesign("fixed_n" if miss_known in ("true", "yes", "1") else "random_miss", n)
    reps, seed, out = _run_settings(args, cfg, "mc")
    report = engine.max_mse_scan(rule, grid, design, reps, seed)
    if out:
        engine.report_to_csv(report, out)
    *params, miss_rate = map(fmt17, _argmax_coordinates(report))
    print(f"max_mse={fmt17(report.max_regret)}")
    if grid.outcome == "bernoulli":
        desc = "theta_obs={}, theta_miss={}".format(*params)
    else:
        desc = "obs=Beta({},{}), miss=Beta({},{})".format(*params)
    print(f"argmax_state=({desc}, miss_rate={miss_rate})")
    print(f"method={report.method}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# alloc

def cmd_alloc(args) -> int:
    from . import missing  # here: no other command needs it
    bounds_a = _bounds(args.bounds_a, "--bounds-a")
    bounds_b = _bounds(args.bounds_b, "--bounds-b")
    if args.mode in ("population", "known-p"):
        state = missing.MissingDataState(args.e_a, args.e_b, args.p_a, args.p_b,
                                         bounds_a, bounds_b)
        result = (missing.mmr_alloc_population if args.mode == "population"
                  else missing.mmr_alloc_known_p)(state)
    elif args.mode == "sample":
        result = missing.mmr_alloc_sample(args.e_a, args.e_b, args.p_a, args.p_b,
                                          bounds_a, bounds_b)
    else:  # sample-known-p
        if args.known_p is None:
            raise ConfigError("sample-known-p mode needs --known-p")
        if bounds_a != bounds_b:
            raise PreconditionError("sample-known-p mode needs common bounds")
        result = missing.mmr_alloc_sample_known_p(
            args.e_a, args.e_b, args.p_a, args.p_b, args.known_p, bounds_a)
    print(f"z_b={fmt17(result.z_b)}")
    print(f"regime={result.regime}")
    print(f"clamped={'yes' if result.clamped else 'no'}")
    if result.clamped:
        print(f"raw_value={fmt17(result.z_raw)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    design = TrialDesign(per_arm_n=args.n)
    grid = states.build_binary_grid(args.step)
    table, oracle_max = engine.exhaustive_mmr_oracle(design, grid)
    es_report = engine.max_regret_scan(DecisionRule("es"), grid, design)
    print(f"oracle_max_regret={fmt17(oracle_max)}")
    print(f"es_max_regret={fmt17(es_report.max_regret)}")
    if oracle_max >= es_report.max_regret - 1e-12:
        print("verdict: no deterministic rule beats the empirical success rule")
    else:
        print("verdict: a deterministic rule beats the empirical success rule")
    print("best_table_choose_b=" +
          ";".join(",".join(str(int(v)) for v in row) for row in table))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmregret",
        description="Regret evaluation of decision rules for treatment choice "
                    "and point prediction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("medical", help="two-hypothesis regret arithmetic for a test")
    p.add_argument("--w-statusquo", type=float, default=1.0)
    p.add_argument("--w-worse", type=float, default=1 / 3)
    p.add_argument("--w-better", type=float, default=5.0)
    p.add_argument("--alpha1", type=float, default=0.05, help="Type I error probability")
    p.add_argument("--alpha2", type=float, default=0.20, help="Type II error probability")
    p.set_defaults(func=cmd_medical)

    p = sub.add_parser("scan", help="max-regret scan of a trial-choice rule")
    p.add_argument("--rule", choices=("es", "ztest"), required=True)
    p.add_argument("--alpha", type=float, help="z-test level (default 0.05)")
    p.add_argument("--status-quo", type=int, choices=(0, 1),
                   help="z-test status-quo arm (default 0)")
    p.add_argument("--n", type=int, required=True, help="subjects per arm")
    p.add_argument("--step", type=float, default=0.01, help="grid step")
    _global_flags(p, "exact")
    p.add_argument("--workers", type=int,
                   help="an integer of at least 1, for --method mc only; checked and "
                        "unused, and accepted only for scripts that pass it: a scan runs "
                        "in one process")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bounds", help="analytic max-regret bounds for empirical success")
    p.add_argument("--k", type=int, default=2, help="number of treatment arms")
    p.add_argument("--m", type=float, default=1.0, help="outcome range")
    p.add_argument("--n", required=True, help="comma-separated per-arm sample sizes")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("wald-mse", help="maximize predictor MSE over a state grid")
    p.add_argument("--config", required=True, help="flat key=value config file")
    _global_flags(p, "mc")
    p.set_defaults(func=cmd_wald_mse)

    p = sub.add_parser("alloc", help="minimax-regret allocation with missing outcomes")
    p.add_argument("--mode", required=True,
                   choices=("population", "known-p", "sample", "sample-known-p"))
    p.add_argument("--e-a", type=float, required=True)
    p.add_argument("--e-b", type=float, required=True)
    p.add_argument("--p-a", type=float, required=True)
    p.add_argument("--p-b", type=float, required=True)
    p.add_argument("--known-p", type=float, default=None)
    p.add_argument("--bounds-a", default="0,1")
    p.add_argument("--bounds-b", default="0,1")
    p.set_defaults(func=cmd_alloc)

    p = sub.add_parser("oracle", help="exhaustive deterministic-rule oracle (tiny n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--step", type=float, default=0.05)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    Called without ``argv``, as the process entry point (``python -m
    mmregret.cli`` and the ``mmregret`` script), it first freezes the heap and
    enables the garbage collector: the objects alive then, mostly numpy's and
    the package's import-time graph, move to the collector's permanent
    generation. The final collections at interpreter exit, and any collection
    in a forked worker, then skip them; atexit handlers, flushes and module
    teardown still run. Run as ``__main__``, this module disables the collector
    before its imports, and the script, ``mmregret._script``, before it imports
    this module, so no collection walks that graph before it is frozen. A
    caller that passes ``argv`` keeps its heap as it was.
    """
    if argv is None:
        gc.freeze()
        gc.enable()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
