import re
import subprocess
import sys

import pytest

from mmregret import (DecisionRule, SeedSpec, SurveyDesign, TrialDesign, build_binary_grid,
                      max_mse_scan, max_regret_scan, report_to_csv)
from mmregret.cli import _wald_grid, main, medical_regrets, parse_config
from mmregret.engine import midpoint_max_regret_formula
from mmregret.errors import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def grab(out, key):
    for line in out.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    raise AssertionError(f"{key!r} not found in output:\n{out}")


class TestMedical:
    def test_default_table(self, capsys):
        code, out = run(capsys, "medical")
        assert code == 0
        conv = out.splitlines()[1].split()
        rev = out.splitlines()[2].split()
        assert float(conv[1]) == pytest.approx(1 / 30, abs=1e-12)
        assert float(conv[2]) == pytest.approx(4 / 5, abs=1e-12)
        assert float(conv[3]) == pytest.approx(4 / 5, abs=1e-12)
        assert float(rev[1]) == pytest.approx(2 / 15, abs=1e-12)
        assert float(rev[2]) == pytest.approx(1 / 5, abs=1e-12)
        assert float(rev[3]) == pytest.approx(1 / 5, abs=1e-12)

    def test_equal_alphas_symmetric(self):
        conv, rev = medical_regrets(1.0, 1 / 3, 5.0, 0.1, 0.1)
        assert max(conv) == pytest.approx(max(rev), abs=1e-12)

    def test_bad_alpha_exits_3(self, capsys):
        code, _ = run(capsys, "medical", "--alpha1", "1.5")
        assert code == 3

    def test_infinite_welfare_exits_3(self, capsys):
        # it printed inf regrets and exited 0
        assert run_err(capsys, "medical", "--w-better", "inf") == 3


class TestScan:
    def test_exact_scan_writes_csv(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out = run(capsys, "scan", "--rule", "es", "--n", "5",
                        "--step", "0.5", "--out", str(out_path))
        assert code == 0
        assert float(grab(out, "max_regret")) > 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[-1].startswith("#summary")

    def test_ztest_scan(self, capsys):
        code, out = run(capsys, "scan", "--rule", "ztest", "--alpha", "0.05",
                        "--n", "20", "--step", "0.25")
        assert code == 0
        assert "argmax_effect_size" in out

    def test_coarser_grid_never_exceeds_finer(self, capsys):
        _, coarse = run(capsys, "scan", "--rule", "es", "--n", "20", "--step", "0.5")
        _, fine = run(capsys, "scan", "--rule", "es", "--n", "20", "--step", "0.1")
        assert float(grab(coarse, "max_regret")) <= float(grab(fine, "max_regret"))

    def test_mc_runs_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _ = run(capsys, "scan", "--rule", "es", "--n", "8",
                          "--step", "0.25", "--method", "mc", "--reps", "2000",
                          "--seed", "12", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_exits_4(self, capsys, tmp_path):
        code, _ = run(capsys, "scan", "--rule", "es", "--n", "5", "--step", "0.5",
                      "--out", str(tmp_path / "no_such_dir" / "x.csv"))
        assert code == 4

    def test_bad_step_exits_3(self, capsys):
        code, _ = run(capsys, "scan", "--rule", "es", "--n", "5", "--step", "0.3")
        assert code == 3


class TestBounds:
    def test_table(self, capsys):
        code, out = run(capsys, "bounds", "--k", "2", "--m", "1", "--n", "10,50,145")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 4
        assert rows[1].split()[0] == "10"

    def test_k_one_exits_3(self, capsys):
        code, _ = run(capsys, "bounds", "--k", "1", "--n", "10")
        assert code == 3

    @pytest.mark.parametrize("argv", [("--n", "10", "--k", str(1 << 64)), ("--n", str(1 << 64))],
                             ids=["k", "n"])
    def test_k_and_n_of_65_bits_give_finite_bounds(self, capsys, argv):
        # numpy's log and sqrt raised TypeError on an int wider than 64 bits
        code, out = run(capsys, "bounds", *argv)
        assert code == 0
        row = out.splitlines()[1].split()
        assert all(0 < float(value) < float("inf") for value in row[1:3])

    @pytest.mark.parametrize("argv", [("--n", "10", "--k", str(10 ** 400)),
                                      ("--n", str(10 ** 400)),
                                      ("--n", "1", "--k", "100", "--m", "1e308")],
                             ids=["k", "n", "overflowing_bound"])
    def test_bounds_beyond_the_float_range_exit_3(self, capsys, argv):
        assert run_err(capsys, "bounds", *argv) == 3


WALD_CFG = """\
# midpoint predictor, known missingness
predictor = midpoint
family = bernoulli
theta_obs_step = 0.1
theta_miss_step = 0.1
miss_values = 0.2
n = 10
miss_known = true
method = exact
"""

BETA_CFG = WALD_CFG.replace("family = bernoulli", "family = beta").replace(
    "theta_obs_step = 0.1\ntheta_miss_step = 0.1\n",
    "beta_obs_shapes = 1,1; 2,5\nbeta_miss_shapes = 0.5,2\n")
# MC requests: the first three have an exact path, which they run; the median on
# Beta outcomes has none, and draws
RANDOM_MISS_MC = WALD_CFG.replace("known = true", "known = false").replace(
    "method = exact", "method = mc\nreps = 2000")
RANDOM_MISS_MEDIAN_MC = RANDOM_MISS_MC.replace("= midpoint", "= analog_median")
BETA_MC = BETA_CFG.replace("method = exact", "method = mc\nreps = 2000")
BETA_MEDIAN_MC = BETA_MC.replace("= midpoint", "= analog_median")
CUSTOM_CFG = WALD_CFG.replace("= midpoint", "= custom")


class TestWaldMse:
    def test_exact_matches_formula(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG)
        code, out = run(capsys, "wald-mse", "--config", str(cfg))
        assert code == 0
        assert float(grab(out, "max_mse")) == pytest.approx(
            midpoint_max_regret_formula(0.8, 10), abs=1e-9)

    def test_flag_overrides_config_method(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("method = exact", "method = mc\nreps = 2000"))
        code, out = run(capsys, "wald-mse", "--config", str(cfg),
                        "--method", "exact")
        assert code == 0
        assert float(grab(out, "max_mse")) == pytest.approx(
            midpoint_max_regret_formula(0.8, 10), abs=1e-9)

    def test_abbreviated_flag_overrides_config_method(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("method = exact", "method = mc\nreps = 2000"))
        code, out = run(capsys, "wald-mse", "--config", str(cfg), "--meth", "exact")
        assert code == 0
        assert float(grab(out, "max_mse")) == pytest.approx(
            midpoint_max_regret_formula(0.8, 10), abs=1e-9)

    @pytest.mark.parametrize("key", ["plot", "workers"])
    def test_unknown_key_exits_2(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG + f"{key} = 1\n")
        assert main(["wald-mse", "--config", str(cfg)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("predictor = midpoint\npredictor = midpoint\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _ = run(capsys, "wald-mse", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_mc_runs_are_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"  # the median on Beta outcomes draws
        cfg.write_text(BETA_MEDIAN_MC.replace("miss_known = true", "miss_known = false")
                       + "seed = 7\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        outs = []
        for path in (a, b):
            code, out = run(capsys, "wald-mse", "--config", str(cfg),
                            "--out", str(path))
            assert code == 0
            outs.append(out)
        assert a.read_bytes() == b.read_bytes()
        assert outs[0] == outs[1]


    def test_custom_predictor_csv_repeats_bit_for_bit(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BETA_CFG.replace("predictor = midpoint",
                                        "predictor = custom\ncustom_table = 1:0.9; 0:0.2; 0.5:0.4")
                       .replace("method = exact", "method = mc\nreps = 2000\nseed = 5")
                       .replace("miss_values = 0.2", "miss_values = 0.2,0.5")
                       .replace("known = true", "known = false"))  # Beta: it draws
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _ = run(capsys, "wald-mse", "--config", str(cfg), "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_beta_scan_forks_nothing_and_repeats(self, capsys, tmp_path, monkeypatch):
        # the Beta median draws in this process, on a machine of 2 CPUs too
        import os
        import mmregret.engine as engine
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BETA_MEDIAN_MC)
        monkeypatch.setattr(engine, "_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a Beta scan forked"))
        for name in ("a", "b"):
            code, out = run(capsys, "wald-mse", "--config", str(cfg),
                            "--out", str(tmp_path / f"{name}.csv"))
            assert code == 0 and grab(out, "method") == "monte_carlo"
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("text", [RANDOM_MISS_MC, BETA_MC, RANDOM_MISS_MEDIAN_MC],
                             ids=["random_miss", "beta", "random_miss_median"])
    def test_mc_request_with_an_exact_path_runs_it_and_says_so(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        outs = []
        for method in ("mc", "exact"):
            code, out = run(capsys, "wald-mse", "--config", str(cfg), "--method", method,
                            "--seed", "11", "--out", str(tmp_path / f"{method}.csv"))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] and grab(outs[0], "method") == "exact"
        csv = (tmp_path / "mc.csv").read_bytes()
        assert csv == (tmp_path / "exact.csv").read_bytes()
        assert csv.endswith(b",method=exact,reps=0,seed=\r\n")  # nothing was drawn

    def test_mc_request_without_an_exact_path_draws(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BETA_MEDIAN_MC)
        code, out = run(capsys, "wald-mse", "--config", str(cfg))
        assert code == 0 and grab(out, "method") == "monte_carlo"

    @pytest.mark.parametrize("text", [
        RANDOM_MISS_MC, RANDOM_MISS_MC.replace("known = false", "known = true"), BETA_MC,
        BETA_MC.replace("known = true", "known = false")],
        ids=["bernoulli_random_miss", "bernoulli_fixed_n", "beta_fixed_n", "beta_random_miss"])
    def test_huge_predictions_exit_3_with_one_stderr_line(self, tmp_path, text):
        # the squares overflow: only the finite-regret check speaks, with no numpy
        # warning before it (a subprocess, since pytest would record the warnings)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace("predictor = midpoint",
                                    "predictor = custom\ncustom_table = 0:1e300; 1:-1e300"))
        proc = subprocess.run([sys.executable, "-m", "mmregret.cli", "wald-mse", "--config",
                               str(cfg)], capture_output=True, text=True)
        assert proc.returncode == 3 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert re.fullmatch(r"precondition violation: the regret of state \d+ is (inf|nan), "
                            r"not a finite number\n", proc.stderr)

    def test_non_finite_mc_stderr_exits_3(self, capsys, tmp_path):
        # the MSE, about 1e200, is finite; the fourth moment of the predictions is not
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BETA_MC.replace("predictor = midpoint",
                                       "predictor = custom\ncustom_table = 0:1e100; 1:-1e100")
                       .replace("1,1; 2,5", "2,5"))
        assert main(["wald-mse", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and re.fullmatch(r"precondition violation: the mc_stderr of state 0 is (inf|nan), "
                            r"not a finite number\n", err)


class TestRuleNames:
    """The command line builds its rules by name through DecisionRule."""

    @pytest.mark.parametrize("name", ["es", "ztest"])
    def test_scan_csv_is_that_of_the_named_rule(self, capsys, tmp_path, name):
        cli, api = tmp_path / "cli.csv", tmp_path / "api.csv"
        assert main(["scan", "--rule", name, "--n", "6", "--step", "0.1",
                     "--out", str(cli)]) == 0
        capsys.readouterr()
        report_to_csv(max_regret_scan(DecisionRule(name), build_binary_grid(0.1),
                                      TrialDesign(per_arm_n=6)), api)
        assert cli.read_bytes() == api.read_bytes()

    @pytest.mark.parametrize("name", ["midpoint", "hodges_lehmann", "analog_mean",
                                      "analog_median", "custom"])
    def test_wald_csv_is_that_of_the_named_predictor(self, capsys, tmp_path, name):
        table = "\ncustom_table = 0:0.1; 1:0.8; 0.5:0.5" if name == "custom" else ""
        cfg, cli, api = tmp_path / "run.cfg", tmp_path / "cli.csv", tmp_path / "api.csv"
        cfg.write_text(WALD_CFG.replace("predictor = midpoint", f"predictor = {name}{table}"))
        assert main(["wald-mse", "--config", str(cfg), "--out", str(cli)]) == 0
        capsys.readouterr()
        params = {"mean_table": [(0, 0.1), (1, 0.8), (0.5, 0.5)]} if name == "custom" else {}
        report_to_csv(max_mse_scan(DecisionRule(name, params), _wald_grid(parse_config(cfg)),
                                   SurveyDesign("fixed_n", 10), seed=SeedSpec(0)), api)
        assert cli.read_bytes() == api.read_bytes()

    @pytest.mark.parametrize("name", ["ztest", "es", "empirical_success", "analog_predictor",
                                      "mean_table", "nearest"])
    def test_wald_name_of_no_parameterless_predictor_exits_2(self, capsys, tmp_path, name):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("predictor = midpoint", f"predictor = {name}"))
        assert main(["wald-mse", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: unknown predictor {name!r}\n"


def _printed_argmax(out: str) -> list[str]:
    """The numbers of the printed ``argmax_state=(...)`` line, in order."""
    tokens = re.split(r"[(), =]+", grab(out, "argmax_state"))
    return [t for t in tokens if re.fullmatch(r"-?(\d[\d.]*(e[-+]\d+)?|nan|inf)", t)]


def _footer_argmax(csv_path) -> list[str]:
    """The values of the ``argmax=`` field of a report CSV's summary row, in order."""
    summary = csv_path.read_text().splitlines()[-1].split(",")
    return dict(field.split("=", 1) for field in summary[1:])["argmax"].split("|")


class TestStateObjects:
    """The argmax state a command prints holds, in order, the coordinates that
    the CSV summary row's ``argmax=`` field names."""

    @pytest.mark.parametrize("method", [(), ("--method", "mc", "--reps", "1000",
                                             "--workers", "1")], ids=["exact", "mc"])
    def test_scan(self, capsys, tmp_path, method):
        csv_path = tmp_path / "scan.csv"
        assert main(["scan", "--rule", "es", "--n", "5", "--step", "0.1", *method,
                     "--out", str(csv_path)]) == 0
        printed = _printed_argmax(capsys.readouterr().out)
        assert len(printed) == 2
        assert printed == _footer_argmax(csv_path)

    MC = "method = mc\nreps = 1000"

    @pytest.mark.parametrize("text,coordinates", [
        (WALD_CFG.replace("miss_values = 0.2", "miss_values = 0.2,0.5"), 3),
        (WALD_CFG.replace("method = exact", MC), 3),
        (WALD_CFG.replace("method = exact", MC).replace("known = true", "known = false"), 3),
        (BETA_CFG.replace("method = exact", MC), 5),
        (BETA_CFG.replace("method = exact", MC).replace("= midpoint", "= analog_median"), 5)],
        ids=["bernoulli_exact", "bernoulli_fixed_n", "bernoulli_random_miss", "beta_midpoint",
             "beta_median"])
    def test_wald_mse(self, capsys, tmp_path, text, coordinates):
        cfg, csv_path = tmp_path / "run.cfg", tmp_path / "mse.csv"
        cfg.write_text(text)
        assert main(["wald-mse", "--config", str(cfg), "--out", str(csv_path)]) == 0
        printed = _printed_argmax(capsys.readouterr().out)
        assert len(printed) == coordinates
        assert printed == _footer_argmax(csv_path)


class TestAlloc:
    def test_population_dominant(self, capsys):
        code, out = run(capsys, "alloc", "--mode", "population",
                        "--e-a", "0.1", "--e-b", "0.9", "--p-a", "1", "--p-b", "1")
        assert code == 0
        assert grab(out, "z_b") == "1"
        assert grab(out, "regime") == "dominant_b"

    def test_known_p_hand_value(self, capsys):
        code, out = run(capsys, "alloc", "--mode", "known-p",
                        "--e-a", "0.8", "--e-b", "0.4", "--p-a", "0.5", "--p-b", "0.5")
        assert code == 0
        assert float(grab(out, "z_b")) == pytest.approx(0.3, abs=1e-12)

    def test_sample_known_p_clamp_reported(self, capsys):
        code, out = run(capsys, "alloc", "--mode", "sample-known-p",
                        "--e-a", "1", "--e-b", "0", "--p-a", "1", "--p-b", "1",
                        "--known-p", "1")
        assert code == 0
        assert grab(out, "clamped") == "yes"
        assert float(grab(out, "raw_value")) == pytest.approx(-1.0, abs=1e-12)

    def test_sample_known_p_requires_flag(self, capsys):
        code, _ = run(capsys, "alloc", "--mode", "sample-known-p",
                      "--e-a", "0.5", "--e-b", "0.5", "--p-a", "0.5", "--p-b", "0.5")
        assert code == 2

    def test_bad_probability_exits_3(self, capsys):
        code, _ = run(capsys, "alloc", "--mode", "sample",
                      "--e-a", "0.5", "--e-b", "0.5", "--p-a", "1.2", "--p-b", "0.5")
        assert code == 3

    @pytest.mark.parametrize("bounds", ["-1e308,1e308", "0,inf"])
    @pytest.mark.parametrize("mode", ["population", "known-p"])
    def test_bounds_of_no_finite_width_exit_3(self, capsys, mode, bounds):
        # known-p printed z_b=0 at [-1e308, 1e308], where [-1, 1] gives 0.5
        assert run_err(capsys, "alloc", "--mode", mode, "--e-a", "0.5", "--e-b", "0.5",
                       "--p-a", "0.5", "--p-b", "0.5", f"--bounds-a={bounds}",
                       f"--bounds-b={bounds}") == 3


class TestOracle:
    def test_n1_verdict(self, capsys):
        code, out = run(capsys, "oracle", "--n", "1", "--step", "0.25")
        assert code == 0
        assert "no deterministic rule beats" in out
        assert float(grab(out, "oracle_max_regret")) >= \
            float(grab(out, "es_max_regret")) - 1e-12

    def test_n_too_large_exits_3(self, capsys):
        code, _ = run(capsys, "oracle", "--n", "4", "--step", "0.5")
        assert code == 3


# The process entry point: the module run as ``python -m mmregret.cli``, or the
# console script's ``sys.exit(_script())``, with an atexit hook whose value is the
# last line of stderr. Both parse sys.argv themselves.
ENTRIES = {
    "module": 'runpy.run_module("mmregret.cli", run_name="__main__", alter_sys=True)',
    "script": "from mmregret import _script; sys.exit(_script())",
}
# modules no command needs at start-up, and an expression listing those loaded;
# of the commands, Monte Carlo alone needs numpy.random, and alloc alone
# mmregret.missing. np.median imports numpy.ma
UNNEEDED = ("concurrent.futures", "csv", "decimal", "fractions", "statistics", "signal",
            "pickle", "numpy.random", "numpy.ma", "mmregret.missing", "mmregret.asif")
LOADED = f"[m for m in {UNNEEDED!r} if m in sys.modules]"
# a prelude that counts the process's forks in ``forks``
FORK_SPY = ["import os", "forks, fork = [], os.fork",
            "os.fork = lambda: (forks.append(1), fork())[-1]"]


def run_entry(argv, hook, entry="module", prelude=()):
    """(exit code, stdout, the hook's value at exit) of one process entry, run
    after the lines of prelude."""
    code = "\n".join([
        "import atexit, gc, runpy, sys",
        f"atexit.register(lambda: print(repr({hook}), file=sys.stderr))",
        f"sys.argv = ['mmregret'] + {list(argv)!r}",
        *prelude,
        ENTRIES[entry]])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    return proc.returncode, proc.stdout, eval(proc.stderr.splitlines()[-1])


def loaded_by_numpy():
    """The modules of UNNEEDED that importing numpy loads by itself: numpy
    before 2.0 imports numpy.random."""
    proc = subprocess.run([sys.executable, "-c", f"import sys, numpy; print({LOADED})"],
                          capture_output=True, text=True, check=True)
    return set(eval(proc.stdout))


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "mmregret.cli", "medical"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "conventional" in proc.stdout

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_entry_point_freezes_the_heap(self, entry):
        # run as __main__, the module disables the collector for its imports, and
        # main() enables it again once the heap is frozen
        code, out, gc_state = run_entry(["scan", "--rule", "es", "--n", "5", "--step", "0.5"],
                                        "(gc.isenabled(), gc.get_freeze_count() > 0)", entry)
        assert code == 0 and out.startswith("max_regret=")
        assert gc_state == (True, True)

    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_entry_point_collects_at_most_once_before_freezing(self, entry):
        # the collections started before gc.freeze is called: the collector is
        # off while the cli and numpy import
        prelude = ["starts, seen, freeze = [], [], gc.freeze",
                   "gc.callbacks.append(lambda phase, info: starts.append(phase == 'start'))",
                   "gc.freeze = lambda: (seen.append(sum(starts)), freeze())[-1]"]
        code, _, seen = run_entry(["medical"], "seen", entry, prelude)
        assert code == 0
        assert len(seen) == 1 and seen[0] <= 1

    def test_in_process_main_leaves_the_heap_unfrozen(self, capsys):
        import gc
        before = gc.get_freeze_count()
        assert main(["scan", "--rule", "es", "--n", "5", "--step", "0.5"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv", [
        # 40,401 rows: written in parts, a forked process each, on 2 or more CPUs
        ["scan", "--rule", "es", "--n", "20", "--step", "0.005"],
        # the Beta median draws in one process
        ["wald-mse", "--config", "{beta_median}"]],
        ids=["exact_parts", "beta_median_mc"])
    def test_entry_point_writes_the_bytes_of_in_process_main(self, capsys, tmp_path, argv):
        (tmp_path / "beta_median.cfg").write_text(BETA_MEDIAN_MC)
        argv = [a.format(beta_median=tmp_path / "beta_median.cfg") for a in argv]
        # a byte lost when the frozen process exits would show here
        code, out, _ = run_entry(argv + ["--out", str(tmp_path / "entry.csv")], "None")
        assert code == 0
        assert main(argv + ["--out", str(tmp_path / "main.csv")]) == 0
        assert capsys.readouterr().out == out
        entry = (tmp_path / "entry.csv").read_bytes()
        assert entry == (tmp_path / "main.csv").read_bytes()
        assert b"\r\n#summary," in entry and entry.endswith(b"\r\n")

    def test_importing_the_cli_loads_no_module_a_command_may_skip(self):
        proc = subprocess.run([sys.executable, "-c", f"import sys, mmregret.cli; print({LOADED})"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert set(eval(proc.stdout)) <= loaded_by_numpy()

    @pytest.mark.parametrize("mc", [False, True], ids=["exact", "mc"])
    def test_only_monte_carlo_loads_numpy_random(self, tmp_path, mc):
        # an MC request that has an exact path runs it: it loads no numpy.random and
        # forks no worker. Only a scan that draws loads numpy.random
        loaded = loaded_by_numpy()
        if "numpy.random" in loaded:
            pytest.skip("this numpy imports numpy.random itself")
        scan = ["scan", "--rule", "es", "--n", "5", "--step", "0.1"]
        cases = [(scan, False), (WALD_CFG, False)]
        if mc:
            cases = [(scan + ["--method", "mc", "--reps", "2000"], False), (RANDOM_MISS_MC, False),
                     (RANDOM_MISS_MEDIAN_MC, False), (BETA_MC, False), (BETA_MEDIAN_MC, True)]
        for k, (argv, draws) in enumerate(cases):
            if isinstance(argv, str):
                cfg = tmp_path / f"run{k}.cfg"
                cfg.write_text(argv)
                argv = ["wald-mse", "--config", str(cfg)]
            code, _, (modules, forks) = run_entry(argv, f"({LOADED}, len(forks))", "module",
                                                  FORK_SPY)
            assert code == 0
            modules = set(modules) - loaded
            assert modules == ({"numpy.random"} if draws else set())
            if not draws:
                assert forks == 0

    def test_scan_mc_request_runs_exact_and_says_so(self, capsys, tmp_path):
        # a trial scan is exact at every n it accepts: the MC flags are checked,
        # then nothing is drawn and no worker forks
        scan = ["scan", "--rule", "es", "--n", "20", "--step", "0.05"]
        mc = ["--method", "mc", "--reps", "2000", "--workers", "2", "--seed", "11"]
        code, out, (modules, forks) = run_entry(scan + mc + ["--out", str(tmp_path / "mc.csv")],
                                                f"({LOADED}, len(forks))", "module", FORK_SPY)
        assert code == 0 and out.splitlines()[-1] == "method=exact"
        assert set(modules) <= loaded_by_numpy() and forks == 0
        assert main(scan + ["--out", str(tmp_path / "exact.csv")]) == 0
        assert capsys.readouterr().out == out
        assert (tmp_path / "mc.csv").read_bytes() == (tmp_path / "exact.csv").read_bytes()

    def test_a_beta_median_scan_leaves_numpy_ma_unloaded(self, tmp_path):
        if "numpy.ma" in loaded_by_numpy():
            pytest.skip("this numpy imports numpy.ma itself")
        cfg = tmp_path / "beta.cfg"
        cfg.write_text(BETA_CFG.replace("= midpoint", "= analog_median").replace(
            "method = exact", "method = mc\nreps = 2000"))
        code, _, modules = run_entry(["wald-mse", "--config", str(cfg)], LOADED)
        assert code == 0
        assert "numpy.ma" not in modules


def run_err(capsys, *argv):
    """Exit code; a rejected input gives one line on stderr, no traceback, and
    nothing on stdout."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert len(err.strip().splitlines()) == 1, err
    assert out == "", out
    return code


class TestRejectedInput:
    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_exits_3(self, capsys, step):
        assert run_err(capsys, "scan", "--rule", "es", "--n", "5", "--step", step) == 3

    # each grid is refused before it is allocated: numpy refused the first two
    # with a traceback, and the last two ran out of memory
    @pytest.mark.parametrize("argv", [
        ("scan", "--rule", "es", "--n", "5", "--step", "1e-300"),
        ("scan", "--rule", "es", "--n", "5", "--step", "5e-324"),
        ("scan", "--rule", "es", "--n", "5", "--step", "0.0001", "--method", "mc",
         "--reps", "1000"),
        ("oracle", "--n", "3", "--step", "1e-9")],
        ids=["scan_1e-300", "scan_5e-324", "scan_mc_0.0001", "oracle_1e-9"])
    def test_grid_beyond_the_state_bound_exits_3(self, capsys, argv):
        assert run_err(capsys, *argv) == 3

    @pytest.mark.parametrize("coordinates", [
        "theta_obs_step = 1e-300\ntheta_miss_step = 0.1\nmiss_values = 0.2",
        "theta_obs_step = 0.1\ntheta_miss_step = 0.1\nmiss_step = 1e-300",
        # 1,001 x 1,001 x 5 states, each coordinate allowed alone
        "theta_obs_step = 0.001\ntheta_miss_step = 0.001\nmiss_values = 0.1,0.2,0.3,0.4,0.5"],
        ids=["theta_obs_step", "miss_step", "product"])
    def test_wald_grid_beyond_the_state_bound_exits_3(self, capsys, tmp_path, coordinates):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace(
            "theta_obs_step = 0.1\ntheta_miss_step = 0.1\nmiss_values = 0.2", coordinates))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 3

    @pytest.mark.parametrize("flags", [("--alpha", "7", "--status-quo", "1"), ("--alpha", "0.05"),
                                       ("--status-quo", "0")])
    def test_ztest_flag_on_es_scan_exits_2(self, capsys, flags):
        assert run_err(capsys, "scan", "--rule", "es", "--n", "5", "--step", "0.5", *flags) == 2

    @pytest.mark.parametrize("flags", [("--reps", "5"), ("--workers", "7"),
                                       ("--reps", "5", "--workers", "7")])
    def test_mc_flag_on_exact_scan_exits_2(self, capsys, flags):
        assert run_err(capsys, "scan", "--rule", "es", "--n", "5", "--step", "0.5",
                       *flags) == 2
        assert run_err(capsys, "scan", "--rule", "ztest", "--n", "5", "--step", "0.5",
                       "--method", "exact", "--seed", "3", *flags) == 2

    @pytest.mark.parametrize("argv,settings", [
        (("scan", "--rule", "es", "--n", "5", "--step", "0.5", "--reps", "5"),
         "reps and workers apply"),
        (("wald-mse", "--reps", "2000"), "reps applies")], ids=["scan", "wald-mse"])
    def test_mc_setting_on_exact_run_names_the_commands_settings(self, capsys, tmp_path,
                                                                 argv, settings):
        # wald-mse takes no workers, and its message named them
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG)
        argv = argv + ("--config", str(cfg)) if argv[0] == "wald-mse" else argv
        assert main(list(argv)) == 2
        assert capsys.readouterr().err == f"config error: {settings} to method mc only\n"

    def test_seed_on_exact_scan_accepted(self, capsys):
        # an exact scan draws nothing, and takes a seed only for scripts that pass one
        code, _ = run(capsys, "scan", "--rule", "es", "--n", "5", "--step", "0.5",
                      "--seed", "3")
        assert code == 0

    def test_reps_on_exact_wald_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG)
        assert run_err(capsys, "wald-mse", "--config", str(cfg), "--reps", "2000") == 2
        cfg.write_text(WALD_CFG + "reps = 2000\n")
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 2
        # a config's reps goes with its method, and --method overrides both
        cfg.write_text(WALD_CFG.replace("method = exact", "method = mc\nreps = 2000"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg), "--method", "exact",
                       "--reps", "2000") == 2
        assert main(["wald-mse", "--config", str(cfg), "--method", "exact"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("alpha", ["1e-17", "5e-324", "5.5e-17"])
    def test_ztest_alpha_without_finite_critical_value_exits_3(self, capsys, alpha):
        # 1 - alpha rounds to 1, where the inverse normal CDF is infinite
        assert run_err(capsys, "scan", "--rule", "ztest", "--alpha", alpha, "--n", "5",
                       "--step", "0.5") == 3

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_scan_workers_below_one_exit_3(self, capsys, workers):
        assert run_err(capsys, "scan", "--rule", "es", "--n", "5", "--step", "0.5",
                       "--method", "mc", "--reps", "2000", "--workers", workers) == 3

    @pytest.mark.parametrize("reps", [str(1 << 63), "100000000000000000000"])
    def test_reps_beyond_a_64_bit_count_exit_3(self, capsys, tmp_path, reps):
        # numpy's samplers raised OverflowError on such a count
        assert run_err(capsys, "scan", "--rule", "es", "--n", "5", "--step", "0.5",
                       "--method", "mc", "--reps", reps) == 3
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("method = exact", f"method = mc\nreps = {reps}"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 3

    @pytest.mark.parametrize("method", [("--method", "mc", "--reps", "1000"), ()],
                             ids=["mc", "exact"])
    @pytest.mark.parametrize("n", ["10001", "100000000"])
    def test_scan_n_above_the_table_cap_exits_3(self, capsys, method, n):
        # an MC scan at n = 1e8 asked numpy for an 8.88 PiB choice table
        assert run_err(capsys, "scan", "--rule", "es", "--n", n, "--step", "0.5",
                       *method) == 3

    @pytest.mark.parametrize("method", [("--method", "mc", "--reps", "1000"), ()],
                             ids=["mc", "exact"])
    def test_scan_negative_seed_exits_3(self, capsys, method):
        assert run_err(capsys, "scan", "--rule", "es", "--n", "5", "--step", "0.5",
                       *method, "--seed", "-1") == 3

    def test_wald_negative_seed_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("method = exact", "method = mc\nreps = 2000\nseed = -1"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 3

    # the median has no exact path on Beta outcomes; under random_miss its exact sum
    # at n = 5,000 would enumerate 11 x 5,000 x 5,001 / 2 PMF cells, above 2^27
    @pytest.mark.parametrize("text", [BETA_CFG, WALD_CFG.replace(
        "miss_known = true", "miss_known = false").replace("n = 10", "n = 5000")],
        ids=["beta", "random_miss"])
    def test_exact_wald_outside_exact_mode_exits_3(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace("= midpoint", "= analog_median"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 3

    def test_bounds_non_integer_n_exits_2(self, capsys):
        assert run_err(capsys, "bounds", "--n", "abc") == 2

    @pytest.mark.parametrize("m", ["nan", "inf", "-inf", "0"])
    def test_bounds_m_not_finite_and_positive_exits_3(self, capsys, m):
        assert run_err(capsys, "bounds", "--n", "5", f"--m={m}") == 3

    def test_bounds_bad_later_n_prints_no_row(self, capsys):
        assert run_err(capsys, "bounds", "--n", "5,0") == 3

    @pytest.mark.parametrize("argv", [
        ("sample", "--e-a", "5", "--e-b", "0.5", "--p-a", "0.5", "--p-b", "0.5"),
        ("sample", "--e-a", "0.5", "--e-b", "nan", "--p-a", "0.5", "--p-b", "0.5"),
        ("sample-known-p", "--e-a", "0.5", "--e-b", "0.5", "--p-a", "2", "--p-b", "0.5",
         "--known-p", "1"),
        ("sample-known-p", "--e-a", "0.5", "--e-b", "1.5", "--p-a", "0.5", "--p-b", "0.5",
         "--known-p", "1")], ids=["sample_mean", "sample_nan", "known_p_share", "known_p_mean"])
    def test_impossible_sample_allocation_exits_3(self, capsys, argv):
        assert run_err(capsys, "alloc", "--mode", *argv) == 3

    def test_alloc_one_bound_exits_2(self, capsys):
        assert run_err(capsys, "alloc", "--mode", "population", "--e-a", "0.5",
                       "--e-b", "0.5", "--p-a", "1", "--p-b", "1", "--bounds-a", "1") == 2

    def test_custom_table_entry_without_colon_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("predictor = midpoint",
                                        "predictor = custom\ncustom_table = 0:0; 0.5 0.5; 1:1"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("table,code", [("", 2), ("; ;", 2), ("0:nan; 1:1", 3),
                                            ("0:0; nan:1", 3)],
                             ids=["empty", "separators_only", "nan_prediction", "nan_mean"])
    def test_bad_custom_table(self, capsys, tmp_path, table, code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("predictor = midpoint",
                                        f"predictor = custom\ncustom_table = {table}"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == code

    @pytest.mark.parametrize("text,entry", [
        (BETA_CFG, "beta_obs_shapes = 1,,2"), (BETA_CFG, "beta_obs_shapes = 1,2,"),
        (BETA_CFG, "beta_miss_shapes = ,0.5,2"), (WALD_CFG, "support = 0,,1"),
        (WALD_CFG, "support = 0,1,"), (CUSTOM_CFG, "custom_table = 1::2"),
        (CUSTOM_CFG, "custom_table = 0:0; 1:")],
        ids=["obs_inner", "obs_trailing", "miss_leading", "support_inner", "support_trailing",
             "custom_inner", "custom_trailing"])
    def test_pair_with_a_blank_piece_exits_2(self, capsys, tmp_path, text, entry):
        # each but the custom tables dropped the blank piece, and the run went on
        key = entry.split(" ")[0]
        lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines + [entry]) + "\n")
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("bounds", ["--bounds-a=0,,1", "--bounds-b=0,1,", "--bounds-a=,0,1"])
    def test_alloc_bounds_with_a_blank_piece_exit_2(self, capsys, bounds):
        assert run_err(capsys, "alloc", "--mode", "population", "--e-a", "0.5", "--e-b", "0.5",
                       "--p-a", "1", "--p-b", "1", bounds) == 2

    def test_value_list_drops_a_blank_piece(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("miss_values = 0.2", "miss_values = 0.2,,"))
        code, out = run(capsys, "wald-mse", "--config", str(cfg))
        assert code == 0 and "miss_rate=0.20000000000000001" in out

    @pytest.mark.parametrize("key,value,code", [
        ("n", "ten", 2), ("reps", "many", 2), ("seed", "s", 2),
        ("method", "fast", 2), ("max_miss", "abc", 2), ("theta_obs_step", "nan", 3),
        ("theta_obs_step", "1", 3), ("theta_obs_step", "0.3", 3), ("miss_step", "x", 2)])
    def test_bad_wald_value(self, capsys, tmp_path, key, value, code):
        text = WALD_CFG.replace("miss_values = 0.2", "miss_step = 0.5")
        lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == code

    @pytest.mark.parametrize("value", ["on", "off", "2", "truthy", ""])
    def test_miss_known_not_a_boolean_exits_2(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("miss_known = true", f"miss_known = {value}"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("value,code", [
        ("true", 0), ("TRUE", 0), ("yes", 0), ("1", 0),
        ("false", 3), ("False", 3), ("no", 3), ("0", 3)])
    def test_miss_known_spellings(self, capsys, tmp_path, value, code):
        # at n = 5,000 the median runs under the known-miss (fixed-N) design; under
        # random_miss its exact sum is above the enumeration bound, and exits 3
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("miss_known = true", f"miss_known = {value}")
                       .replace("= midpoint", "= analog_median").replace("n = 10", "n = 5000"))
        assert main(["wald-mse", "--config", str(cfg)]) == code
        capsys.readouterr()

    @pytest.mark.parametrize("text,key", [
        (WALD_CFG, "theta_obs_values = 0.5"), (WALD_CFG, "theta_miss_values = 0.5"),
        (WALD_CFG, "miss_step = 0.5"), (WALD_CFG, "beta_obs_shapes = 1,1"),
        (WALD_CFG, "beta_miss_shapes = 1,1"), (BETA_CFG, "theta_obs_step = 0.1"),
        (BETA_CFG, "theta_miss_values = 0.5"), (WALD_CFG, "custom_table = 0:0.1; 1:0.9")],
        ids=["theta_obs_values_beside_step", "theta_miss_values_beside_step",
             "miss_step_beside_values", "beta_obs_shapes_bernoulli", "beta_miss_shapes_bernoulli",
             "theta_obs_step_beta", "theta_miss_values_beta", "custom_table_not_custom"])
    def test_config_key_that_no_path_reads_exits_2(self, capsys, tmp_path, text, key):
        # each was ignored, and the run exited 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + key + "\n")
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("support", ["0,inf", "-inf,1"])
    def test_non_finite_support_exits_3(self, capsys, tmp_path, support):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG + f"support = {support}\n")
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 3

    @pytest.mark.parametrize("support", ["0,1e200", "-1e308,1e308"])
    def test_support_of_no_finite_squared_width_exits_3(self, capsys, tmp_path, support):
        # the first ended in an OverflowError traceback, the second printed max_mse=nan
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG + f"support = {support}\n")
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 3

    @pytest.mark.parametrize("predictor", ["midpoint", "analog_median"])
    def test_beta_shapes_of_no_finite_sum_exit_3(self, capsys, tmp_path, predictor):
        # a + b overflowed: the midpoint printed max_mse=nan, the median a wrong number
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BETA_MC.replace("= midpoint", f"= {predictor}").replace(
            "beta_obs_shapes = 1,1; 2,5", "beta_obs_shapes = 1e308,1e308"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 3

    def test_huge_equal_beta_shapes_give_a_finite_mse(self, capsys, tmp_path):
        # the closed-form variance overflowed, and the run printed max_mse=nan
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BETA_CFG.replace("beta_obs_shapes = 1,1; 2,5",
                                        "beta_obs_shapes = 1e200,1e200"))
        code, out = run(capsys, "wald-mse", "--config", str(cfg))
        assert code == 0 and 0 <= float(grab(out, "max_mse")) < 1

    @pytest.mark.parametrize("shape", ["nan", "inf"])
    def test_non_finite_beta_shape_exits_3(self, capsys, tmp_path, shape):
        # a NaN shape printed max_mse=nan and exited 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BETA_CFG.replace("method = exact", "method = mc\nreps = 1000").replace(
            "beta_obs_shapes = 1,1; 2,5", f"beta_obs_shapes = {shape},1"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 3

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_wald_n_beyond_the_memory_bound_exits_3(self, capsys, tmp_path, method):
        # an exact run at n = 1e8 was killed for want of memory
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("n = 10", "n = 100000000").replace(
            "method = exact", f"method = {method}"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 3

    @pytest.mark.parametrize("key", ["theta_obs_values", "theta_miss_values", "miss_values"])
    def test_empty_coordinate_list_exits_3(self, capsys, tmp_path, key):
        text = WALD_CFG.replace("theta_obs_step = 0.1\ntheta_miss_step = 0.1\n",
                                "theta_obs_values = 0.5\ntheta_miss_values = 0.5\n")
        lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines + [f"{key} ="]) + "\n")
        assert main(["wald-mse", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "all three coordinate grids must be non-empty" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key", ["max_miss", "min_miss_mean", "max_miss_mean",
                                     "max_mean_diff"])
    def test_nan_restriction_exits_3(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG + f"{key} = nan\n")
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 3

    @pytest.mark.parametrize("argv", [
        ("medical", "--seed", "1"),
        ("bounds", "--n", "10", "--reps", "1000"),
        ("alloc", "--mode", "sample", "--e-a", "0.5", "--e-b", "0.5", "--p-a", "1",
         "--p-b", "1", "--workers", "2"),
        ("oracle", "--n", "1", "--step", "0.5", "--method", "mc"),
        ("oracle", "--n", "1", "--step", "0.5", "--out", "x.csv"),
        ("wald-mse", "--config", "x.cfg", "--workers", "2")])
    def test_global_flag_on_command_that_ignores_it_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
