import subprocess
import sys

import pytest

from mmregret.cli import main, medical_regrets, parse_config
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

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG + "plot = yes\n")
        code, _ = run(capsys, "wald-mse", "--config", str(cfg))
        assert code == 2

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("predictor = midpoint\npredictor = midpoint\n")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _ = run(capsys, "wald-mse", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_mc_runs_are_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("method = exact",
                                        "method = mc\nreps = 2000\nseed = 7"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        outs = []
        for path in (a, b):
            code, out = run(capsys, "wald-mse", "--config", str(cfg),
                            "--out", str(path))
            assert code == 0
            outs.append(out)
        assert a.read_bytes() == b.read_bytes()
        assert outs[0] == outs[1]


    def test_custom_predictor_csv_ignores_worker_count(self, capsys, tmp_path):
        # a forked worker starts as a copy of this process, custom predictor included
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("predictor = midpoint",
                                        "predictor = custom\ncustom_table = 1:0.9; 0:0.2; 0.5:0.4")
                       .replace("method = exact", "method = mc\nreps = 2000\nseed = 5")
                       .replace("miss_values = 0.2", "miss_values = 0.2,0.5"))
        paths = [tmp_path / "w1.csv", tmp_path / "w2.csv"]
        for workers, path in zip(("1", "2"), paths):
            code, _ = run(capsys, "wald-mse", "--config", str(cfg), "--workers", workers,
                          "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


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


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "mmregret.cli", "medical"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "conventional" in proc.stdout

    def test_start_up_leaves_the_process_pool_unloaded(self):
        # the pool serves only MC scans on more than one worker and large CSVs;
        # fractions, decimal and csv serve no command at all
        modules = ["fractions", "decimal", "csv", "concurrent.futures.process"]
        code = f"import sys, mmregret.cli; print([m for m in {modules} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


def run_err(capsys, *argv):
    """Exit code; a rejected input gives one line on stderr, no traceback, and
    nothing on stdout."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert len(err.strip().splitlines()) == 1, err
    assert out == "", out
    return code


BETA_CFG = WALD_CFG.replace("family = bernoulli", "family = beta").replace(
    "theta_obs_step = 0.1\ntheta_miss_step = 0.1\n",
    "beta_obs_shapes = 1,1; 2,5\nbeta_miss_shapes = 0.5,2\n")


class TestRejectedInput:
    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_exits_3(self, capsys, step):
        assert run_err(capsys, "scan", "--rule", "es", "--n", "5", "--step", step) == 3

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

    def test_seed_on_exact_scan_accepted(self, capsys):
        # the summary row prints the seed, so an exact scan takes one
        code, _ = run(capsys, "scan", "--rule", "es", "--n", "5", "--step", "0.5",
                      "--seed", "3")
        assert code == 0

    @pytest.mark.parametrize("key", ["reps", "workers"])
    def test_mc_setting_on_exact_wald_exits_2(self, capsys, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG)
        assert run_err(capsys, "wald-mse", "--config", str(cfg), f"--{key}", "2000") == 2
        cfg.write_text(WALD_CFG + f"{key} = 2000\n")
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == 2
        # a config's MC settings go with its method, and --method overrides both
        cfg.write_text(WALD_CFG.replace("method = exact", f"method = mc\n{key} = 2000"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg), "--method", "exact",
                       f"--{key}", "2000") == 2
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

    def test_wald_workers_below_one_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("method = exact", "method = mc\nreps = 2000"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg), "--workers", "0") == 3

    @pytest.mark.parametrize("text", [BETA_CFG, WALD_CFG.replace(
        "miss_known = true", "miss_known = false")], ids=["beta", "random_miss"])
    def test_exact_wald_outside_exact_mode_exits_3(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
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

    @pytest.mark.parametrize("table,code", [("", 2), ("0:nan; 1:1", 3), ("0:0; nan:1", 3)],
                             ids=["empty", "nan_prediction", "nan_mean"])
    def test_bad_custom_table(self, capsys, tmp_path, table, code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("predictor = midpoint",
                                        f"predictor = custom\ncustom_table = {table}"))
        assert run_err(capsys, "wald-mse", "--config", str(cfg)) == code

    @pytest.mark.parametrize("key,value,code", [
        ("n", "ten", 2), ("reps", "many", 2), ("seed", "s", 2), ("workers", "w", 2),
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
        # exact mode runs only the known-miss (fixed-N) design; the other exits 3
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG.replace("miss_known = true", f"miss_known = {value}"))
        assert main(["wald-mse", "--config", str(cfg)]) == code
        capsys.readouterr()

    @pytest.mark.parametrize("support", ["0,inf", "-inf,1"])
    def test_non_finite_support_exits_3(self, capsys, tmp_path, support):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALD_CFG + f"support = {support}\n")
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
        ("oracle", "--n", "1", "--step", "0.5", "--out", "x.csv")])
    def test_global_flag_on_command_that_ignores_it_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
