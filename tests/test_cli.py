"""End-to-end tests for the ``did-miss`` command line (run in-process)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from didmiss import (
    DgpSpec,
    PanelDataset,
    did_complete_case,
    load_panel,
    make_preset,
    save_oracle,
    save_panel,
    simulate_panel,
)
from didmiss import cli
from didmiss.cli import main
from didmiss.simulate import PRESET_KINDS

from _helpers import OVERFLOWING_ORACLE, TIED_RESAMPLE_CSV, TIED_TRIM_CSV, make_panel
from test_exports import PUBLIC_NAMES

ENVELOPE_KEYS = [
    "tool",
    "version",
    "command",
    "options",
    "data",
    "result",
    "diagnostics",
    "environment",
    "status",
]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(name):
    raise ValueError(f"report is not strict JSON: bare {name}")


def strict_loads(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_no_constant)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return strict_loads(out)


def cli_process(*argv, run=subprocess.run, **streams):
    """Start ``python -m didmiss.cli`` in a subprocess (sees tracebacks and warnings).

    ``run`` is ``subprocess.run`` or ``subprocess.Popen``; ``streams`` replace
    its captured stdout and stderr.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return run(
        [sys.executable, "-m", "didmiss.cli", *map(str, argv)],
        env=env, text=True, **(streams or {"capture_output": True}),
    )


def run_cli(*argv):
    """Run ``python -m didmiss.cli`` to the end, capturing stdout and stderr."""
    return cli_process(*argv)


@pytest.fixture(scope="module")
def sim_files(tmp_path_factory):
    """One simulated panel per preset family used below, written once."""
    root = tmp_path_factory.mktemp("cli")
    files = {}
    for preset in ("homogeneous-bias", "monotone"):
        out = root / f"{preset}.csv"
        truth = root / f"{preset}-truth.csv"
        code = main(
            [
                "simulate",
                "--preset",
                preset,
                "--n",
                "4000",
                "--seed",
                "5",
                "--out",
                str(out),
                "--truth",
                str(truth),
            ]
        )
        assert code == 0
        files[preset] = (out, truth)
    return files


# -- report envelope -----------------------------------------------------------


def test_report_envelope_shape(capsys, toy_path):
    report = run_json(capsys, "cc", "--input", toy_path)
    assert list(report) == ENVELOPE_KEYS
    assert report["tool"] == "did-miss"
    assert report["command"] == "cc"
    assert report["status"] == "ok"
    assert report["options"]["input"] == str(toy_path)
    assert list(report["environment"]) == ["package", "python", "numpy", "seed"]


def _fresh_run(probe, *args):
    """The stdout of ``probe`` run in a fresh interpreter with ``args`` as
    ``sys.argv[1:]``; the run must succeed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", probe, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout


def _fresh_modules(probe, *args):
    """The modules a fresh interpreter has loaded after running ``probe``."""
    return set(_fresh_run(f"{probe}\nimport sys\nprint(*sys.modules)", *args).split())


def _loaded_by_cli_import(module):
    """Whether ``import didmiss.cli`` in a fresh interpreter loads ``module``."""
    return module in _fresh_modules("import didmiss.cli")


def test_cli_import_needs_only_numpy():
    assert not _loaded_by_cli_import("scipy")


def test_cli_import_leaves_numpy_random_to_the_commands_that_draw():
    # loading numpy.random costs about 14 ms, paid only by a bootstrap or a simulation
    assert not _loaded_by_cli_import("numpy.random")


#: What every command loads of the package: the CLI, the CSV reader and the constants.
CLI_CORE = {f"didmiss{m}" for m in ("", ".cli", ".common", ".errors", ".panel", ".table")}

RUN_QUIETLY = """import contextlib, io, sys
from didmiss.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0"""


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["rates", "--input", "monotone"], ""),
        (["cc", "--input", "monotone"], "estimators"),
        (["iv", "--input", "homogeneous-bias"], "estimators iv"),
        (["bounds", "--input", "monotone"], "estimators bounds"),
        (["pi", "--input", "monotone"], "estimators principal"),
        (["decompose", "--truth", "monotone-truth"], "simulate"),
        (["cc", "--input", "monotone", "--bootstrap", "20"], "estimators"),
        (["iv", "--input", "homogeneous-bias", "--bootstrap", "20"], "estimators iv"),
        (["bounds", "--input", "monotone", "--bootstrap", "20"], "estimators bounds"),
        (["pi", "--input", "monotone", "--bootstrap", "20"], "estimators principal"),
    ],
    ids=lambda value: value if isinstance(value, str) else " ".join(value),
)
def test_each_command_loads_only_the_modules_it_runs(sim_files, argv, loads):
    files = {**{k: v[0] for k, v in sim_files.items()}, "monotone-truth": sim_files["monotone"][1]}
    loaded = _fresh_modules(RUN_QUIETLY, *(files.get(a, a) for a in argv))
    assert {m for m in loaded if m.partition(".")[0] == "didmiss"} == (
        CLI_CORE | {f"didmiss.{m}" for m in loads.split()}
    )
    # numpy.ma, which np.percentile imports, costs about 9 ms of a bootstrap
    assert "numpy.ma" not in loaded


def test_import_didmiss_alone_loads_no_submodule_and_no_numpy():
    loaded = _fresh_modules("import didmiss\nassert not hasattr(didmiss, '__wrapped__')")
    assert {m for m in loaded if m.startswith("didmiss")} == {"didmiss"}
    assert "numpy" not in loaded


@pytest.mark.parametrize("first", ["didmiss.att_iv", "from didmiss import *"])
def test_the_first_public_name_fills_the_whole_namespace(first):
    probe = f"""import json, sys
import didmiss
{first}
assert set(didmiss.__all__) <= set(dir(didmiss))
assert didmiss.bounds is sys.modules["didmiss.bounds"]
try:
    didmiss.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
names = {{}}
exec("from didmiss import *", names)
assert all(names[name] is getattr(didmiss, name) for name in didmiss.__all__)
print(json.dumps(sorted(set(names) - {{"__builtins__"}})))"""
    assert json.loads(_fresh_run(probe)) == PUBLIC_NAMES


def test_undefined_truth_is_null_with_a_reason(capsys, tmp_path):
    # four units draw no treated always-respondent, so att_ar is undefined
    code, out, err = run(
        capsys, "simulate", "--preset", "monotone", "--n", 4, "--seed", 1,
        "--out", tmp_path / "tiny.csv",
    )
    assert code == 0 and err == ""
    report = strict_loads(out)
    assert report["result"]["att_ar"] is None
    assert report["result"]["att_ar_population"] == pytest.approx(1.0)
    assert report["diagnostics"] == {
        "undefined": {"att_ar": "no treated always-respondent was drawn"}
    }


def test_non_finite_result_is_refused(capsys, tmp_path):
    # y2 - y1 overflows to infinity in both arms, so the complete-case DID is NaN
    path = tmp_path / "huge.csv"
    path.write_text("id,d,y1,y2\n1,0,-1e308,1e308\n2,1,-1e308,1e308\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "cc", "--input", path)
    assert code == 2 and out == ""
    assert err.startswith("did-miss: refused: the result is not finite")


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("pretty", [(), ("--pretty",)], ids=["json", "pretty"])
def test_a_report_holding_a_non_finite_number_is_refused(capsys, monkeypatch, value, pretty):
    # every runner refuses such a result itself; the report check is the last guard
    monkeypatch.setitem(cli._RUNNERS, "rates", lambda args: ({"rows": 1}, {"point": value}, None))
    code, out, err = run(capsys, "rates", "--input", "unread.csv", *pretty)
    assert (code, out, err) == (2, "", "did-miss: refused: the result is not finite (NaN or infinity)\n")


def test_data_fingerprint_matches_hand_counts(capsys, toy_path):
    report = run_json(capsys, "cc", "--input", toy_path)
    fp = report["data"]
    assert fp["rows"] == 9
    assert fp["arms"] == [3, 6]
    assert fp["missing_y1"] == pytest.approx([1 / 3, 1 / 6])
    assert fp["missing_y2"] == pytest.approx([0.0, 0.5])
    assert fp["n_aux"] == 1
    assert fp["n_covariates"] == 0


def test_cc_point_matches_library(capsys, toy_path, toy):
    report = run_json(capsys, "cc", "--input", toy_path)
    assert report["result"]["point"] == did_complete_case(toy).point == 0.5
    assert report["result"]["n_used"] == 4
    assert report["result"]["se"] is None


# -- reproducibility ------------------------------------------------------------


def test_output_is_byte_identical_across_runs(capsys, toy_path):
    _, first, _ = run(capsys, "rates", "--input", toy_path)
    _, second, _ = run(capsys, "rates", "--input", toy_path)
    assert first == second


def test_bootstrap_is_reproducible_and_thread_invariant(capsys, monkeypatch, sim_files):
    panel, _ = sim_files["homogeneous-bias"]
    argv = ("iv", "--input", panel, "--aux", 0, "--bootstrap", 40, "--seed", 3)
    _, serial_a, _ = run(capsys, *argv)
    _, serial_b, _ = run(capsys, *argv)
    monkeypatch.setenv("DIDMISS_THREADS", "3")
    _, threaded, _ = run(capsys, *argv)
    assert serial_a == serial_b == threaded
    report = json.loads(serial_a)
    assert report["result"]["ci"] is not None
    assert report["result"]["ci_level"] == 0.95
    assert report["environment"]["seed"] == 3


@pytest.mark.parametrize("aux", [("--aux", 1), ("--aux", 0, "--aux2", 1)])
def test_iv_bootstrap_resamples_counts_without_rebuilding_the_dataset(
    capsys, tmp_path, monkeypatch, aux
):
    panel = tmp_path / "multi-iv.csv"
    run_json(capsys, "simulate", "--preset", "multi-iv", "--n", 2000, "--seed", 3, "--out", panel)

    def no_rebuild(self, idx):
        raise AssertionError("iv resampled through PanelDataset._take")

    monkeypatch.setattr(PanelDataset, "_take", no_rebuild)
    report = run_json(capsys, "iv", "--input", panel, *aux, "--bootstrap", 5)
    assert report["result"]["ci"] is not None


def test_different_seed_changes_simulated_panel(capsys, tmp_path):
    points, blobs = [], []
    for seed in (1, 2):
        out = tmp_path / f"s{seed}.csv"
        run_json(
            capsys, "simulate", "--preset", "zero-bias", "--n", "500",
            "--seed", seed, "--out", out,
        )
        blobs.append(out.read_bytes())
        points.append(run_json(capsys, "cc", "--input", out)["result"]["point"])
    assert blobs[0] != blobs[1]
    assert points[0] != points[1]


# -- rates on a survey-shaped dataset --------------------------------------------


def test_rates_reproduce_survey_counts(capsys, tmp_path):
    # 10,000 units per arm; first-wave and second-wave response counts chosen
    # to land exactly on the survey_rates fixture's response percentages.
    counts = {0: (5774, 5428), 1: (6084, 5513)}
    d_col, y1_col, y2_col = [], [], []
    for arm, (n_r1, n_r2) in counts.items():
        d_col.append(np.full(10_000, arm, dtype=np.int8))
        y1 = np.full(10_000, 1.0)
        y1[n_r1:] = np.nan
        y2 = np.full(10_000, 2.0)
        y2[n_r2:] = np.nan
        y1_col.append(y1)
        y2_col.append(y2)
    data = make_panel(np.concatenate(d_col), np.concatenate(y1_col), np.concatenate(y2_col))
    path = tmp_path / "survey.csv"
    save_panel(data, str(path))

    report = run_json(capsys, "rates", "--input", path)
    assert report["result"]["n"] == [10_000, 10_000]
    assert report["result"]["p_r1"] == [0.5774, 0.6084]
    assert report["result"]["p_r2"] == [0.5428, 0.5513]


# -- estimator agreement ----------------------------------------------------------


def test_cc_equals_iv_on_fully_observed_data(capsys, tmp_path):
    rng = np.random.default_rng(9)
    n = 200
    d = (rng.random(n) < 0.5).astype(np.int8)
    data = make_panel(
        d,
        rng.normal(size=n),
        rng.normal(size=n) + d,
        aux=rng.integers(0, 2, size=(n, 1)).astype(np.int8),
    )
    path = tmp_path / "complete.csv"
    save_panel(data, str(path))

    cc = run_json(capsys, "cc", "--input", path)
    iv = run_json(capsys, "iv", "--input", path, "--aux", 0)
    assert iv["result"]["point"] == cc["result"]["point"]
    assert iv["result"]["notes"] == []
    assert iv["diagnostics"]["missing_share"] == [0.0, 0.0]


def test_estimators_run_on_simulated_panels(capsys, sim_files):
    panel, _ = sim_files["homogeneous-bias"]
    for argv in (
        ("cc", "--input", panel),
        ("iv", "--input", panel, "--aux", 0),
        ("pi", "--input", panel),
    ):
        report = run_json(capsys, *argv)
        assert np.isfinite(report["result"]["point"])

    bounds_panel, _ = sim_files["monotone"]
    report = run_json(capsys, "bounds", "--input", bounds_panel, "--mode", "monotone")
    result = report["result"]
    assert result["estimand"] == "ATT-AR"
    assert result["lb"] <= result["ub"]
    assert result["support_fallback"] is False
    assert set(result["proportions"]["pi"]) == {"control", "treated"}


def test_decompose_reads_the_oracle_table(capsys, sim_files):
    _, truth = sim_files["homogeneous-bias"]
    report = run_json(capsys, "decompose", "--truth", truth)
    result = report["result"]
    assert len(result["terms"]) == 5
    assert all(set(t) == {"label", "value"} for t in result["terms"])
    assert result["total"] == pytest.approx(sum(t["value"] for t in result["terms"]))
    assert result["deviation"] == pytest.approx(result["total"] - result["att"], abs=1e-12)
    assert abs(result["deviation"]) <= 6 * result["se"] + 1e-12
    mixture = report["diagnostics"]["trend_mixture"]
    assert abs(mixture["mixture_residual"]) < 1e-9


def test_decompose_refuses_an_overflowing_oracle_in_one_line(capsys, tmp_path):
    path = tmp_path / "overflow.csv"
    path.write_bytes(OVERFLOWING_ORACLE.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "decompose", "--truth", path)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("did-miss: refused: the result is not finite: y2_0 - y1_true ")


def test_rates_read_counts_alone_where_every_estimator_refuses_an_overflow(capsys, tmp_path):
    # unit 1 is a complete case whose y2 - y1 overflows
    path = tmp_path / "overflow.csv"
    path.write_bytes(OVERFLOWING_ORACLE.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_json(capsys, "rates", "--input", path)
        refused = {command: run(capsys, command, "--input", path) for command in ("cc", "bounds", "pi")}
    assert report["result"]["n"] == [2, 2] and report["result"]["p_r2"] == [1.0, 1.0]
    line = (
        "did-miss: refused: the result is not finite: y2 - y1 is not finite for unit '1' "
        "(row 1: y1=-1.7e+308, y2=1.7e+308)\n"
    )
    for command, outcome in refused.items():
        assert outcome == (2, "", line), command


GROUP_OVERFLOWING_ORACLE = (
    "id,d,y1,y2,s,y1_true,y2_1,y2_0\n"
    "1,1,-6e307,6e307,AR,-6e307,6e307,6e307\n"
    "2,1,-6e307,6e307,AR,-6e307,6e307,6e307\n"
    "3,1,0.5,2.5,AR,0.5,2.5,1.5\n"
    "4,0,0.2,1.1,AR,0.2,2.1,1.1\n"
    "5,0,0.4,1.3,AR,0.4,2.3,1.3\n"
)


def test_decompose_refuses_an_oracle_whose_group_sum_overflows_in_one_line(capsys, tmp_path):
    # every unit's change is finite; the treated always-respondents' sum is not
    path = tmp_path / "group_overflow.csv"
    path.write_text(GROUP_OVERFLOWING_ORACLE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "decompose", "--truth", path)
    assert (code, out) == (2, "")
    assert err == (
        "did-miss: refused: the result is not finite: the mean or spread of "
        "y2_0 - y1_true in stratum AR, arm 1 overflows\n"
    )


def test_decompose_refuses_an_oracle_that_violates_the_identity(capsys, tmp_path):
    spec = DgpSpec(
        n=20_000,
        seed=0,
        joint_sd=((0.20, 0.15, 0.05, 0.10), (0.25, 0.15, 0.02, 0.08)),
        trend=(0.4, 0.9, 0.1, 0.6),
        baseline=((5.0, 5.2), (4.0, 4.1), (4.5, 4.4), (3.0, 3.1)),
        effect=(1.0, 1.5, 0.5, 0.8),
        noise_sd=0.5,
        arm_trend_delta=(1.0,) * 4,
    )
    path = tmp_path / "unshared.csv"
    save_oracle(simulate_panel(spec)[1], path)
    code, out, err = run(capsys, "decompose", "--truth", path)
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("did-miss: refused: decomposition identity violated")


def test_simulate_truth_matches_preset_plan(capsys, sim_files):
    panel, truth = sim_files["homogeneous-bias"]
    report = run_json(capsys, "cc", "--input", panel)  # warm readout of the files
    assert report["data"]["rows"] == 4000
    sim = run_json(
        capsys, "simulate", "--preset", "homogeneous-bias", "--n", "4000",
        "--seed", "5", "--out", panel, "--truth", truth,
    )
    assert sim["result"]["att_population"] == pytest.approx(1.0)
    assert sim["result"]["cc_bias"] == pytest.approx(0.25, abs=0.1)
    shares = sim["result"]["pi_table"]["treated"]
    assert set(shares) == {"AR", "ITR", "ICR", "NR"}
    assert sum(shares.values()) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "argv, code, files",
    [
        # one file named twice ends up holding the oracle, as after a second write
        (["--out", "x.csv", "--truth", "sub/../x.csv"], 0, {"x.csv": "oracle"}),
        (["--out", "x.csv", "--truth", "link.csv"], 0, {"x.csv": "oracle"}),
        # --out is written in full before the error about --truth
        (["--out", "p.csv", "--truth", "absent/o.csv"], 1, {"p.csv": "panel"}),
        (["--out", "absent/p.csv", "--truth", "o.csv"], 1, {}),
    ],
    ids=["same-path", "symlink", "truth-unwritable", "out-unwritable"],
)
def test_simulate_truth_leaves_the_files_two_separate_saves_leave(
    capsys, tmp_path, monkeypatch, argv, code, files
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to("x.csv")
    data, oracle, _ = simulate_panel(make_preset("monotone", n=300, seed=2))
    saved = {"panel": io.StringIO(), "oracle": io.StringIO()}
    save_panel(data, saved["panel"])
    save_oracle(oracle, saved["oracle"])
    got, out, err = run(capsys, "simulate", "--preset", "monotone", "--n", 300, "--seed", 2, *argv)
    assert got == code
    if code:
        unwritable = next(path for path in argv if path.startswith("absent/"))
        message = f"cannot write {unwritable}: No such file or directory"
        assert (out, err) == ("", f"did-miss: error: {message}\n")
    on_disk = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv") if not p.is_symlink()}
    assert on_disk == {name: saved[table].getvalue().encode() for name, table in files.items()}


# -- failure channels ---------------------------------------------------------------


def test_missing_input_file_exits_1(capsys):
    code, out, err = run(capsys, "cc", "--input", "/nonexistent/panel.csv")
    assert code == 1
    assert out == ""
    assert err.startswith("did-miss: error:")


def test_bad_flag_value_exits_1(capsys, toy_path):
    code, _, err = run(capsys, "bounds", "--input", toy_path, "--mode", "bogus")
    assert code == 1
    assert err.startswith("did-miss: error:")


def test_simulated_draw_without_an_arm_exits_1(tmp_path):
    done = run_cli("simulate", "--preset", "monotone", "--n", 1, "--seed", 1,
                   "--out", tmp_path / "one.csv")
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (
        "did-miss: error: a draw of n=1 units has no treated unit; both arms are "
        "required (use a larger n or another seed)\n"
    )
    assert not (tmp_path / "one.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cc", "--bootstrap", 5, "--seed", -2], "seed must be a non-negative integer, got -2"),
        (["bounds", "--support", "nan", 1], "outcome support endpoints are not finite: [nan, 1.0]"),
        (["simulate", "--preset", "pi", "--n", 50, "--seed", -1, "--out", "x.csv"],
         "seed must be a non-negative integer, got -1"),
        (["simulate", "--preset", "pi", "--n", 50, "--out", "/nonexistent/x.csv"],
         "cannot write /nonexistent/x.csv: No such file or directory"),
        (["simulate", "--preset", "pi", "--n", 50, "--out", "p.csv", "--truth", "/nonexistent/o.csv"],
         "cannot write /nonexistent/o.csv: No such file or directory"),
    ],
)
def test_bad_seeds_support_and_output_paths_exit_1_with_one_line(
    capsys, tmp_path, monkeypatch, toy_path, argv, message
):
    monkeypatch.chdir(tmp_path)
    if argv[0] != "simulate":
        argv = [argv[0], "--input", toy_path, *argv[1:]]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"did-miss: error: {message}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_report_to_a_full_device_exits_1_with_one_line(toy_path):
    with open("/dev/full", "w") as full:
        done = cli_process("cc", "--input", toy_path, stdout=full, stderr=subprocess.PIPE)
    assert done.returncode == 1
    assert done.stderr == "did-miss: error: cannot write standard output: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("files", [["--out", "/dev/full"], ["--out", "p.csv", "--truth", "/dev/full"]])
def test_a_file_on_a_full_device_exits_1_with_one_line(tmp_path, files):
    done = cli_process(
        "simulate", "--preset", "monotone", "--n", 2000, *files, cwd=tmp_path, capture_output=True
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "did-miss: error: cannot write /dev/full: No space left on device\n"
    # what was written before the failure stays
    assert (tmp_path / "p.csv").exists() == ("p.csv" in files)


def test_out_of_memory_exits_1_with_one_line(capsys, tmp_path, monkeypatch):
    def no_memory(spec):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr("didmiss.simulate.simulate_panel", no_memory)  # what _run_simulate calls
    code, out, err = run(capsys, "simulate", "--preset", "monotone", "--out", tmp_path / "x.csv")
    assert (code, out, err) == (1, "", "did-miss: error: not enough memory for this run\n")


def test_a_size_no_array_can_hold_exits_1_with_one_line(tmp_path):
    done = cli_process(
        "simulate", "--preset", "monotone", "--n", 10**20, "--out", "x.csv",
        cwd=tmp_path, capture_output=True,
    )
    assert (done.returncode, done.stdout) == (1, "")
    most = np.iinfo(np.intp).max
    assert done.stderr == f"did-miss: error: sample size must be at most {most}, got {10**20}\n"
    assert not (tmp_path / "x.csv").exists()


def test_report_to_a_closed_pipe_exits_1_in_silence(toy_path):
    proc = cli_process(
        "cc", "--input", toy_path, run=subprocess.Popen,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # no reader is left before the report is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, "")


def test_unknown_preset_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--preset", "nope", "--out", tmp_path / "x.csv"
    )
    assert code == 1
    assert err.startswith("did-miss: error:")


def test_aux_index_out_of_range_exits_1(capsys, toy_path):
    code, _, err = run(capsys, "iv", "--input", toy_path, "--aux", 7)
    assert code == 1
    assert "aux index" in err


def test_one_column_named_twice_as_an_instrument_pair_exits_1(capsys, tmp_path):
    path = tmp_path / "pair.csv"
    save_panel(simulate_panel(make_preset("multi-iv", n=400, seed=1))[0], path)
    code, out, err = run(capsys, "iv", "--input", path, "--aux", 1, "--aux2", 1)
    assert (code, out) == (1, "")
    assert err == (
        "did-miss: error: an instrument pair needs two different aux indices, got 1 twice\n"
    )


def test_pi_covariates_reports_a_late_undecodable_byte_like_every_command(capsys, tmp_path):
    # y2 is missing from the header, but the whole file is read first, so the
    # undecodable byte in the last of 3000 rows wins, as it does for cc
    path = tmp_path / "panel.csv"
    rows = b"".join(b"%d,%d,%d.5,%d\n" % (i, i % 2, i, i % 3) for i in range(1, 3000))
    path.write_bytes(b"id,d,y1,x1\n" + rows + b"3000,1,\xff,0\n")
    errors = []
    for argv in (["pi", "--input", path, "--covariates", "x1"], ["cc", "--input", path]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(
        "did-miss: error: malformed CSV: 'utf-8' codec can't decode byte 0xff"
    )
    assert errors[0].count("\n") == 1


def test_covariates_on_a_file_without_rows_is_input_error(capsys, tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("\n\n")
    code, out, err = run(capsys, "pi", "--input", path, "--covariates", "x1")
    assert code == 1 and out == ""
    assert "empty dataset" in err


@pytest.mark.parametrize("names", [",", "", " , "])
def test_covariates_that_name_no_column_are_refused(capsys, tmp_path, names):
    path = tmp_path / "panel.csv"
    path.write_text("id,d,y1,y2,x1\n1,0,1,2,0\n2,1,1,3,0\n3,0,2,3,1\n4,1,2,4,1\n")
    code, out, err = run(capsys, "pi", "--input", path, "--covariates", names)
    assert (code, out) == (1, "")
    assert err == f"did-miss: error: --covariates names no column, got {names!r}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cc", "--input", "."], "cannot read"),
        (["pi", "--input", ".", "--covariates", "x1"], "cannot read"),
        (["cc", "--input", "undecodable.csv"], "malformed CSV"),
        (["pi", "--input", "undecodable.csv", "--covariates", "x1"], "malformed CSV"),
    ],
)
def test_unreadable_input_is_input_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "undecodable.csv").write_bytes(b"\xffid,d,y1,y2,x1\n1,0,1,\xfe,0\n")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err


def test_refusal_exits_2(capsys, tmp_path):
    # no control unit is observed in both waves, so every estimand is refused
    data = make_panel(
        [0, 0, 0, 1, 1, 1],
        [1.0, 2.0, None, 0.0, 1.0, 2.0],
        [None, None, 3.0, 1.0, 2.0, 3.0],
    )
    path = tmp_path / "nocc.csv"
    save_panel(data, str(path))
    code, out, err = run(capsys, "bounds", "--input", path, "--mode", "monotone")
    assert code == 2
    assert out == ""
    assert err.startswith("did-miss: refused:")
    assert "arm 0" in err


@pytest.mark.parametrize(
    "text, argv",
    [(TIED_TRIM_CSV, ()), (TIED_RESAMPLE_CSV, ("--bootstrap", 50, "--seed", 2))],
    ids=["full-sample", "bootstrap"],
)
@pytest.mark.parametrize("mode", ["monotone", "no-monotone"])
def test_bounds_on_near_tied_changes_exit_0_in_order(tmp_path, text, argv, mode):
    path = tmp_path / "tied.csv"
    path.write_text(text)
    proc = run_cli("bounds", "--input", path, "--mode", mode, *argv)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    result = strict_loads(proc.stdout)["result"]
    assert result["lb"] <= result["ub"]
    if argv:
        assert result["bootstrap"]["replicates_failed"] == 0


# -- pretty rendering -----------------------------------------------------------------


def test_pretty_renders_human_readable_report(capsys, toy_path):
    code, out, err = run(capsys, "rates", "--input", toy_path, "--pretty")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("did-miss") and "[ok]" in lines[0]
    assert any(line == "result:" for line in lines)
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_pretty_renders_a_list_of_mappings_as_dashed_blocks(capsys, tmp_path):
    # control response 0.9 above treated response 0.5: the always-respondent
    # score clips, so clip_events is a non-empty list of mappings
    path = tmp_path / "clipped.csv"
    rows = [(0, "1.0" if i < 9 else "NA") for i in range(10)]
    rows += [(1, "1.0" if i < 5 else "NA") for i in range(10)]
    path.write_text("id,d,y1,y2\n" + "".join(f"{i},{d},0,{y}\n" for i, (d, y) in enumerate(rows, 1)))
    code, out, err = run(capsys, "pi", "--input", path, "--pretty")
    assert code == 0 and err == ""
    lines = out.splitlines()
    at = lines.index("  clip_events:")
    assert lines[at + 1 : at + 4] == [
        "    - quantity  e11(x=())",
        "      raw       0.9",
        "      clipped   0.5",
    ]
    assert lines[at + 4] == "  flags                   [model-inconsistent rates]"


# -- the contract under fuzzing ---------------------------------------------------------

CELLS = ["0", "1"] * 6 + ["2", "-1", "0.5", "3.25", "NA", "NA", "", "nan", "inf", "1e308",
                         "-1e308", "x", '"1"', '"a\nb"']
HEADERS = ["id,d,y1,y2", "id,d,y1,y2,a1,a2", "id,d,y1,y2,x1", "id,d,y1,y2,a1,x1",
           "id,d,y1", "d,y1,y2", "id,d,y1,y2,a1,a1", ""]


@st.composite
def small_csvs(draw):
    """A small panel CSV: valid header and cells often, malformed ones sometimes."""
    header = draw(st.sampled_from(HEADERS))
    lines = [header]
    for i in range(draw(st.integers(0, 12))):
        width = header.count(",") + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
        lines.append(",".join([str(i + 1)] + [draw(st.sampled_from(CELLS)) for _ in range(width)]))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for preset, n in (("multi-iv", 300), ("pi", 300), ("monotone", 60)):
        code = main(["simulate", "--preset", preset, "--n", str(n), "--seed", "2",
                     "--out", str(root / f"{preset}.csv"), "--truth", str(root / f"{preset}-o.csv")])
        assert code == 0
    # no control unit is observed in both waves: every estimator refuses
    (root / "refused.csv").write_text(
        "id,d,y1,y2,a1\n1,0,1,NA,0\n2,0,2,NA,1\n3,0,NA,3,0\n4,1,0,1,1\n5,1,1,2,0\n6,1,2,3,1\n"
    )
    (root / "ragged.csv").write_text("id,d,y1,y2\n1,0,1,2\n2,1,2\n")
    (root / "undecodable.csv").write_bytes(b"id,d,y1,y2\n1,0,1,\xff\n")
    (root / "empty.csv").write_text("")
    tampered = (root / "monotone-o.csv").read_text().splitlines()
    tampered[3] = tampered[3].replace(",AR,", ",NR,").replace(",ITR,", ",AR,")
    (root / "tampered-o.csv").write_text("\n".join(tampered) + "\n")
    return root


def _flag_values(root):
    """Per flag: values that pass argparse and the value checks, then values that do not."""
    inputs = [root / name for name in ("multi-iv.csv", "pi.csv", "monotone.csv", "refused.csv",
                                       "generated.csv")]
    bad_inputs = [root / name for name in ("ragged.csv", "undecodable.csv", "empty.csv",
                                           "absent.csv")] + [root]
    outputs = [root / "out.csv", root / "out-o.csv"]
    truths = [root / "monotone-o.csv", root / "pi-o.csv", root / "tampered-o.csv"]
    return {
        "--input": (inputs, bad_inputs),
        "--bootstrap": (["1", "2", "5", "12"], ["-3", "0", "nan", "abc", "1.5", ""]),
        "--seed": (["0", "3", str(2**70)], ["-1", "nan", "x"]),
        "--level": (["0.9", "0.5", "0.999"], ["0", "1", "-0.5", "nan", "inf", "1e308", "x"]),
        "--aux": (["0", "1"], ["2", "-1", str(10**20), "nan", "x"]),
        "--aux2": (["0", "1"], ["3", "-2", "nan"]),
        "--mode": (["monotone", "no-monotone"], ["other"]),
        "--support": ([("-10", "10"), ("-1e308", "1e308"), ("5", "5")],
                      [("10", "-10"), ("nan", "1"), ("-inf", "1"), ("1", "inf"), ("x", "1")]),
        "--covariates": (["x1", " x1 "], ["x1,x2", "", "nope", ",", "y1"]),
        "--preset": (list(PRESET_KINDS), ["nope"]),
        "--n": (["2", "10", "300"], ["-1", "0", "nan", "x", "1.5"]),
        "--out": (outputs, [root, "/nonexistent/x.csv"]),
        "--truth": (truths, [root / "pi.csv", root / "generated.csv", root / "absent.csv", root]),
    }


REQUIRED = ("--input", "--preset", "--out", "--truth")
BOOTSTRAP_FLAGS = ("--bootstrap", "--seed", "--level")
FLAGS = {
    "cc": ("--input",) + BOOTSTRAP_FLAGS,
    "iv": ("--input", "--aux", "--aux2") + BOOTSTRAP_FLAGS,
    "bounds": ("--input", "--mode", "--support") + BOOTSTRAP_FLAGS,
    "pi": ("--input", "--covariates") + BOOTSTRAP_FLAGS,
    "rates": ("--input",),
    "simulate": ("--preset", "--n", "--seed", "--out", "--truth"),
    "decompose": ("--truth",),
}


@st.composite
def argvs(draw, root):
    """A subcommand with each of its flags present or not, drawn values, and
    now and then --pretty, an unknown flag or a stray word."""
    values = _flag_values(root)
    command = draw(st.sampled_from(sorted(FLAGS) * 4 + ["nope"]))
    argv = [command]
    for flag in FLAGS.get(command, ()):
        # required flags are mostly present, the others half the time; values mostly good
        if draw(st.integers(0, 9)) >= (1 if flag in REQUIRED else 5):
            good, bad = values["--out" if (command, flag) == ("simulate", "--truth") else flag]
            value = draw(st.sampled_from(good if draw(st.integers(0, 5)) else bad))
            argv += [flag, *map(str, value if isinstance(value, tuple) else (value,))]
    argv += draw(st.sampled_from([[]] * 12 + [["--pretty"]] * 2 + [["--bogus"], ["stray"]]))
    return argv


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_keeps_the_exit_code_and_output_contract(fuzz_files, data):
    (fuzz_files / "generated.csv").write_text(data.draw(small_csvs()))
    argv = data.draw(argvs(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        if "--pretty" in argv:
            assert out.startswith("did-miss ")
        else:
            strict_loads(out)
    else:
        assert out == ""
        assert err.startswith("did-miss: ") and err.endswith("\n") and err.count("\n") == 1
