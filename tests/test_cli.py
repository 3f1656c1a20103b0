"""End-to-end command-line interface behavior."""

import contextlib
import csv
import io
import math
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dhym.cli
from dhym.cli import CHECK_SAMPLES_MAX, _level_set_points, _suite_derivatives, main
from dhym.hermitian import (
    dF,
    eig_pair,
    eigenvalue_derivatives,
    lagrangian_angle_det,
    spectral_function_derivatives,
    symmetrize,
    theta_arctan,
)
from dhym.phase import PhaseSpec, level_set_sample_batch
from dhym.runconfig import _SECTIONS, RunConfig

MAN1 = """
[grid]
n = 1
N = 64

[fields]
omega = id
chi0 = iso 0.2
u_star = 0.3 cos x1

[target]
kind = manufactured

[problem]
eps0 = 0.5

[solver]
tol = 1e-11

[output]
dir = {out}
"""

CONT1 = """
[grid]
n = 1
N = 32

[fields]
omega = id
chi0 = iso 0.5 + 0.2 cos x1

[target]
kind = hat-theta

[problem]
eps0 = 0.25

[solver]
tol = 1e-11

[output]
dir = {out}
"""


def _cfg(tmp_path, text, name="run.cfg", out="out"):
    p = tmp_path / name
    p.write_text(text.format(out=tmp_path / out))
    return str(p)


def _strip_timestamp(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("timestamp")]


def test_solve_manufactured_exit_zero(tmp_path):
    rc = main(["solve", _cfg(tmp_path, MAN1)])
    assert rc == 0
    report = dict(
        ln.split(" = ") for ln in _strip_timestamp(tmp_path / "out" / "report.txt")
    )
    assert report["converged"] == "true"
    assert float(report["residual_sup"]) <= 1e-8
    assert int(report["krylov_iters"]) > 0
    with open(tmp_path / "out" / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"iteration", "residual_sup", "min_phase", "t", "b_t", "N"}


def test_solve_report_reads_the_last_state(tmp_path, monkeypatch):
    import dhym.torus as torus
    from dhym.cli import _build_problem
    from dhym.fieldio import read_field
    from dhym.runconfig import load_config
    from dhym.solver import SolverConfig, evaluate_state, newton_solve

    forward = []
    fftn = torus.fftn
    monkeypatch.setattr(torus, "fftn", lambda values: forward.append(1) or fftn(values))
    cfg = _cfg(tmp_path, MAN1)
    prob = _build_problem(load_config(cfg))
    build_transforms, forward[:] = len(forward), []
    newton_solve(prob, cfg=SolverConfig(tol=1e-11))
    solve_transforms, forward[:] = len(forward), []
    assert main(["solve", cfg]) == 0
    # the problem and the solve: no state is evaluated after the solver returns
    assert len(forward) == build_transforms + solve_transforms
    report = dict(
        ln.split(" = ") for ln in _strip_timestamp(tmp_path / "out" / "report.txt")
    )
    assert report["final_residual_sup"] == report["residual_sup"]
    # the residual and phase range of the solver's last state are those of
    # the written solution, which the solver re-evaluated
    solution = read_field(tmp_path / "out" / "solution.dhym")
    state = evaluate_state(solution, float(report["c"]), prob)
    assert abs(float(report["final_residual_sup"]) - state.residual_sup) <= 1e-15
    assert abs(float(report["min_phase"]) - state.min_phase) <= 1e-15
    assert abs(float(report["max_phase"]) - state.max_phase) <= 1e-15
    assert float(report["min_phase"]) < float(report["max_phase"])
    # the starting state of each level is an iterate, not a step
    levels = 1 + int(report["coarse_levels"])
    assert int(report["newton_steps"]) == int(report["newton_iterations"]) - levels > 0


def test_solve_hat_theta_target(tmp_path):
    rc = main(["solve", _cfg(tmp_path, CONT1)])
    assert rc == 0
    report = dict(
        ln.split(" = ") for ln in _strip_timestamp(tmp_path / "out" / "report.txt")
    )
    assert report["method"] == "continuity"
    assert abs(float(report["c"])) <= 1e-8


def test_solve_rejects_out_of_band_target(tmp_path):
    bad = CONT1.replace("kind = hat-theta", "kind = constant\nvalue = 2.0")
    rc = main(["solve", _cfg(tmp_path, bad)])
    assert rc == 2


def test_solve_rejects_unknown_key(tmp_path):
    rc = main(["solve", _cfg(tmp_path, MAN1 + "\n[grid]\n", name="dup.cfg")])
    assert rc == 2  # duplicate section is a config error
    rc = main(
        ["solve", _cfg(tmp_path, MAN1.replace("tol = 1e-11", "wibble = 1"), name="k.cfg")]
    )
    assert rc == 2


def test_solve_trace_rows_match_report_counts(tmp_path, monkeypatch):
    import scipy.sparse.linalg as spla

    import dhym.solver as solver
    from dhym.errors import SolverError

    gmres = spla.gmres
    newton = solver._newton
    attempts = []  # [raised, gmres iterations of each step] per Newton solve

    def counting(A, b, **kwargs):
        # gmres reports one pr_norm per iteration to the solver's callback
        seen = []
        callback = kwargs["callback"]

        def both(pr_norm):
            seen.append(pr_norm)
            callback(pr_norm)

        out = gmres(A, b, **dict(kwargs, callback=both))
        attempts[-1][1].append(len(seen))
        return out

    def attempt(*args, **kwargs):
        attempts.append([False, []])
        try:
            return newton(*args, **kwargs)
        except SolverError:
            attempts[-1][0] = True
            raise

    monkeypatch.setattr(spla, "gmres", counting)
    # every Newton solve: each stage attempt, then each finer level
    monkeypatch.setattr(solver, "_newton", attempt)
    # three Newton steps per stage: the whole path fails and the step halves
    text = CONT1.replace("tol = 1e-11", "tol = 1e-11\nmax_iters = 3")
    assert main(["solve", _cfg(tmp_path, text)]) == 0
    report = dict(
        ln.split(" = ") for ln in _strip_timestamp(tmp_path / "out" / "report.txt")
    )
    with open(tmp_path / "out" / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    stages = int(report["continuity_stages"])
    assert stages > 1
    assert [int(r["iteration"]) for r in rows] == list(range(len(rows)))
    assert int(report["newton_iterations"]) == len(rows)
    # the continuation's level, then each finer one, in order
    grids = [int(r["N"]) for r in rows]
    levels = int(report["coarse_levels"])
    assert grids == sorted(grids) and len(set(grids)) == 1 + levels == 3
    failed = [steps for raised, steps in attempts if raised]
    assert int(report["continuity_failed_attempts"]) == len(failed) > 0
    assert len(attempts) == stages + levels + len(failed)
    # every stage and finer level starts with an unstepped row; failed
    # attempts leave no row
    per_step = [n for raised, steps in attempts if not raised for n in steps]
    assert len(per_step) == len(rows) - stages - levels == int(report["newton_steps"])
    assert int(report["krylov_iters"]) == sum(per_step)


def test_solve_deterministic_artifacts(tmp_path):
    cfg_a = _cfg(tmp_path, MAN1, name="a.cfg", out="out_a")
    cfg_b = _cfg(tmp_path, MAN1, name="b.cfg", out="out_b")
    assert main(["solve", cfg_a]) == 0
    assert main(["solve", cfg_b]) == 0
    a_dir = tmp_path / "out_a"
    b_dir = tmp_path / "out_b"
    assert (a_dir / "solution.dhym").read_bytes() == (b_dir / "solution.dhym").read_bytes()
    assert (a_dir / "trace.csv").read_bytes() == (b_dir / "trace.csv").read_bytes()
    assert _strip_timestamp(a_dir / "report.txt") == _strip_timestamp(b_dir / "report.txt")


CHECK = """
[check]
suite = {suite}
samples = {samples}
seed = 11
{extra}
[output]
dir = {out}
"""


@pytest.mark.parametrize(
    "suite,samples,extra",
    [
        ("derivatives", 10, ""),
        ("subsolution", 40, ""),
        ("lemma23", 500, "eps0 = 0.2\n"),
        ("invariance", 5, "n = 1\nN = 32\n"),
        ("prop21", 1000, "sigma = 1.7708\neps0 = 0.2\n"),
    ],
)
def test_check_suites_pass(tmp_path, suite, samples, extra):
    text = CHECK.format(suite=suite, samples=samples, extra=extra, out="{out}")
    rc = main(["check", _cfg(tmp_path, text)])
    assert rc == 0
    out = tmp_path / "out" / f"check_{suite}.csv"
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert all(int(r["failures"]) == 0 for r in rows)


# (samples, extra [check] keys, CSV lines) of each check at seed 11, at 300
# samples or, for prop21, its least 1000, and for invariance 5 on each grid
# (its defaults, n=1 N=32, and n=2 N=8): a speed-up or a refactor of a suite
# must not change its draws or its verdicts.  A key is a suite name, with a
# "-variant" suffix where one suite is pinned twice.
PINNED_CHECK_CSV = {
    "derivatives": (300, "", [
        "suite,case,samples,failures,worst,threshold",
        "derivatives,n=2,300,0,2.3774157585643163e-07,0.0001",
        "derivatives,n=3,300,0,3.6616841970069269e-07,0.0001",
        "derivatives,n=4,300,0,2.2251613071646772e-07,0.0001",
    ]),
    "prop21": (1000, "", [
        "suite,case,samples,failures,worst,threshold",
        'prop21,"sigma=1.7708,R=10",1000,0,0.58802452307602204,0',
    ]),
    "subsolution": (300, "", [
        "suite,case,samples,failures,worst,threshold",
        "subsolution,n=2,300,0,0.01585394915285987,0",
        "subsolution,n=3,300,0,0.013522619812049275,0",
    ]),
    "lemma23": (300, "", [
        "suite,case,samples,failures,worst,threshold",
        'lemma23,"n=2,sigma=0.2000",300,0,0.10035909928805528,0',
        'lemma23,"n=2,sigma=1.5708",300,0,1.8997108335890216,0',
        'lemma23,"n=2,sigma=2.9416",300,0,19.832984697717222,0',
        'lemma23,"n=3,sigma=1.7708",300,0,0.11379152342527052,0',
        'lemma23,"n=3,sigma=3.1416",300,0,1.9467948022437831,0',
        'lemma23,"n=3,sigma=4.5124",300,0,19.909152692491872,0',
    ]),
    "invariance": (5, "", [
        "suite,case,samples,failures,worst,threshold",
        'invariance,"n=1,N=32",5,0,5.5511151231257827e-17,1e-10',
    ]),
    "invariance-n2": (5, "n = 2\nN = 8\n", [
        "suite,case,samples,failures,worst,threshold",
        'invariance,"n=2,N=8",5,0,2.2204460492503131e-16,1e-10',
    ]),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECK_CSV))
def test_check_csv_is_pinned(tmp_path, name):
    samples, extra, lines = PINNED_CHECK_CSV[name]
    suite = name.partition("-")[0]
    text = CHECK.format(suite=suite, samples=samples, extra=extra, out="{out}")
    assert main(["check", _cfg(tmp_path, text)]) == 0
    got = (tmp_path / "out" / f"check_{suite}.csv").read_bytes().decode()
    assert got == "".join(line + "\r\n" for line in lines)


@pytest.mark.parametrize(
    "n,sigma",
    [(n, (n - 2) * np.pi / 2 + off) for n in (2, 3) for off in (0.2, np.pi / 2, np.pi - 0.2)]
    + [(2, np.pi - 1e-3)],  # here rows survive with residual angles near pi/2
)
def test_level_set_points_match_the_unfiltered_loop(n, sigma):
    # reference: every drawn row goes through tan and the batch
    spec = PhaseSpec(n, sigma, min(0.2, sigma - (n - 2) * np.pi / 2))
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = _level_set_points(spec, 200, rng)
    points = np.empty((0, n))
    while points.shape[0] < 200:
        free = np.tan(ref_rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, (800, n - 1)))
        points = np.concatenate([points, level_set_sample_batch(spec, free)], axis=0)
    assert np.array_equal(got, points[:200])
    assert rng.random() == ref_rng.random()  # the same draws were consumed


def test_check_refuses_samples_above_the_ceiling(tmp_path, capsys, monkeypatch):
    # stand-in suites in the table cmd_check reads, so that a broken refusal
    # cannot start a 64 GB draw
    started = []
    for suite, (_, threshold, keys) in dhym.cli._SUITES.items():
        stand_in = (lambda cfg, samples, rng: started.append(samples) or [], threshold, keys)
        monkeypatch.setitem(dhym.cli._SUITES, suite, stand_in)
    for suite in ("derivatives", "subsolution", "lemma23", "invariance", "prop21"):
        for samples in (CHECK_SAMPLES_MAX + 1, 10**9, 0):
            text = CHECK.format(suite=suite, samples=samples, extra="", out="{out}")
            assert main(["check", _cfg(tmp_path, text)]) == 2
            assert f"samples = {samples} outside" in capsys.readouterr().err
        assert not started
        text = CHECK.format(suite=suite, samples=CHECK_SAMPLES_MAX, extra="", out="{out}")
        assert main(["check", _cfg(tmp_path, text)]) == 0
        assert started == [CHECK_SAMPLES_MAX]
        started.clear()


def test_check_rejects_zero_eps0(tmp_path):
    text = CHECK.format(suite="lemma23", samples=10, extra="eps0 = 0\n", out="{out}")
    assert main(["check", _cfg(tmp_path, text)]) == 2


@pytest.mark.parametrize("suite", ["subsolution", "prop21"])
def test_check_refuses_a_negative_seed(tmp_path, capsys, suite):
    # subsolution draws from the command's generator, prop21 from its own
    text = CHECK.format(suite=suite, samples=10, extra="", out="{out}")
    assert main(["check", _cfg(tmp_path, text.replace("seed = 11", "seed = -1"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "[check] seed = -1 must be >= 0" in err
    assert not (tmp_path / "out").exists()


def test_solve_refuses_a_solver_seed(tmp_path, capsys):
    # dhym solve draws nothing, so [solver] seed is an unknown key
    text = MAN1.replace("tol = 1e-11", "tol = 1e-11\nseed = 42")
    assert main(["solve", _cfg(tmp_path, text)]) == 2
    assert "unknown key 'seed' in section [solver]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_check_keys_are_the_suite_table_keys():
    # runconfig accepts a [check] key iff some suite reads it
    read = {key for _, _, keys in dhym.cli._SUITES.values() for key in keys}
    assert _SECTIONS["check"] == {"suite", "samples", "seed"} | read


@pytest.mark.parametrize(
    "suite,key",
    [("derivatives", "sigma"), ("subsolution", "eps0"), ("lemma23", "n"),
     ("invariance", "eps0"), ("prop21", "N")],
)
def test_check_refuses_a_key_its_suite_does_not_read(tmp_path, capsys, suite, key):
    text = CHECK.format(suite=suite, samples=10, extra=f"{key} = 1\n", out="{out}")
    assert main(["check", _cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"[check] {key} is not read by suite = {suite}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,text,name",
    [
        pytest.param(
            "check",
            CHECK.format(suite="lemma23", samples=10, extra="eps0 = nan\n", out="{out}"),
            "[check] eps0",
            id="lemma23-eps0-nan",
        ),
        pytest.param(
            "check",
            CHECK.format(
                suite="prop21", samples=10, extra="sigma = 1.7708\neps0 = nan\n", out="{out}"
            ),
            "[check] eps0",
            id="prop21-eps0-nan",
        ),
        pytest.param(
            "solve", MAN1.replace("eps0 = 0.5", "eps0 = nan"), "[problem] eps0",
            id="problem-eps0-nan",
        ),
        pytest.param(
            "solve", MAN1.replace("tol = 1e-11", "tol = nan"), "[solver] tol",
            id="solver-tol-nan",
        ),
        pytest.param(
            "solve", MAN1.replace("tol = 1e-11", "tol = inf"), "[solver] tol",
            id="solver-tol-inf",
        ),
    ],
)
def test_non_finite_config_number_exits_two(tmp_path, capsys, command, text, name):
    assert main([command, _cfg(tmp_path, text)]) == 2
    assert f"{name} = " in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["1e308", "1e200", "1e+308"])
def test_solve_refuses_huge_chi0_without_overflow(tmp_path, capsys, scale):
    # an n=2 N=8 manufactured run with u_star = 0.1 cos x1
    text = (
        MAN1.replace("n = 1\nN = 64", "n = 2\nN = 8")
        .replace("chi0 = iso 0.2", f"chi0 = iso {scale}")
        .replace("u_star = 0.3 cos x1", "u_star = 0.1 cos x1")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        assert main(["solve", _cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "chi0" in err and "1e+64" in err


@pytest.mark.parametrize("key", ["u_star", "u0"])
def test_solve_refuses_huge_potential_without_overflow(tmp_path, capsys, key):
    # an n=2 N=8 manufactured run on id and iso 0.3 with one huge potential
    potentials = {"u_star": "0.1 cos x1", "u0": "0"}
    potentials[key] = "1e308 cos x1"
    text = (
        MAN1.replace("n = 1\nN = 64", "n = 2\nN = 8")
        .replace("chi0 = iso 0.2", "chi0 = iso 0.3")
        .replace("u_star = 0.3 cos x1", "\n".join(f"{k} = {v}" for k, v in potentials.items()))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        assert main(["solve", _cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert f"BadRange: {key} has an entry" in err and "1e+64" in err


@pytest.mark.parametrize("key", ["u_star", "omega"])
def test_solve_refuses_overflowing_spec_without_warning(tmp_path, capsys, key):
    # two finite terms whose sum overflows, in u_star or under omega = iso
    spec = "1e308 cos x1 + 1e308 cos y1"
    fields = {"u_star": f"u_star = {spec}", "omega": f"omega = iso {spec}"}
    text = MAN1.replace("n = 1\nN = 64", "n = 2\nN = 8").replace(
        {"u_star": "u_star = 0.3 cos x1", "omega": "omega = id"}[key], fields[key]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        assert main(["solve", _cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{spec!r} has a non-finite value" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("freq,code", [("4", 0), ("-4", 0), ("5", 2), ("99999999999999999999999", 2)])
def test_solve_refuses_frequencies_the_grid_cannot_hold(tmp_path, capsys, freq, code):
    # an n=1 N=8 manufactured run: N/2 = 4 is the highest frequency it holds
    text = MAN1.replace("N = 64", "N = 8").replace(
        "u_star = 0.3 cos x1", f"u_star = 0.1 cos {freq} x1"
    )
    assert main(["solve", _cfg(tmp_path, text)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error:") and f"'0.1 cos {freq} x1'" in err and "N=8" in err


def test_continuation_refuses_u0(tmp_path, capsys):
    # continuity always starts from u = 0, so a u0 it would not read is refused
    text = CONT1.replace("N = 32", "N = 16").replace(
        "chi0 = iso 0.5 + 0.2 cos x1", "chi0 = iso 0.5 + 0.2 cos x1\nu0 = 1e308 cos x1"
    )
    assert main(["solve", _cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "u0" in err and "method = newton" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "target", ["kind = constant\nvalue = 0.5", "kind = hat-theta"], ids=["constant", "hat-theta"]
)
def test_solve_refuses_u_star_without_manufactured_target(tmp_path, capsys, target):
    # only a manufactured target reads u_star, so a u_star it would not read is refused
    text = (
        CONT1.replace("N = 32", "N = 16")
        .replace("cos x1\n", "cos x1\nu_star = 1e308 cos x1\n", 1)
        .replace("kind = hat-theta", target)
    )
    assert main(["solve", _cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "u_star" in err and "kind = manufactured" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "target,key,reader",
    [
        ("kind = hat-theta\nvalue = 0.5", "[target] value", "constant"),
        ("kind = field\npath = t.dhym\nvalue = 0.5", "[target] value", "constant"),
        ("kind = constant\nvalue = 0.5\npath = t.dhym", "[target] path", "field"),
        ("kind = manufactured\npath = t.dhym", "[target] path", "field"),
    ],
    ids=["value-hat-theta", "value-field", "path-constant", "path-manufactured"],
)
def test_solve_refuses_target_keys_its_kind_does_not_read(tmp_path, capsys, target, key, reader):
    # chi0 names a missing file: the refusal comes before any field is read
    text = CONT1.replace("iso 0.5 + 0.2 cos x1", f"file {tmp_path / 'missing.dhym'}").replace(
        "kind = hat-theta", target
    )
    assert main(["solve", _cfg(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{key} is read only by [target] kind = {reader}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale", ["1e308", "1e200"])
def test_angle_refuses_huge_chi0_without_overflow(tmp_path, capsys, scale):
    text = MAN1.replace("n = 1\nN = 64", "n = 2\nN = 8").replace(
        "chi0 = iso 0.2", f"chi0 = iso {scale}"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning fails the test
        assert main(["angle", "--config", _cfg(tmp_path, text)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "BadRange: chi has an entry" in err and "1e+64" in err


# one n=2 N=8 config for both commands: angle reads its grid, omega and chi0
EXTREME_CFG = """
[grid]
n = 2
N = 8

[fields]
omega = id
chi0 = {chi0}
u_star = {amp} cos x1

[target]
kind = manufactured

[problem]
eps0 = 0.1

[solver]
max_iters = 10

[output]
dir = {out}
"""
# written as Python writes them (1e+308, -1e-300), the way a config is pasted
EXTREMES = [
    repr(sign * mag)
    for mag in (0.0, 1e-300, 1e-6, 0.3, 1e63, 1e64, 2e64, 1e200, 1e308)
    for sign in (1.0, -1.0)
] + ["nan", "inf"]


@given(
    command=st.sampled_from(["angle", "solve"]),
    chi0=st.one_of(
        st.builds("iso {}".format, st.sampled_from(EXTREMES)),
        st.builds("const-diag {} {}".format, st.sampled_from(EXTREMES), st.sampled_from(EXTREMES)),
    ),
    amp=st.sampled_from(EXTREMES),
)
@settings(max_examples=100, deadline=None)
def test_extreme_entries_exit_cleanly(command, chi0, amp):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = f"{tmp}/run.cfg"
        with open(cfg, "w") as fh:
            fh.write(EXTREME_CFG.format(chi0=chi0, amp=amp, out=f"{tmp}/out"))
        argv = ["angle", "--config", cfg] if command == "angle" else ["solve", cfg]
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)  # none may escape
            rc = main(argv)
    assert rc in (0, 2, 3), err.getvalue()
    if command == "angle" and rc == 0:
        assert math.isfinite(float(out.getvalue().splitlines()[0].split(" = ")[1]))


def test_exponent_sign_amplitude_solves_alike(tmp_path):
    # chi0 = iso 3e+0 is the same config as chi0 = iso 3
    reports = []
    for amp in ("3", "3e+0"):
        text = EXTREME_CFG.format(chi0=f"iso {amp}", amp="0.1", out=tmp_path / amp)
        assert main(["solve", _cfg(tmp_path, text, name=f"{amp}.cfg")]) == 0
        reports.append(_strip_timestamp(tmp_path / amp / "report.txt"))
    assert reports[0] == reports[1]
    assert (tmp_path / "3" / "solution.dhym").read_bytes() == (
        tmp_path / "3e+0" / "solution.dhym"
    ).read_bytes()


def test_check_rejects_unknown_suite(tmp_path):
    text = CHECK.format(suite="wat", samples=10, extra="", out="{out}")
    assert main(["check", _cfg(tmp_path, text)]) == 2
    # [check] tol is read by no suite, so it is an unknown key
    text = CHECK.format(suite="derivatives", samples=10, extra="tol = 1e-6\n", out="{out}")
    assert main(["check", _cfg(tmp_path, text, name="tol.cfg")]) == 2


def _scalar_derivative_rows(samples, rng):
    """The derivative suite with one pencil solve per stencil matrix."""
    rows = []
    for n in (2, 3, 4):
        worst_first = worst_second = 0.0
        failures = 0
        for _ in range(samples):
            lam = np.sort(rng.uniform(-2.0, 2.5, n))[::-1]
            lam += np.arange(n)[::-1] * 0.5
            mat = np.diag(lam)
            h = symmetrize(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            eps1, eps2 = 1e-5, 1e-4

            def evals(m):
                return eig_pair(np.eye(n), m).lambdas

            def theta_of(m):
                return theta_arctan(evals(m))

            d1 = (evals(mat + eps1 * h) - evals(mat - eps1 * h)) / (2 * eps1)
            first, second = eigenvalue_derivatives(mat)
            p1 = np.einsum("ipq,pq->i", first.astype(complex), h).real
            e1 = np.max(np.abs(d1 - p1)) / max(1.0, np.max(np.abs(p1)))
            d2 = (evals(mat + eps2 * h) - 2 * evals(mat) + evals(mat - eps2 * h)) / eps2**2
            p2 = np.einsum("ipqrs,pq,rs->i", second, h, h).real
            e2 = np.max(np.abs(d2 - p2)) / max(1.0, np.max(np.abs(p2)))

            sd = spectral_function_derivatives("arctan_sum", mat)
            dt1 = (theta_of(mat + eps1 * h) - theta_of(mat - eps1 * h)) / (2 * eps1)
            pt1 = np.einsum("ij,ij->", sd.first, h).real
            et1 = abs(dt1 - pt1) / max(1.0, abs(pt1))
            dt2 = (
                theta_of(mat + eps2 * h) - 2 * theta_of(mat) + theta_of(mat - eps2 * h)
            ) / eps2**2
            pt2 = np.einsum("ijrs,ij,rs->", sd.second, h, h).real
            et2 = abs(dt2 - pt2) / max(1.0, abs(pt2))

            dfm = dF(eig_pair(np.eye(n), mat))
            dd1 = (
                lagrangian_angle_det(np.eye(n), mat + eps1 * h)
                - lagrangian_angle_det(np.eye(n), mat - eps1 * h)
            ) / (2 * eps1)
            pd1 = float(np.trace(dfm @ h).real)
            ed1 = abs(dd1 - pd1) / max(1.0, abs(pd1))

            worst_first = max(worst_first, e1, et1, ed1)
            worst_second = max(worst_second, e2, et2)
            if max(e1, et1, ed1) > 1e-6 or max(e2, et2) > 1e-4:
                failures += 1
        rows.append(
            {
                "case": f"n={n}",
                "samples": samples,
                "failures": failures,
                "worst": max(worst_first, worst_second),
                "threshold": 1e-4,
            }
        )
    return rows


@pytest.mark.parametrize("seed", [11, 12345])
def test_derivative_suite_matches_scalar_loop(seed):
    got = _suite_derivatives(RunConfig(), 40, np.random.default_rng(seed))
    want = _scalar_derivative_rows(40, np.random.default_rng(seed))
    assert got == [(row["case"], row["failures"], row["worst"]) for row in want]
    assert {row["threshold"] for row in want} == {dhym.cli._SUITES["derivatives"][1]}


def test_surface_command(tmp_path, capsys):
    assert main(["surface", "inoue-sm", "--alpha", "1", "--beta", "0"]) == 0
    text = capsys.readouterr().out
    assert "[e3, e4] = 2 e3" in text
    assert "jacobi_residual = 0.000e+00" in text
    assert main(["surface", "kodaira", "--c", "1"]) == 0
    text = capsys.readouterr().out
    assert "csub_certified = true" in text
    # lambdas (1, 0): the least phase over c in [2, 3] is arctan 2
    assert main(["surface", "kodaira", "--m", "2", "--M", "3"]) == 0
    assert "phase_bound = 1.10714871779\n" in capsys.readouterr().out
    assert main(["surface", "unknown"]) == 2


@pytest.mark.parametrize(
    "name,option,value",
    [
        ("kodaira", "m", "nan"),
        ("kodaira", "M", "inf"),
        ("kodaira", "c", "nan"),
        ("inoue-sm", "alpha", "nan"),
        ("inoue-pm", "q", "inf"),
        ("kodaira", "w11", "-inf"),
    ],
)
def test_surface_rejects_non_finite_option(capsys, name, option, value):
    assert main(["surface", name, f"--{option}={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--{option} must be finite" in err


def test_region_boundary_matches_hyperbola(tmp_path):
    out = tmp_path / "region.csv"
    sigma = np.pi / 2
    assert main(
        ["region", "--sigma", str(sigma), "--resolution", "256", "--out", str(out)]
    ) == 0
    rows = {}
    with open(out) as fh:
        for row in csv.DictReader(fh):
            rows[(float(row["lambda1"]), float(row["lambda2"]))] = int(row["label"])
    coords = sorted({k[0] for k in rows})
    cell = coords[1] - coords[0]
    # every adjacent-labelled node is within one cell diagonal of the curve
    curve_l1 = np.linspace(coords[0], coords[-1], 20001)
    angles = sigma - np.arctan(curve_l1)
    good = np.abs(angles) < np.pi / 2 - 1e-9
    curve = np.stack([curve_l1[good], np.tan(angles[good])], axis=1)
    near_pts = np.array([k for k, lbl in rows.items() if lbl == 2])
    assert near_pts.size > 0
    for pt in near_pts:
        d = np.min(np.hypot(curve[:, 0] - pt[0], curve[:, 1] - pt[1]))
        assert d <= np.sqrt(2.0) * cell
    # and the labelling is symmetric under coordinate swap
    for (l1, l2), lbl in rows.items():
        assert rows[(l2, l1)] == lbl


def test_region_empty_when_window_far_negative(tmp_path):
    out = tmp_path / "region0.csv"
    assert main(
        [
            "region",
            "--sigma",
            str(np.pi - 0.05),
            "--resolution",
            "64",
            "--offset",
            "-40.0",
            "--scale",
            "0.2",
            "--out",
            str(out),
        ]
    ) == 0
    with open(out) as fh:
        labels = {int(r["label"]) for r in csv.DictReader(fh)}
    assert labels == {0}


def test_region_rejects_bad_resolution():
    assert main(["region", "--resolution", "4096"]) == 2


@pytest.mark.parametrize(
    "option,value", [("sigma", "nan"), ("scale", "nan"), ("offset", "inf"), ("sigma", "-inf")]
)
def test_region_rejects_non_finite_window(tmp_path, capsys, option, value):
    out = tmp_path / "region.csv"
    argv = ["region", f"--{option}={value}", "--resolution", "8", "--out", str(out)]
    assert main(argv) == 2
    assert f"--{option} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_angle_from_config(tmp_path, capsys):
    cfg = _cfg(tmp_path, MAN1)
    assert main(["angle", "--config", cfg]) == 0
    out = capsys.readouterr().out
    val = float(out.splitlines()[0].split(" = ")[1])
    assert abs(val - np.arctan(0.2)) <= 1e-12


def test_angle_from_field_files(tmp_path, capsys):
    from dhym.fieldio import write_field
    from dhym.torus import TorusGrid, constant_form_field, identity_metric

    g = TorusGrid(1, 16)
    write_field(tmp_path / "om.dhym", identity_metric(g))
    write_field(tmp_path / "chi.dhym", constant_form_field(g, [[0.4]]))
    assert main(["angle", str(tmp_path / "om.dhym"), str(tmp_path / "chi.dhym")]) == 0
    out = capsys.readouterr().out
    val = float(out.splitlines()[0].split(" = ")[1])
    assert abs(val - np.arctan(0.4)) <= 1e-12


def test_angle_rejects_non_hermitian_field_file(tmp_path, capsys):
    from dhym.fieldio import write_field
    from dhym.torus import TorusGrid, constant_form_field, identity_metric

    g = TorusGrid(2, 8)
    vals = constant_form_field(g, 0.4 * np.eye(2)).values.copy()
    vals[..., 0, 1] = 0.3  # entry (1, 0) stays 0
    write_field(tmp_path / "om.dhym", identity_metric(g))
    # a form field cannot hold this payload: write its bytes directly
    header = struct.pack("<4sIBBI", b"DHYM", 1, 1, g.n, g.N)
    (tmp_path / "chi.dhym").write_bytes(header + vals.astype("<c16").tobytes())
    assert main(["angle", str(tmp_path / "om.dhym"), str(tmp_path / "chi.dhym")]) == 2
    assert "chi.dhym" in capsys.readouterr().err


def test_solve_krylov_key_accepts_only_gmres(tmp_path, capsys):
    gmres = MAN1.replace("tol = 1e-11", "tol = 1e-11\nkrylov = gmres")
    assert main(["solve", _cfg(tmp_path, gmres)]) == 0
    capsys.readouterr()
    cg = MAN1.replace("tol = 1e-11", "tol = 1e-11\nkrylov = cg")
    assert main(["solve", _cfg(tmp_path, cg, name="cg.cfg")]) == 2
    assert "gmres" in capsys.readouterr().err


def test_solve_rejects_krylov_tol_of_one(tmp_path, capsys):
    loose = MAN1.replace("tol = 1e-11", "tol = 1e-11\nkrylov_tol = 1")
    assert main(["solve", _cfg(tmp_path, loose)]) == 2
    assert "krylov_tol below 1" in capsys.readouterr().err


def test_threads_env_accepted(tmp_path, monkeypatch):
    from dhym.errors import ConfigError
    from dhym.torus import ScalarField, TorusGrid, _fft_workers, i_ddbar

    monkeypatch.setenv("DHYM_THREADS", "1")
    assert _fft_workers() == 1
    assert main(["solve", _cfg(tmp_path, MAN1)]) == 0
    monkeypatch.setenv("DHYM_THREADS", "auto")
    assert main(["solve", _cfg(tmp_path, MAN1)]) == 2
    assert main(["region", "--resolution", "8", "--out", str(tmp_path / "r.csv")]) == 2
    g = TorusGrid(1, 8)
    with pytest.raises(ConfigError):
        _fft_workers()
    with pytest.raises(ConfigError):
        i_ddbar(ScalarField(g, np.zeros(g.shape)))
