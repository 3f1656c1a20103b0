"""Pinned numbers of a small corpus of `dhym solve` runs.

Each config runs through the command line.  The counts (exit code, Newton
iterates and steps, gmres iterations, continuation stages and failed
attempts, every level of a coarse-to-fine solve counted) must
match exactly; c, the phase range, max|u|, the L2 norm of u and u at 16
seeded points must match within PIN_ATOL, so that a change at round-off
passes and a real change fails.  residual_sup is pinned only as <= tol,
since it moves at round-off.  The pinned values were produced by this
suite's own `_observe` and pasted in.
"""

import numpy as np
import pytest

from dhym.cli import main
from dhym.fieldio import read_field, write_field
from dhym.torus import HermitianFormField, ScalarField, TorusGrid, isotropic_form_field

PIN_ATOL = 1e-13
POINTS = 16

COMMON = """
[problem]
eps0 = {eps0}

[solver]
tol = 1e-11
max_iters = {max_iters}

[output]
dir = {out}
"""

CONFIGS = {
    "manufactured-n1": ("""
[grid]
n = 1
N = 32

[fields]
omega = id
chi0 = iso 0.2
u_star = 0.3 cos x1 + 0.1 sin 2 y1

[target]
kind = manufactured
""", 0.5, 40),
    "manufactured-n2": ("""
[grid]
n = 2
N = 16

[fields]
omega = id
chi0 = iso 0.3
u_star = 0.1 cos x1 + 0.05 sin y2

[target]
kind = manufactured
""", 0.3, 40),
    "field-n2": ("""
[grid]
n = 2
N = 16

[fields]
omega = id
chi0 = iso 0.3

[target]
kind = field
path = {dir}/target.dhym
""", 0.2, 40),
    "continuation-n1": ("""
[grid]
n = 1
N = 32

[fields]
omega = id
chi0 = iso 0.5 + 0.2 cos x1

[target]
kind = constant
value = 0.5
""", 0.25, 3),
    "hat-theta-n2": ("""
[grid]
n = 2
N = 8

[fields]
omega = id
chi0 = file {dir}/chi0.dhym

[target]
kind = hat-theta
""", 0.2, 40),
    "u0-n1": ("""
[grid]
n = 1
N = 32

[fields]
omega = id
chi0 = iso 0.2
u0 = 0.05 sin x1 + 0.02 cos y1
u_star = 0.3 cos x1

[target]
kind = manufactured
""", 0.5, 40),
    "hermitian-n2": ("""
[grid]
n = 2
N = 8

[fields]
omega = file {dir}/omega.dhym
chi0 = iso 0.3
u_star = 0.1 cos x1 + 0.05 sin y2

[target]
kind = manufactured
""", 0.2, 40),
}


def _write_inputs(directory, rng):
    """The seeded field files: a target that is not band-limited, a chi0
    with an off-diagonal mode and a non-Kaehler omega e^f Id."""
    g = TorusGrid(2, 16)
    x1, y2, x2 = (g.axis_coordinate(a) for a in ("x1", "y2", "x2"))
    p = rng.uniform(0, 2 * np.pi, 3)
    bump = np.exp(np.cos(x1 + p[0]) + np.sin(y2 + p[1]))
    target = 2 * np.arctan(0.3) + 0.08 * (bump - bump.mean()) + 0.03 * np.cos(x1 + 2 * x2 + p[2])
    write_field(directory / "target.dhym", ScalarField(g, target))

    g = TorusGrid(2, 8)
    x1, y1, x2, y2 = (g.axis_coordinate(a) for a in ("x1", "y1", "x2", "y2"))
    p = rng.uniform(0, 2 * np.pi, 4)
    vals = np.zeros(g.shape + (2, 2), dtype=complex)
    vals[..., 0, 0] = 0.5 + 0.2 * np.cos(x1 + p[0])
    vals[..., 1, 1] = 0.5 + 0.15 * np.cos(x2 + p[1])
    vals[..., 0, 1] = np.exp(1j * p[2]) * 0.05 * np.cos(y1 + p[3])
    vals[..., 1, 0] = np.conj(vals[..., 0, 1])
    write_field(directory / "chi0.dhym", HermitianFormField(g, vals))

    f = 0.5 * np.cos(x1 + p[0]) + 0.3 * np.sin(y2 + p[1])
    write_field(directory / "omega.dhym", isotropic_form_field(g, ScalarField(g, np.exp(f))))


def _observe(tmp_path, name):
    """Run one config of the corpus and read back what the suite pins."""
    _write_inputs(tmp_path, np.random.default_rng(2026))
    text, eps0, max_iters = CONFIGS[name]
    cfg = tmp_path / "run.cfg"
    common = COMMON.format(eps0=eps0, max_iters=max_iters, out=tmp_path / "out")
    cfg.write_text(text.format(dir=tmp_path) + common)
    rc = main(["solve", str(cfg)])
    report = dict(
        ln.split(" = ")
        for ln in (tmp_path / "out" / "report.txt").read_text().splitlines()
        if not ln.startswith("timestamp")
    )
    u = read_field(tmp_path / "out" / "solution.dhym")
    stages = int(report["continuity_stages"])
    points = np.random.default_rng(len(name)).choice(u.values.size, POINTS, replace=False)
    return {
        "exit": rc,
        "newton_iterations": int(report["newton_iterations"]),
        "newton_steps": int(report["newton_steps"]),
        "krylov_iters": int(report["krylov_iters"]),
        "stages": stages,
        "failed_attempts": int(report["continuity_failed_attempts"]),
        "residual_sup": float(report["residual_sup"]),
        "c": float(report["c"]),
        "min_phase": float(report["min_phase"]),
        "max_phase": float(report["max_phase"]),
        "max_abs_u": float(np.max(np.abs(u.values))),
        "l2_u": float(np.sqrt(np.sum(u.values**2) * u.grid.cell_volume)),
        "u_points": u.values.ravel()[points].tolist(),
    }


EXACT = ("exit", "newton_iterations", "newton_steps", "krylov_iters", "stages", "failed_attempts")
CLOSE = ("c", "min_phase", "max_phase", "max_abs_u", "l2_u", "u_points")

PINS = {
    "continuation-n1": dict(
        exit=0, newton_iterations=14, newton_steps=9, krylov_iters=20, stages=3, failed_attempts=2,
        c=-0.03635239099919347, min_phase=0.46364760900080176, max_phase=0.4636476090008108,
        max_abs_u=0.8000000000000013, l2_u=3.554306350526697,
        u_points=[
            -0.4444561864156822, 0.7391036260090301, -0.7391036260090301, -0.306146745892072,
            0.15607225761290283, -0.73910362600903, -0.3061467458920723, -0.4444561864156825,
            0.7846282243225856, 0.6651756898420369, -0.73910362600903, -0.3061467458920723,
            0.7846282243225855, 0.1560722576129025, 0.3061467458920721, 0.5656854249492388,
        ],
    ),
    "field-n2": dict(
        exit=0, newton_iterations=9, newton_steps=7, krylov_iters=34, stages=0, failed_attempts=0,
        c=-0.005779657440154811, min_phase=0.43031351799330364, max_phase=1.0660624256476074,
        max_abs_u=1.4218337157997, l2_u=21.011037685588384,
        u_points=[
            0.27842706795685856, -0.3003217162675465, 0.731052548926273, 0.25038802063615173,
            0.3190066004478276, -1.002556686442156, 0.08265177806225782, 0.387670458499123,
            -0.12726825630059513, 0.31126722394845496, 0.4818156480710104, 0.23922479371137478,
            -0.3059624470949517, -1.0831356289541119, 0.6119162653297151, -0.9961933515830033,
        ],
    ),
    "hat-theta-n2": dict(
        exit=0, newton_iterations=5, newton_steps=4, krylov_iters=15, stages=1, failed_attempts=0,
        c=-5.816375413591515e-17, min_phase=0.9264956978841438, max_phase=0.926495697884146,
        max_abs_u=1.3958381837747313, l2_u=27.9154707284068,
        u_points=[
            -1.022824772789838, -0.2048200747546003, -0.8742612545194376, -1.1675476929746036,
            -0.7232430247217384, -0.046688859802907, 0.4520395813866378, -0.05326474504876545,
            0.49652832108680645, 0.7245406412117732, 0.18289924748725547, -1.055364268742429,
            -0.20408120457265103, -0.9173363749071313, 0.8755588710094724, -0.34451469683194735,
        ],
    ),
    "hermitian-n2": dict(
        exit=0, newton_iterations=5, newton_steps=4, krylov_iters=51, stages=0, failed_attempts=0,
        c=1.3726659877492404e-17, min_phase=0.2803880462378314, max_phase=1.1336019072930008,
        max_abs_u=0.15000000000000024, l2_u=3.1210429512264435,
        u_points=[
            0.06464466094067277, 0.035355339059327404, 0.07071067811865482, 0.03535533905932748,
            0.035355339059327404, -0.06464466094067262, -0.12071067811865487, 0.12071067811865495,
            0.02071067811865486, -0.10606601717798213, -0.10000000000000005, -0.03535533905932745,
            0.035355339059327404, 0.06464466094067277, -0.07071067811865496, 0.07071067811865483,
        ],
    ),
    "manufactured-n1": dict(
        exit=0, newton_iterations=7, newton_steps=4, krylov_iters=19, stages=0, failed_attempts=0,
        c=-1.2113281668841077e-18, min_phase=0.024994793618914716, max_phase=0.3587706702705737,
        max_abs_u=0.4000000000000002, l2_u=1.4049629462081454,
        u_points=[
            -0.1284027266693716, 0.23889551651687702, -0.18477590650225734, -0.2071929829606556,
            0.1585270966048385, -0.36955181300451456, -0.18551570782818186, -0.2590590231570093,
            0.20184763086984053, 0.15705293043963492, -0.20645318163473134, -0.15307337294603598,
            0.2559672408844601, 0.02025875336832955, 0.02241707645839824, 0.304519987607093,
        ],
    ),
    "manufactured-n2": dict(
        exit=0, newton_iterations=5, newton_steps=3, krylov_iters=9, stages=0, failed_attempts=0,
        c=-6.2796059334889356e-18, min_phase=0.5483160334296976, max_phase=0.61711676745931,
        max_abs_u=0.14999999999999997, l2_u=3.121042951226438,
        u_points=[
            -0.057402514854763394, 0.13858192987669293, -0.09238795325112865, -0.019134171618254467,
            0.002913004177181674, -0.042387953251128735, -0.05740251485476354, -0.0844623198620733,
            0.06464466094067259, 0.10606601717798206, -0.07325378163287423, -0.002913004177181627,
            0.127743292310456, 0.019134171618254522, 0.01913417161825451, 0.05157650650040028,
        ],
    ),
    "u0-n1": dict(
        exit=0, newton_iterations=4, newton_steps=3, krylov_iters=11, stages=0, failed_attempts=0,
        c=1.903159815656367e-16, min_phase=0.12435499454675723, max_phase=0.2683662109059134,
        max_abs_u=0.2999999999999992, l2_u=1.332864881447505,
        u_points=[
            -0.2494408836907627, -0.29999999999999855, 0.2942355841209683, 0.21213203435596362,
            -0.2771638597533849, 0.058527096604838166, 0.058527096604838166, 0.2942355841209682,
            -0.2121320343559636, -1.0922926606207631e-16, -0.05852709660483838, -0.2494408836907626,
            -0.27716385975338487, 0.29999999999999916, 0.2942355841209683, -0.16667106990588015,
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_solve_is_pinned(tmp_path, name):
    got = _observe(tmp_path, name)
    pin = PINS[name]
    assert {k: got[k] for k in EXACT} == {k: pin[k] for k in EXACT}
    assert got["residual_sup"] <= 1e-11
    for key in CLOSE:
        assert np.max(np.abs(np.subtract(got[key], pin[key]))) <= PIN_ATOL, key
