"""Hamilton-Jacobi verification with a trailing sample axis.

``hj_residual``, ``gamma_closedness_residual``, ``flatness_residual`` and
the induced connection take t (P,), x (m, P) and u (n, P), and the CLI
evaluates its verification mesh in chunks of ``cli.VERIFY_CHUNK`` samples.
The batched results are compared with the same functions called one point
at a time, which is how the CLI evaluated the mesh before: bit for bit
for the built-in models and sections, and within 1e-13 of the size of the
summed terms for the finite-difference fallbacks. The CLI outputs are
pinned by the sha256 of their CSVs, and a counting test keeps the
section and Hamiltonian calls proportional to the number of chunks.
"""

import hashlib

import numpy as np
import pytest

from dedonder_hj import cli
from dedonder_hj.cli import main
from dedonder_hj.hj import (GammaDomainError, HJSection,
                            gamma_closedness_residual, hj_residual,
                            linear_gamma, oscillator_gamma,
                            reduced_connection)
from dedonder_hj.legendre import flatness_residual
from dedonder_hj.models import (Dimensions, HamiltonianModel,
                                _quadratic_wave_family, builtin_model)

#: central differences of O(1) functions agree to about 1e-13 of the
#: terms they enter whichever sample axis they are evaluated over
FALLBACK_TOL = 1e-13


def kg_hamiltonian(dims):
    """Mass-1 Klein-Gordon Hamiltonian with analytic partials; at m = 0 it
    is the n-component oscillator of frequency 1."""
    return _quadratic_wave_family(dims, mass=1.0,
                                  name="klein_gordon").paired_hamiltonian


def sections(dims):
    return {"linear": linear_gamma(dims, a=0.5, b=0.2, c=0.5, d=-0.1),
            "oscillator": oscillator_gamma(dims, omega=1.0, phi=0.1)}


def mesh(dims, count=37, seed=5):
    rng = np.random.default_rng(seed)
    return (rng.uniform(0.0, 1.0, count),
            rng.uniform(0.0, 1.0, (dims.m, count)),
            rng.uniform(-2.0, 2.0, (dims.n, count)))


def pointwise_columns(H, gamma, t, x, u):
    """The per-sample closedness, HJ and flatness maxima one point at a
    time, as the CLI computed them before it batched the mesh."""
    conn = reduced_connection(H, gamma)
    rows = []
    for k in range(t.size):
        point = (t[k], x[:, k], u[:, k])
        rows.append([gamma_closedness_residual(gamma, [point]).max_abs(),
                     float(np.max(np.abs(hj_residual(H, gamma, *point)))),
                     float(np.max(np.abs(flatness_residual(conn, *point))))])
    return np.array(rows).T


DIMS = [Dimensions(m=m, n=n) for m in (0, 1) for n in (1, 3)]
DIM_IDS = [f"m{d.m}n{d.n}" for d in DIMS]


@pytest.mark.parametrize("family", ["linear", "oscillator"])
@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_batched_residuals_equal_pointwise_builtins(dims, family):
    H = kg_hamiltonian(dims)
    gamma = sections(dims)[family]
    conn = reduced_connection(H, gamma)
    t, x, u = mesh(dims)
    n, m, P = dims.n, dims.m, t.size
    closed = gamma_closedness_residual(gamma, t, x, u)
    hj = hj_residual(H, gamma, t, x, u)
    flat = flatness_residual(conn, t, x, u)
    assert closed.symmetry_t.shape == (P, n, n)
    assert closed.symmetry_x.shape == (P, m, n, n)
    assert closed.mixed.shape == (P, n)
    assert hj.shape == (n, P)
    assert flat.shape == (n, m + 1, m + 1, P)
    for k in range(P):
        point = (t[k], x[:, k], u[:, k])
        one = gamma_closedness_residual(gamma, [point])
        assert np.array_equal(closed.symmetry_t[k], one.symmetry_t[0])
        assert np.array_equal(closed.symmetry_x[k], one.symmetry_x[0])
        assert np.array_equal(closed.mixed[k], one.mixed[0])
        assert np.array_equal(hj[:, k], hj_residual(H, gamma, *point))
        assert np.array_equal(flat[..., k], flatness_residual(conn, *point))
    assert np.array_equal(cli._verify_columns(H, gamma, np.vstack([t, x, u]),
                                              conn),
                          pointwise_columns(H, gamma, t, x, u))


def fallback_cases(dims):
    """The KG Hamiltonian and the oscillator section with parts of their
    analytic partials taken away."""
    H = kg_hamiltonian(dims)
    gamma = sections(dims)["oscillator"]
    no_jacobian = HamiltonianModel(dims, H.value, d_u=H.d_u, d_pt=H.d_pt,
                                   d_px=H.d_px)
    value_only = HamiltonianModel(dims, H.value)
    fd_gamma = HJSection(dims, lambda *a: gamma.momenta(*a)[0],
                         lambda *a: gamma.momenta(*a)[1], p=gamma.p)
    return {"section_without_partials": (H, fd_gamma),
            "hamiltonian_without_jacobian": (no_jacobian, gamma),
            "value_only_hamiltonian": (value_only, gamma)}


FALLBACKS = ["section_without_partials", "hamiltonian_without_jacobian",
             "value_only_hamiltonian"]


@pytest.mark.parametrize("case", FALLBACKS)
@pytest.mark.parametrize("dims", DIMS, ids=DIM_IDS)
def test_batched_residuals_match_pointwise_fallbacks(dims, case):
    H, gamma = fallback_cases(dims)[case]
    t, x, u = mesh(dims, count=11, seed=6)
    # the residuals sum terms such as H_pt . d(gamma_pt)/du of size up to
    # (1 + tan(1.1)^2) |u| < 10
    scale = 10.0
    got = cli._verify_columns(H, gamma, np.vstack([t, x, u]),
                              reduced_connection(H, gamma))
    want = pointwise_columns(H, gamma, t, x, u)
    assert got.shape == want.shape == (3, t.size)
    assert np.max(np.abs(got - want)) <= FALLBACK_TOL * scale


def unclosed_sections(dims):
    """Sections, with finite-difference partials, that each break one
    closedness component: the u-symmetry of gamma_pt, the u-symmetry of
    gamma_px, and the mixed du-dt-dx component."""
    n, m = dims.n, dims.m

    def zeros_px(t, x, u):
        return np.zeros((n, m) + np.shape(u)[1:])

    def rolled_px(t, x, u):
        u = np.asarray(u, dtype=float)
        return np.broadcast_to(0.3 * np.roll(u, -1, axis=0)[:, None],
                               (n, m) + u.shape[1:]).copy()

    return {
        "symmetry_t": HJSection(
            dims, pt=lambda t, x, u: 0.5 * np.roll(u, 1, axis=0),
            px=zeros_px),
        "symmetry_x": HJSection(
            dims, pt=lambda t, x, u: np.zeros(np.shape(u)), px=rolled_px),
        "mixed": HJSection(
            dims, pt=lambda t, x, u: t * np.asarray(u, dtype=float),
            px=zeros_px),
    }


@pytest.mark.parametrize("broken", ["symmetry_t", "symmetry_x", "mixed"])
def test_batched_closedness_of_unclosed_sections(broken):
    dims = Dimensions(m=1, n=3)
    gamma = unclosed_sections(dims)[broken]
    t, x, u = mesh(dims, count=13, seed=8)
    got = cli._verify_columns(kg_hamiltonian(dims), gamma,
                              np.vstack([t, x, u]))[0]
    want = [gamma_closedness_residual(gamma, [(t[k], x[:, k], u[:, k])])
            .max_abs() for k in range(t.size)]
    assert np.min(got) > 0.01
    assert np.max(np.abs(got - want)) <= FALLBACK_TOL * 10.0


def node_args(dims, N=4, seed=7):
    rng = np.random.default_rng(seed)
    n, m = dims.n, dims.m
    return (0.3, rng.uniform(0, 1, (m, N)), rng.uniform(-1, 1, (n, N)),
            rng.uniform(-1, 1, (n, N)), rng.uniform(-1, 1, (n, m, N)))


JACOBIAN_MODELS = [builtin_model("klein_gordon", {"mass": 0.8}),
                   builtin_model("klein_gordon", {"n": 3, "mass": 1.2}),
                   builtin_model("mechanics_oscillator", {"omega": 1.7})]


@pytest.mark.parametrize("plus_t_cubed", [False, True])
@pytest.mark.parametrize("L", JACOBIAN_MODELS, ids=lambda L: f"{L.name}"
                         f"_n{L.dims.n}")
def test_momentum_jacobian_keeps_the_node_axis(L, plus_t_cubed):
    # H + t^3 has the momentum Jacobian of H, its "t" block included
    H = L.paired_hamiltonian
    fd = HamiltonianModel(H.dims, (lambda *a: H.value(*a) + a[0] ** 3)
                          if plus_t_cubed else H.value)
    n, m, N = H.dims.n, H.dims.m, 4
    shapes = {"t": (n, m + 1), "x": (n, m + 1, m), "u": (n, m + 1, n),
              "p_t": (n, m + 1, n), "p_x": (n, m + 1, n, m)}
    args = node_args(H.dims, N)
    exact, approx = H.momentum_jacobian(*args), fd.momentum_jacobian(*args)
    for key, shape in shapes.items():
        assert exact[key].shape == shape + (N,), key
        assert approx[key].shape == shape + (N,), key
        assert np.allclose(approx[key], exact[key], rtol=0, atol=2e-5), key
    for j in range(N):
        point = (args[0],) + tuple(a[..., j] for a in args[1:])
        for model, batched in ((H, exact), (fd, approx)):
            one = model.momentum_jacobian(*point)
            for key, shape in shapes.items():
                assert one[key].shape == shape, key
                assert np.array_equal(batched[key][..., j], one[key]), key


def test_pole_guard_refuses_a_batch_at_its_first_pole():
    gamma = oscillator_gamma(Dimensions(m=0, n=1), omega=1.0)
    u = np.ones((1, 5))
    x = np.zeros((0, 5))
    safe = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    assert gamma.momenta(safe, x, u)[0].shape == (1, 5)
    poles = np.array([0.5, 1.5 * np.pi + 5e-4, 1.0, np.pi / 2, 0.2])
    with pytest.raises(GammaDomainError, match=r"= 4\.712889\)"):
        gamma.partials(poles, x, u)
    with pytest.raises(GammaDomainError, match=r"= 1\.570796\)"):
        gamma.momenta(np.pi / 2, np.zeros(0), np.ones(1))


SMALL = """
[model]
name = {model}
{model_params}

[grid]
n_nodes = {n_nodes}

[time]
dt = 0.001
t_final = 0.1

[initial]
family = constant
amplitude = 0.7

[gamma]
{gamma}

[output]
directory = {{out}}
store_every = 10
"""

#: sha256 of the CSVs and of the standard output of verify-hj and compare
#: on three small scenarios, written by the pointwise verification loop
#: before the mesh was batched
GOLDEN = {
    "kg3_oscillator": (
        {"model": "klein_gordon", "model_params": "mass = 1.0\nn = 3",
         "n_nodes": 16,
         "gamma": "family = oscillator\nomega = 1.0\nsamples_per_axis = 3"},
        {
            "verify-hj":
            "8ced09c054ccf48e51fe81d2d2edf71cee0e61757433cd61316655daab72a209",
            "verify_hj.csv":
            "ef33511d564c5feb2541c8c46ff275a611ba31defb80cde677e50672a2a987ae",
            "compare":
            "16a567e7f3d47400563ddd77c9e087b045b4fa6393c204b1dc8bd058c6dc6b52",
            "compare.csv":
            "464bae073296011c61e73b132c96896d7a7b02170a34e4dc108b9ae7b1358e88",
        }),
    "free_wave_linear": (
        {"model": "free_wave", "model_params": "", "n_nodes": 16,
         "gamma": "family = linear\nb = 0.3"},
        {
            "verify-hj":
            "ae373b35832e794ffc1effe7714705ea992c01402c06f66a2bc14dd2b1f745de",
            "verify_hj.csv":
            "bb9c4ce930c1cfa5071ae78a6e08afdda2c79192c677083f5322ad5ac4b509d3",
            "compare":
            "668ea4a83279f72bf352670bc0b09e8a24d04a9722b3e8a8a78e485e593a32c2",
            "compare.csv":
            "464bae073296011c61e73b132c96896d7a7b02170a34e4dc108b9ae7b1358e88",
        }),
    "mechanics_oscillator": (
        {"model": "mechanics_oscillator", "model_params": "omega = 1.0",
         "n_nodes": 1, "gamma": "family = oscillator\nomega = 1.0"},
        {
            "verify-hj":
            "fb537b386ee3c80a1deef09b28f2dc31b7ade2f9097c5eb88c3dfbcb8d402506",
            "verify_hj.csv":
            "3b46b605b09160ac75bcad2e5ed1b82958ec88f8aa045e874ffd610aebf07dfe",
            "compare":
            "1c3cbfb8a1132af66e3d09e9d568b00c7755053ceb62c4f30486b1a40d990dc4",
            "compare.csv":
            "464bae073296011c61e73b132c96896d7a7b02170a34e4dc108b9ae7b1358e88",
        }),
}


def write(tmp_path, text, name="scenario.cfg"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text.format(out=str(out)))
    return str(path), out


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def golden_digests(tmp_path, capsys, name):
    """sha256 of everything verify-hj and compare write for one scenario."""
    path, out = write(tmp_path, SMALL.format(**GOLDEN[name][0]))
    digests = {}
    for command in ("verify-hj", "compare"):
        assert main([command, "--scenario", path]) == 0
        digests[command] = sha256(capsys.readouterr().out.encode())
    for csv in ("verify_hj.csv", "compare.csv"):
        digests[csv] = sha256((out / csv).read_bytes())
    return digests


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verification_outputs_are_byte_identical(tmp_path, capsys, name):
    assert golden_digests(tmp_path, capsys, name) == GOLDEN[name][1]


@pytest.mark.parametrize("samples", [0, -2])
@pytest.mark.parametrize("command", ["verify-hj", "compare"])
def test_samples_per_axis_below_one_refused(tmp_path, capsys, command,
                                            samples):
    text = SMALL.format(**GOLDEN["kg3_oscillator"][0]).replace(
        "samples_per_axis = 3", f"samples_per_axis = {samples}")
    path, out = write(tmp_path, text)
    assert main([command, "--scenario", path]) == 2
    assert "gamma.samples_per_axis must be >= 1" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def counted(monkeypatch, cls, name, counts):
    method = getattr(cls, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


def test_verify_hj_calls_grow_with_chunks_not_samples(tmp_path, capsys,
                                                      monkeypatch):
    # 4^5 = 1024 samples fit one chunk, 5^5 = 3125 need two
    counts = {"partials": 0, "d_u": 0}
    counted(monkeypatch, HJSection, "partials", counts)
    counted(monkeypatch, HamiltonianModel, "d_u", counts)
    seen = {}
    for s in (4, 5):
        params = dict(GOLDEN["kg3_oscillator"][0])
        params["gamma"] = params["gamma"].replace("samples_per_axis = 3",
                                                  f"samples_per_axis = {s}")
        path, out = write(tmp_path, SMALL.format(**params), f"s{s}.cfg")
        counts.update(partials=0, d_u=0)
        assert main(["verify-hj", "--scenario", path]) == 0
        chunks = -(-s ** 5 // cli.VERIFY_CHUNK)
        assert chunks == s - 3
        # closedness, HJ and flatness each evaluate the section partials
        # once per chunk, and the HJ residual H_u once per chunk
        assert counts == {"partials": 3 * chunks, "d_u": chunks}
        seen[s] = dict(counts)
    assert seen[5]["partials"] == 2 * seen[4]["partials"]
