from dataclasses import fields

import numpy as np
import pytest

from supergram.gram import (
    GramSetting,
    build_setting,
    eigensystem,
    embedding,
    fix_phase,
    rayleigh,
    setting_from_json,
    setting_to_json,
    validate,
)
from supergram.sampling import random_setting


def test_build_direct_placement():
    st = build_setting(2, [(1, 2, 0.5)])
    assert np.allclose(st.gram, [[1.0, 0.5], [0.5, 1.0]])


def test_build_complex_conjugate_lower_triangle():
    s = 0.3
    st = build_setting(3, [(1, 2, s), (1, 3, 1j * s), (2, 3, -1j * s)])
    G = st.gram
    assert G[0, 1] == 0.3
    assert G[0, 2] == 0.3j
    assert G[1, 2] == -0.3j
    assert G[1, 0] == np.conj(G[0, 1])
    assert G[2, 0] == np.conj(G[0, 2])
    assert G[2, 1] == np.conj(G[1, 2])


def test_build_empty_overlaps_is_identity():
    st = build_setting(4, [])
    assert np.array_equal(st.gram, np.eye(4))


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_setting(3, [(1, 2, 0.1), (1, 2, 0.2)])
    with pytest.raises(ValueError):
        build_setting(3, [(2, 1, 0.1)])
    with pytest.raises(ValueError):
        build_setting(3, [(1, 4, 0.1)])
    with pytest.raises(ValueError):
        build_setting(2, [(1, 2, 1.0)])
    with pytest.raises(ValueError):
        build_setting(1, [])
    for bad in (np.nan, complex(0.1, np.nan), np.inf):
        with pytest.raises(ValueError):
            build_setting(2, [(1, 2, bad)])


def test_gram_setting_is_its_gram_matrix():
    assert [f.name for f in fields(GramSetting) if f.init] == ["gram"]
    st = GramSetting([[1.0, 0.5], [0.5, 1.0]])
    assert st.d == 2 and not st.gram.flags.writeable
    assert setting_to_json(st) == {"d": 2, "overlaps": [{"i": 1, "j": 2, "re": 0.5, "im": 0.0}]}
    # within ZERO_TOL: the upper triangle is kept, mirrored, on an exact unit diagonal
    st = GramSetting([[1 + 1e-13, 0.3 + 0.1j], [0.3 - 0.1j + 1e-13, 1 - 1e-13]])
    assert np.array_equal(st.gram, [[1, 0.3 + 0.1j], [0.3 - 0.1j, 1]])


@pytest.mark.parametrize("G, match", [
    ([[1, 2], [0, 1]], r"\|s_12\| = 2"),
    ([[1, 0, 0], [0, 1, 1.5j], [0, -1.5j, 1]], r"\|s_23\| = 1.5"),
    ([[1, 0.1], [0.1, 1], [0, 0]], "square"),
    ([[1.0]], "square"),
    ([1.0, 0.0], "square"),
    ([[1, 0.5], [0.4, 1]], "Hermitian"),
    ([[1, 0.5], [0.5j, 1]], "Hermitian"),
    ([[1, 0], [0, 1.1]], "diagonal"),
    ([[1, np.nan], [np.nan, 1]], r"\|s_12\| = nan"),
    ([[1, 0], [np.inf, 1]], "Hermitian"),
    ([[np.nan, 0], [0, 1]], "diagonal"),
])
def test_gram_setting_rejects_invalid_matrices(G, match):
    with pytest.raises(ValueError, match=match):
        GramSetting(G)


def test_validate_d3_equal_positive():
    st = build_setting(3, [(1, 2, 0.6), (1, 3, 0.6), (2, 3, 0.6)])
    rep = validate(st)
    assert rep.linearly_independent
    # spectrum {1 + 2 s, 1 - s, 1 - s} at s = 0.6
    assert rep.min_eigenvalue == pytest.approx(0.4, abs=1e-12)
    assert rep.condition_number == pytest.approx(5.5, abs=1e-12)
    assert set(rep.to_json()) == {"min_eigenvalue", "linearly_independent", "condition_number"}


def test_validate_d3_equal_boundary_is_dependent():
    st = build_setting(3, [(1, 2, -0.5), (1, 3, -0.5), (2, 3, -0.5)])
    rep = validate(st)
    assert not rep.linearly_independent
    assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_validate_d2_near_unit_overlap():
    rep = validate(build_setting(2, [(1, 2, 0.999)]))
    assert rep.linearly_independent
    assert rep.min_eigenvalue == pytest.approx(0.001, abs=1e-12)


def test_eigensystem_d2_real():
    s = 0.37
    es = eigensystem(build_setting(2, [(1, 2, s)]))
    assert np.allclose(es.eigenvalues, [1 - s, 1 + s])
    assert np.allclose(np.abs(es.eigenvectors[:, 0]), 1 / np.sqrt(2) * np.ones(2))
    # phase convention: first sizable component real positive
    v0 = es.eigenvectors[:, 0]
    assert v0[0].real > 0 and abs(v0[0].imag) < 1e-14
    assert np.allclose(v0, np.array([1, -1]) / np.sqrt(2))
    assert np.allclose(es.eigenvectors[:, 1], np.array([1, 1]) / np.sqrt(2))


def test_eigensystem_d3_equal_groups():
    s = 0.25
    st = build_setting(3, [(1, 2, s), (1, 3, s), (2, 3, s)])
    es = eigensystem(st)
    assert np.allclose(es.eigenvalues, [1 - s, 1 - s, 1 + 2 * s])
    assert es.groups == ((0, 1), (2,))
    third = es.eigenvectors[:, 2]
    assert np.allclose(third, np.ones(3) / np.sqrt(3), atol=1e-12)


def test_eigensystem_identity_single_group():
    es = eigensystem(build_setting(5, []))
    assert np.allclose(es.eigenvalues, np.ones(5))
    assert es.groups == (tuple(range(5)),)


def test_eigensystem_residuals_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        st = random_setting(5, rng)
        es = eigensystem(st)
        for k in range(5):
            res = np.linalg.norm(st.gram @ es.eigenvectors[:, k] - es.eigenvalues[k] * es.eigenvectors[:, k])
            assert res <= 1e-10
        assert np.linalg.norm(es.eigenvectors.conj().T @ es.eigenvectors - np.eye(5)) <= 1e-10


def test_rayleigh_at_eigenvector_and_bounds():
    st = build_setting(2, [(1, 2, 0.5)])
    es = eigensystem(st)
    assert rayleigh(st, es.eigenvectors[:, 0]) == pytest.approx(0.5, abs=1e-12)
    assert rayleigh(st, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        rayleigh(st, np.zeros(2))


def test_rayleigh_bounds_random_vectors():
    s = 0.2
    st = build_setting(3, [(1, 2, s), (1, 3, s), (2, 3, s)])
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        r = rayleigh(st, x)
        assert 0.8 - 1e-10 <= r <= 1.4 + 1e-10


def test_quadratic_bound_random_vectors():
    rng = np.random.default_rng(12)
    st = random_setting(4, rng)
    es = eigensystem(st)
    for _ in range(1000):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x /= np.sqrt(np.real(np.vdot(x, st.gram @ x)))
        q = float(np.real(np.vdot(x, x)))
        assert 1 / es.lambda_max - 1e-10 <= q <= 1 / es.lambda_min + 1e-10


def test_embedding_identity_and_d2_formula():
    assert np.allclose(embedding(build_setting(3, [])), np.eye(3))
    s = 0.45
    V = embedding(build_setting(2, [(1, 2, s)]))
    assert np.allclose(V, [[1.0, s], [0.0, np.sqrt(1 - s * s)]])
    # upper triangular with positive diagonal
    assert abs(V[1, 0]) == 0.0
    assert np.all(np.diag(V).real > 0)


def test_embedding_reconstructs_gram():
    st = build_setting(2, [(1, 2, -0.8)])
    V = embedding(st)
    assert np.linalg.norm(V.conj().T @ V - st.gram) <= 1e-14
    rng = np.random.default_rng(3)
    for _ in range(25):
        st = random_setting(5, rng)
        V = embedding(st)
        assert np.linalg.norm(V.conj().T @ V - st.gram) <= 1e-12


def test_embedding_rejects_dependent_basis():
    st = build_setting(3, [(1, 2, -0.5), (1, 3, -0.5), (2, 3, -0.5)])
    with pytest.raises(ValueError):
        embedding(st)


def test_fix_phase_conventions():
    v = np.array([0.0, -2j, 1.0])
    w = fix_phase(v)
    assert w[1].real > 0 and abs(w[1].imag) < 1e-15
    assert np.allclose(np.abs(w), np.abs(v))
    assert np.array_equal(fix_phase(np.zeros(3)), np.zeros(3))


def test_setting_json_lists_nonzero_pairs_row_major():
    st = build_setting(4, [(3, 4, 0.1j), (1, 3, -0.2), (1, 2, 0.0)])
    assert [(e["i"], e["j"]) for e in setting_to_json(st)["overlaps"]] == [(1, 3), (3, 4)]


@pytest.mark.parametrize("obj", [
    {"d": None},
    {"d": [3]},
    {"d": float("inf")},
    {"d": 2.5},
    {"d": "3"},
    {"d": 3, "overlaps": 5},
    {"d": 3, "overlaps": None},
    {"d": 3, "overlaps": {"i": 1, "j": 2}},
    {"d": 3, "overlaps": [{"i": 1.5, "j": 2}]},
    {"d": 3, "overlaps": [{"i": 1, "j": 2.5}]},
    {"d": 3, "overlaps": [{"i": 1, "j": 2, "re": 10**400}]},
])
def test_setting_json_rejects_malformed_fields(obj):
    with pytest.raises(ValueError):
        setting_from_json(obj)


def test_setting_json_accepts_integral_floats():
    st = setting_from_json({"d": 3.0, "overlaps": [{"i": 1.0, "j": 3, "re": 0.2}]})
    assert st.d == 3 and st.overlap(1, 3) == 0.2


def test_setting_json_round_trip():
    st = build_setting(3, [(1, 2, 0.25), (2, 3, -0.1 + 0.2j)])
    other = setting_from_json(setting_to_json(st))
    assert np.array_equal(other.gram, st.gram)
    with pytest.raises(ValueError):
        setting_from_json({"overlaps": []})
    with pytest.raises(ValueError):
        setting_from_json({"d": 3, "overlaps": [{"i": 1}]})
