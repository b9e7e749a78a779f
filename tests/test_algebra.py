"""Matrix algebra of the spin-one wave operator and the spinor assembly map."""

import numpy as np
import pytest

from dkpscatter import (
    InvalidParameterError,
    Particle,
    Potential,
    SpinorTriple,
    assemble_spinor,
    beta_matrices,
    dkp_residual,
    trilinear_residual,
    wavefunction,
)


class TestBetaMatrices:
    def test_trilinear_identity(self):
        assert trilinear_residual() <= 1e-14

    def test_traces_vanish(self):
        betas = beta_matrices()
        for mu in range(4):
            assert abs(np.trace(betas[mu])) <= 1e-15

    def test_time_matrix_cubes_to_itself(self):
        b0 = beta_matrices().beta0
        assert np.max(np.abs(b0 @ b0 @ b0 - b0)) <= 1e-15

    def test_time_matrix_rank(self):
        b0 = beta_matrices().beta0
        assert np.linalg.matrix_rank(b0) == 6

    def test_metric_signature(self):
        g = beta_matrices().metric
        assert np.array_equal(g, np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_mutation_breaks_identity(self):
        betas = beta_matrices()
        betas.beta1[:] = 2.0 * betas.beta1
        assert trilinear_residual(betas) > 0.5

    def test_matrices_returned_fresh(self):
        first = beta_matrices()
        first.beta0[0, 0] = 99.0
        assert beta_matrices().beta0[0, 0] == 0.0


class TestAssembleSpinor:
    def test_layout_first_polarization(self):
        t = SpinorTriple(psi=2.0 + 0j, phi=3.0 + 0j, theta=5.0 + 0j,
                         polarization=(1.0, 0.0, 0.0))
        vec = assemble_spinor(t)
        assert vec.shape == (10,)
        assert vec[2] == 2.0  # scalar block, first slot
        assert vec[5] == 3.0  # vector block
        assert vec[9] == 5.0  # curl block
        assert vec[7] == 0.0

    def test_layout_second_polarization(self):
        t = SpinorTriple(psi=2.0 + 0j, phi=3.0 + 0j, theta=5.0 + 0j,
                         polarization=(0.0, 1.0, 0.0))
        vec = assemble_spinor(t)
        assert vec[3] == 2.0
        assert vec[6] == 3.0
        assert vec[8] == -5.0  # sign flip in the curl block

    def test_layout_third_polarization(self):
        t = SpinorTriple(psi=2.0 + 0j, phi=3.0 + 0j, theta=5.0 + 0j,
                         polarization=(0.0, 0.0, 1.0))
        vec = assemble_spinor(t)
        assert vec[4] == 2.0
        assert vec[1] == 3.0
        assert vec[0] == 5.0

    def test_linearity_in_polarization(self):
        n = (0.6, 0.0, 0.8)
        t = SpinorTriple(psi=1.0 + 1j, phi=0.5 + 0j, theta=-2.0 + 0j,
                         polarization=n)
        e1 = assemble_spinor(SpinorTriple(t.psi, t.phi, t.theta, (1.0, 0.0, 0.0)))
        e3 = assemble_spinor(SpinorTriple(t.psi, t.phi, t.theta, (0.0, 0.0, 1.0)))
        np.testing.assert_allclose(assemble_spinor(t), 0.6 * e1 + 0.8 * e3,
                                   rtol=0, atol=1e-15)

    def test_polarization_must_be_unit(self):
        with pytest.raises(InvalidParameterError):
            SpinorTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, (1.0, 1.0, 0.0))

    def test_polarization_must_be_three_vector(self):
        with pytest.raises(InvalidParameterError):
            SpinorTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, (1.0, 0.0))

    def test_array_polarization_accepted(self):
        t = SpinorTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, np.array([0.6, 0.0, 0.8]))
        assert t.polarization.tolist() == [0.6, 0.0, 0.8]

    @pytest.mark.parametrize("polarization", [
        np.array([[1.0, 0.0, 0.0]]),
        np.array([1.0, 0.0]),
        np.array([np.nan, 0.0, 0.0]),
        (np.inf, 0.0, 0.0),
        (1.0, np.nan, 0.0),
    ])
    def test_polarization_must_be_finite_three_vector(self, polarization):
        with pytest.raises(InvalidParameterError, match="finite 3-vector"):
            SpinorTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, polarization)


class TestDkpResidual:
    def test_free_plane_wave(self):
        # psi = e^{ikx} with phi = E psi, theta = -k psi solves the free system
        pot = Potential(0.0, 1.0)
        particle = Particle(1.0)
        energy = 2.0
        k = np.sqrt(energy * energy - 1.0)

        def solution(x: float) -> SpinorTriple:
            psi = np.exp(1j * k * x)
            return SpinorTriple(psi=psi, phi=energy * psi, theta=-k * psi)

        res = dkp_residual(solution, 0.7, 1e-4, pot, particle, energy)
        assert res <= 1e-6

    def test_corrupted_component_detected(self):
        pot = Potential(0.0, 1.0)
        particle = Particle(1.0)
        energy = 2.0
        k = np.sqrt(energy * energy - 1.0)

        def solution(x: float) -> SpinorTriple:
            psi = np.exp(1j * k * x)
            return SpinorTriple(psi=psi, phi=1.1 * energy * psi, theta=-k * psi)

        res = dkp_residual(solution, 0.7, 1e-4, pot, particle, energy)
        assert res >= 1e-2

    @pytest.mark.parametrize("h", [0.0, -1e-4])
    def test_step_must_be_positive(self, pot, particle, h):
        def solution(x: float) -> SpinorTriple:
            return wavefunction(x, "transmitted", pot, particle, 7.0)

        with pytest.raises(InvalidParameterError):
            dkp_residual(solution, 0.3, h, pot, particle, 7.0)

    def test_scattering_solution(self, pot, particle):
        energy = 7.0

        def solution(x: float) -> SpinorTriple:
            return wavefunction(x, "transmitted", pot, particle, energy)

        res = dkp_residual(solution, 0.3, 1e-4, pot, particle, energy)
        assert res <= 1e-3
