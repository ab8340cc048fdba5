"""Floquet band structure against the explicit free-lattice dispersion."""

import csv

import numpy as np
import pytest

from randschrod import AndersonModel, brillouin_zone, runner
from randschrod.bands import BandStructure, check_regularity, compute_bands, find_band_edges


@pytest.fixture(scope="module")
def free_bands_1d():
    model = AndersonModel.free(omega_max=0.0)
    return compute_bands(model, 0, resolution=257, num_bands=1)


class TestFreeDispersion:
    def test_first_band_is_the_cosine_dispersion(self, free_bands_1d):
        thetas = free_bands_1d.axes[0]
        expected = 2.0 - 2.0 * np.cos(thetas)
        assert np.allclose(free_bands_1d.energies[:, 0], expected, atol=1e-10)

    def test_point_evaluator_agrees_off_grid(self, free_bands_1d):
        for theta in (0.123, -2.5, 3.0):
            assert free_bands_1d.value([theta], 0) == pytest.approx(
                2.0 - 2.0 * np.cos(theta), abs=1e-10
            )

    def test_two_dimensional_dispersion_is_separable(self):
        model = AndersonModel.free(dimension=2, omega_max=0.0)
        bands = compute_bands(model, 0, resolution=33, num_bands=1)
        t0, t1 = np.meshgrid(bands.axes[0], bands.axes[1], indexing="ij")
        expected = 4.0 - 2.0 * np.cos(t0) - 2.0 * np.cos(t1)
        assert np.allclose(bands.energies[:, :, 0], expected, atol=1e-10)

    def test_disordered_bands_are_the_spectra_of_assembled_boxes(self):
        model = AndersonModel.free(points_per_cell=2, omega_max=1.0, master_seed=9)
        bands = compute_bands(model, 2, resolution=9, num_bands=3, realization=4)
        for theta, row in zip(bands.axes[0], bands.energies):
            box = model.periodic_box_at(2, (theta,), realization=4)
            assert np.array_equal(row, box.eigenvalues()[:3])

    def test_band_range_spans_zero_to_four(self, free_bands_1d):
        lo, hi = free_bands_1d.band_range(0)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(4.0, abs=1e-12)


class TestBandEdges:
    def test_free_spectrum_has_one_interval(self, free_bands_1d):
        edges = find_band_edges(free_bands_1d)
        assert [e["side"] for e in edges] == ["lower", "upper"]
        assert edges[0]["energy"] == pytest.approx(0.0, abs=1e-12)
        assert edges[1]["energy"] == pytest.approx(4.0, abs=1e-12)
        assert edges[0]["interval_index"] == 0

    def _two_band(self, lower, upper, resolution=201):
        zone = brillouin_zone(0, 1)
        axis = zone.inclusive_axis(resolution)
        energies = np.stack([lower(axis), upper(axis)], axis=-1)
        return BandStructure(axes=[axis], energies=energies, zone=zone)

    def test_disjoint_synthetic_bands_stay_separate(self):
        bands = self._two_band(
            lambda t: np.sin(t) ** 2, lambda t: 3.0 + np.cos(t) ** 2
        )
        edges = find_band_edges(bands)
        assert len(edges) == 4
        assert [e["interval_index"] for e in edges] == [0, 0, 1, 1]

    def test_touching_bands_merge(self):
        bands = self._two_band(
            lambda t: 1.0 - np.cos(t), lambda t: 2.0 + np.cos(t)
        )
        assert len(find_band_edges(bands)) == 2


class TestEdgeRegularity:
    def test_free_minimum_in_two_dimensions_has_identity_like_hessian(self):
        model = AndersonModel.free(dimension=2, omega_max=0.0)
        bands = compute_bands(model, 0, resolution=41, num_bands=1)
        report = check_regularity(bands, 0.0)
        assert report.regular
        assert report.minimizers[0] == pytest.approx((0.0, 0.0), abs=1e-12)
        # 2 - 2cos(t) has second derivative 2 at the bottom, independently
        # in each axis, with no cross term
        assert np.allclose(report.hessians[0], 2.0 * np.eye(2), atol=1e-4)
        assert report.smallest_eigenvalues[0] == pytest.approx(2.0, abs=1e-4)

    def test_quartic_bottom_is_flagged_non_regular(self):
        zone = brillouin_zone(0, 1)
        bands = BandStructure.from_function(
            lambda t: float(t[0] ** 4), zone, resolution=101
        )
        report = check_regularity(bands, 0.0)
        assert not report.regular

    def test_band_structure_without_evaluator_is_refused(self):
        zone = brillouin_zone(0, 1)
        axis = zone.inclusive_axis(101)
        bands = BandStructure(axes=[axis], energies=(axis**2)[:, None], zone=zone)
        with pytest.raises(ValueError, match="evaluator"):
            check_regularity(bands, 0.0)

    def test_missing_edge_raises(self, free_bands_1d):
        with pytest.raises(ValueError, match="attains"):
            check_regularity(free_bands_1d, -5.0)


class TestZoneGeometry:
    def test_reduced_zone_extent_shrinks_with_the_box(self):
        zone = brillouin_zone(3, 1)
        assert zone.extent == pytest.approx(np.pi / 7.0)
        assert zone.volume == pytest.approx(2.0 * np.pi / 7.0)

    def test_inclusive_axis_hits_both_endpoints(self):
        zone = brillouin_zone(0, 1)
        axis = zone.inclusive_axis(9)
        assert axis[0] == pytest.approx(-np.pi)
        assert axis[-1] == pytest.approx(np.pi)

    def test_midpoint_axis_stays_interior(self):
        zone = brillouin_zone(0, 1)
        axis = zone.midpoint_axis(8)
        assert axis.min() > -np.pi and axis.max() < np.pi
        assert np.allclose(np.diff(axis), 2.0 * np.pi / 8.0)


def test_band_csv_round_trip(tmp_path):
    # the bandstructure run's bands.csv, written through its OutputSink
    sink = runner.OutputSink(tmp_path, {"kind": "bandstructure"})
    exp = {"half_width": 0, "resolution": 257, "num_bands": 1, "realization": None,
           "check_regularity": False}
    runner._run_bandstructure(AndersonModel.free(omega_max=0.0), exp, {}, sink)
    path = tmp_path / "bands.csv"
    assert set(sink.payloads) == {"bands.csv", "bands.json"}
    with open(path, newline="") as fh:
        assert fh.readline() == "# kind=bandstructure\n"
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    assert header == ["theta_1", "n", "E"]
    assert len(data) == 257
    assert {r[1] for r in data} == {"0"}  # the band index is an integer column
    first = [float(x) for x in data[0]]
    assert first[-1] == pytest.approx(2.0 - 2.0 * np.cos(first[0]), abs=1e-10)
