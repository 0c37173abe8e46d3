import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import surrounding_corners

from cvloc.mapgrid import (
    EARTH_RADIUS_M,
    GeoRect,
    GridMap,
    LocalPoint,
    OutOfMapError,
    corner_cells,
    geo_to_local,
    local_to_geo,
    nearest_cells,
    tessellate,
)


def make_grid(width=3, height=3, interval=10.0, origin=(40.0, -105.0)):
    return GridMap(origin, interval, width, height)


class TestProjection:
    def test_origin_maps_to_zero(self):
        g = make_grid()
        assert geo_to_local(g, 40.0, -105.0) == (0.0, 0.0)

    def test_one_degree_longitude_at_equator(self):
        # oracle: spherical arc length of one degree, 2*pi*R/360
        arc = 2.0 * math.pi * EARTH_RADIUS_M / 360.0
        g = GridMap((0.0, 0.0), 10.0, 2, 2)
        p = geo_to_local(g, 0.0, 1.0)
        assert p.x == pytest.approx(arc, rel=1e-12)
        assert p.x == pytest.approx(111_320.0, rel=5e-3)
        assert p.y == 0.0

    def test_milli_degree_latitude(self):
        arc = 2.0 * math.pi * EARTH_RADIUS_M / 360.0 * 0.001
        g = make_grid()
        p = geo_to_local(g, 40.001, -105.0)
        # degree subtraction costs a few ulps of the 0.001-degree offset
        assert p.y == pytest.approx(arc, rel=1e-9)
        assert p.y == pytest.approx(111.32, rel=5e-3)

    def test_rejects_nonfinite_and_out_of_range(self):
        g = make_grid()
        with pytest.raises(ValueError):
            geo_to_local(g, float("nan"), 0.0)
        with pytest.raises(ValueError):
            geo_to_local(g, 91.0, 0.0)
        with pytest.raises(ValueError):
            geo_to_local(g, 0.0, 181.0)

    @given(
        lat0=st.floats(-80, 80),
        lon0=st.floats(-179, 179),
        dlat=st.floats(-0.01, 0.01),
        dlon=st.floats(-0.01, 0.01),
    )
    def test_round_trip_within_1e9_degrees(self, lat0, lon0, dlat, dlon):
        g = GridMap((lat0, lon0), 5.0, 2, 2)
        lat, lon = lat0 + dlat, lon0 + dlon
        p = geo_to_local(g, lat, lon)
        back = local_to_geo(g, p)
        assert back[0] == pytest.approx(lat, abs=1e-9)
        assert back[1] == pytest.approx(lon, abs=1e-9)


def local_to_geo_oracle(grid: GridMap, p: LocalPoint) -> tuple[float, float]:
    """The scalar ``math`` projection that :func:`local_to_geo` replaced."""
    lat0, lon0 = grid.origin
    lat = lat0 + math.degrees(p.y / EARTH_RADIUS_M)
    lon = lon0 + math.degrees(p.x / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return lat, lon


class TestLocalToGeoArrays:
    def test_array_call_bit_identical_to_scalar_calls(self):
        g = make_grid(width=23, height=17, interval=4.7, origin=(-33.9, 151.2))
        rng = np.random.default_rng(3)
        pts = np.concatenate([g.locations(), rng.uniform(-500.0, 500.0, (200, 2))])
        array = np.stack(local_to_geo(g, LocalPoint(pts[:, 0], pts[:, 1])), axis=1)
        scalar = np.array([local_to_geo(g, LocalPoint(float(x), float(y))) for x, y in pts])
        oracle = np.array([local_to_geo_oracle(g, LocalPoint(float(x), float(y))) for x, y in pts])
        np.testing.assert_array_equal(array.view(np.int64), scalar.view(np.int64))
        np.testing.assert_array_equal(array.view(np.int64), oracle.view(np.int64))

    def test_nonfinite_array_entry_rejected(self):
        xs = np.array([0.0, 1.0, np.nan])
        with pytest.raises(ValueError):
            local_to_geo(make_grid(), LocalPoint(xs, np.zeros(3)))


class TestSurroundingCorners:
    def test_hand_enumerated_cell(self):
        # lattice: (0,0),(10,0),(20,0) / (0,10),... row-major on a 3x3 grid
        g = make_grid()
        corners = surrounding_corners(g, LocalPoint(14.0, 6.0))
        locs = [g.cell_location(c) for c in corners]
        assert locs == [(10.0, 0.0), (20.0, 0.0), (10.0, 10.0), (20.0, 10.0)]

    def test_interior_lattice_point_is_sw_corner(self):
        g = make_grid()
        corners = surrounding_corners(g, LocalPoint(10.0, 10.0))
        assert g.cell_location(corners[0]) == (10.0, 10.0)

    def test_cell_centroid_is_equidistant_from_all_corners(self):
        g = make_grid()
        p = LocalPoint(15.0, 5.0)
        for c in surrounding_corners(g, p):
            loc = g.cell_location(c)
            assert max(abs(loc.x - p.x), abs(loc.y - p.y)) == pytest.approx(5.0)

    def test_outside_map_raises(self):
        g = make_grid()
        with pytest.raises(OutOfMapError):
            surrounding_corners(g, LocalPoint(-1.0, 5.0))
        with pytest.raises(OutOfMapError):
            surrounding_corners(g, LocalPoint(5.0, 20.1))

    @settings(max_examples=200)
    @given(x=st.floats(0, 40), y=st.floats(0, 20))
    def test_returns_distinct_axis_aligned_unit_cell(self, x, y):
        g = make_grid(width=5, height=3)
        p = LocalPoint(x, y)
        corners = surrounding_corners(g, p)
        assert len(set(corners)) == 4
        sw, se, nw, ne = corners
        assert se == sw + 1
        assert nw == sw + g.width
        assert ne == nw + 1
        for c in corners:
            loc = g.cell_location(c)
            assert abs(loc.x - p.x) <= g.cell_interval
            assert abs(loc.y - p.y) <= g.cell_interval


def masked_corner_cells(grid, xs, ys):
    """Reference for ``corner_cells``: always mask, whether or not every point
    is on the map."""
    ex, ey = grid.extent
    inside = (xs >= 0) & (xs <= ex) & (ys >= 0) & (ys <= ey)
    gx = xs[inside] / grid.cell_interval
    gy = ys[inside] / grid.cell_interval
    i = np.minimum(gx.astype(np.int64), grid.width - 2)
    j = np.minimum(gy.astype(np.int64), grid.height - 2)
    return inside, i, j, gx - i, gy - j


# on the map, on its far edges, off it, and not finite
COORDS = st.one_of(st.floats(0, 40), st.sampled_from([0.0, 40.0, 20.0, -1e-9, 40.000001, math.nan, math.inf]),
                   st.floats(-100, 100))


class TestCornerCells:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=40))
    def test_matches_masked_path(self, points):
        g = make_grid(width=5, height=5)
        xy = np.array(points)
        for xs, ys in ((xy[:, 0], xy[:, 1]), (np.clip(xy[:, 0], 0, 40), np.clip(xy[:, 1], 0, 40))):
            got, want = corner_cells(g, xs, ys), masked_corner_cells(g, xs, ys)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_all_on_map_outputs_are_fresh_arrays(self):
        g = make_grid(width=5, height=5)
        states = np.random.default_rng(0).uniform(0, 40, (50, 3))
        inside, i, j, tx, ty = corner_cells(g, states[:, 0], states[:, 1])
        assert inside.all() and len(i) == len(j) == 50
        assert not (np.shares_memory(tx, states) or np.shares_memory(ty, states))


def scalar_nearest_cell(grid: GridMap, x: float, y: float) -> int:
    """Reference for ``nearest_cells``: the former per-point form."""
    s = grid.cell_interval
    col = min(max(int(round(x / s)), 0), grid.width - 1)
    row = min(max(int(round(y / s)), 0), grid.height - 1)
    return row * grid.width + col


# finite points on and off the map, with half-interval multiples (10 m cells) for the ties
NEAREST_COORDS = st.one_of(st.floats(-100, 100), st.integers(-4, 20).map(lambda k: 5.0 * k))


class TestNearestCells:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(NEAREST_COORDS, NEAREST_COORDS), min_size=1, max_size=40))
    def test_matches_scalar_form(self, points):
        g = make_grid(width=5, height=4)
        xy = np.array(points)
        want = [scalar_nearest_cell(g, x, y) for x, y in points]
        assert nearest_cells(g, xy[:, 0], xy[:, 1]).tolist() == want


def metric_rect(width_m: float, height_m: float, origin=(40.0, -105.0)) -> GeoRect:
    """Geo rectangle whose local extent is (width_m, height_m)."""
    probe = GridMap(origin, 1.0, 2, 2)
    lat_max, _ = local_to_geo(probe, LocalPoint(0.0, height_m))
    _, lon_max = local_to_geo(probe, LocalPoint(width_m, 0.0))
    return GeoRect(origin[0], lat_max, origin[1], lon_max)


class TestTessellate:
    def test_counts_cover_both_edges(self):
        g = tessellate(metric_rect(100.0, 100.0), 10.0)
        assert (g.width, g.height) == (11, 11)

    def test_rectangular_bounds(self):
        g = tessellate(metric_rect(20.0, 10.0), 5.0)
        assert (g.width, g.height) == (5, 3)

    def test_degenerate_bounds_raise(self):
        with pytest.raises(ValueError):
            tessellate(GeoRect(40.0, 40.0, -105.0, -104.9), 5.0)

    def test_too_small_grid_raises(self):
        with pytest.raises(ValueError):
            tessellate(metric_rect(3.0, 3.0), 5.0)

    def test_bad_interval_raises(self):
        with pytest.raises(ValueError):
            tessellate(metric_rect(100.0, 100.0), 0.0)

    def test_adjacent_centers_exactly_interval_apart(self):
        g = tessellate(metric_rect(50.0, 50.0), 5.0)
        locs = g.locations()
        assert locs[1][0] - locs[0][0] == 5.0
        assert locs[g.width][1] - locs[0][1] == 5.0
        # every location on the lattice
        assert np.all(locs % 5.0 == 0.0)


class TestGridMap:
    def test_cell_count_invariant(self):
        g = make_grid(width=4, height=6)
        assert len(g.locations()) == g.width * g.height == len(g)

    @pytest.mark.parametrize("rows", [slice(0, 1), slice(2, 4), slice(3, None), slice(4, 9), slice(None)])
    def test_row_locations_are_the_matching_rows_of_all(self, rows):
        g = make_grid(width=7, height=5, interval=2.5)
        every = g.locations().reshape(g.height, g.width, 2)
        np.testing.assert_array_equal(g.locations(rows), every[rows].reshape(-1, 2))

    def test_locations_match_the_index_arithmetic_and_cell_location(self):
        g = make_grid(width=7, height=5, interval=2.5)
        index = np.arange(g.num_cells)
        want = np.stack([index % g.width, index // g.width], axis=1) * g.cell_interval
        np.testing.assert_array_equal(g.locations(), want)
        for index, loc in enumerate(g.locations().tolist()):
            got = g.cell_location(index)
            assert got == tuple(loc) and all(type(v) is float for v in got)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridMap((40.0, -105.0), 5.0, 1, 3)

    def test_rejects_negative_probability(self):
        g = make_grid()
        with pytest.raises(ValueError):
            g.with_probabilities(np.full(9, -0.1))

    def test_cell_payloads(self):
        g = make_grid().with_probabilities(np.full(9, 1.0 / 9))
        assert g.cell_location(4) == (10.0, 10.0)
        assert g.probabilities[4] == pytest.approx(1.0 / 9)
