import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaksub as ws
from weaksub import subordination, verify
from weaksub.verify import (
    equality_in_law_suite,
    scenario_record,
)

SRC = str(Path(ws.__file__).resolve().parents[1])


def _row_sums(terms):
    """Each grid point's terms, a row of terms, summed as one contiguous
    1-d array."""
    return np.array([np.ascontiguousarray(row).sum() for row in terms])


def _table_terms(phase):
    """Sums over each grid point's row of phase, shape (points, rows), of the
    table formula's cosines and sines: phase = k / 2**7 + lo, with libm's
    cos and sin of k / 2**7 (odd in k for sin) and the polynomials' cos lo
    and sin lo."""
    k = np.rint(phase * 2**7)
    lo = phase - k * 2**-7
    c = np.cos(np.abs(k) * 2**-7)
    s = np.where(k < 0, -1.0, 1.0) * np.sin(np.abs(k) * 2**-7)
    z = lo * lo
    cos_lo = 1 - z * (0.5 - z * (1 / 24))
    sin_lo = lo * (1 - z * (1 / 6 - z * (1 / 120)))
    return [_row_sums(c * cos_lo) - _row_sums(s * sin_lo),
            _row_sums(s * cos_lo) + _row_sums(c * sin_lo)]


def _phases(x, grid):
    """grid @ x.T, shape (points, rows), in column sub-products of
    max(1, 2**16 // grid size) rows of x."""
    rows = max(1, 2**16 // grid.size)
    return np.concatenate([grid @ x[start : start + rows].T
                           for start in range(0, len(x), rows)], axis=1)


def _reference_sums(samples, grid):
    """The cosine and sine sums of an ECF: blocks of max(2, 2**16 // grid
    points) rows, their phases formed by `_phases`, by the table formula
    where every |phase| <= 64 and by libm elsewhere, each sum over one grid
    point's terms of a block."""
    rows = max(2, 2**16 // len(grid))
    sums = np.zeros((2, len(grid)))
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, len(samples), rows):
            phase = _phases(samples[start : start + rows], grid)
            if np.all(np.abs(phase) <= 64):
                sums += _table_terms(phase)
            else:
                sums += [_row_sums(np.cos(phase)), _row_sums(np.sin(phase))]
    return sums


class TestECF:
    def test_constant_samples(self):
        samples = np.tile([1.0, 2.0], (500, 1))
        theta = np.array([0.3, -0.7])
        assert ws.ecf_grid(samples, theta) == pytest.approx(
            np.exp(1j * (0.3 - 1.4)))

    def test_theta_zero(self):
        rng = np.random.default_rng(0)
        assert ws.ecf_grid(rng.standard_normal((100, 2)), [0, 0]) == pytest.approx(1.0)

    def test_gaussian_cf(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10**6, 1))
        assert abs(ws.ecf_grid(x, [1.0]) - np.exp(-0.5)) <= 4 * np.sqrt(2 / 10**6)

    def test_blocked_sum_matches_one_block(self):
        # a 64-point grid sums blocks of 1024 sample rows
        rng = np.random.default_rng(19)
        samples, grid = rng.standard_normal((20_000, 4)), rng.standard_normal((64, 4))
        one_block = np.exp(1j * samples @ grid.T).mean(axis=0)
        assert np.max(np.abs(ws.ecf_grid(samples, grid) - one_block)) <= 1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(ws.LevySpecError):
            ws.ecf_grid(np.zeros((0, 2)), [1, 1])

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0, 4)])
    def test_empty_theta_gives_empty_ecf(self, shape):
        # a grid of no points has no phases, and an ECF of shape theta.shape[:-1]
        samples = np.random.default_rng(47).standard_normal((100, 4))
        ecf = ws.ecf_grid(samples, np.zeros(shape))
        assert ecf.shape == shape[:-1] and ecf.dtype == complex

    @pytest.mark.bits
    @pytest.mark.parametrize("d, n, points", [
        (d, n, points) for d, points in
        [(4, 16), (4, 64), (8, 16), (40, 16), (4, 300), (40, 300)]
        for n in [20_000, 9217, 4097, 1025, 1]] + [(1, 5, 40_000)])
    def test_in_reach_blocks_equal_the_table_formula_bit_for_bit(self, d, n, points):
        # on the 16- to 300-point grids, blocks of 4096 to 218 rows, each
        # formed in sub-products of 1024 to 5 rows, so every n but 1 spans
        # more than one block on some grids, and 1025, 4097 and 9217 rows
        # leave a 1-row tail on some grids. The 1-column grid of 40 000
        # points has blocks of 2 rows, each formed in one 2-column product
        # where the reference forms two 1-column ones: each phase is one
        # multiplication either way. Every phase is within the tables' reach
        rng = np.random.default_rng(23)
        samples, grid = rng.standard_normal((n, d)), rng.standard_normal((points, d))
        assert np.abs(samples @ grid.T).max() <= 64
        re, im = _reference_sums(samples, grid)
        assert ws.ecf_grid(samples, grid).tobytes() == ((re + 1j * im) / n).tobytes()

    @pytest.mark.bits
    @pytest.mark.parametrize("d, n, points", [
        (d, n, points) for d, points in
        [(4, 16), (4, 64), (8, 16), (8, 64), (40, 16), (4, 300), (40, 300)]
        for n in [20_000, 9217, 4097, 1025, 1, 60_000]])
    def test_equals_blocked_complex_exponential_bit_for_bit(self, d, n, points):
        # beyond the tables' reach: every block here holds a phase above 64,
        # so the ECF sums libm's cosines and sines, blocked as before the
        # tables. Blocks of max(2, 2**16 // grid points) rows, their phases
        # formed in sub-products of max(1, 2**16 // grid size) rows: blocks
        # of 4096 to 218 rows here, so every n but 1 spans more than one
        # block on some grids, and 1025, 4097 and 9217 rows leave a 1-row
        # tail on some grids. The sizes are literals, so a change to
        # BLOCK_PHASES that moves the bits fails here
        rng = np.random.default_rng(23)
        samples = 300.0 * rng.standard_normal((n, d))
        grid = rng.standard_normal((points, d))
        rows = max(2, 2**16 // points)
        total = np.zeros(points, dtype=complex)
        for start in range(0, len(samples), rows):
            phase = _phases(samples[start : start + rows], grid)
            assert np.abs(phase).max() > 64
            terms = np.exp(1j * phase)
            total += _row_sums(terms.real) + 1j * _row_sums(terms.imag)
        reference = total / len(samples)
        assert ws.ecf_grid(samples, grid).tobytes() == reference.tobytes()

    @pytest.mark.bits
    @pytest.mark.parametrize("value", [np.nextafter(64.0, np.inf), 64.0, 1e300, np.inf,
                                       np.nan, -np.nextafter(64.0, np.inf)])
    def test_out_of_reach_blocks_sum_libm_bit_for_bit(self, monkeypatch, value):
        # sample 6000, in the middle block of three (4096 rows each, the
        # last one partial), is (value, 0, 0, 0), and grid point 0 is
        # (1, 0, 0, 0): its largest |phase| is |value|, as every
        # |theta_0| <= 1. The other samples' phases stay far within the
        # tables' reach, and so does 64 itself
        rng = np.random.default_rng(29)
        samples, grid = rng.standard_normal((12_000, 4)), rng.uniform(-1, 1, (16, 4))
        grid[0] = [1.0, 0.0, 0.0, 0.0]
        samples[6000] = [value, 0.0, 0.0, 0.0]
        with np.errstate(invalid="ignore"):
            middle = np.abs(samples[4096:8192] @ grid.T)
        assert np.delete(middle, 6000 - 4096, axis=0).max() < 32
        assert middle[6000 - 4096, 0] == abs(value) or np.isnan(value)
        table_blocks = []
        table_sums = verify._ECFSums._table_sums
        monkeypatch.setattr(verify._ECFSums, "_table_sums", lambda self, phase, *buffers: (
            table_blocks.append(phase.shape[1]), table_sums(self, phase, *buffers)))
        sums = verify._ECFSums(grid)
        sums.add(samples)
        if np.isfinite(value):
            re, im = _reference_sums(samples, grid)
            assert sums.ecf().tobytes() == ((re + 1j * im) / 12_000).tobytes()
        else:
            with pytest.raises(ws.LevySpecError, match="not finite"):
                sums.ecf()
        assert table_blocks == ([4096, 4096, 3808] if value == 64 else [4096, 3808])
        assert sums.sums.tobytes() == _reference_sums(samples, grid).tobytes()

    @pytest.mark.parametrize("n", [4000, 60_000])
    @pytest.mark.parametrize("name", verify.SCENARIOS)
    def test_within_1e_15_of_exactly_rounded_sums(self, name, n):
        # each grid point's terms are summed pairwise, so the ECF of a strong
        # draw is within 1e-15 of the mean of libm's cosines and sines summed
        # exactly (math.fsum); summed over the rows in order, the 4000-row
        # draws here were 1.1e-15 to 3.3e-15 off
        record = scenario_record(name)
        x = ws.simulate_strong_at(record.T, record.X, 1.0, n, np.random.default_rng(0))
        x = x.reshape(n, -1)
        grid = ws.ThetaGridSpec().build(x.shape[1])
        for phase, value in zip(grid @ x.T, ws.ecf_grid(x, grid)):
            assert abs(value.real - math.fsum(np.cos(phase)) / n) <= 1e-15
            assert abs(value.imag - math.fsum(np.sin(phase)) / n) <= 1e-15

    def test_table_terms_close_to_libm(self):
        # one sample x = 1 on a one-column grid: each grid point's ECF is the
        # single term exp(i theta), all in one block; the edges are +-64,
        # +-0, tiny phases and the rint ties, odd multiples of 2**-8
        rng = np.random.default_rng(37)
        phases = np.concatenate([rng.uniform(-64, 64, 100_000),
                                 [64.0, -64.0, 0.0, -0.0, 1e-300, -1e-300],
                                 np.arange(-2**13, 2**13) * 2**-7 + 2**-8])
        assert np.abs(phases).max() == 64  # one block, in the tables' reach
        grid = phases[:, None]
        terms = ws.ecf_grid([[1.0]], grid)
        re, im = _reference_sums(np.ones((1, 1)), grid)
        assert terms.tobytes() == (re + 1j * im).tobytes()
        assert np.abs(terms.real - np.cos(phases)).max() <= 4.5e-16
        assert np.abs(terms.imag - np.sin(phases)).max() <= 4.5e-16

    @pytest.mark.bits
    def test_same_bits_with_numpy_dispatch_disabled(self, tmp_path):
        # numpy picks SIMD loops at run time (__cpu_dispatch__); with every
        # target this CPU has switched off, an ECF keeps its bits
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        except ImportError:  # numpy 1.x
            from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
        if not targets:
            pytest.skip("numpy dispatches no SIMD targets on this CPU")
        rng = np.random.default_rng(41)
        samples = 2.0 * rng.standard_normal((5000, 4))
        np.save(tmp_path / "samples.npy", samples)
        code = ("import sys, numpy as np, weaksub as ws\n"
                "s = np.load(sys.argv[1])\n"
                "sys.stdout.write(ws.ecf_grid(s, ws.ThetaGridSpec().build(4)).tobytes().hex())")
        done = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "samples.npy")],
            env={**os.environ, "PYTHONPATH": SRC, "NPY_DISABLE_CPU_FEATURES": " ".join(targets)},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        ecf = ws.ecf_grid(samples, ws.ThetaGridSpec().build(4))
        assert done.stdout == ecf.tobytes().hex()

    @pytest.mark.bits
    def test_independent_of_sampler_batch(self, monkeypatch):
        # the ECF's blocks follow BLOCK_PHASES alone: with 1000-row sampler
        # batches, which do not divide the default grid's 4096-row blocks,
        # each side's streamed ECF still has the bits of ecf_grid on its draw
        monkeypatch.setattr(subordination, "TIME_T_CHUNK", 1000)
        _assert_ecfs_of_one_draw_per_child("stacked_C3", 31, 9000, ws.ThetaGridSpec())

    @pytest.mark.bits
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 6000), max_size=8), st.sampled_from([1, 3, 16, 300]))
    def test_streamed_sums_equal_ecf_grid(self, cuts, points):
        # samples fed in pieces of any size, empty ones too, give the bits of
        # one ecf_grid call: the blocks of 65536, 21845, 4096 or 218 rows
        # are carried across the pieces
        rng = np.random.default_rng(43)
        samples, grid = 3.0 * rng.standard_normal((6000, 4)), rng.standard_normal((points, 4))
        sums = verify._ECFSums(grid)
        for piece in np.split(samples, sorted(cuts)):
            sums.add(piece)
        assert sums.ecf().tobytes() == ws.ecf_grid(samples, grid).tobytes()

    @pytest.mark.bits
    @pytest.mark.parametrize("d, points", [(4, 16), (4, 3), (8, 64), (40, 300)])
    def test_phase_products_within_phase_product(self, monkeypatch, d, points):
        # OpenBLAS stays on one thread for a product of at most BLOCK_PHASES
        # multiply-adds, so every block (4096 rows on the default grid) is
        # formed in sub-products grid @ x.T over columns of samples, streamed
        # or not, and each sample's phases come from exactly one of them
        products = []
        matmul = np.matmul
        monkeypatch.setattr(verify.np, "matmul", lambda grid, x, **kw: (
            products.append((*grid.shape, x.shape[1])), matmul(grid, x, **kw))[1])
        rng = np.random.default_rng(53)
        samples, grid = rng.standard_normal((30_000, d)), rng.standard_normal((points, d))
        sums = verify._ECFSums(grid)
        for piece in np.split(samples, [5000, 13_000, 13_001]):
            sums.add(piece)
        sums.ecf()
        ws.ecf_grid(samples, grid)
        assert max(m * cols * rows for m, cols, rows in products) <= verify.BLOCK_PHASES
        assert sum(rows for _, _, rows in products) == 2 * len(samples)

    def test_no_block_buffers_held_between_pieces(self):
        # a block's three float buffers and index (2 MB at 4096 rows on the
        # default grid) live only while `add` sums: between pieces an
        # _ECFSums holds its sums and a carry of fewer than 4096 rows
        # (128 KB), however many blocks it has summed
        rng = np.random.default_rng(59)
        samples, grid = rng.standard_normal((60_000, 4)), ws.ThetaGridSpec().build(4)
        sums = verify._ECFSums(grid)
        held = []
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for piece in np.split(samples, range(7000, 60_000, 7000)):
                sums.add(piece)
                held.append(tracemalloc.get_traced_memory()[0] - before)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert max(held) <= 4096 * 4 * 8 + 2**14, held
        assert peak >= 4 * 4096 * 16 * 8  # the buffers were there while add summed

    def test_overflowing_phase_rejected(self):
        # <theta, x> = 2e308 - 1e308 overflows to inf, and cos(inf) and
        # sin(inf) are NaN
        samples = np.array([[2.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ws.LevySpecError, match="not finite at 1 of 2"):
            ws.ecf_grid(samples, [[1e308, -1e308], [0.1, 0.1]])

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1))
    def test_conjugate_symmetry(self, seed):
        # exact: the cosine table is even and the sine table odd, bit for bit
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((200, 2))
        theta = rng.standard_normal(2)
        assert ws.ecf_grid(samples, -theta) == np.conj(ws.ecf_grid(samples, theta))

    def test_ecf_is_a_row_of_ecf_grid(self):
        # more rows than one ECF block, so the blocked sum is exercised
        rng = np.random.default_rng(17)
        samples = rng.standard_normal((20_000, 3))
        grid = ws.ThetaGridSpec().build(3)
        row = ws.ecf_grid(samples, grid)
        reference = np.exp(1j * samples @ grid.T).mean(axis=0)
        assert np.all(np.abs(row - reference) <= 1e-12)
        for i in (0, 7, 15):
            assert abs(ws.ecf_grid(samples, grid[i]) - row[i]) <= 1e-12

    @pytest.mark.parametrize("shape", [(3,), (16, 3), (2, 8, 3)],
                             ids=["d", "m_d", "a_b_d"])
    def test_shape_follows_theta(self, shape):
        # one frequency vector gives one complex scalar, not one per coordinate
        rng = np.random.default_rng(18)
        samples, theta = rng.standard_normal((500, 3)), rng.standard_normal(shape)
        value = ws.ecf_grid(samples, theta)
        assert np.shape(value) == shape[:-1]
        assert isinstance(value, complex) == (len(shape) == 1)
        reference = np.exp(1j * samples @ theta.reshape(-1, 3).T).mean(axis=0)
        assert np.max(np.abs(np.reshape(value, -1) - reference)) <= 1e-12

    def test_theta_width_checked(self):
        samples = np.zeros((10, 3))
        for theta in (np.ones(2), np.ones((4, 2)), 1.0):
            with pytest.raises(ws.LevySpecError):
                ws.ecf_grid(samples, theta)

    def test_modulus_at_most_one(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((1000, 3)) * 5
        grid = ws.ThetaGridSpec().build(3)
        assert np.all(np.abs(ws.ecf_grid(samples, grid)) <= 1 + 1e-12)


class TestCFCompare:
    def test_matching_law_passes(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((50_000, 2))
        grid = ws.ThetaGridSpec().build(2)
        rep = ws.cf_compare(samples, np.exp(-0.5 * np.sum(grid**2, axis=1)), grid)
        assert rep.passed, rep.summary()

    def test_shifted_target_fails_at_pi(self):
        rng = np.random.default_rng(4)
        scale = 0.1  # keep |CF| near 1 at theta = pi so the flip is visible
        samples = scale * rng.standard_normal((50_000, 2))
        grid = np.array([[np.pi, 0.0]])
        # target law shifted by 1 in coordinate 1: CF picks up e^{i pi} = -1
        rep = ws.cf_compare(
            samples,
            np.exp(1j * grid[:, 0] - 0.5 * scale**2 * np.sum(grid**2, axis=1)), grid)
        assert not rep.passed

    def test_self_comparison_passes(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((500, 2))
        grid = ws.ThetaGridSpec().build(2)
        rep = ws.cf_compare(samples, ws.ecf_grid(samples, grid), grid)
        assert rep.passed

    def test_invariant_under_reordering(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((1000, 2))
        grid = ws.ThetaGridSpec().build(2)
        rep_a = ws.cf_compare(samples, np.exp(-0.5 * np.sum(grid**2, axis=1)), grid)
        rep_b = ws.cf_compare(samples[::-1], np.exp(-0.5 * np.sum(grid**2, axis=1))[::-1], grid[::-1])
        assert rep_a.passed == rep_b.passed
        assert np.allclose(sorted(rep_a.abs_diff), sorted(rep_b.abs_diff))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ws.LevySpecError):
            ws.cf_compare(np.zeros((50, 2)), np.ones(16),
                          ws.ThetaGridSpec().build(2))

    @pytest.mark.parametrize("n", [0, 50])
    def test_too_few_samples_named_before_summing(self, monkeypatch, n):
        # the 100-sample rule, not ecf_grid's "empty sample", and no ECF summed
        monkeypatch.setattr(verify, "ecf_grid", lambda *args: pytest.fail("summed"))
        with pytest.raises(ws.LevySpecError, match=f"need at least 100 samples for a "
                                                   f"CLT bound, not {n}$"):
            ws.cf_compare(np.zeros((n, 2)), np.ones(16), ws.ThetaGridSpec().build(2))

    @pytest.mark.parametrize("case", ["empty_grid", "few_samples",
                                      "column_mismatch", "one_d_grid", "nan_target"])
    @pytest.mark.parametrize("compare", ["one_sample"])  # keeps the test ids
    def test_unusable_inputs_rejected(self, compare, case):
        samples = np.random.default_rng(8).standard_normal((1000, 2))
        grid = {"empty_grid": np.zeros((0, 2)), "few_samples": np.ones((4, 2)),
                "column_mismatch": np.ones((4, 3)),
                "one_d_grid": np.ones(2), "nan_target": np.ones((4, 2))}[case]
        target = np.ones(len(grid))
        if case == "few_samples":
            samples = samples[:3]
        if case == "nan_target":  # its max_ratio would be NaN, which JSON has not
            target[1] = np.nan
        with pytest.raises(ws.LevySpecError):
            ws.cf_compare(samples, target, grid)

    def test_target_needs_one_value_per_grid_point(self):
        samples = np.random.default_rng(8).standard_normal((1000, 2))
        grid = ws.ThetaGridSpec().build(2)
        for target in (np.ones(15), np.ones((16, 1)), 1.0):
            with pytest.raises(ws.LevySpecError, match="target"):
                ws.cf_compare(samples, target, grid)

    def test_report_serializes(self):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal((1000, 2))
        grid = ws.ThetaGridSpec().build(2)
        rep = ws.cf_compare(samples, np.exp(-0.5 * np.sum(grid**2, axis=1)), grid)
        d = rep.to_dict()
        assert d["n_samples"] == 1000
        assert len(d["points"]) == 16
        assert isinstance(rep.summary(), str)


class TestCLTWidth:
    # 1e-310 to 5e-324 are finite and > 0, but make k sqrt(2 / N) subnormal
    # or 0, so |diff| / bound would not be finite
    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf, 1e-310, 1e-320, 5e-324])
    @pytest.mark.parametrize("call", ["clt_bound", "cf_compare", "suite"])
    def test_bad_k_rejected(self, monkeypatch, call, k):
        samples = np.random.default_rng(8).standard_normal((1000, 2))
        grid = ws.ThetaGridSpec().build(2)

        def no_simulation(*args):
            raise AssertionError("the suite simulated before checking k")

        monkeypatch.setattr(verify, "_draw_batches", no_simulation)
        # cf_compare checks k before it sums the ECF
        monkeypatch.setattr(verify, "ecf_grid", lambda *args: pytest.fail("summed"))
        with pytest.raises(ws.LevySpecError, match="CLT width k"):
            if call == "clt_bound":
                ws.clt_bound(200, k=k)
            elif call == "cf_compare":
                ws.cf_compare(samples, np.ones(len(grid)), grid, k)
            else:
                equality_in_law_suite("deterministic", np.random.default_rng(0),
                                      n_paths=1000, k=k)

    # k sqrt(2) and k sqrt(4) are beyond the floating-point range
    @pytest.mark.parametrize("sizes", [(1,), (1, 1)])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_bound_rejected(self, sizes):
        with pytest.raises(ws.LevySpecError, match="CLT width k .* outside the normal"):
            ws.clt_bound(*sizes, k=1.7e308)
        assert ws.clt_bound(*sizes, k=1e307) < np.inf

    def test_k_alone_has_no_bound_floor(self):
        # prm checks k with no sample sizes, and a bound of 0
        assert ws.clt_bound(k=5e-324) == 0.0

    @pytest.mark.parametrize("call,n", [("clt_bound", 0), ("clt_bound", -3),
                                        ("suite", -5), ("suite", 2.5), ("suite", 50)])
    def test_bad_sample_size_rejected(self, monkeypatch, call, n):
        def no_simulation(*args):
            raise AssertionError("the suite simulated before checking n_paths")

        monkeypatch.setattr(verify, "_draw_batches", no_simulation)
        if call == "clt_bound":
            with pytest.raises(ws.LevySpecError, match="each sample size >= 1"):
                ws.clt_bound(n)
        else:
            with pytest.raises(ws.LevySpecError, match="n_paths must be an integer"):
                equality_in_law_suite("deterministic", np.random.default_rng(0),
                                      n_paths=n)


class TestThetaGridSpec:
    @pytest.mark.parametrize("points", [[[np.nan] * 4], [[0.0, np.inf, 0.0, 1.0]],
                                        [[0.5] * 4, [0.0, 0.0, -np.inf, 0.0]]])
    def test_non_finite_points_rejected(self, points):
        with pytest.raises(ws.LevySpecError, match="points must be finite"):
            ws.ThetaGridSpec(points=points).build(4)

    @pytest.mark.parametrize("points", [[[1.0, 0, 0, 0], [1.0]], [["a"] * 4]],
                             ids=["ragged", "text"])
    def test_ragged_or_non_numeric_points_named(self, points):
        with pytest.raises(ws.LevySpecError, match="theta grid points must be rows of "
                                                   "numbers, all of one length"):
            ws.ThetaGridSpec(points=points).build(4)

    @pytest.mark.parametrize("scale", [0.0, -0.5, np.nan, np.inf])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ws.LevySpecError, match="scale"):
            ws.ThetaGridSpec(scale=scale).build(4)

    @pytest.mark.parametrize("size", [0, -1, 2.5])
    def test_bad_size_rejected(self, size):
        with pytest.raises(ws.LevySpecError, match="size must be an integer >= 1"):
            ws.ThetaGridSpec(size=size).build(4)

    @pytest.mark.parametrize("grid_seed", [-1, 2.5, True])
    def test_bad_grid_seed_rejected(self, grid_seed):
        # with explicit points too: the suite's A3 frequencies come from the seed
        for points in (None, [[0.5] * 4]):
            with pytest.raises(ws.LevySpecError, match="seed must be an integer >= 0"):
                ws.ThetaGridSpec(grid_seed=grid_seed, points=points).build(4)

    def test_points_are_a_read_only_copy(self):
        # the grid once kept the caller's array: an edit after construction
        # moved the grid, and == and hash raised on an array field
        points = np.array([[1.0, 0.0]])
        grid = ws.ThetaGridSpec(points=points)
        points[0, 0] = 9.0
        np.testing.assert_array_equal(grid.build(2), [[1.0, 0.0]])
        with pytest.raises(ValueError, match="read-only"):
            grid.points[0, 0] = 9.0
        assert grid == grid and hash(grid) == hash(grid)
        assert ws.ThetaGridSpec(points=np.eye(2)) != ws.ThetaGridSpec(points=np.eye(2))

    def test_no_points_rejected(self, monkeypatch):
        # a grid of no points would make every ECF check pass vacuously
        def no_simulation(*args):
            raise AssertionError("the suite simulated before checking the grid")

        monkeypatch.setattr(verify, "_draw_batches", no_simulation)
        grid = ws.ThetaGridSpec(points=np.empty((0, 4)))
        with pytest.raises(ws.LevySpecError, match="one or more rows"):
            grid.build(4)
        with pytest.raises(ws.LevySpecError, match="one or more rows"):
            equality_in_law_suite("deterministic", np.random.default_rng(0),
                                  n_paths=1000, theta_grid=grid)

    def test_overflowing_scale_names_the_grid_points(self, monkeypatch):
        # scale x a standard normal beyond the floating-point range is an
        # error naming the grid, with no overflow warning, before any draw
        def no_simulation(*args):
            raise AssertionError("the suite simulated before checking the grid")

        monkeypatch.setattr(verify, "_draw_batches", no_simulation)
        grid = ws.ThetaGridSpec(size=100, scale=1e308)
        with pytest.raises(ws.LevySpecError, match=r"the theta grid is not finite at "
                                                   r"\d+ of 100 theta grid points"):
            grid.build(4)
        with pytest.raises(ws.LevySpecError, match="theta grid points"):
            equality_in_law_suite("deterministic", np.random.default_rng(0),
                                  n_paths=1000, theta_grid=grid)

    def test_suite_names_a_non_finite_grid(self):
        grid = ws.ThetaGridSpec(points=[[np.nan] * 4])
        with pytest.raises(ws.LevySpecError, match="points must be finite"):
            equality_in_law_suite("deterministic", np.random.default_rng(0),
                                  n_paths=1000, theta_grid=grid)


class TestEqualityInLawSuite:
    # reduced N here; the full acceptance runs live in test_acceptance.py

    def test_deterministic_scenario_passes(self):
        rep = equality_in_law_suite("deterministic", np.random.default_rng(12),
                                    n_paths=10_000)
        assert rep.passed, rep.summary()

    def test_stacked_scenario_passes(self):
        rep = equality_in_law_suite("stacked_C3", np.random.default_rng(13),
                                    n_paths=10_000)
        assert rep.passed, rep.summary()
        assert _checks(rep)["exact_exponent"].compares <= 1e-10

    def test_negative_control_reports_mismatch(self):
        rep = equality_in_law_suite("negative_control", np.random.default_rng(14),
                                    n_paths=10_000)
        # at this N only the effect size is meaningful, not the verdict
        checks = _checks(rep)
        assert checks["strong_ecf"].expect == "differ"
        assert rep.to_dict()["strong_ecf"]["max_ratio"] == (
            checks["strong_ecf"].compares.max_ratio) > 0.5
        assert checks["weak_ecf"].met and checks["weak_ecf"].compares.passed
        assert checks["strong_vs_weak"].expect is None

    def test_strong_vs_weak_compares_the_two_ecfs(self):
        # the one two-sample comparison: the strong draw's ECF against the
        # weak draw's, each from its own child of the suite's generator, with
        # bound clt_bound(N, N, k=k)
        n, k = 2000, 3.0
        rep = equality_in_law_suite("finite_activity_C1", np.random.default_rng(18),
                                    n_paths=n, k=k)
        record, grid = scenario_record("finite_activity_C1"), ws.ThetaGridSpec().build(4)
        strong_rng, weak_rng = np.random.default_rng(18).spawn(2)
        strong = ws.simulate_strong_at(record.T, record.X, 1.0, n, strong_rng)
        weak = ws.simulate_weak_at(record.T, record.X, 1.0, n, weak_rng)
        cross = _checks(rep)["strong_vs_weak"].compares
        assert np.array_equal(cross.theta_grid, grid)
        assert np.array_equal(cross.ecf, ws.ecf_grid(strong, grid))
        assert np.array_equal(cross.target, ws.ecf_grid(weak, grid))
        assert np.array_equal(cross.ecf, _checks(rep)["strong_ecf"].compares.ecf)
        assert np.array_equal(cross.target, _checks(rep)["weak_ecf"].compares.ecf)
        assert cross.bound == ws.clt_bound(n, n, k=k)
        assert (cross.n_samples, cross.k) == (n, k)

    @pytest.mark.bits
    @pytest.mark.parametrize("n, size", [(9000, 16), (20_000, 3), (20_000, 5)])
    @pytest.mark.parametrize("name", verify.SCENARIOS)
    def test_ecfs_are_ecf_grid_of_one_draw_per_child(self, name, n, size):
        # each side's streamed ECF has the bits of ecf_grid on one n-row draw
        # from its child of rng.spawn(2), strong from the first: 9000 rows are
        # an 8192-row batch and a short one, the 5-point grid's 13107-row
        # ECF blocks straddle the batches, and the 3-point grid's one
        # 21845-row block holds every row and is summed by `ecf`
        _assert_ecfs_of_one_draw_per_child(name, 41, n, ws.ThetaGridSpec(size=size))

    @pytest.mark.bits
    @pytest.mark.parametrize("failing, raised", [(("strong",), "strong"), (("weak",), "weak"),
                                                 (("strong", "weak"), "weak")],
                             ids=["strong", "weak", "both"])
    def test_worker_error_reaches_caller(self, monkeypatch, failing, raised):
        # the strong side runs on the suite's worker thread and the weak side
        # on the calling thread; when both fail, the calling thread's own
        # error is the one raised, and after one side's error the other stops
        # at its next batch, before drawing all 49 of them
        threads_of, batches = {}, {"strong": 0, "weak": 0}

        def side_z(side, draw_z):
            def z(*args):
                threads_of[side] = threading.current_thread()
                batches[side] += 1
                if side in failing:
                    raise FloatingPointError(f"{side} failed")
                return draw_z(*args)
            return z

        for side in ("strong", "weak"):
            monkeypatch.setattr(verify, f"_{side}_z",
                                side_z(side, getattr(verify, f"_{side}_z")))
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"{raised} failed"):
            equality_in_law_suite("finite_activity_C1", np.random.default_rng(37),
                                  n_paths=400_000)
        assert threads_of["strong"] is not threading.main_thread()
        assert threads_of["weak"] is threading.main_thread()
        assert threading.active_count() == threads  # the worker was joined
        for side, other in (("strong", "weak"), ("weak", "strong")):
            if side in failing:
                assert batches[other] < 400_000 // 8192 + 1

    def test_memory_does_not_grow_with_n(self):
        # each side holds one batch of rows and its running sums, never its
        # (N, 2n) draws (when the sides held their draws, the peak grew from
        # about 2.3 MB to 7 MB)
        peaks = []
        for n in (20_000, 200_000):
            tracemalloc.start()
            try:
                equality_in_law_suite("finite_activity_C1", np.random.default_rng(47),
                                      n_paths=n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**20, peaks

    @pytest.mark.parametrize("n,passed", [(100_000, True), (2000, False)])
    def test_negative_control_verdict(self, n, passed):
        # the expected mismatch (max |diff|/bound > 2) shows at N = 1e5 and
        # not at N = 2000
        rep = equality_in_law_suite("negative_control", np.random.default_rng(5),
                                    n_paths=n)
        assert rep.passed == passed, rep.summary()
        assert (rep.to_dict()["strong_ecf"]["max_ratio"] > 2.0) == passed
        assert f"strong_ecf: expect differ, {'met' if passed else 'NOT met'}" in (
            rep.summary())
        # strong vs weak is reported, not gated: at N = 1e5 the two differ
        # beyond their bound (max |diff|/bound about 2.3) and the control
        # passes all the same
        cross = _checks(rep)["strong_vs_weak"]
        assert cross.expect is None and cross.met
        assert cross.compares.passed != passed

    @pytest.mark.parametrize("name", verify.SCENARIOS)
    def test_passed_is_every_check_met(self, name):
        rep = equality_in_law_suite(name, np.random.default_rng(18), n_paths=2000)
        assert rep.passed == all(check.met for check in rep.checks)
        # the rule as it was written before the check list, branch by branch
        got = {c.name: c.compares for c in rep.checks}
        if scenario_record(name).equal_in_law:
            rule = (got["strong_ecf"].passed and got["weak_ecf"].passed
                    and got["strong_vs_weak"].passed
                    and got.get("exact_exponent", 0.0) <= 1e-10)
        else:
            rule = got["strong_ecf"].max_ratio > 2.0 and got["weak_ecf"].passed
        assert rep.passed == rule
        assert [c.name for c in rep.checks] == [
            "strong_ecf", "weak_ecf", "strong_vs_weak",
            *(["exact_exponent"] if scenario_record(name).stack else [])]
        d = rep.to_dict()
        assert d["passed"] == rep.passed
        assert all(d[c.name]["met"] == c.met and d[c.name]["expect"] == c.expect
                   for c in rep.checks)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ws.LevySpecError):
            equality_in_law_suite("bogus", np.random.default_rng(0), n_paths=1000)

    def test_report_serializes(self):
        rep = equality_in_law_suite("deterministic", np.random.default_rng(15),
                                    n_paths=2000)
        d = rep.to_dict()
        assert d["scenario"] == "deterministic"
        assert set(d) == {"scenario", "n_paths", "passed",
                          "strong_ecf", "weak_ecf", "strong_vs_weak"}
        assert all(d[name]["expect"] == "equal"
                   for name in ("strong_ecf", "weak_ecf", "strong_vs_weak"))

    def test_numpy_integer_n_paths_serializes(self):
        # _check_count takes a numpy integer; the report holds a Python int
        rep = equality_in_law_suite("deterministic", np.random.default_rng(15),
                                    n_paths=np.int64(200))
        twin = equality_in_law_suite("deterministic", np.random.default_rng(15),
                                     n_paths=200)
        assert json.loads(json.dumps(rep.to_dict())) == twin.to_dict()

    @pytest.mark.parametrize("k", [np.int64(4), np.float32(4)], ids=["int64", "float32"])
    @pytest.mark.parametrize("call", ["cf_compare", "suite"])
    def test_numpy_k_serializes_as_its_python_number(self, call, k):
        # the report holds k.item(): its JSON is byte for byte that of a
        # Python k, so an int k of 4 still reads "k": 4
        def report(k):
            if call == "suite":
                return equality_in_law_suite("deterministic", np.random.default_rng(1),
                                             n_paths=200, k=k)
            return ws.cf_compare(np.zeros((200, 2)), [1.0], np.zeros((1, 2)), k=k)

        assert json.dumps(report(k).to_dict()) == json.dumps(report(k.item()).to_dict())

    @pytest.mark.parametrize("source", ["negative_control", "stacked_C3"])
    def test_suite_follows_the_record_not_the_name(self, monkeypatch, source):
        # a scenario under a new name behaves as its record says: the
        # expected-mismatch rule for a control, the A3 check for a stack
        record = scenario_record(source)
        monkeypatch.setitem(verify._SCENARIO_TABLE, "renamed", record)
        rep = equality_in_law_suite("renamed", np.random.default_rng(17), n_paths=2000)
        twin = equality_in_law_suite(source, np.random.default_rng(17), n_paths=2000)
        assert rep.to_dict() == {**twin.to_dict(), "scenario": "renamed"}
        assert rep.summary() == twin.summary().replace(source, "renamed", 1)
        d = rep.to_dict()
        assert (d["strong_ecf"]["expect"] == "differ") == (not record.equal_in_law)
        assert ("exact_exponent" in d) == (record.stack is not None)


def _checks(rep) -> dict:
    return {check.name: check for check in rep.checks}


def _assert_ecfs_of_one_draw_per_child(name, seed, n, spec):
    rep = equality_in_law_suite(name, np.random.default_rng(seed), n_paths=n,
                                theta_grid=spec)
    record = scenario_record(name)
    grid = spec.build(2 * record.T.dim)
    strong_rng, weak_rng = np.random.default_rng(seed).spawn(2)
    strong = ws.simulate_strong_at(record.T, record.X, 1.0, n, strong_rng)
    weak = ws.simulate_weak_at(record.T, record.X, 1.0, n, weak_rng)
    checks = _checks(rep)
    assert checks["strong_ecf"].compares.ecf.tobytes() == ws.ecf_grid(strong, grid).tobytes()
    assert checks["weak_ecf"].compares.ecf.tobytes() == ws.ecf_grid(weak, grid).tobytes()


class TestScenarioProcesses:
    @pytest.mark.parametrize("name", ["deterministic", "finite_activity_C1",
                                      "stacked_C3", "negative_control"])
    def test_specs_valid(self, name):
        T, X = scenario_record(name).T, scenario_record(name).X
        # the constructor raises on an orthant violation
        ws.SubordinatorSpec(T.d, T.jumps)
        assert X.dim == T.dim

    def test_time1_ecf_modulus(self):
        record = scenario_record("finite_activity_C1")
        samples = ws.simulate_weak_at(record.T, record.X, 1.0, 2000,
                                      np.random.default_rng(16))
        grid = ws.ThetaGridSpec().build(4)
        assert np.all(np.abs(ws.ecf_grid(samples, grid)) <= 1 + 1e-12)

    def test_records_compare_and_hash_by_identity(self):
        # a record's T and X hold arrays, so field-wise == and hash raised
        a, b = scenario_record("stacked_C3"), scenario_record("finite_activity_C1")
        assert a == a and a != b
        assert len({a, b, verify.Scenario(a.T, a.X)}) == 3


_CORRELATED = ws.BrownianMotion([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
_ATOMS = {"one_atom": ws.AtomicJumps([[1.0, 1.0]], [1.0]),
          "control": ws.AtomicJumps([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])}


def _gamma_stack(directions):
    # blocks of sizes 2 and 1: a correlated Brownian motion and a compound
    # Poisson law, under a gamma-ray clock with drift (0.3, 0.3, 0.7)
    T = ws.SubordinatorSpec([0.3, 0.3, 0.7], ws.GammaRays(directions, [1.0, 2.0], [1.5, 0.5]))
    blocks = (_CORRELATED, ws.CompoundPoisson(ws.AtomicJumps([[1.0]], [2.0])))
    return T, ws.IndependentStack(blocks)


class TestScenarioRule:
    # equal_in_law and stack are worked out from (T, X) by Theorem 1's rule
    @pytest.mark.parametrize("T, equal", [
        (ws.SubordinatorSpec([1.0, 2.0]), True),
        (ws.SubordinatorSpec(np.zeros(2), _ATOMS["one_atom"]), True),
        (ws.SubordinatorSpec(np.zeros(2), _ATOMS["control"]), False),
    ], ids=["jump_free", "one_atom", "control_atoms"])
    def test_one_block(self, T, equal):
        scenario = verify.Scenario(T, _CORRELATED)
        assert scenario.equal_in_law is equal
        assert scenario.stack is None

    def test_stack_constant_on_blocks(self):
        T, X = _gamma_stack([[1.0, 1.0, 2.0], [0.5, 0.5, 0.0]])
        scenario = verify.Scenario(T, X)
        assert scenario.equal_in_law
        R, dims, blocks = scenario.stack
        assert np.array_equal(R.d, [0.3, 0.7])
        assert isinstance(R.jumps, ws.GammaRays)
        assert np.array_equal(R.jumps.points, [[1.0, 2.0], [0.5, 0.0]])
        assert np.array_equal(R.jumps.c, T.jumps.c) and np.array_equal(R.jumps.b, T.jumps.b)
        assert dims == (2, 1) and blocks == X.blocks
        rebuilt = ws.stacked_subordinator(R, dims)
        assert np.array_equal(rebuilt.d, T.d)
        assert np.array_equal(rebuilt.jumps.points, T.jumps.points)

    def test_stack_varying_inside_a_block(self):
        T, X = _gamma_stack([[1.0, 1.0, 2.0], [0.5, 0.6, 0.0]])
        scenario = verify.Scenario(T, X)
        assert not scenario.equal_in_law
        assert scenario.stack is None

    def test_table_records_keep_their_values(self):
        # the values the records declared by hand before the rule
        bm1 = ws.BrownianMotion([0.0], [[1.0]])
        R = ws.SubordinatorSpec(np.array([0.5, 0.5]), ws.AtomicJumps([[1.0, 2.0]], [1.0]))
        declared = {
            "deterministic": (ws.SubordinatorSpec([1.0, 2.0]), _CORRELATED, True, None),
            "finite_activity_C1": (ws.SubordinatorSpec(np.zeros(2), _ATOMS["one_atom"]),
                                   _CORRELATED, True, None),
            "stacked_C3": (ws.stacked_subordinator(R, (1, 1)),
                           ws.IndependentStack((bm1, bm1)), True, (R, (1, 1), (bm1, bm1))),
            "negative_control": (ws.SubordinatorSpec(np.zeros(2), _ATOMS["control"]),
                                 _CORRELATED, False, None),
        }
        assert set(declared) == set(verify.SCENARIOS)
        for name, (T, X, equal, stack) in declared.items():
            record = scenario_record(name)
            assert record.equal_in_law is equal
            assert repr(record.stack) == repr(stack)
            got_T, got_X, extras = verify.scenario_processes(name)
            assert repr((got_T, got_X)) == repr((T, X))
            assert repr(extras) == repr(
                {} if stack is None else dict(zip(("R", "embedding", "blocks"), stack)))

    def test_override_outside_the_rule_is_reported_not_gated(self):
        # C1 over the control's clock: the paper claims nothing, so strong's
        # mismatch (beyond its bound at N = 1e5) is reported, not gated
        T = ws.SubordinatorSpec(np.zeros(2), _ATOMS["control"])
        rep = equality_in_law_suite("finite_activity_C1", np.random.default_rng(3),
                                    n_paths=100_000, T=T)
        checks = _checks(rep)
        assert [checks[c].expect for c in ("strong_ecf", "weak_ecf", "strong_vs_weak")] == [
            None, "equal", None]
        assert not checks["strong_ecf"].compares.passed
        assert rep.passed, rep.summary()

    def test_control_over_a_clock_inside_the_rule_expects_equal(self):
        T = ws.SubordinatorSpec(np.zeros(2), _ATOMS["one_atom"])
        rep = equality_in_law_suite("negative_control", np.random.default_rng(3),
                                    n_paths=20_000, T=T)
        assert all(check.expect == "equal" for check in rep.checks)
        assert [c.name for c in rep.checks] == ["strong_ecf", "weak_ecf", "strong_vs_weak"]
        assert rep.passed, rep.summary()
