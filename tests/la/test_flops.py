"""Sanity tests for the analytic flop/byte formulas."""

import pytest

from repro.la import flops as F


class TestFlopCounts:
    def test_gemm_symmetry(self):
        assert F.gemm_flops(2, 3, 4) == F.gemm_flops(3, 2, 4)
        assert F.gemm_flops(10, 10, 10) == 2000

    def test_gemv_matches_gemm_with_one_column(self):
        assert F.gemv_flops(7, 5) == F.gemm_flops(7, 1, 5)

    def test_lu_cubic(self):
        assert F.lu_flops(30) == (2 * 30**3) // 3
        assert F.lu_flops(60) > 7 * F.lu_flops(30)

    def test_cholesky_half_of_lu(self):
        n = 48
        assert F.cholesky_flops(n) == pytest.approx(F.lu_flops(n) / 2, rel=0.01)

    def test_trsm_scales_with_rhs(self):
        assert F.trsm_flops(16, 4) == 4 * F.trsv_flops(16)

    def test_spmv_linear_in_nnz(self):
        assert F.spmv_flops(100) == 200

    def test_dot_axpy(self):
        assert F.dot_flops(8) == 16
        assert F.axpy_flops(8) == 16

    def test_sparse_lu_proportional_to_fill(self):
        assert F.sparse_lu_flops(1000) == 4000


class TestByteCounts:
    def test_matrix_vector_bytes(self):
        assert F.matrix_bytes(4, 5) == 160
        assert F.vector_bytes(10) == 80

    def test_gemm_bytes_counts_three_operands(self):
        assert F.gemm_bytes(2, 3, 4) == 8 * (2 * 4 + 4 * 3 + 2 * 3)

    def test_csr_bytes_structure(self):
        # values (8B) + col indices (4B) + row pointers (4B each, m+1).
        assert F.csr_bytes(10, 50) == 8 * 50 + 4 * (50 + 10 + 1)
