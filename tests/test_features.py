import numpy as np
import pytest

from dmdk.autograd import Tensor
from dmdk.features import (
    ProjectionParams,
    fuse_views,
    load_features,
    project_features,
    save_features,
)

RNG = np.random.default_rng(31)


def write(tmp_path, text, name="f.fmat"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_round_trip_preserves_exact_floats(tmp_path):
    values = RNG.normal(size=(3, 5))
    values[0, 0] = 1e-17
    values[1, 1] = -0.1
    p = tmp_path / "v.fmat"
    save_features(p, values)
    assert np.array_equal(load_features(p), values)


def test_header_and_rows(tmp_path):
    p = write(tmp_path, "FMAT v1 2 3\n1 2 3\n4 5 6\n")
    out = load_features(p)
    assert out.shape == (2, 3)
    assert np.array_equal(out, [[1, 2, 3], [4, 5, 6]])


def test_blank_lines_between_rows_are_ignored(tmp_path):
    p = write(tmp_path, "FMAT v1 2 2\n1 2\n\n3 4\n")
    assert np.array_equal(load_features(p), [[1, 2], [3, 4]])


def test_bad_magic_rejected(tmp_path):
    p = write(tmp_path, "GMAT v1 1 1\n0\n")
    with pytest.raises(ValueError, match="FMAT v1"):
        load_features(p)


def test_wrong_version_rejected(tmp_path):
    p = write(tmp_path, "FMAT v2 1 1\n0\n")
    with pytest.raises(ValueError, match="FMAT v1"):
        load_features(p)


def test_non_integer_dims_rejected(tmp_path):
    p = write(tmp_path, "FMAT v1 two 3\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_features(p)


def test_zero_dims_rejected(tmp_path):
    p = write(tmp_path, "FMAT v1 0 4\n")
    with pytest.raises(ValueError, match="positive"):
        load_features(p)


def test_row_count_mismatch_reported(tmp_path):
    p = write(tmp_path, "FMAT v1 3 2\n1 2\n3 4\n")
    with pytest.raises(ValueError, match="promises 3 rows, file has 2"):
        load_features(p)


def test_short_row_names_one_based_position(tmp_path):
    p = write(tmp_path, "FMAT v1 2 3\n1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="row 2 has 2 values"):
        load_features(p)


def test_non_numeric_cell_names_row_and_column(tmp_path):
    p = write(tmp_path, "FMAT v1 1 3\n1 x 3\n")
    with pytest.raises(ValueError, match="row 1, column 2"):
        load_features(p)


def test_non_finite_values_rejected(tmp_path):
    p = write(tmp_path, "FMAT v1 1 2\n1 inf\n")
    with pytest.raises(ValueError, match="finite"):
        load_features(p)


def test_feature_map_needs_a_row():
    params = ProjectionParams(Tensor(np.ones((4, 2))), Tensor(np.zeros((1, 2))))
    with pytest.raises(ValueError, match="at least one"):
        project_features(np.zeros((0, 4)), params)


def test_projection_is_affine():
    params = ProjectionParams(
        Tensor(np.array([[1.0, 0.0], [0.0, 2.0]])), Tensor(np.array([[10.0, 20.0]]))
    )
    fm = project_features(np.array([[3.0, 4.0]]), params)
    assert np.array_equal(fm.value, [[13.0, 28.0]])
    assert fm.shape == (1, 2)


def test_projection_width_mismatch_rejected():
    params = ProjectionParams(Tensor(RNG.normal(size=(4, 8))), Tensor(np.zeros((1, 8))))
    with pytest.raises(ValueError, match="feature width 3"):
        project_features(np.zeros((2, 3)), params)


def test_projection_bias_shape_validated():
    with pytest.raises(ValueError, match="bias"):
        ProjectionParams(Tensor(np.zeros((4, 8))), Tensor(np.zeros((1, 4))))


def test_fuse_concat_stacks_rows():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.zeros((1, 3)))
    out = fuse_views(a, b, "concat")
    assert out.rows == 3
    assert np.array_equal(out.value, [[1, 1, 1], [1, 1, 1], [0, 0, 0]])


def test_fuse_mean_averages():
    a = Tensor(np.full((2, 2), 2.0))
    b = Tensor(np.full((2, 2), 4.0))
    out = fuse_views(a, b, "mean")
    assert np.array_equal(out.value, np.full((2, 2), 3.0))


def test_fuse_single_view_passthrough():
    a = Tensor(np.ones((2, 2)))
    assert fuse_views(a, None, "mean") is a


def test_fuse_width_mismatch_rejected():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((2, 4)))
    with pytest.raises(ValueError, match="width mismatch"):
        fuse_views(a, b)


def test_fuse_mean_rejects_unequal_token_counts():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 3)))
    with pytest.raises(ValueError, match="equal token counts"):
        fuse_views(a, b, "mean")


def test_fuse_unknown_mode_rejected():
    a = Tensor(np.ones((1, 2)))
    with pytest.raises(ValueError, match="unknown fusion mode"):
        fuse_views(a, a, "max")


def test_projection_gradients_flow():
    from dmdk.autograd import finite_diff_grad, parameter_gradients, relative_error, sum_all

    params = ProjectionParams(Tensor(RNG.normal(size=(3, 4))), Tensor(np.zeros((1, 4))))
    raw = RNG.normal(size=(2, 3))

    def build():
        return sum_all(project_features(raw, params))

    leaves = [params.weight, params.bias]
    grads = parameter_gradients(build(), leaves)
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), leaves)
    for leaf, num in zip(leaves, numeric):
        assert relative_error(num, grads[leaf]).max() < 1e-6
