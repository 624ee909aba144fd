import re

import numpy as np
import pytest

from dmdk import features
from dmdk.autograd import Tensor
from dmdk.features import ProjectionParams, load_features, project_features
from dmdk.graph import default_base_graph_path, load_base_graph
from dmdk.model import (
    AblationMode,
    FusionWeights,
    ModelSpec,
    PreparedRecord,
    ReportModel,
    encode_batch,
    generate_for_records,
    prepare_record,
    train,
)
from dmdk.text import CorpusRecord, Vocabulary, decode_utf8, load_corpus

from conftest import make_config, save_features

RNG = np.random.default_rng(31)


def write(tmp_path, text, name="f.fmat"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_bad_headers_and_rows_name_the_file(tmp_path):
    p = write(tmp_path, "FMAT v1 2 3\n1 2 3\n4 five 6\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: non-numeric value 'five'")):
        load_features(p)
    for header in ("FMAT v2 2 3\n", "FMAT v1 2 x\n", "FMAT v1 2 0\n"):
        with pytest.raises(ValueError, match=re.escape(f"{p}: ")):
            load_features(write(tmp_path, header))


def test_rows_are_checked_before_the_matrix_is_allocated(tmp_path):
    """A header may claim any size; the rows, not the header, size the matrix."""
    p = write(tmp_path, f"FMAT v1 2 {10**12}\n1 2 3\n4 5 6\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: row 1 has 3 values, expected {10**12}")):
        load_features(p)
    p = write(tmp_path, f"FMAT v1 {10**12} 3\n1 2 3\n")
    with pytest.raises(ValueError, match=f"promises {10**12} rows, file has 1"):
        load_features(p)


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


def parse_each_cell(path, lines):
    """Cells to matrix by the per-cell ``float()`` loop ``load_features`` ran
    before one numpy call parsed them all, refusing the cells with a non-ASCII
    character or an underscore that ``float()`` would read."""
    for r, cells in enumerate(lines):
        for c, cell in enumerate(cells):
            try:
                if not cell.isascii() or "_" in cell:
                    raise ValueError(cell)
                cells[c] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {cell!r} at row {r + 1}, column {c + 1}"
                ) from None
    out = np.array(lines)
    if not np.isfinite(out).all():
        raise ValueError(f"{path}: feature values must be finite")
    return out


# tokens float() accepts in unusual spellings, then non-finite ones, then refused ones
ODD_CELLS = ["1_0", "\uff11\uff12", "\u0661\u0662", "+.5", "5.", "-0", "1e-400", "2.5e-324",
             "infinity", "-1e400", "nan", "\x00", "1\x00", "1__0", "0x10", "five"]


@pytest.mark.parametrize("cell", [None] + ODD_CELLS)
def test_cells_parse_as_the_per_cell_loop_did(tmp_path, cell):
    scales = 10.0 ** RNG.integers(-320, 300, size=(4, 6))
    lines = [[repr(float(x)) for x in row] for row in RNG.normal(size=(4, 6)) * scales]
    if cell is not None:
        lines[2][3] = cell
    p = write(tmp_path, "FMAT v1 4 6\n" + "\n".join(" ".join(row) for row in lines) + "\n")
    try:
        expected = parse_each_cell(p, lines)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            load_features(p)
        assert str(got.value) == str(e)
    else:
        assert load_features(p).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "row, column, cell",
    [("1_0 1 3", 1, "1_0"), ("1 \uff11 3", 2, "\uff11"), ("1 1 \u0663", 3, "\u0663"), ("1_0 \uff11 \u0663", 1, "1_0")],
    ids=["underscore", "full-width digit", "Arabic-Indic digit", "all three"],
)
def test_cells_that_float_reads_but_are_not_ascii_decimals_are_refused(tmp_path, row, column, cell):
    p = write(tmp_path, f"FMAT v1 2 3\n4 5 6\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: non-numeric value {cell!r} at row 2, column {column}")):
        load_features(p)


def test_a_non_ascii_separator_is_refused_with_its_line(tmp_path):
    # str.split() takes U+3000 for a space, so no cell holds it
    p = write(tmp_path, "FMAT v1 2 2\n1 2\n3\u30004\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: line 3 separates values by a non-ASCII character")):
        load_features(p)


def test_non_finite_values_rejected(tmp_path):
    p = write(tmp_path, "FMAT v1 1 2\n1 inf\n")
    with pytest.raises(ValueError, match="finite"):
        load_features(p)


@pytest.fixture
def parses(monkeypatch):
    """The list of files parsed since the test began."""
    parsed = []

    def spy(data, where):
        parsed.append(where)
        return decode_utf8(data, where)

    monkeypatch.setattr(features, "decode_utf8", spy)
    return parsed


def test_loading_a_file_keeps_nothing(tmp_path, parses):
    """Generation reads views through load_features alone: each read parses."""
    p = write(tmp_path, "FMAT v1 2 3\n1 2 3\n4 5 6\n")
    assert np.array_equal(load_features(p), load_features(p))
    assert parses == [str(p), str(p)]
    assert features._KEPT == {}


def test_a_kept_view_is_returned_without_a_parse(tmp_path, parses):
    p = write(tmp_path, "FMAT v1 2 3\n1 2 3\n4 5 6\n")
    [[kept]] = features.keep_views([[p]])
    assert load_features(p) is kept
    assert parses == [str(p)]


def test_two_paths_with_identical_bytes_parse_once(tmp_path, parses):
    a = write(tmp_path, "FMAT v1 1 2\n1 2\n", "a.fmat")
    b = write(tmp_path, "FMAT v1 1 2\n1 2\n", "b.fmat")
    [[va], [vb]] = features.keep_views([[a], [b]])
    assert va is vb
    assert parses == [str(a)]


def test_kept_views_are_replaced_by_the_next_call(tmp_path, parses):
    a = write(tmp_path, "FMAT v1 1 2\n1 2\n", "a.fmat")
    b = write(tmp_path, "FMAT v1 1 2\n3 4\n", "b.fmat")
    [[va]] = features.keep_views([[a]])
    assert features.keep_views([[a], [b]])[0][0] is va
    [[vb]] = features.keep_views([[b]])
    [kept] = features._KEPT.values()
    assert kept is vb and load_features(b) is vb
    load_features(a)
    assert parses == [str(a), str(b), str(a)]


def test_a_path_rewritten_with_other_bytes_of_the_same_length_reads_the_new_values(tmp_path, parses):
    p = write(tmp_path, "FMAT v1 1 2\n1 2\n")
    assert np.array_equal(features.keep_views([[p]])[0][0], [[1, 2]])
    p.write_text("FMAT v1 1 2\n3 4\n", encoding="utf-8")
    assert np.array_equal(load_features(p), [[3, 4]])
    assert parses == [str(p), str(p)]


def test_a_path_rewritten_malformed_after_a_good_load_still_names_the_file(tmp_path, parses):
    p = write(tmp_path, "FMAT v1 1 2\n1 2\n")
    [[good]] = features.keep_views([[p]])
    p.write_text("FMAT v1 1 2\n1 x\n", encoding="utf-8")
    for load in (load_features, lambda q: features.keep_views([[q]])):
        with pytest.raises(ValueError, match=re.escape(f"{p}: non-numeric value 'x' at row 1, column 2")):
            load(p)
    [kept] = features._KEPT.values()
    assert kept is good  # a failed call keeps what was kept
    assert len(parses) == 3


def test_loaded_and_kept_matrices_are_read_only(tmp_path):
    p = write(tmp_path, "FMAT v1 1 2\n1 2\n")
    for out in (load_features(p), features.keep_views([[p]])[0][0]):
        assert not out.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 5.0


def test_a_full_width_view_loads_bitwise_equal_to_its_source(tmp_path, parses):
    """49 x 1024 written as repr(float) text, as the benchmark's inputs are."""
    values = RNG.normal(size=(49, 1024))
    p = tmp_path / "v.fmat"
    save_features(p, values)
    assert load_features(p).tobytes() == values.tobytes()
    assert features.keep_views([[p]])[0][0].tobytes() == values.tobytes()
    assert load_features(p).tobytes() == values.tobytes()
    assert len(parses) == 2


def test_training_parses_each_distinct_feature_file_once(overfit_corpus, parses):
    """Records 1, 4 and 7 of the overfit corpus reuse the files of 0, 3 and 6;
    a second train() on the same files parses nothing."""
    records = load_corpus(overfit_corpus)
    base = load_base_graph(default_base_graph_path())
    train(records, make_config(d=8, epochs=0), base)
    assert parses == [str(overfit_corpus.parent / f"feats/r{i:02d}.fmat") for i in (0, 2, 3, 5, 6)]
    train(records, make_config(d=8, epochs=0), base)
    assert len(parses) == 5


def test_generating_for_the_trained_records_parses_nothing(overfit_corpus, parses):
    records = load_corpus(overfit_corpus)
    base = load_base_graph(default_base_graph_path())
    model, _ = train(records, make_config(d=8, epochs=2), base)
    parses.clear()
    first = generate_for_records(model, records[:1], base)
    assert generate_for_records(model, records[:1], base) == first
    assert parses == []


def test_generating_for_records_not_trained_on_keeps_their_views_out(overfit_corpus, parses):
    records = load_corpus(overfit_corpus)
    base = load_base_graph(default_base_graph_path())
    model, _ = train(records[:4], make_config(d=8, epochs=0), base)
    kept = list(features._KEPT.items())
    parses.clear()
    generate_for_records(model, records[5:6], base)
    generate_for_records(model, records[5:6], base)
    assert parses == [str(overfit_corpus.parent / "feats/r05.fmat")] * 2
    assert [(k, id(v)) for k, v in features._KEPT.items()] == [(k, id(v)) for k, v in kept]


def test_projection_is_affine():
    params = ProjectionParams(
        Tensor(np.array([[1.0, 0.0], [0.0, 2.0]])), Tensor(np.array([[10.0, 20.0]]))
    )
    fm = project_features(np.array([[3.0, 4.0]]), params)
    assert np.array_equal(fm.value, [[13.0, 28.0]])
    assert fm.shape == (1, 2)


def test_projection_width_mismatch_rejected():
    params = ProjectionParams(Tensor(RNG.normal(size=(4, 8))), Tensor(np.zeros((1, 8))))
    with pytest.raises(ValueError, match=r"matmul shape mismatch: \(2, 3\) x \(4, 8\)"):
        project_features(np.zeros((2, 3)), params)


# How encode_batch stacks a record's two views. Under the base ablation W' is
# the stacked visual rows themselves, so the tests read the stacking from it.


def base_model():
    spec = ModelSpec(
        d=4, heads=2, decoder_layers=1, gcn_layers=1, ffn_multiplier=1, feature_dim=3,
        fusion=FusionWeights.from_raw(1.0, 1.0, 1.0), ablation=AblationMode.BASE,
    )
    return ReportModel(Vocabulary(list(Vocabulary.SPECIALS), 1), ["root"], spec, rng=np.random.default_rng(3))


def fused(model, *views_of_each_record):
    """The fused visual rows of a batch and each record's row count in them."""
    batch = [PreparedRecord(f"r{i}", list(v), [], None) for i, v in enumerate(views_of_each_record)]
    _, w_enh, _, rows = encode_batch(model, batch)
    return w_enh.value, rows


def projected(raw, model):
    return raw @ model.proj.weight.value + model.proj.bias.value


def test_fuse_concat_stacks_rows():
    model = base_model()
    a, b, c = RNG.normal(size=(2, 3)), RNG.normal(size=(1, 3)), RNG.normal(size=(2, 3))
    x, rows = fused(model, [a, b], [c])
    assert rows == [3, 2]
    assert np.array_equal(x, projected(np.concatenate([a, b, c]), model))


def test_fuse_single_view_passthrough():
    model = base_model()
    a, b = RNG.normal(size=(2, 3)), RNG.normal(size=(1, 3))
    x, rows = fused(model, [a], [b])
    assert rows == [2, 1]
    assert np.array_equal(x, projected(np.concatenate([a, b]), model))


def test_fuse_width_mismatch_rejected():
    model = base_model()
    rec = CorpusRecord("r", [])
    views = [np.ones((2, 3)), np.ones((2, 4))]
    with pytest.raises(ValueError, match="'r': feature width 4 does not match configured feature_dim 3"):
        prepare_record(rec, model.vocab, None, [], model.spec, with_report=False, raw_views=views)


def test_projection_gradients_flow():
    from dmdk.autograd import finite_diff_grad, relative_error, sum_all

    from oracles import parameter_gradients

    params = ProjectionParams(Tensor(RNG.normal(size=(3, 4))), Tensor(np.zeros((1, 4))))
    raw = RNG.normal(size=(2, 3))

    def build():
        return sum_all(project_features(raw, params))

    leaves = [params.weight, params.bias]
    grads = parameter_gradients(build(), leaves)
    numeric = finite_diff_grad(lambda: float(build().value[0, 0]), leaves)
    for leaf, num in zip(leaves, numeric):
        assert relative_error(num, grads[leaf]).max() < 1e-6
