"""Serialization round-trips for matrices, models, and traces."""

import csv
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import egd
from egd import io as eio
from helpers import csv_matrix_reference, random_spd


class TestMatrixBinary:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(61)
        m = rng.standard_normal((17, 5))
        m[0, 0] = -0.0
        m[1, 1] = 5e-324  # smallest subnormal survives
        path = tmp_path / "m.bin"
        eio.write_matrix_binary(path, m)
        back = eio.read_matrix(path)
        assert back.tobytes() == m.tobytes()

    def test_magic_and_layout(self, tmp_path):
        path = tmp_path / "m.bin"
        eio.write_matrix_binary(path, np.array([[1.5, -2.0]]))
        raw = path.read_bytes()
        assert raw[:4] == b"EGDM"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:16], "little") == 1
        assert int.from_bytes(raw[16:24], "little") == 2
        assert np.frombuffer(raw[24:], dtype="<f8").tolist() == [1.5, -2.0]

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        eio.write_matrix_binary(path, np.ones((3, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            eio.read_matrix(path)

    @pytest.mark.parametrize("size", [4, 23])
    def test_truncated_header_rejected(self, tmp_path, size):
        path = tmp_path / "m.bin"
        eio.write_matrix_binary(path, np.ones((1, 1)))
        path.write_bytes(path.read_bytes()[:size])
        with pytest.raises(ValueError, match=f"{size} bytes"):
            eio.read_matrix(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        eio.write_matrix_binary(path, np.ones((1, 1)))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            eio.read_matrix(path)

    def test_rejects_nonfinite_on_write(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            eio.write_matrix_binary(tmp_path / "m.bin",
                                    np.array([[np.inf, 1.0]]))


class TestMatrixCsv:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(62)
        m = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(
            -200, 200, size=(40, 3))
        path = tmp_path / "m.csv"
        eio.write_matrix_csv(path, m)
        back = eio.read_matrix(path)
        assert np.array_equal(back, m)

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("alpha,beta\n1.0,2.0\n3.0,4.0\n")
        back = eio.read_matrix(path)
        assert_allclose(back, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="inconsistent"):
            eio.read_matrix(path)

    def test_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            eio.read_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no numeric rows"):
            eio.read_matrix(path)

    def test_infinite_value_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,inf\n")
        with pytest.raises(ValueError, match="finite"):
            eio.read_matrix(path)

    @pytest.mark.parametrize("text, expected", [
        ('"1.0","2.0"\n3.0,4.0\n', [[1.0, 2.0], [3.0, 4.0]]),
        ("1.0,2.0\r\n3.0,4.0\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        (" 1.0 ,2.0\n3.0,\t4.0 \n", [[1.0, 2.0], [3.0, 4.0]]),
        ("x,y,z\n1.5,-0.0,3e-320\n", [[1.5, -0.0, 3e-320]]),
        ("1.0\n\n2.0\n \n3.0", [[1.0], [2.0], [3.0]]),
        ("1_0,2.0\n", [[10.0, 2.0]]),
    ], ids=["quoted-first-line-is-data", "crlf", "spaces", "single-row",
            "single-column", "underscore"])
    def test_cells_parsed(self, tmp_path, text, expected):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        back = eio.read_matrix(path)
        want = np.asarray(expected, dtype="<f8")
        assert back.shape == want.shape
        assert back.tobytes() == want.tobytes()
        assert back.tobytes() == csv_matrix_reference(text).tobytes()

    @pytest.mark.parametrize("text, line", [
        ("1.0,2.0\n\n3.0,oops\n", 3),
        ("1.0,2.0\r3.0,4.0\r", 1),
    ], ids=["after-blank-line", "bare-carriage-return"])
    def test_bad_line_numbered(self, tmp_path, text, line):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=f"^line {line}: "):
            eio.read_matrix(path)

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "m.csv"
        eio.write_matrix_csv(path, np.array([[-0.0, 5e-324], [1e308, 3.0]]))
        assert path.read_bytes() == b"-0.0,5e-324\n1e+308,3.0\n"


# text over the characters of numeric CSV, a header word, and cells that
# the C reader accepts, refuses (quotes, underscores), reads as infinite or
# strips where float() does not (the separator \x1f)
CSV_TOKENS = list("0123456789.eE+-,\"_ \r\n") + ["head"]
CSV_CELLS = ["1", "-0.0", "2.5e3", " 3 ", "4.", ".5", "+1", "5e-324",
             "1e308", "1e999", "1_0", '"7"', "", "head", "\x1f2"]


@st.composite
def csv_texts(draw):
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(CSV_TOKENS),
                                     max_size=40)))
    width = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from(CSV_CELLS), min_size=width,
                   max_size=width).map(",".join)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    head = draw(st.sampled_from(["", "head,head\n", '"1",2\n', " \n"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return head + end.join(rows) + draw(st.sampled_from(["", end, "\n \n"]))


def read_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return eio.read_matrix(path)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example("1,2\r3,4\r")
@example("head,1\n1,2\n \n3,4")
@given(csv_texts())
def test_csv_reader_matches_cell_parser(text):
    try:
        want = csv_matrix_reference(text)
    except (ValueError, csv.Error) as exc:
        with pytest.raises(ValueError) as err:
            read_text(text)
        # a malformed line end is reported as a ValueError naming the line
        assert str(err.value).endswith(str(exc))
        return
    got = read_text(text)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@example(np.array([[-0.0, 5e-324, 1e308, -1e308]]))
@example(np.array([[2.2250738585072014e-308], [-1.7976931348623157e308]]))
@given(hnp.arrays("<f8", hnp.array_shapes(min_dims=2, max_dims=2,
                                          max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_round_trip_bit_exact(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        eio.write_matrix_csv(path, m)
        back = eio.read_matrix(path)
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()


class TestModelFile:
    def make_model(self, seed=63):
        rng = np.random.default_rng(seed)
        comps = [
            egd.EgdParams(egd.ScatterMatrix(random_spd(3, rng)), 0.8, 2.0),
            egd.EgdParams(egd.ScatterMatrix(random_spd(3, rng)), 4.0, 0.5),
        ]
        return egd.MixtureModel(comps, np.array([0.25, 0.75]))

    def test_round_trip_exact(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        eio.write_model(path, model, {"iterations": 12, "tol": 1e-6})
        back, info = eio.read_model(path)
        assert info["iterations"] == 12
        assert np.array_equal(back.mix_probs, model.mix_probs)
        for got, want in zip(back.components, model.components):
            assert got.shape_a == want.shape_a
            assert got.scale_b == want.scale_b
            assert np.array_equal(got.scatter.entries, want.scatter.entries)

    def test_format_marker_required(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="egd-mixture-v1"):
            eio.read_model(path)

    def test_weight_sum_checked(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        eio.write_model(path, model)
        doc = json.loads(path.read_text())
        doc["components"][0]["weight"] = 0.4
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="sum to"):
            eio.read_model(path)

    def test_tiny_weight_drift_renormalized(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        eio.write_model(path, model)
        doc = json.loads(path.read_text())
        doc["components"][0]["weight"] = 0.25 + 4e-10
        path.write_text(json.dumps(doc))
        back, _ = eio.read_model(path)
        assert back.mix_probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_non_spd_scatter_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        eio.write_model(path, model)
        doc = json.loads(path.read_text())
        flat = np.asarray(doc["components"][0]["scatter"])
        doc["components"][0]["scatter"] = (-np.eye(3)).ravel().tolist()
        assert flat.size == 9
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="positive definite"):
            eio.read_model(path)

    @pytest.mark.parametrize("key", ["dim", "components", "weight", "a",
                                     "b", "scatter"])
    def test_missing_key_named(self, tmp_path, key):
        path = tmp_path / "model.json"
        eio.write_model(path, self.make_model())
        doc = json.loads(path.read_text())
        del (doc if key in doc else doc["components"][1])[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"'{key}'"):
            eio.read_model(path)

    @pytest.mark.parametrize("doc", [
        {"dim": 0}, {"dim": True}, {"dim": 3.0}, {"components": []},
        {"components": {}}, {"components": [1.0]}])
    def test_bad_top_level_rejected(self, tmp_path, doc):
        path = tmp_path / "model.json"
        eio.write_model(path, self.make_model())
        full = json.loads(path.read_text())
        full.update(doc)
        path.write_text(json.dumps(full))
        with pytest.raises(ValueError):
            eio.read_model(path)

    @pytest.mark.parametrize("key, value", [
        ("a", "1.5"), ("b", None), ("weight", True), ("a", 10 ** 400),
        ("scatter", 2.0), ("scatter", ["x"] * 9), ("scatter", [{}] * 9)],
        ids=["a-text", "b-null", "weight-bool", "a-overflow",
             "scatter-scalar", "scatter-text", "scatter-objects"])
    def test_bad_component_value_named(self, tmp_path, key, value):
        path = tmp_path / "model.json"
        eio.write_model(path, self.make_model())
        doc = json.loads(path.read_text())
        doc["components"][0][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"component 0: '{key}'"):
            eio.read_model(path)

    def test_scatter_length_checked(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        eio.write_model(path, model)
        doc = json.loads(path.read_text())
        doc["components"][0]["scatter"] = [1.0, 2.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="component 0"):
            eio.read_model(path)


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        rows = [(0, -3.5, None, 1.25, 1.9, 0.4, 0.8),
                (1, -3.2, 1e-7, 1.0, 1.1, 0.9, 1.6)]
        path = tmp_path / "trace.csv"
        eio.write_trace(path, rows)
        back = eio.read_trace(path)
        assert [r["iter"] for r in back] == [0, 1]
        assert back[0]["residual"] is None
        assert back[1]["residual"] == 1e-7
        assert back[0]["alpha"] == 1.25

    def test_header_checked(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("iter,avg_loglik\n0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            eio.read_trace(path)

    def test_report_rows_concave(self):
        data = egd.sample(
            egd.EgdParams(egd.ScatterMatrix.identity(3), 4.0, 1.0),
            300, seed=64)
        report = egd.fit_scatter(data, 4.0, 1.0,
                                 egd.FixedPointConfig(tol=1e-10))
        rows = eio.trace_rows(report)
        assert [r[0] for r in rows] == list(range(report.iterations))
        assert all(r[3] is None for r in rows)  # no step scaling
        # every row holds its iterate's residual, the last the final one
        assert [r[2] for r in rows] == report.residual_trace.tolist()
        assert rows[-1][2] == report.final_residual

    def test_report_rows_nonconcave(self, tmp_path):
        data = egd.sample(
            egd.EgdParams(egd.ScatterMatrix.identity(3), 0.6, 2.0),
            300, seed=65)
        report = egd.fit_scatter(data, 0.6, 2.0,
                                 egd.FixedPointConfig(tol=1e-10))
        rows = eio.trace_rows(report)
        assert all(r[3] is not None for r in rows)
        path = tmp_path / "trace.csv"
        eio.write_trace(path, rows)
        back = eio.read_trace(path)
        assert_allclose([r["avg_loglik"] for r in back],
                        report.loglik_trace, rtol=0.0)
        assert_allclose([r["residual"] for r in back],
                        report.residual_trace, rtol=0.0)
        iters = [r["iter"] for r in back]
        assert iters[0] == 0
        assert np.all(np.diff(iters) > 0)

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError, match="fields"):
            eio.write_trace(tmp_path / "t.csv", [(0, 1.0)])

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "trace.csv"
        eio.write_trace(path, [(0, -3.5, None, None, None, None, 0.8)])
        path.write_text(path.read_text() + "\n\n")
        assert [r["iter"] for r in eio.read_trace(path)] == [0]


# The error contract of the readers, searched over corrupt files: each file
# is read, or refused with a ValueError (OSError for the file system), with
# no other exception and no floating-point warning.
def read_corrupt(reader, raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        path.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                reader(path)
            except (ValueError, OSError):
                pass


TRACE_HEADER = ",".join(eio.TRACE_COLUMNS) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(TRACE_HEADER + "0,1\r2,,,,,\n")
@given(st.one_of(st.text(max_size=60),
                 st.lists(st.sampled_from(CSV_TOKENS), max_size=40).map(
                     lambda tokens: TRACE_HEADER + "".join(tokens))))
def test_corrupt_trace_raises_value_error(text):
    read_corrupt(eio.read_trace, text.encode("utf-8", "surrogatepass"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.binary(max_size=80))
def test_corrupt_bytes_raise_value_error(raw):
    for reader in (eio.read_matrix, eio.read_model, eio.read_trace):
        read_corrupt(reader, raw)
    # behind the magic, and behind the magic and a valid version
    for head in (b"", eio.MATRIX_VERSION.to_bytes(4, "little")):
        read_corrupt(eio.read_matrix, eio.MATRIX_MAGIC + head + raw)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def model_documents(draw):
    """A valid two-dimensional model document with up to three of its
    fields, at the top or in its component, dropped or replaced."""
    comp = {"weight": 1.0, "a": 1.5, "b": 2.0,
            "scatter": [2.0, 0.5, 0.5, 1.0]}
    doc = {"format": eio.MODEL_FORMAT, "dim": 2, "components": [comp],
           "fit_info": {}}
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from([doc, comp]))
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        elif key == "scatter":
            target[key] = draw(st.lists(JSON_VALUES, min_size=4,
                                        max_size=4))
        else:
            target[key] = draw(JSON_VALUES)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example({"format": eio.MODEL_FORMAT, "dim": 2, "components": [
    {"weight": 1.0, "a": 1.5, "b": 2.0, "scatter": [10 ** 400, 0, 0, 1]}]})
@given(model_documents())
def test_corrupt_model_raises_value_error(doc):
    read_corrupt(eio.read_model, json.dumps(doc).encode("utf-8"))
