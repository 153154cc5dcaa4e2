import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import momentkit as mk
from momentkit import io
from conftest import random_measure


class TestMatrixCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert_allclose(io.decode_matrix(io.encode_matrix(mat)), mat)

    def test_same_floats_as_per_entry_encoding(self):
        mat = np.array([[-0.0 + 5e-324j, 1 / 3 - 1e308j], [0.1 + 0.2j, -2.5 - 0.0j]])
        want = [[[float(v.real), float(v.imag)] for v in row] for row in mat]
        got = io.encode_matrix(mat)
        assert json.dumps(got) == json.dumps(want)
        assert all(type(x) is float for row in got for pair in row for x in pair)

    def test_decode_keeps_the_bits_of_the_complex_expression(self):
        values = [0.0, -0.0, 1.0, -1.0, 2.5e-300, -3e300]
        pairs = np.array([[re, im] for re in values for im in values])
        want = pairs[:, 0] + 1j * pairs[:, 1]  # the signs of zero parts included
        assert io.decode_matrix([pairs.tolist()])[0].tobytes() == want.tobytes()

    def test_rejects_garbage(self):
        with pytest.raises(mk.ValidationError):
            io.decode_matrix([["a", "b"]])
        with pytest.raises(mk.ValidationError):
            io.decode_matrix([[1.0, 2.0]])


# parts a decoded entry may hold: signed zeros, subnormals, and in the imaginary
# part an infinity or NaN, which multiplying by 1j would mix into the real part
PART_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
IMAG_FLOATS = PART_FLOATS | st.sampled_from([float("inf"), -float("inf"), float("nan")])


class TestDecodeStack:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), k=st.integers(1, 5))
    def test_one_pass_is_the_per_matrix_stack(self, data, d, k):
        re = data.draw(hnp.arrays(np.float64, (k, d, d), elements=PART_FLOATS))
        im = data.draw(hnp.arrays(np.float64, (k, d, d), elements=IMAG_FLOATS))
        mats = np.stack([re, im], axis=-1).tolist()
        want = np.stack([io.decode_matrix(m) for m in mats])
        got = io._decode_stack(mats, "moment", "S")
        assert got.shape == want.shape == (k, d, d)
        assert got.tobytes() == want.tobytes()

    def test_integer_entries_decode_as_floats(self):
        mats = [[[[1, 0], [2, -3]], [[2, 3], [4, 0]]], [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]
        want = np.stack([io.decode_matrix(m) for m in mats])
        assert io._decode_stack(mats, "moment", "S").tobytes() == want.tobytes()


class TestMomentFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = mk.generate_from_measure(random_measure(rng, 2, 3), 4)
        path = tmp_path / "moments.json"
        io.save_moments(m, path)
        loaded = io.load_moments(path)
        assert loaded.dim == m.dim and loaded.order == m.order
        assert_allclose(loaded.moments, m.moments, atol=1e-15)

    def test_header_mismatch_rejected(self, tmp_path):
        m = mk.MomentSequence([1, 0, 1])
        obj = io.moments_to_dict(m)
        obj["order"] = 4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(mk.ValidationError):
            io.load_moments(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 1}))
        with pytest.raises(mk.ValidationError):
            io.load_moments(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(mk.ValidationError):
            io.load_moments(path)
        path.write_bytes(b'{"dim": 1, "order": 2, "moments": "\xe9"}')  # not UTF-8
        with pytest.raises(mk.ValidationError, match="invalid JSON"):
            io.load_moments(path)


class TestMeasureFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        mu = random_measure(rng, 2, 3)
        path = tmp_path / "measure.json"
        io.save_measure(mu, path)
        loaded = io.load_measure(path)
        assert_allclose(loaded.nodes, mu.nodes)
        assert_allclose(loaded.weights, mu.weights, atol=1e-15)


# floats a JSON output may hold, with the edge cases of repr and of json's spelling
JSON_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e308,
                     -1e308, 0.1, 1 / 3]),
    st.floats(),
)
FLOAT_ARRAYS = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4),
    elements=JSON_FLOATS,
).map(lambda a: a.tolist())
# lists of float arrays of unequal shapes, some with as many floats as a rectangular one
RAGGED_FLOAT_LISTS = st.lists(FLOAT_ARRAYS | JSON_FLOATS, min_size=2, max_size=4)
JSON_VALUES = st.recursive(
    st.one_of(JSON_FLOATS, st.integers(), st.booleans(), st.none(), st.text(), FLOAT_ARRAYS,
              RAGGED_FLOAT_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(), children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
    ),
    max_leaves=30,
)


def stdlib_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


class TestDumpJson:
    @settings(max_examples=300, deadline=None)
    @given(obj=JSON_VALUES)
    @example(obj=[[[1.0, 2.0]], [[3.0], [4.0]]])
    @example(obj={"é": [[1.0, 2], [3.0, True]], "a": [[], [[]]], "": [-0.0, float("nan")]})
    def test_same_text_as_the_json_module(self, obj):
        assert io.dump_json(obj) == stdlib_json(obj)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 28), depth=st.integers(0, 3))
    def test_encoded_matrices_at_any_depth(self, data, n, depth):
        parts = data.draw(hnp.arrays(np.float64, (n, n, 2), elements=JSON_FLOATS))
        obj = io.encode_matrix(parts.view(complex)[..., 0])
        for level in range(depth):
            obj = {"m": obj, "dim": n} if level % 2 else [obj, [obj]]
        assert io.dump_json(obj) == stdlib_json(obj)

    def test_float_lists_of_every_length(self):
        for n in range(1, 130):
            obj = {"v": [float(k) for k in range(n)]}
            assert io.dump_json(obj) == stdlib_json(obj)


ONE = io.encode_matrix([[1.0]])
EYE2 = io.encode_matrix(np.eye(2))


@pytest.mark.parametrize("read, obj, message", [
    (io.measure_from_dict, {"dim": 1, "nodes": [0.0]}, "needs dim, nodes and weights"),
    (io.measure_from_dict, {"dim": 1, "nodes": [0.0, 1.0], "weights": [ONE, EYE2]},
     "weight matrices must share one square shape"),
    (io.measure_from_dict, {"dim": 2, "nodes": [0.0], "weights": [ONE]},
     r"declared dim 2 does not match weights \(1\)"),
    (lambda obj: io.schur_from_dict(obj, (1, 1)), {"kind": "unitary"}, "needs a theta"),
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": [ONE, EYE2, ONE]},
     "moment matrices must share one square shape"),
    # malformed fields of a well-formed JSON file, each refused, none a TypeError
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": 5},
     "moment matrices must be given as a list"),
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": None},
     "moment matrices must be given as a list"),
    (io.measure_from_dict, {"dim": 1, "nodes": [0.0], "weights": 3},
     "weight matrices must be given as a list"),
    (io.measure_from_dict, {"dim": 1, "nodes": "ab", "weights": [ONE, ONE]},
     "nodes or weights are not a numeric array"),
    (lambda obj: io.schur_from_dict(obj, (1, 1)), {"kind": "unitary", "theta": "x"},
     "needs a theta field that is a number"),
    (lambda obj: io.schur_from_dict(obj, (1, 1)), {"kind": "unitary", "theta": None},
     "needs a theta field that is a number"),
    # a stack the one-pass conversion cannot take names its first bad matrix
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": [ONE, [[[1.0, 0.0]], [1.0]], ONE]},
     "moment S_1: not a numeric array"),
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": [ONE, ONE, [[["a", 0.0]]]]},
     "moment S_2: not a numeric array"),
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": [ONE, [[[1.0, 0.0, 0.0]]], "x"]},
     r"moment S_1: expected a 2-d array of \[re, im\] pairs"),
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": [[[[1.0, 0.0, 0.0]]]] * 3},
     r"moment S_0: expected a 2-d array of \[re, im\] pairs"),
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": [[ONE]] * 3},
     r"moment S_0: expected a 2-d array of \[re, im\] pairs"),
    (io.measure_from_dict, {"dim": 1, "nodes": [0.0, 1.0], "weights": [ONE, [1.0, 0.0]]},
     r"weight W_1: expected a 2-d array of \[re, im\] pairs"),
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": []},
     "moment matrices must share one square shape"),
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": [[[[10 ** 400, 0.0]]], ONE, ONE]},
     "moment S_0: not a numeric array"),
    # theta only as a JSON number, dim and order only as JSON integers
    (lambda obj: io.schur_from_dict(obj, (1, 1)), {"kind": "unitary", "theta": "1.2"},
     "needs a theta field that is a number"),
    (lambda obj: io.schur_from_dict(obj, (1, 1)), {"kind": "unitary", "theta": True},
     "needs a theta field that is a number"),
    (io.moments_from_dict, {"dim": True, "order": 2.0, "moments": [ONE, ONE, ONE]},
     r"declared dim/order \(True, 2.0\) are not integers"),
    (io.moments_from_dict, {"dim": 1, "order": "2", "moments": [ONE, ONE, ONE]},
     r"declared dim/order \(1, '2'\) are not integers"),
    (io.measure_from_dict, {"dim": True, "nodes": [0.0], "weights": [ONE]},
     "declared dim True is not an integer"),
    (io.measure_from_dict, {"dim": 1.0, "nodes": [0.0], "weights": [ONE]},
     "declared dim 1.0 is not an integer"),
    # every leaf a JSON number: strings and booleans numpy would convert are refused,
    # and so is an integer past float range
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": [[[["1.0", "0.0"]]], ONE, ONE]},
     "moment S_0: not a numeric array"),
    (io.moments_from_dict, {"dim": 1, "order": 2, "moments": [ONE, [[[False, 0.0]]], ONE]},
     "moment S_1: not a numeric array"),
    (lambda obj: io.schur_from_dict(obj, (1, 1)),
     {"kind": "matrix", "matrix": [[[True, 0.0]]]}, "Schur parameter: not a numeric array"),
    (io.measure_from_dict, {"dim": 1, "nodes": ["0.5"], "weights": [ONE]},
     "nodes or weights are not a numeric array"),
    (io.measure_from_dict, {"dim": 1, "nodes": [False, True], "weights": [ONE, ONE]},
     "nodes or weights are not a numeric array"),
    (io.measure_from_dict, {"dim": 1, "nodes": [10**400], "weights": [ONE]},
     "nodes or weights are not a numeric array"),
    (lambda obj: mk.DiscreteMatrixMeasure(**obj), {"nodes": [10**400], "weights": [[[1.0]]]},
     "nodes: not a 1-d float array"),
    (lambda obj: io.schur_from_dict(obj, (1, 1)), {"kind": "unitary", "theta": 10**400},
     "needs a theta field that is a number in float range"),
    (lambda obj: io.schur_from_dict(obj, (1, 1)), {"kind": "unitary", "theta": [0.5]},
     "needs a theta field that is a number"),
    (lambda obj: mk.MomentSequence(**obj), {"moments": [10**400, 0, 1]},
     "moments: not a numeric array"),
])
def test_malformed_dict_rejected(read, obj, message):
    with pytest.raises(mk.ValidationError, match=message):
        read(obj)


class TestSchurFiles:
    def test_zero_kind(self):
        p = io.schur_from_dict({"kind": "zero"}, (2, 2))
        assert p.shape == (2, 2) and not np.any(p.matrix)

    def test_unitary_kind(self):
        p = io.schur_from_dict({"kind": "unitary", "theta": 0.7}, (1, 1))
        assert p.matrix[0, 0] == pytest.approx(np.exp(0.7j))

    def test_unitary_theta_may_be_a_json_integer(self):
        p = io.schur_from_dict({"kind": "unitary", "theta": 2}, (1, 1))
        assert p.matrix[0, 0] == np.exp(2.0j)

    def test_matrix_kind_roundtrip(self):
        p = mk.SchurParameter([[0.3, 0.1j], [0.0, -0.2]])
        again = io.schur_from_dict({"kind": "matrix", "matrix": io.encode_matrix(p.matrix)},
                                   (2, 2))
        assert_allclose(again.matrix, p.matrix)

    def test_shape_validated_at_load(self):
        with pytest.raises(mk.ParameterError, match="does not match defect dims"):
            io.schur_from_dict({"kind": "matrix", "matrix": io.encode_matrix(np.eye(3))}, (1, 1))
        with pytest.raises(mk.ParameterError):
            io.schur_from_dict({"kind": "unitary", "theta": 0.0}, (1, 2))

    def test_unknown_kind_rejected(self):
        with pytest.raises(mk.ValidationError):
            io.schur_from_dict({"kind": "mystery"}, (1, 1))


class TestTransformCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = [
            mk.NevanlinnaValue(
                z=complex(rng.normal(), abs(rng.normal()) + 0.1),
                R=rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            )
            for _ in range(4)
        ]
        path = tmp_path / "transform.csv"
        io.write_transform_csv([v.z for v in values], [v.R for v in values], path)
        rows = io.read_transform_csv(path)
        assert len(rows) == 4
        for (z, r), val in zip(rows, values):
            assert z == val.z
            assert_allclose(r, val.R)

    def test_17_digit_floats(self):
        text = io.write_transform_csv([1 / 3 + 1j], np.array([[[1 / 7 + 0j]]]))
        assert "0.33333333333333331" in text
        assert "0.14285714285714285" in text


# floats a transform value may hold, with the edge cases of '.17g' formatting
CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.0 ** 0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def reference_csv(z, values):
    """The transform CSV formatted one float at a time."""
    d = values.shape[-1]
    lines = [io.transform_csv_header(d)]
    for zk, r in zip(z, values):
        cells = [zk.real, zk.imag]
        for entry in r.reshape(-1):
            cells += [entry.real, entry.imag]
        lines.append(",".join(format(float(x), ".17g") for x in cells))
    return "\n".join(lines) + "\n"


class TestTransformCsvFormat:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.integers(1, 4), n=st.integers(1, 50))
    def test_matches_per_float_format_and_reads_back_exactly(self, tmp_path_factory, data, d, n):
        floats = data.draw(hnp.arrays(np.float64, (n, 2 + 2 * d * d), elements=CSV_FLOATS))
        table = floats.view(complex)
        z, values = table[:, 0], table[:, 1:].reshape(n, d, d)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        text = io.write_transform_csv(z, values, path)
        assert text == reference_csv(z, values)
        assert path.read_bytes() == text.encode("utf-8")  # LF line ends, no CR
        rows = io.read_transform_csv(path)
        got = np.array([[zk, *r.reshape(-1)] for zk, r in rows]).view(float)
        # bitwise, so that the sign of zero counts too
        assert np.array_equal(got.view(np.int64), floats.view(np.int64))

    def test_empty_grid_is_the_header_alone(self, tmp_path):
        path = tmp_path / "empty.csv"
        text = io.write_transform_csv(np.zeros(0, complex), np.zeros((0, 2, 2), complex), path)
        assert text == io.transform_csv_header(2) + "\n"
        assert io.read_transform_csv(path) == []
        path.write_text(io.transform_csv_header(2) + "\n\n", encoding="utf-8")
        assert io.read_transform_csv(path) == []

    @pytest.mark.parametrize("n", [1, io.CSV_BLOCK, io.CSV_BLOCK + 1])
    def test_same_bytes_at_block_edges(self, n):
        rng = np.random.default_rng(n)
        z = rng.standard_normal(n) + 1j * rng.random(n)
        values = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
        assert io.write_transform_csv(z, values) == reference_csv(z, values)

    @pytest.mark.parametrize("z_shape, values_shape", [
        ((3,), (2, 2, 2)),
        ((3,), (3, 2, 3)),
        ((3,), (3, 4)),
        ((1, 3), (3, 2, 2)),
        ((2,), (2, 0, 0)),
    ])
    def test_mismatched_shapes_rejected(self, z_shape, values_shape):
        with pytest.raises(mk.ValidationError,
                           match=re.escape(f"got {z_shape} and {values_shape}")):
            io.write_transform_csv(np.zeros(z_shape, complex), np.zeros(values_shape, complex))

    def test_rows_across_blocks(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 2 * io.CSV_BLOCK + 3
        z = rng.standard_normal(n) + 1j * rng.random(n)
        values = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        path = tmp_path / "t.csv"
        assert io.write_transform_csv(z, values, path) == reference_csv(z, values)
        rows = io.read_transform_csv(path)
        assert [r[0] for r in rows] == z.tolist()
        assert np.array_equal(np.array([r[1] for r in rows]), values)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[io.CSV_BLOCK + 5] = lines[io.CSV_BLOCK + 5].replace(",", ",nope,", 1)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(mk.ValidationError, match=f"line {io.CSV_BLOCK + 6} has 11 columns"):
            io.read_transform_csv(path)
        lines[io.CSV_BLOCK + 5] = lines[io.CSV_BLOCK + 5].replace(",nope,", ",nope", 1)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(mk.ValidationError, match=f"line {io.CSV_BLOCK + 6}: could not"):
            io.read_transform_csv(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1,2,3\n0,1,2\n", "line 3 has 3 columns, expected 4"),
            ("0,1,2,3\n0,1,2,3,4\n", "line 3 has 5 columns, expected 4"),
            ("0,1,2,3\n\n0,1,x,3\n", "line 4: could not convert string to float: 'x'"),
        ],
    )
    def test_bad_rows_rejected_with_line_number(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(io.transform_csv_header(1) + "\n" + body, encoding="utf-8")
        with pytest.raises(mk.ValidationError, match=message):
            io.read_transform_csv(path)

    def test_block_error_that_no_row_shows_is_reraised(self, tmp_path, monkeypatch):
        # when a block fails to convert but every row of it converts alone, the
        # block's own ValueError is raised unchanged.  Rows of text fail alone
        # wherever their block does, so a table that refuses every assignment
        # stands in for such a block
        class RefusingTable(np.ndarray):
            def __setitem__(self, key, value):
                raise ValueError("block refused")

        class NumpyWithRefusingTable:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape):
                return np.zeros(shape).view(RefusingTable)

        path = tmp_path / "t.csv"
        path.write_text(io.transform_csv_header(1) + "\n0,1,2,3\n", encoding="utf-8")
        monkeypatch.setattr(io, "np", NumpyWithRefusingTable())
        with pytest.raises(ValueError, match="^block refused$") as err:
            io.read_transform_csv(path)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV"),
        ("\n\n", "empty CSV"),
        ("z_re,z_im,R_00_re\n0,1,2\n", r"column count 3 is not 2 \+ 2 d\^2"),
        ("z\n0\n", r"column count 1 is not 2 \+ 2 d\^2"),
        ("z_re,z_im\n0,1\n", r"column count 2 is not 2 \+ 2 d\^2"),
    ])
    def test_bad_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(mk.ValidationError, match=message):
            io.read_transform_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected_with_line_number(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        rows = ["0,0.5,1,2"] * (io.CSV_BLOCK + 2)
        rows[io.CSV_BLOCK + 1] = f"{cell},0.5,1,{cell}"  # in the second block
        path.write_text("\n".join([io.transform_csv_header(1)] + rows), encoding="utf-8")
        with pytest.raises(mk.ValidationError,
                           match=f"line {io.CSV_BLOCK + 3} has a non-finite value"):
            io.read_transform_csv(path)


def kernel_table(rng):
    """A seeded float table (rows of 34, d = 4) of over 10^6 values: every case of the writer's
    numpy kernel and of Python's '%.17g', shuffled so that each 128-row block mixes them."""
    def near(x, steps):  # the floats `steps` ulps from each of x
        return (np.asarray(x).view(np.int64)[:, None] + steps).reshape(-1).view(float)

    # exact ties: for j odd, j 2^(e-17) 10^(16-e) = j 5^(16-e) / 2, exactly when j < 2^53
    e = rng.integers(-4, 16, 20_000)
    lo, hi = 10.0**e * 2.0**(17 - e), np.minimum(10.0**(e + 1) * 2.0**(17 - e), 2.0**53)
    ties = np.ldexp(2 * np.floor((lo + (hi - lo) * rng.random(e.size)) / 2) + 1, e - 17)
    ties = ties[(ties >= 10.0**e) & (ties < 10.0**(e + 1))]
    assert ties.size > 15_000 and io._fixed_cells(ties)[1].all()  # all left to Python
    parts = [
        rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(float),  # random bit patterns
        10.0 ** rng.uniform(-6, 19, 300_000),  # every magnitude of the band and past its edges
        near([float(f"1e{k}") for k in range(-323, 309)], np.arange(-4, 5)),  # 10^k, neighbours
        near([1e-4, 1e17], np.arange(-3000, 3001)),  # the band edges
        rng.integers(0, 2**63, 100_000).astype(float),  # integers up to 2^63
        np.floor(10.0 ** rng.uniform(0, 19, 100_000)),
        np.ldexp(1.0, np.arange(64))[:, None] + np.arange(-3.0, 4.0),
        [0.0, np.inf, np.nan, -np.nan, 5e-324],  # and their negatives below
        np.ldexp(rng.random(5_000), -1022),  # subnormals
        ties,
        # few significant digits: trailing zeros, and points, to drop
        rng.integers(1, 10**6, 100_000) * 2.0 ** rng.integers(-30, 1, 100_000),
        rng.integers(1, 10**6, 100_000) * 10.0 ** rng.integers(0, 12, 100_000),
    ]
    floats = np.concatenate([np.ravel(p) for p in parts])
    floats = rng.permutation(np.concatenate([floats, -floats]))
    floats = floats[: floats.size // 34 * 34]
    assert floats.size >= 10**6
    return floats.reshape(-1, 34)


class TestFixedNotationKernel:
    def test_every_block_matches_per_float_format(self):
        table = kernel_table(np.random.default_rng(36)).view(complex)
        z, values = table[:, 0], table[:, 1:].reshape(-1, 4, 4)
        got = io.write_transform_csv(z, values).split("\n")
        want = reference_csv(z, values).split("\n")
        assert len(got) == len(want)
        bad = [k for k, (g, w) in enumerate(zip(got, want)) if g != w]
        assert not bad, (bad[0], got[bad[0]], want[bad[0]])

    def test_kernel_writes_every_value_of_a_d4_grid_in_its_band(self):
        # the cli benchmark's evaluate: a d = 4 model on a 50 x 20 grid.  Python writes only
        # the values below 1e-4 (one here; none to one at the benchmark's seeds 1-10)
        model = mk.build_model(mk.generate_from_measure(
            random_measure(np.random.default_rng(5), 4, 40), 12))
        zs = (np.linspace(0.05, 3.0, 20)[:, None] * 1j + np.linspace(-3.1, 2.9, 50)).reshape(-1)
        values = model.evaluator()(zs)
        floats = np.concatenate([zs[:, None], values.reshape(-1, 16)], axis=1).view(float).ravel()
        left = io._fixed_cells(floats)[1]
        assert floats.size == 34_000 and 0 < left.sum() < 10
        assert np.array_equal(left, np.abs(floats) < 1e-4)
        assert io.write_transform_csv(zs, values) == reference_csv(zs, values)
