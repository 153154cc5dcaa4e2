"""JSON and CSV interchange.

Complex matrices are encoded row-major as nested lists of [re, im] pairs.
Moment files carry {"dim", "order", "moments"}; measure files carry
{"dim", "nodes", "weights"}; Schur parameter files carry {"kind", ...}
with kind one of "zero", "unitary" (scalar angle) or "matrix".

A transform CSV has the header z_re,z_im,R_00_re,R_00_im,... (d^2 entries
row-major) and one row per point in the order given; every float is
'%.17g' and every line ends in LF.  `write_transform_csv` formats the
stacked arrays of an evaluator call with one template per block of rows.
"""

import itertools
import json

import numpy as np

from .cayley import SchurParameter
from .errors import ValidationError
from .measures import DiscreteMatrixMeasure
from .moments import MomentSequence


def encode_matrix(mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def decode_matrix(obj, context="matrix"):
    arr = _float_array(obj)
    if arr is None:
        raise ValidationError(f"{context}: not a numeric array")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(f"{context}: expected a 2-d array of [re, im] pairs")
    return _complex_of_pairs(arr)


def _complex_of_pairs(arr):
    """The complex array of an array of [re, im] pairs (last axis)."""
    # the parts of arr[..., 0] + 1j * arr[..., 1], bit for bit, without
    # multiplying by 1j, which turns an infinite imaginary part into a NaN
    out = np.empty(arr.shape[:-1], dtype=complex)
    out.real = arr[..., 0] + np.copysign(0.0, arr[..., 1])
    out.imag = arr[..., 1] + 0.0
    return out


def _decode_stack(mats, kind, symbol):
    """The decoded matrices of a JSON list, stacked; each named '{kind} {symbol}_k' in errors."""
    if not isinstance(mats, list):
        raise ValidationError(f"{kind} matrices must be given as a list")
    arr = _float_array(mats)
    if arr is not None and arr.ndim == 4 and arr.shape[3] == 2:
        return _complex_of_pairs(arr)
    for k, s in enumerate(mats):  # the first bad matrix, named
        decode_matrix(s, f"{kind} {symbol}_{k}")
    raise ValidationError(f"{kind} matrices must share one square shape")


def _is_integer(value):
    """Whether a JSON value is an integer: 2, not 2.0, "2" or true."""
    return isinstance(value, int) and not isinstance(value, bool)


def _float_array(obj):
    """A rectangular nested list of JSON numbers as a float array, else None.

    A number is an int or a float, not a bool, within float range.  Ragged
    lists end `_leaves`' descent, so their items count as leaves and fail.
    """
    shape, leaves = _leaves(obj)
    if not set(map(type, leaves)) <= {int, float}:
        return None
    try:
        return np.array(leaves, dtype=float).reshape(shape)
    except OverflowError:  # an integer past float range
        return None


def moments_to_dict(m: MomentSequence) -> dict:
    return {
        "dim": m.dim,
        "order": m.order,
        "moments": [encode_matrix(s) for s in m.moments],
    }


def moments_from_dict(obj) -> MomentSequence:
    try:
        dim, order, mats = obj["dim"], obj["order"], obj["moments"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("moment file needs dim, order and moments") from exc
    if not (_is_integer(dim) and _is_integer(order)):
        raise ValidationError(f"declared dim/order ({dim!r}, {order!r}) are not integers")
    m = MomentSequence(_decode_stack(mats, "moment", "S"))
    if m.dim != dim or m.order != order:
        raise ValidationError(
            f"declared dim/order ({dim}, {order}) do not match data "
            f"({m.dim}, {m.order})"
        )
    return m


def measure_to_dict(mu: DiscreteMatrixMeasure) -> dict:
    return {
        "dim": mu.dim,
        "nodes": [float(t) for t in mu.nodes],
        "weights": [encode_matrix(w) for w in mu.weights],
    }


def measure_from_dict(obj) -> DiscreteMatrixMeasure:
    try:
        dim, nodes, weights = obj["dim"], obj["nodes"], obj["weights"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("measure file needs dim, nodes and weights") from exc
    if not _is_integer(dim):
        raise ValidationError(f"declared dim {dim!r} is not an integer")
    weights, nodes = _decode_stack(weights, "weight", "W"), _float_array(nodes)
    if nodes is None:
        raise ValidationError("nodes or weights are not a numeric array: a node is not a "
                              "number in float range")
    mu = DiscreteMatrixMeasure(nodes=nodes, weights=weights)
    if mu.dim != dim:
        raise ValidationError(f"declared dim {dim} does not match weights ({mu.dim})")
    return mu


def schur_from_dict(obj, defect_dims) -> SchurParameter:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "zero":
        return SchurParameter.zero(defect_dims)
    if kind == "unitary":
        theta = _float_array(obj.get("theta"))
        if theta is None or theta.ndim:
            raise ValidationError("unitary Schur parameter needs a theta field that is a "
                                  "number in float range")
        return SchurParameter.scalar_unitary(float(theta), defect_dims)
    if kind == "matrix":
        p = SchurParameter(decode_matrix(obj.get("matrix"), "Schur parameter"))
        d_plus, d_minus = defect_dims
        if p.shape != (d_minus, d_plus):
            raise ValidationError(
                f"Schur parameter shape {p.shape} does not match defect dims "
                f"({d_plus}, {d_minus})"
            )
        return p
    raise ValidationError('Schur parameter kind must be "zero", "unitary" or "matrix"')


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # nested too deep
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def _leaves(obj):
    """(shape, leaves) of a nested list, descending while a level holds lists of one length."""
    shape, level = [], [obj]
    while set(map(type, level)) == {list} and len(set(map(len, level))) == 1:
        shape.append(len(level[0]))
        level = list(itertools.chain.from_iterable(level))
    return tuple(shape), tuple(level)


def _float_template(shape, depth):
    """json's layout of a float array of this shape `depth` deep, a '%r' per leaf."""
    item = _float_template(shape[1:], depth + 1) if len(shape) > 1 else "%r"
    nl = "\n" + "  " * depth
    return "[" + nl + "  " + ("," + nl + "  ").join([item] * shape[0]) + nl + "]"


def _dumps(obj, depth):
    """`json.dumps(obj, indent=2, sort_keys=True)` as it reads nested `depth` deep.

    A float array (every `encode_matrix` output) is one '%' on its template,
    as json writes floats by `repr`; json writes the rest, and arrays with nan or inf.
    """
    nl = "\n" + "  " * depth
    inner = nl + "  "
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        items = [json.dumps(k) + ": " + _dumps(obj[k], depth + 1) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(obj) is list and obj:
        shape, leaves = _leaves(obj)
        if set(map(type, leaves)) != {float}:
            items = [_dumps(x, depth + 1) for x in obj]
            return "[" + inner + ("," + inner).join(items) + nl + "]"
        text = _float_template(shape, depth) % leaves
        if "n" not in text:
            return text
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def dump_json(obj, path=None) -> str:
    """The text of `json.dumps(obj, indent=2, sort_keys=True)`; written with a LF to path."""
    text = _dumps(obj, 0)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def load_moments(path) -> MomentSequence:
    return moments_from_dict(load_json(path))


def save_moments(m: MomentSequence, path) -> str:
    return dump_json(moments_to_dict(m), path)


def load_measure(path) -> DiscreteMatrixMeasure:
    return measure_from_dict(load_json(path))


def save_measure(mu: DiscreteMatrixMeasure, path) -> str:
    return dump_json(measure_to_dict(mu), path)


# rows formatted or parsed per step of the transform CSV writer and reader:
# the whole body at once would hold about 30 bytes per float as Python
# floats, and 70 as split cells
CSV_BLOCK = 128


def transform_csv_header(dim) -> str:
    cols = ["z_re", "z_im"]
    for j in range(dim):
        for k in range(dim):
            cols += [f"R_{j}{k}_re", f"R_{j}{k}_im"]
    return ",".join(cols)


def write_transform_csv(z, values, path=None) -> str:
    """CSV of the values (N, d, d) at the points z (N,), one row per point.

    Every float is written as '%.17g' (locale-free, exact round trip).
    """
    z = np.ascontiguousarray(z, dtype=complex)
    values = np.ascontiguousarray(values, dtype=complex)
    n, d = z.size, values.shape[-1] if values.ndim == 3 else 0
    if z.ndim != 1 or values.shape != (n, d, d) or d < 1:
        raise ValidationError(f"transform CSV needs z of shape (N,) and values of shape "
                              f"(N, d, d), d >= 1; got {z.shape} and {values.shape}")
    table = np.concatenate(
        [z.view(float).reshape(n, 2), values.reshape(n, d * d).view(float)], axis=1
    )
    row = ",".join(["%.17g"] * (2 + 2 * d * d))
    lines = [transform_csv_header(d)]
    for start in range(0, n, CSV_BLOCK):
        block = table[start:start + CSV_BLOCK]
        lines.append("\n".join([row] * len(block)) % tuple(block.ravel().tolist()))
    lines.append("")  # so that the last row ends in LF too
    text = "\n".join(lines)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def read_transform_csv(path):
    """Parse a transform CSV back into (z, R) pairs; every cell must be finite."""
    with open(path, encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty CSV")
    header, body = lines[0][1], lines[1:]
    ncols = len(header.split(","))
    dim = int(round(np.sqrt(max(ncols - 2, 0) / 2)))
    if dim < 1 or 2 + 2 * dim * dim != ncols:
        raise ValidationError(f"{path}: column count {ncols} is not 2 + 2 d^2")
    table = np.empty((len(body), ncols))
    for start in range(0, len(body), CSV_BLOCK):
        block = body[start:start + CSV_BLOCK]
        rows = [ln.split(",") for _, ln in block]
        for (no, _), cells in zip(block, rows):
            if len(cells) != ncols:
                raise ValidationError(
                    f"{path}: line {no} has {len(cells)} columns, expected {ncols}"
                )
        try:
            table[start:start + len(rows)] = rows
        except ValueError:
            for (no, _), cells in zip(block, rows):
                try:
                    np.array(cells, dtype=float)
                except ValueError as exc:
                    raise ValidationError(f"{path}: line {no}: {exc}") from exc
            raise
        nonfinite = ~np.isfinite(table[start:start + len(rows)]).all(axis=1)
        if nonfinite.any():
            no = block[int(nonfinite.argmax())][0]
            raise ValidationError(f"{path}: line {no} has a non-finite value")
    entries = table.view(complex)
    return list(zip(entries[:, 0].tolist(), entries[:, 1:].reshape(-1, dim, dim)))
