"""JSON and CSV interchange.

Complex matrices are encoded row-major as nested lists of [re, im] pairs.
Moment files carry {"dim", "order", "moments"}; measure files carry
{"dim", "nodes", "weights"}; Schur parameter files carry {"kind", ...}
with kind one of "zero", "unitary" (scalar angle) or "matrix".

A transform CSV has the header z_re,z_im,R_00_re,R_00_im,... (d^2 entries
row-major) and one row per point in the order given; every float is
'%.17g' and every line ends in LF: a numpy kernel (`_fixed_cells`) writes the
floats with 1e-4 <= |x| < 1e17, Python's '%.17g' the rest, with the same bytes.
"""

import itertools
import json

import numpy as np

from ._linalg import numeric
from .cayley import SchurParameter, check_parameter
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
        check_parameter(defect_dims, p)
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


# rows formatted or parsed per step of the transform CSV writer and reader: the block
# bounds the kernel's arrays (40 bytes and a few words a float) and the reader's split cells
CSV_BLOCK = 128
_P10 = np.array([float(f"1e{k}") for k in range(-4, 21)])  # 1e-4..1e-1 round up, the rest exact
_PAIRS = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), np.uint16)
_LEAD = np.frombuffer(b"0.000", np.uint8)[:, None], np.array([[-1], [-1], [-2], [-3], [-4]])
_ROW = np.arange(17, dtype=np.uint8)[:, None]


def _fixed_cells(x):
    """'%.17g' of each float of x as a column of 40 bytes, NUL where empty, ending in ',': sign,
    "0." and zeros if e < 0, the 17 digits of |x| 10^(16-e) rounded (10^e <= |x| < 10^(e+1)),
    each with a slot for the point; and the mask of those left to Python: |x| outside [1e-4,
    1e17), where '%.17g' is not fixed notation, and exact ties (Python rounds them half-even)."""
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e17)
    a = np.where(ok, a, 1.0)
    e = np.searchsorted(_P10, a, side="right") - 5  # 10^e <= a < 10^(e+1), exactly
    am = np.stack([a, _P10[20 - e]])  # a and m = 10^(16-e), a m in [10^16, 10^17)
    c = 134217729.0 * am  # Veltkamp: am = hi + (am - hi), at most 26 significant bits each
    hi = c - (c - am)
    (ah, mh), (al, ml), p = hi, am - hi, am[0] * am[1]
    lo = ((ah * mh - p) + ah * ml + al * mh) + al * ml  # Dekker: a m = p + lo exactly, p >= 2^53
    fl = np.floor(lo)
    d = p.astype(np.int64) + fl.astype(np.int64) + (lo - fl > 0.5)
    bad = ~ok | (lo - fl == 0.5) | (d >= 10**17)
    cells = np.zeros((40, x.size), np.uint8)
    cells[0], cells[1:6], cells[39] = (x < 0) * np.uint8(45), _LEAD[0] * (e <= _LEAD[1]), 44
    digits = cells[6:39:2]  # the point's slot after digit k is row 7 + 2 k
    for k in range(16, 0, -2):
        q = d // 100  # with d - 100 q, faster than np.divmod
        ch = _PAIRS[d - 100 * q].view(np.uint8)
        digits[k - 1], digits[k], d = ch[::2], ch[1::2], q
    digits[0] = d + 48
    last = np.maximum((_ROW * (digits != 48)).max(0), e)  # the last digit written
    digits *= _ROW <= last
    cells[7 + 2 * np.clip(e, 0, 15), np.arange(x.size)] = 46 * ((last > e) & (e >= 0))
    return cells, bad


def transform_csv_header(dim) -> str:
    cols = ["z_re", "z_im"]
    for j in range(dim):
        for k in range(dim):
            cols += [f"R_{j}{k}_re", f"R_{j}{k}_im"]
    return ",".join(cols)


def write_transform_csv(z, values, path=None) -> str:
    """CSV of the values (N, d, d) at the points z (N,), numeric arrays (`_linalg.numeric`), one
    row per point.  Every float is written as '%.17g' (locale-free, exact round trip)."""
    z, values = numeric(z, complex, "z"), numeric(values, complex, "values")
    n, d = z.size, values.shape[-1] if values.ndim == 3 else 0
    if z.ndim != 1 or values.shape != (n, d, d) or d < 1:
        raise ValidationError(f"transform CSV needs z of shape (N,) and values of shape "
                              f"(N, d, d), d >= 1; got {z.shape} and {values.shape}")
    table = np.concatenate([z[:, None], values.reshape(n, d * d)], axis=1).view(float)
    lines = [transform_csv_header(d) + "\n"]
    for block in (table[start:start + CSV_BLOCK] for start in range(0, n, CSV_BLOCK)):
        cells, bad = _fixed_cells(block.reshape(-1))
        if bad.any():  # Python's '%.17g' spliced in: at most 24 bytes
            text = ["%.17g" % v for v in block.reshape(-1)[bad].tolist()]
            cells[:24, bad] = np.array(text, "S24").view(np.uint8).reshape(-1, 24).T
            cells[24:39, bad] = 0
        cells.reshape(40, *block.shape)[39, :, -1] = 10
        lines.append(cells.T.tobytes().translate(None, b"\0").decode())
    text = "".join(lines)
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
