"""Matrix files: JsonExact is {"n": N, "entries": [[...]]} with integer or
"p/q" string entries of bounded size (MAX_ENTRY_DIGITS, which the parser
holds generator flags to as well); CsvFloat is a square grid of decimal
floats."""

from __future__ import annotations

from .cli import MAX_ENTRY_DIGITS, _within_entry_bound
from .errors import BeyondDoubleRange, ParseError


def matrix_to_jsonexact(M: DenseMatrix) -> dict:
    from .scalars import EXACT

    M = M.to_exact()
    return {
        "n": M.n_rows,
        "entries": [
            [EXACT.to_json(v) for v in M.row(i)]
            for i in range(1, M.n_rows + 1)
        ],
    }


def dump_jsonexact(M: DenseMatrix) -> str:
    import json

    return json.dumps(matrix_to_jsonexact(M), indent=2) + "\n"


def _bounded_int(digits: str) -> int:
    if len(digits.lstrip("-")) > MAX_ENTRY_DIGITS:
        raise ParseError(f"an integer entry has more than {MAX_ENTRY_DIGITS} digits")
    return int(digits)


def _parse_jsonexact(text: str) -> DenseMatrix:
    import json
    from fractions import Fraction

    from .matrix import DenseMatrix
    from .scalars import EXACT

    try:
        data = json.loads(text, parse_int=_bounded_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ParseError('JsonExact needs {"n": ..., "entries": [[...]]}')
    n = data["n"]
    entries = data["entries"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError('"n" must be a positive integer')
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseError(f'"entries" must be a list of {n} rows')
    rows = []
    for i, row in enumerate(entries, start=1):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} must be a list of {n} entries", line=i)
        parsed = []
        for j, cell in enumerate(row, start=1):
            if isinstance(cell, bool) or not isinstance(cell, (int, str)):
                raise ParseError(
                    f"entry ({i},{j}) must be an integer or a 'p/q' string, got {cell!r}",
                    line=i,
                    column=j,
                )
            if isinstance(cell, str) and not _within_entry_bound(cell):
                raise ParseError(
                    f"entry ({i},{j}) exceeds {MAX_ENTRY_DIGITS} characters or exponent magnitude",
                    line=i,
                    column=j,
                )
            try:
                parsed.append(Fraction(cell))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(
                    f"entry ({i},{j}) is not a valid rational: {cell!r}", line=i, column=j
                ) from exc
        rows.append(parsed)
    return DenseMatrix.from_rows(rows, EXACT)


def _parse_csvfloat(text: str) -> DenseMatrix:
    import csv
    import io
    import math

    from .matrix import DenseMatrix
    from .scalars import FLOAT

    reader = csv.reader(io.StringIO(text, newline=""))  # so bare-CR line endings parse
    try:
        records = list(reader)
    except csv.Error as exc:
        raise ParseError(f"invalid CSV: {exc}", line=reader.line_num) from exc
    rows, lines = [], []  # each data row and the record number it is on
    for i, record in enumerate(records, start=1):
        if not record or all(not c.strip() for c in record):
            continue
        row = []
        for j, cell in enumerate(record, start=1):
            try:
                value = float(cell)
            except ValueError as exc:
                raise ParseError(
                    f"cell {cell!r} is not a decimal float", line=i, column=j
                ) from exc
            if not math.isfinite(value):
                raise ParseError(f"cell {cell!r} is not finite", line=i, column=j)
            row.append(value)
        rows.append(row)
        lines.append(i)
    if not rows:
        raise ParseError("CSV file contains no data rows")
    n = len(rows)
    for i, (row, line) in enumerate(zip(rows, lines), start=1):
        if len(row) != n:
            raise ParseError(
                f"matrix must be square: row {i} has {len(row)} cells, expected {n}",
                line=line,
            )
    return DenseMatrix.from_rows(rows, FLOAT)


def _sha256(raw: bytes) -> str:
    """Hex sha256 digest of raw, from CPython's own sha256 module when it has
    one: hashlib loads OpenSSL (CPython's random takes its sha512 likewise)."""
    for module in ("_sha2", "_sha256", "hashlib"):  # CPython 3.12+, CPython <= 3.11, any
        try:
            sha256 = __import__(module).sha256
        except ImportError:
            continue
        return sha256(raw).hexdigest()


def load_matrix(path: str, backend: str | None) -> tuple[DenseMatrix, str, str]:
    """Read a matrix file; returns (matrix, sha256 digest, format name).

    Format from the extension (.json / .csv), else sniffed from the first
    byte, after a UTF-8 byte-order mark if there is one; the digest is
    over the raw bytes.  --backend renders JSON input to float or lifts CSV
    to exact.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = _sha256(raw)
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not UTF-8 text: {exc}") from exc
    lower = path.lower()
    if lower.endswith(".json"):
        fmt = "JsonExact"
    elif lower.endswith(".csv"):
        fmt = "CsvFloat"
    else:
        fmt = "JsonExact" if text.lstrip()[:1] == "{" else "CsvFloat"
    M = _parse_jsonexact(text) if fmt == "JsonExact" else _parse_csvfloat(text)
    if backend == "float":
        try:
            M = M.to_float()
        except BeyondDoubleRange as exc:
            raise ParseError(str(exc), line=exc.row, column=exc.col) from None
    elif backend == "exact":
        M = M.to_exact()
    return M, digest, fmt

