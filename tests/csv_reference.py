"""Reference CSV loader for equivalence tests.

This is the straightforward form of :func:`dube.dataset.load_csv`: the
first row is tested for a header by parsing its feature cells one by
one, and every feature cell is converted by ``float`` and checked for
finiteness in its own step of a loop over rows and columns. The library
parses the whole feature block with one numpy call and walks the cells
only to word an error; both must give the same features, bit for bit,
the same labels, and the same error messages.
"""

import csv
import math

import numpy as np

from dube.dataset import Dataset, DatasetError


def reference_load_csv(path, label_column) -> Dataset:
    """Load a CSV table converting one cell at a time."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            raw = [row for row in csv.reader(fh)
                   if row and any(cell.strip() for cell in row)
                   and not row[0].lstrip().startswith("#")]
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from exc
    if not raw:
        raise DatasetError(f"{path}: empty file")

    width = len(raw[0])
    if any(len(row) != width for row in raw):
        raise DatasetError(f"{path}: ragged rows")

    if isinstance(label_column, str):
        header = [cell.strip() for cell in raw[0]]
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DatasetError(f"{path}: no column named {label_column!r}") from None
        rows = raw[1:]
    else:
        label_idx = int(label_column)
        if not 0 <= label_idx < width:
            raise DatasetError(f"{path}: label column index {label_idx} out of range")
        rows = raw
        if rows and not _numeric_row(rows[0], label_idx):
            rows = rows[1:]  # header row
    if width == 1:
        raise DatasetError(f"{path}: no feature columns besides the label column")
    if not rows:
        raise DatasetError(f"{path}: no data rows")

    n, d = len(rows), width - 1
    feats = np.empty((n, d), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    name_to_id: dict[str, int] = {}
    for i, row in enumerate(rows):
        j = 0
        for k, cell in enumerate(row):
            if k == label_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DatasetError(f"{path}: row {i}: non-numeric cell {cell!r}") from None
            if not math.isfinite(value):
                raise DatasetError(f"{path}: row {i}: non-finite cell {cell!r}")
            feats[i, j] = value
            j += 1
        name = row[label_idx].strip()
        if name not in name_to_id:
            name_to_id[name] = len(name_to_id)
        labels[i] = name_to_id[name]

    if len(name_to_id) < 2:
        raise DatasetError(f"{path}: single-class dataset (need m >= 2)")
    return Dataset(feats, labels, m=len(name_to_id),
                   label_names=tuple(name_to_id))


def _numeric_row(row, label_idx) -> bool:
    for k, cell in enumerate(row):
        if k == label_idx:
            continue
        try:
            float(cell)
        except ValueError:
            return False
    return True
