"""The trajectory file format: the record schema and its CSV/JSON I/O."""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from collections import namedtuple
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import count, zip_longest
from operator import itemgetter

import numpy as np

from .child import Child

__all__ = [
    "SIM_RECORD_FIELDS",
    "STEP_FIELDS",
    "SimRecord",
    "Trajectory",
    "TrajectoryWriter",
    "check_memory",
]


# record layout; order is the stable CSV column order
SIM_RECORD_FIELDS = [
    "t", "stance_leg", "stance_phase", "step_count",
    "q_s1", "q_s2", "q_s3", "q_s4", "q_s5",
    "dq_s1", "dq_s2", "dq_s3", "dq_s4", "dq_s5",
    "x_s", "y_s", "z_s", "dx_s", "dy_s", "dz_s",
    "q_f1", "q_f2", "q_f3", "dq_f1", "dq_f2", "dq_f3",
    "tau_a1", "tau_a2", "tau_a3", "tau_a4", "tau_a5", "tau_a6",
    "f_x", "f_y", "f_z",
    "theta_r", "delta_theta_r", "gamma", "r_eff",
    "power", "power_abs_joints", "power_s", "power_f",
    "com_x", "com_z", "com_vx", "com_vz", "hip_x", "hip_z",
]


# stance_leg is stored as an index into this tuple
_LEG_NAMES = ("left", "right")
_FIELD_INDEX = {name: i for i, name in enumerate(SIM_RECORD_FIELDS)}
_LEG = _FIELD_INDEX["stance_leg"]
_STEP = _FIELD_INDEX["step_count"]
_BLOCK = 256  # steps per hand-off to a writer; rows per block of file I/O

# the columns that the cost of transport integrates, sampled at every step
STEP_FIELDS = ("t", "power", "power_s", "power_f", "com_vx")


def check_memory(steps: int, records: int) -> None:
    """Raise ValueError when a run of ``steps`` steps cannot hold its
    ``records`` records and every step's ``STEP_FIELDS`` in physical memory."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # a platform that cannot say
        return
    if 8 * (len(SIM_RECORD_FIELDS) * records + len(STEP_FIELDS) * steps) > memory:
        # up to 15 digits in full, a longer count as 1e+303
        what = f"{float(records):.15g} records" if records else "step samples"
        raise ValueError(f"the {what} of a {float(steps):.15g}-step run do not fit in memory")


#: One trajectory row, with ``stance_leg`` as "left"/"right" and
#: ``step_count`` as int.  ``z_s`` is the sinkage depth and ``dz_s`` the
#: sinking rate, both positive down.
SimRecord = namedtuple("SimRecord", SIM_RECORD_FIELDS)


@dataclass(eq=False)
class Trajectory:
    """Logged records as one ``(n_records, len(SIM_RECORD_FIELDS))`` float64
    array; column j holds field ``SIM_RECORD_FIELDS[j]`` and ``stance_leg``
    holds 0 (left) or 1 (right).  ``step_samples`` holds the ``STEP_FIELDS``
    of every simulated step, logged or not, as an ``(n_steps,
    len(STEP_FIELDS))`` array; without it they are read off the records.
    ``writer`` is the ``TrajectoryWriter`` that ``run`` fed the rows to,
    which ``save_csv`` commits."""

    data: np.ndarray
    meta: dict
    step_samples: np.ndarray | None = None
    writer: TrajectoryWriter | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[1] != len(SIM_RECORD_FIELDS):
            raise ValueError(f"trajectory data of shape {self.data.shape} is not "
                             f"(n_records, {len(SIM_RECORD_FIELDS)})")
        samples = self.step_samples
        if samples is not None and (samples.ndim != 2 or samples.shape[1] != len(STEP_FIELDS)):
            raise ValueError(f"step samples of shape {samples.shape} are not "
                             f"(n_steps, {len(STEP_FIELDS)})")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def records(self) -> list[SimRecord]:
        """Row view, built on demand.  NaN cells share one object, so rows of
        equal data compare equal (tuple equality tests identity first)."""
        rows = self._rows(np.isnan(self.data), math.nan)
        return [SimRecord._make(row) for row in rows]

    def _rows(self, mask=None, fill=None) -> list[list]:
        """Rows as lists of Python values, ``stance_leg`` as text and
        ``step_count`` as int; cells where ``mask`` holds become ``fill``."""
        rows = self.data.tolist()
        for row in rows:
            row[_LEG] = _LEG_NAMES[int(row[_LEG])]
            row[_STEP] = int(row[_STEP])
        if mask is not None:
            for i, j in zip(*np.nonzero(mask)):
                rows[i][j] = fill
        return rows

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one numeric field."""
        if name == "stance_leg":
            raise KeyError("stance_leg is not numeric")
        if name not in _FIELD_INDEX:
            raise KeyError(f"unknown trajectory field '{name}'")
        col = self.data[:, _FIELD_INDEX[name]]
        col.flags.writeable = False
        return col

    def step_column(self, name: str) -> np.ndarray:
        """Read-only view of one ``STEP_FIELDS`` field over every simulated
        step, or over the records when the step samples were not given."""
        if self.step_samples is None:
            return self.column(name)
        col = self.step_samples[:, STEP_FIELDS.index(name)]
        col.flags.writeable = False
        return col

    def save_csv(self, path, json_path=None) -> None:
        """Write the rows to ``path`` as CSV and, given ``json_path``, to that
        file as JSON too, from one formatting pass.  The first call on a
        trajectory with a ``writer`` commits that writer, which must still be
        open: the files are written from the text it formatted."""
        writer, self.writer = self.writer, None
        if writer is not None:
            writer.commit(path, json_path, self.meta)
        else:
            _save(path, json_path, self.meta, self._text_blocks())

    def save_json(self, path) -> None:
        """Write the one JSON document {meta, columns, records} to ``path``."""
        _save(None, path, self.meta, self._text_blocks())

    def _text_blocks(self):
        """``_format_block`` of each block of rows, formatted on demand."""
        return (_format_block(self.data[i:i + _BLOCK]) for i in range(0, len(self), _BLOCK))

    @classmethod
    def load_csv(cls, path) -> "Trajectory":
        """Read a file that ``save_csv`` wrote.  numpy's reader parses every
        row from the open file, in chunks; the array is the only whole copy.
        A file that does not parse raises ValueError naming its first
        malformed line, which a scan of the file line by line finds."""
        with open(path, newline="") as fh:
            header = fh.readline().strip().split(",")
            if header != SIM_RECORD_FIELDS:
                raise ValueError(f"{path}: unexpected trajectory header")
            start = fh.tell()
            lines = count()  # zip draws one number per line read
            try:
                data = _parse_rows(map(itemgetter(0), zip(fh, lines)))
                # numpy skips a blank line, which no writer writes
                if len(data) == next(lines):
                    return cls(data=data, meta={"source": str(path)})
            except ValueError:
                pass
            fh.seek(start)
            for lineno, line in enumerate(fh, start=2):
                cells = line.rstrip("\r\n").split(",")
                try:
                    if cells == [""]:
                        raise ValueError("blank line")
                    if len(cells) != len(SIM_RECORD_FIELDS):
                        raise ValueError(f"{len(cells)} fields")
                    _parse_rows([line])
                except ValueError as exc:
                    # the reader counts the one line it was given as row 0
                    reason = str(exc).replace(" at row 0,", " at")
                    raise ValueError(f"{path}:{lineno}: malformed row ({reason})") from exc
        raise ValueError(f"{path}: malformed rows")


def _parse_rows(lines) -> np.ndarray:
    """The CSV rows of the text ``lines`` as an ``(n, len(SIM_RECORD_FIELDS))``
    array, ``stance_leg`` as its index; raises ValueError for a row that
    does not parse or is of another width."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                          converters={_LEG: _LEG_NAMES.index})
    if len(data) and data.shape[1] != len(SIM_RECORD_FIELDS):
        raise ValueError(f"{data.shape[1]} fields")
    return data.reshape(-1, len(SIM_RECORD_FIELDS))


def _format_block(block: np.ndarray) -> tuple[str, str]:
    """The CSV lines of the rows of ``block`` and their JSON records, each
    record led by ", ", from one ``repr`` of every value.  Every file is
    formatted with this, so a writer's files hold the bytes of ``save_csv``'s."""
    # strict JSON has no NaN or infinity
    nonfinite = ~np.isfinite(block)
    has_nonfinite = nonfinite.any(axis=1).tolist()
    lines, records = [], []
    for r, row in enumerate(Trajectory(block, {})._rows()):
        # repr of a Python float is its shortest round-trip text and, like
        # repr of an int, the text json writes for it
        text = list(map(repr, row))
        text[_LEG] = row[_LEG]
        lines.append(",".join(text) + "\n")
        text[_LEG] = f'"{row[_LEG]}"'
        if has_nonfinite[r]:
            for c in np.flatnonzero(nonfinite[r]):
                text[c] = "null"
        records.append(", [" + ", ".join(text) + "]")
    return "".join(lines), "".join(records)


def _save(csv_path, json_path, meta: dict, blocks) -> None:
    """Write the CSV file at ``csv_path`` and the JSON document {meta,
    columns, records} at ``json_path`` (either may be None): the header,
    then ``blocks`` as pairs of CSV and JSON text in ``_format_block``'s
    form, then the footer.  One block is held at a time, never a file."""
    with (open(csv_path, "w", newline="") if csv_path is not None else nullcontext()) as fh, (
            open(json_path, "w") if json_path is not None else nullcontext()) as jh:
        if fh is not None:
            fh.write(",".join(SIM_RECORD_FIELDS) + "\n")
        if jh is not None:
            head = json.dumps({"meta": meta, "columns": SIM_RECORD_FIELDS})
            jh.write(head[:-1] + ', "records": [')
        lead = 2  # the first record has no ", " before it
        for lines, records in blocks:
            if fh is not None:
                fh.write(lines)
            if jh is not None and records:
                jh.write(records[lead:])
                lead = 0
        if jh is not None:
            jh.write("]}")


_CHUNK = 1 << 16  # characters per read of a writer's temporary file


class TrajectoryWriter:
    """Formats the rows of a run into the text of its CSV and JSON files.

    A context manager around ``run(cfg, writer)``, which feeds it the rows
    logged every ``_BLOCK`` steps, and the ``save_csv`` that commits it.
    Entering opens two unnamed temporary files and a ``Child`` that appends
    ``_format_block``'s text of each block fed to them; where the ``Child``
    forks, it formats while the run integrates, and otherwise over the fed
    blocks at the commit.  The commit copies the files with ``_save``.
    Leaving without a commit writes no file."""

    def __enter__(self) -> TrajectoryWriter:
        with ExitStack() as stack:
            self._text = [stack.enter_context(tempfile.TemporaryFile("w+", newline=""))
                          for _ in range(2)]
            self._child = stack.enter_context(Child(
                "the trajectory writer's child", _write_text, self._text, errors=()))
            self._stack = stack.pop_all()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stack.close()

    def feed(self, rows: np.ndarray) -> None:
        """Hand the child ``rows``, the rows logged since the last call."""
        self._child.send(rows)

    def commit(self, csv_path, json_path, meta: dict) -> None:
        """Write the rows fed to ``csv_path`` and, given it, ``json_path``,
        under ``meta``, from the text the child formatted; closes the writer."""
        if self._text[0].closed:
            raise ValueError("the trajectory writer was closed before its commit")
        try:
            self._child.result()
            for fh in self._text:
                fh.seek(0)
            _save(csv_path, json_path, meta, zip_longest(
                *(iter(partial(fh.read, _CHUNK), "") for fh in self._text), fillvalue=""))
        finally:
            self.__exit__()


def _write_text(blocks, text: list) -> None:
    """A ``TrajectoryWriter``'s child: appends ``_format_block``'s text of
    each of the row ``blocks`` to the files ``text``, then flushes them."""
    for block in blocks:
        for fh, part in zip(text, _format_block(block)):
            fh.write(part)
    for fh in text:
        fh.flush()
