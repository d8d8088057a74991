"""The trajectory file format: the record schema and its CSV/JSON I/O."""

from __future__ import annotations

import json
import math
import os
import tempfile
from array import array
from collections import namedtuple
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import zip_longest

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
_WIDTH = len(SIM_RECORD_FIELDS)
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
    """Logged records as one flat float64 ``array``, row after row: value
    ``i * len(SIM_RECORD_FIELDS) + j`` holds field ``SIM_RECORD_FIELDS[j]``
    of record i, and ``stance_leg`` holds 0 (left) or 1 (right).
    ``step_samples`` holds the ``STEP_FIELDS`` of every simulated step,
    logged or not, in the same layout; without it they are read off the
    records."""

    data: array
    meta: dict
    step_samples: array | None = None

    def __post_init__(self) -> None:
        if len(self.data) % _WIDTH:
            raise ValueError(f"{len(self.data)} trajectory values are not rows of {_WIDTH}")
        samples = self.step_samples
        if samples is not None and len(samples) % len(STEP_FIELDS):
            raise ValueError(f"{len(samples)} step samples are not rows of {len(STEP_FIELDS)}")

    def __len__(self) -> int:
        return len(self.data) // _WIDTH

    @property
    def records(self) -> list[SimRecord]:
        """Row view, built on demand.  NaN cells share one object, so rows of
        equal data compare equal (tuple equality tests identity first)."""
        return [SimRecord._make(math.nan if v != v else v for v in row) for row in self._rows()]

    def _rows(self) -> list[list]:
        """Rows as lists of Python values, ``stance_leg`` as text and
        ``step_count`` as int."""
        values = self.data.tolist()
        rows = [values[i:i + _WIDTH] for i in range(0, len(values), _WIDTH)]
        for row in rows:
            row[_LEG] = _LEG_NAMES[int(row[_LEG])]
            row[_STEP] = int(row[_STEP])
        return rows

    def column(self, name: str) -> array:
        """A copy of one numeric field."""
        if name == "stance_leg":
            raise KeyError("stance_leg is not numeric")
        if name not in _FIELD_INDEX:
            raise KeyError(f"unknown trajectory field '{name}'")
        return self.data[_FIELD_INDEX[name]::_WIDTH]

    def step_column(self, name: str) -> array:
        """A copy of one ``STEP_FIELDS`` field over every simulated step, or
        over the records when the step samples were not given."""
        if self.step_samples is None:
            return self.column(name)
        return self.step_samples[STEP_FIELDS.index(name)::len(STEP_FIELDS)]

    def save_csv(self, path, json_path=None) -> None:
        """Write the rows to ``path`` as CSV and, given ``json_path``, to that
        file as JSON too, from one formatting pass."""
        _save(path, json_path, self.meta, self._text_blocks())

    def save_json(self, path) -> None:
        """Write the one JSON document {meta, columns, records} to ``path``."""
        _save(None, path, self.meta, self._text_blocks())

    def _text_blocks(self):
        """``_format_block`` of each block of rows, formatted on demand."""
        size = _BLOCK * _WIDTH
        return (_format_block(self.data[i:i + size]) for i in range(0, len(self.data), size))

    @classmethod
    def load_csv(cls, path) -> Trajectory:
        """Read a file that ``save_csv`` wrote, a line at a time into the one
        flat array.  A file that does not parse raises ValueError naming its
        first malformed line."""
        data = array("d")
        with open(path, newline="") as fh:
            header = fh.readline().strip().split(",")
            if header != SIM_RECORD_FIELDS:
                raise ValueError(f"{path}: unexpected trajectory header")
            for lineno, line in enumerate(fh, start=2):
                try:
                    data.fromlist(_parse_row(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from exc
        return cls(data=data, meta={"source": str(path)})


# the value of each stance_leg name
_LEG_INDEX = {name: float(i) for i, name in enumerate(_LEG_NAMES)}


def _parse_row(line: str) -> list[float]:
    """The values of one CSV row, ``stance_leg`` as its index; raises
    ValueError for a row of another width or with a cell that does not
    parse (see ``_parses``)."""
    cells = line.rstrip("\r\n").split(",")
    if len(cells) != _WIDTH:
        raise ValueError("blank line" if cells == [""] else f"{len(cells)} fields")
    leg = cells[_LEG]
    if "_" not in line and line.isascii() and leg in _LEG_INDEX:
        try:
            float(int(cells[_STEP]))
            return [*map(float, cells[:_LEG]), _LEG_INDEX[leg], *map(float, cells[_LEG + 1:])]
        except (ValueError, OverflowError):
            pass
    j = next(j for j, cell in enumerate(cells) if not _parses(j, cell))
    kind = "an integer" if j == _STEP else "float64"
    raise ValueError(f"could not convert string {cells[j]!r} to {kind} at column {j + 1}.")


def _parses(j: int, cell: str) -> bool:
    """Whether ``cell`` reads as a value of column ``j``: a leg name, an
    integer ``step_count`` within the float range, or else a float.  No
    cell may hold an underscore or a non-ASCII character, which ``int()``
    and ``float()`` read (1_0 as 10) and no writer writes."""
    if "_" in cell or not cell.isascii():
        return False
    if j == _LEG:
        return cell in _LEG_INDEX
    try:
        float(int(cell) if j == _STEP else cell)
    except (ValueError, OverflowError):
        return False
    return True


def _format_block(block: array) -> tuple[str, str]:
    """The CSV lines of the rows of the flat ``block`` and their JSON
    records, each record led by ", ", from one ``repr`` of every value.
    Every file is formatted with this, so a writer's files hold the bytes of
    ``save_csv``'s."""
    lines, records = [], []
    for row in Trajectory(block, {})._rows():
        # repr of a Python float is its shortest round-trip text and, like
        # repr of an int, the text json writes for it
        text = list(map(repr, row))
        text[_LEG] = row[_LEG]
        lines.append(",".join(text) + "\n")
        text[_LEG] = f'"{row[_LEG]}"'
        # strict JSON has no NaN or infinity; the sum of a row's numbers
        # (every cell but the leg) is finite unless one is, or it overflows
        if not math.isfinite(sum(row[:_LEG]) + sum(row[_LEG + 1:])):
            for c, value in enumerate(row):
                if c != _LEG and not math.isfinite(value):
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
    logged every ``_BLOCK`` steps, and ``commit``, which writes the files.
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

    def feed(self, rows: array) -> None:
        """Hand the child ``rows``, the flat rows logged since the last call."""
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
