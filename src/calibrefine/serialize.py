"""File formats: homographies and reports as JSON, frame streams and
correspondence sets as JSON Lines, checkpoint logs and histograms as CSV.
All writers are byte-deterministic for identical inputs.
"""
from __future__ import annotations

import csv
import json
import math
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .correction import CorrectionResult
from .errors import SingularMatrixError
from .geometry import Frame, FrameStream, Homography, PairSet, ResidualReport, Source
from .pipeline import HISTOGRAM_EDGE
from .refine import CheckpointRecord
from .simulator import GroundTruth, SimFrame


def _dump_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# What parsing one record may raise: a missing key, a wrong type or value, an
# integer too large for a float, or JSON nested too deep for the parser.
_RECORD_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def _malformed(where: str, exc: Exception) -> ValueError:
    """Invalid input (``ValueError``) for a record that failed to parse;
    ``where`` is ``path`` or ``path:line``."""
    what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{where}: malformed record: {what}")


def _frame_id(value) -> int:
    """A record's frame id, which must be a JSON integer (not 1.7 or true)."""
    if type(value) is not int:
        raise TypeError(f"frame_id must be an integer, got {value!r}")
    return value


def _require_numbers(values, what: str = "coordinates") -> None:
    """A record's ``what``, its coordinates unless named, must be JSON
    numbers (not "1.5", true or null)."""
    if not {*map(type, values)} <= {int, float}:
        raise TypeError(f"{what} must be JSON numbers")


# -- homographies -------------------------------------------------------------

def homography_to_dict(h: Homography) -> dict:
    return {"h": [[float(v) for v in row] for row in h.m]}


def homography_from_dict(d: dict) -> Homography:
    _require_numbers(chain(*d["h"]), "matrix entries")
    return Homography(d["h"])  # constructor re-canonicalizes any scale


def save_homography(path: str | Path, h: Homography) -> None:
    _dump_json(path, homography_to_dict(h))


def load_homography(path: str | Path) -> Homography:
    """Read a matrix file; a malformed or singular matrix is invalid input
    (``ValueError``)."""
    try:
        return homography_from_dict(_load_json(path))
    except SingularMatrixError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    except _RECORD_ERRORS as exc:
        raise _malformed(str(path), exc) from exc


# -- frame streams -------------------------------------------------------------

def write_frames_jsonl(path: str | Path, frames: Iterable[Frame]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for f in frames:
            fh.write(
                json.dumps(
                    {
                        "frame_id": f.frame_id,
                        "lidar": f.lidar_centers.tolist(),
                        "camera": f.camera_centers.tolist(),
                    },
                    sort_keys=True,
                )
                + "\n"
            )


# Non-blank lines read as one chunk: a pair file's chunk is parsed by one
# ``json.loads``, a frame file's becomes one array per sensor. A bounded chunk
# keeps peak memory near the per-line loop's; a whole file as one parse holds
# every record's objects at once.
_CHUNK_LINES = 256

_FRAME_KEYS = frozenset({"frame_id", "lidar", "camera"})


def _frame_chunk(lines: list[str], last: int) -> tuple | None:
    """The ``FrameStream`` arguments of ``K`` stripped lines: their frame
    ids, the ``(N, 2)`` LiDAR and ``(M, 2)`` camera points in line order and
    each line's counts of them; or None unless each line holds exactly the
    writer's keys, an integer frame id above the line before (``last`` for
    the first) and below 2**63, and lists of 2-element lists of finite JSON
    numbers, a record that ``Frame`` and the order check accept as it is.

    Each line is parsed on its own and flattened to its coordinates, so no
    line's lists outlive it; the coordinates are checked once per chunk."""
    frame_ids, lidar, camera, lidar_counts, camera_counts = [], [], [], [], []
    for line in lines:
        try:
            d = json.loads(line)
        except (ValueError, RecursionError):
            return None
        if type(d) is not dict or d.keys() != _FRAME_KEYS:
            return None
        frame_id, xy, uv = d["frame_id"], d["lidar"], d["camera"]
        if type(frame_id) is not int or not last < frame_id < 2**63:
            return None
        if not (_point_list(xy) and _point_list(uv)):
            return None
        frame_ids.append(frame_id)
        lidar += chain.from_iterable(xy)
        camera += chain.from_iterable(uv)
        lidar_counts.append(len(xy))
        camera_counts.append(len(uv))
        last = frame_id
    arrays = []
    for values in (lidar, camera):
        if not {int, float} >= {*map(type, values)}:
            return None
        try:
            points = np.array(values, dtype=float).reshape(-1, 2)
        except OverflowError:  # an int too large for a float
            return None
        if not np.isfinite(points).all():
            return None
        arrays.append(points)
    return frame_ids, *arrays, lidar_counts, camera_counts


def _point_list(points) -> bool:
    """Whether a record's points are a list of 2-element lists."""
    return type(points) is list and {list} >= {*map(type, points)} and {2} >= {*map(len, points)}


def _frame_record(line: str, where: str) -> Frame:
    """One stripped line's frame, checked by ``Frame``; a record that fails
    to parse is invalid input (``ValueError`` naming ``where``). The only
    source of refusals, so of their messages."""
    try:
        d = json.loads(line)
        # Frame converts the lists to arrays and checks their shape
        # and that every coordinate is a number
        return Frame(
            frame_id=_frame_id(d["frame_id"]),
            lidar_centers=d["lidar"],
            camera_centers=d["camera"],
        )
    except _RECORD_ERRORS as exc:
        raise _malformed(where, exc) from exc


def read_frames_jsonl(path: str | Path) -> FrameStream:
    """Read a frame stream; frame ids must strictly increase, and a record
    that fails to parse is invalid input (``ValueError`` naming path:line).

    The file is read ``_CHUNK_LINES`` non-blank lines at a time. A chunk
    that ``_frame_chunk`` accepts becomes one array per sensor. Any other
    chunk is read line by line through ``Frame`` in ``_frame_record``, which
    names the bad line or accepts a lenient record. The chunks' arrays are
    concatenated into one ``FrameStream``, checked once."""
    parts, last = [], -1
    with open(path, "r", encoding="utf-8") as fh:
        numbered = ((n, line) for n, line in enumerate(map(str.strip, fh), start=1) if line)
        while chunk := list(islice(numbered, _CHUNK_LINES)):
            part = _frame_chunk([line for _, line in chunk], last)
            if part is None:
                frames = []
                for n, line in chunk:
                    frame = _frame_record(line, f"{path}:{n}")
                    if frame.frame_id <= last:
                        raise ValueError(
                            f"{path}:{n}: frame_id {frame.frame_id} after frame_id {last}; "
                            "ids must strictly increase"
                        )
                    frames.append(frame)
                    last = frame.frame_id
                ids, xy, uv = zip(*((f.frame_id, f.lidar_centers, f.camera_centers) for f in frames))
                part = ids, np.concatenate(xy), np.concatenate(uv), [*map(len, xy)], [*map(len, uv)]
            parts.append(part)
            last = part[0][-1]
    columns = [np.concatenate(column) for column in zip(*parts)]
    del parts  # the chunks' arrays, now copied into the columns
    return FrameStream(*columns) if columns else FrameStream.of(())


# -- correspondences -----------------------------------------------------------

# One record per pair, byte for byte as ``json.dumps(..., sort_keys=True)``
# writes it: a PairSet holds only finite floats, whose JSON form is their repr.
_PAIR_RECORD = '{"frame_id": %d, "lidar": [%r, %r], "pixel": [%r, %r], "source": "%s"}\n'


def write_pairs_jsonl(path: str | Path, pairs: PairSet) -> None:
    rows = zip(
        pairs.frame_ids.tolist(),
        *pairs.xy.T.tolist(),
        *pairs.uv.T.tolist(),
        [s.value for s in pairs.source.tolist()],
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_PAIR_RECORD % row for row in rows)


_PAIR_KEYS = frozenset({"frame_id", "lidar", "pixel", "source"})
_SOURCES = {s.value: s for s in Source}


def _pair_record(line: str, where: str) -> tuple[list[float], int, Source]:
    """One stripped line's ``(x, y, u, v)``, frame id and source, checked on
    its own; a record that fails to parse is invalid input (``ValueError``
    naming ``where``). The only source of refusals, so of their messages."""
    try:
        d = json.loads(line)
        lidar = d["lidar"]
        pixel = d["pixel"]
        if len(lidar) != 2 or len(pixel) != 2:
            raise ValueError("lidar/pixel must each hold 2 values")
        _require_numbers(lidar + pixel)
        row = [float(v) for v in lidar + pixel]
        if not all(map(math.isfinite, row)):
            raise ValueError(f"coordinates must be finite, got {row}")
        frame_id = _frame_id(d.get("frame_id", 0))
        if not 0 <= frame_id < 2**63:
            raise ValueError(f"frame_id must be in [0, 2**63), got {frame_id}")
        source = Source(d.get("source", "manual"))
    except _RECORD_ERRORS as exc:
        raise _malformed(where, exc) from exc
    return row, frame_id, source


def _pair_chunk(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Source]] | None:
    """The ``(K, 2)`` ground points and pixels, frame ids and sources of
    ``K`` stripped lines parsed as one JSON array and checked column by
    column, or None unless that proves each line held one valid record.

    Each line starts with ``{`` and a record holds no object, so each line
    starts a record; with as many records as lines, a line that ended inside
    its record, or held a second one, would leave some line without a
    record's start. A string may only be a key or a source, neither of
    which holds a brace, so no string spans lines and no ``{`` counted here
    lies inside one.
    """
    if not all(line[0] == "{" and line[-1] == "}" for line in lines):
        return None
    try:
        records = json.loads("[" + ",".join(lines) + "]")
        if len(records) != len(lines) or {*map(type, records)} != {dict}:
            return None
        if not set().union(*records) <= _PAIR_KEYS:
            return None
        lidar = [d["lidar"] for d in records]
        pixel = [d["pixel"] for d in records]
        if {*map(len, lidar), *map(len, pixel)} != {2}:
            return None
        lidar, pixel = [*chain.from_iterable(lidar)], [*chain.from_iterable(pixel)]
        _require_numbers(lidar + pixel)
        frame_ids = [d.get("frame_id", 0) for d in records]
        if not {*map(type, frame_ids)} <= {int}:
            return None
        sources = [_SOURCES[d.get("source", "manual")] for d in records]
        # float and int64 conversion refuse an int that does not fit
        xy = np.array(lidar, dtype=float).reshape(-1, 2)
        uv = np.array(pixel, dtype=float).reshape(-1, 2)
        frame_ids = np.array(frame_ids, dtype=np.int64)
    except _RECORD_ERRORS:
        return None
    if not (np.isfinite(xy).all() and np.isfinite(uv).all()) or (frame_ids < 0).any():
        return None
    return xy, uv, frame_ids, sources


def read_pairs_jsonl(path: str | Path) -> PairSet:
    """Read correspondences; a record that fails to parse is invalid input
    (``ValueError`` naming path:line).

    The file is parsed ``_CHUNK_LINES`` non-blank lines at a time. A chunk
    that ``_pair_chunk`` does not accept is read line by line through
    ``_pair_record``, which gives the same rows or names the bad line."""
    parts = []
    with open(path, "r", encoding="utf-8") as fh:
        numbered = ((n, line) for n, line in enumerate(map(str.strip, fh), start=1) if line)
        while chunk := list(islice(numbered, _CHUNK_LINES)):
            part = _pair_chunk([line for _, line in chunk])
            if part is None:
                rows = [_pair_record(line, f"{path}:{n}") for n, line in chunk]
                coordinates, frame_ids, sources = zip(*rows)
                table = np.array(coordinates, dtype=float)
                part = table[:, :2], table[:, 2:], np.array(frame_ids, dtype=np.int64), sources
            parts.append(part)
    xy, uv, frame_ids, sources = zip(*parts) if parts else ((), (), (), ())
    return PairSet(
        np.concatenate([np.empty((0, 2)), *xy]),
        np.concatenate([np.empty((0, 2)), *uv]),
        np.concatenate([np.empty(0, np.int64), *frame_ids]),
        [*chain.from_iterable(sources)],
    )


# -- ground truth sidecar --------------------------------------------------------

def write_ground_truth(path: str | Path, gt: GroundTruth) -> None:
    """Write the true matrix in the matrix format; ``load_homography`` reads it."""
    _dump_json(path, homography_to_dict(gt.h_true))


# -- reports and logs ------------------------------------------------------------

def write_checkpoints_csv(path: str | Path, records: Sequence[CheckpointRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame_id", "err_new", "err_best", "updated"])
        for r in records:
            writer.writerow([r.frame_id, repr(r.err_new), repr(r.err_best), r.updated])


def read_checkpoints_csv(path: str | Path) -> list[CheckpointRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            err_new = float(row["err_new"])
            records.append(
                CheckpointRecord(
                    frame_id=int(row["frame_id"]),
                    err_new=err_new,
                    err_best=float(row["err_best"]),
                    updated=row["updated"] == "True",
                    skipped=err_new != err_new,
                )
            )
    return records


def residual_report_to_dict(report: ResidualReport) -> dict:
    return {
        "aed": report.aed,
        "rmse": report.rmse,
        "n": report.n,
        "per_pair": report.per_pair.tolist(),
    }


def write_residual_report(path: str | Path, report: ResidualReport) -> None:
    _dump_json(path, residual_report_to_dict(report))


def write_histogram_csv(path: str | Path, counts: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bucket_lo_px", "bucket_hi_px", "count"])
        for i, count in enumerate(counts):
            hi = str(i + 1) if i < HISTOGRAM_EDGE else "inf"
            writer.writerow([i, hi, int(count)])


def write_loss_trace(path: str | Path, result: CorrectionResult) -> None:
    _dump_json(
        path,
        {
            "h_delta": homography_to_dict(result.h_delta)["h"],
            "h_star": homography_to_dict(result.h_star)["h"],
            "loss_trace": list(result.loss_trace),
            "pairs_used": result.pairs_used,
        },
    )


def write_sim_frames(path: str | Path, sim_frames: Sequence[SimFrame]) -> None:
    write_frames_jsonl(path, [sf.frame for sf in sim_frames])
