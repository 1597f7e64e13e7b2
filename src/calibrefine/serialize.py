"""File formats: homographies and reports as JSON, frame streams and
correspondence sets as JSON Lines, checkpoint logs and histograms as CSV.
All writers are byte-deterministic for identical inputs.
"""
from __future__ import annotations

import csv
import json
import math
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .correction import CorrectionResult
from .errors import SingularMatrixError
from .geometry import Frame, Homography, PairSet, ResidualReport, Source
from .pipeline import HISTOGRAM_EDGE
from .refine import CheckpointRecord
from .simulator import GroundTruth, SimFrame


def _dump_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


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
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(str(path), exc) from exc


# -- frame streams -------------------------------------------------------------

def write_frames_jsonl(path: str | Path, frames: Sequence[Frame]) -> None:
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


def read_frames_jsonl(path: str | Path) -> list[Frame]:
    """Read a frame stream; frame ids must strictly increase, and a record
    that fails to parse is invalid input (``ValueError`` naming path:line)."""
    frames = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                _require_numbers(chain(*d["lidar"], *d["camera"]))
                # Frame converts the lists to arrays and checks their shape
                frame = Frame(
                    frame_id=_frame_id(d["frame_id"]),
                    lidar_centers=d["lidar"],
                    camera_centers=d["camera"],
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise _malformed(f"{path}:{n}", exc) from exc
            if frames and frame.frame_id <= frames[-1].frame_id:
                raise ValueError(
                    f"{path}:{n}: frame_id {frame.frame_id} after frame_id {frames[-1].frame_id}; "
                    "ids must strictly increase"
                )
            frames.append(frame)
    return frames


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


def read_pairs_jsonl(path: str | Path) -> PairSet:
    """Read correspondences; a record that fails to parse is invalid input
    (``ValueError`` naming path:line)."""
    coordinates: list[list[float]] = []
    frame_ids: list[int] = []
    sources: list[Source] = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
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
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise _malformed(f"{path}:{n}", exc) from exc
            coordinates.append(row)
            frame_ids.append(frame_id)
            sources.append(source)
    table = np.array(coordinates, dtype=float).reshape(-1, 4)
    return PairSet(table[:, :2], table[:, 2:], frame_ids, sources)


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
        "per_pair": [float(r) for r in report.per_pair],
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
