"""CSV and JSON emission shared by the command-line front end.

CSV tables carry a single header line and 17-significant-digit floats so
that every value round-trips to the exact binary double.  JSON documents
mirror the columns as arrays next to a metadata object.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .spectrum import AngularPowerSpectrum

__all__ = [
    "SpectrumFileError",
    "fmt",
    "render_csv",
    "render_json",
    "load_spectrum_csv",
    "load_spectrum_json",
    "load_spectrum",
]


class SpectrumFileError(Exception):
    """Malformed spectrum input file."""


def fmt(value) -> str:
    """17-significant-digit text for floats, "" for None; everything else via str."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return "" if value is None else str(value)


def render_csv(sections) -> str:
    """Render [(header_list, rows)] sections, blank-line separated."""
    chunks = []
    for header, rows in sections:
        lines = [",".join(header)]
        lines.extend(",".join(fmt(v) for v in row) for row in rows)
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def render_json(metadata: dict, tables: dict) -> str:
    """One JSON document: column arrays per table plus metadata.

    Non-finite floats (a NaN ratio, say) are written as null, since
    JSON has no token for them.
    """
    doc = {"metadata": metadata}
    for name, (header, rows) in tables.items():
        doc[name] = {
            col: [_finite(row[i]) for row in rows] for i, col in enumerate(header)
        }
    return json.dumps(doc, indent=2, default=_jsonify, allow_nan=False) + "\n"


def _finite(value):
    if isinstance(value, (float, np.floating)) and not np.isfinite(value):
        return None
    return value


def _jsonify(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _build_spectrum(rows, origin):
    if not rows:
        raise SpectrumFileError(f"{origin}: no spectrum rows")
    ells = [r[0] for r in rows]
    if ells != list(range(ells[0], ells[0] + len(ells))):
        raise SpectrumFileError(f"{origin}: multipoles must be consecutive")
    c_e = np.array([r[1] for r in rows])
    c_b = np.array([r[2] for r in rows])
    try:
        return AngularPowerSpectrum(s=ells[0], L_max=ells[-1], C_E=c_e, C_B=c_b)
    except ValueError as exc:
        raise SpectrumFileError(f"{origin}: {exc}") from exc


def load_spectrum_csv(path) -> AngularPowerSpectrum:
    """Read an (ell, C_E, C_B) CSV table under the header ``ell,C_E,C_B``.

    Raises SpectrumFileError citing the offending row on malformed input.
    """
    rows = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise SpectrumFileError(f"{path}: {exc}") from exc
    if not lines:
        raise SpectrumFileError(f"{path}: empty file")
    if [p.strip() for p in lines[0].split(",")] != ["ell", "C_E", "C_B"]:
        raise SpectrumFileError(f"{path}: row 1: expected the header ell,C_E,C_B")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise SpectrumFileError(f"{path}: row {lineno}: expected 3 columns, got {len(parts)}")
        try:
            ell = int(parts[0])
            c_e, c_b = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise SpectrumFileError(f"{path}: row {lineno}: {exc}") from exc
        if c_e < 0 or c_b < 0:
            raise SpectrumFileError(f"{path}: row {lineno}: negative spectrum value")
        rows.append((ell, c_e, c_b))
    return _build_spectrum(rows, str(path))


def load_spectrum_json(path) -> AngularPowerSpectrum:
    """Read a spectrum JSON document with ell / C_E / C_B arrays of JSON numbers."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpectrumFileError(f"{path}: {exc}") from exc
    table = doc.get("spectrum", doc) if isinstance(doc, dict) else doc
    try:
        ells = [int(v) for v in table["ell"]]
        c_e = [float(v) for v in table["C_E"]]
        c_b = [float(v) for v in table["C_B"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SpectrumFileError(f"{path}: missing or malformed columns ({exc})") from exc
    # each value converted, so it is a JSON number, a boolean or a numeric string
    if any(isinstance(v, (bool, str)) for v in table["ell"]) or ells != table["ell"]:
        raise SpectrumFileError(f"{path}: ell must hold integers, got {table['ell']}")
    for key in ("C_E", "C_B"):
        if any(isinstance(v, (bool, str)) for v in table[key]):
            raise SpectrumFileError(f"{path}: {key} must hold numbers, got {table[key]}")
    if not (len(ells) == len(c_e) == len(c_b)):
        raise SpectrumFileError(f"{path}: column length mismatch")
    return _build_spectrum(list(zip(ells, c_e, c_b)), str(path))


def load_spectrum(path) -> AngularPowerSpectrum:
    if str(path).endswith(".json"):
        return load_spectrum_json(path)
    return load_spectrum_csv(path)
