"""Mesh and signature file formats.

Meshes travel as CSV ("x,y" per line, '#' comments, optional header) or
JSON ({"points": [[x, y], ...], "closed": bool, "label": str}). Signatures
are written as CSV at 17 significant digits, so re-parsing reproduces the
in-memory floats bit for bit; an SVG polyline plot is available for eyes.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import MeshParseError
from .geometry import Mesh, NeighborhoodSpec
from .signatures import Scheme, Signature


def read_mesh(path, closed: bool | None = None) -> Mesh:
    """Load a mesh file, dispatching on its extension (.json or CSV-like)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return read_mesh_json(path, closed=closed)
    return read_mesh_csv(path, closed=bool(closed) if closed is not None else False)


def read_mesh_csv(path, closed: bool = False) -> Mesh:
    """Load a mesh from "x,y" rows; each coordinate is ``float(field)``.

    '#' starts a comment, blank lines are skipped, and leading rows whose
    fields are all non-numeric are headers. A bad row raises MeshParseError
    naming its line.
    """
    path = Path(path)
    coords = _csv_coords(path)
    try:
        return Mesh(coords, closed=closed, label=path.stem)
    except Exception as exc:
        raise MeshParseError(f"{path.name}: {exc}") from exc


def _csv_coords(path: Path) -> np.ndarray:
    text = path.read_text()
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = list(filter(str.strip, lines))
    start = 0
    while start < len(rows) and _is_header(rows[start]):
        start += 1
    data = rows[start:]
    # one comma on every row, not only in total, so that the joined rows split into their own fields
    if data and set(map(str.count, data, repeat(","))) == {1}:
        try:
            return np.fromiter(map(float, ",".join(data).split(",")), float, 2 * len(data)).reshape(-1, 2)
        except ValueError:
            pass
    raise _csv_error(path.name, lines)


def _is_header(row: str) -> bool:
    fields = row.split(",")
    return len(fields) == 2 and not any(map(_is_number, fields))


def _csv_error(name: str, lines: list[str]) -> MeshParseError:
    """The error of the first bad row of a mesh CSV, or of a file without data rows."""
    data_started = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 2:
            return MeshParseError(f"{name}, line {lineno}: expected two fields, got {len(fields)}")
        numeric = [_is_number(f) for f in fields]
        if all(numeric):
            data_started = True
        elif data_started or any(numeric):
            return MeshParseError(f"{name}, line {lineno}: non-numeric field {fields[0]!r} or {fields[1]!r}")
    return MeshParseError(f"{name}: no data rows")


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def read_mesh_json(path, closed: bool | None = None) -> Mesh:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise MeshParseError(f"{path.name}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "points" not in doc:
        raise MeshParseError(f'{path.name}: expected an object with a "points" array')
    points = doc["points"]
    if not isinstance(points, list):
        raise MeshParseError(f'{path.name}: "points" must be an array')
    for k, entry in enumerate(points):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise MeshParseError(f"{path.name}: points[{k}] is not an [x, y] pair")
    mesh_closed = doc.get("closed", False)
    if not isinstance(mesh_closed, bool):
        raise MeshParseError(f'{path.name}: "closed" must be true or false, got {json.dumps(mesh_closed)}')
    try:
        return Mesh(np.array(points, dtype=float), closed=mesh_closed if closed is None else bool(closed),
                    label=str(doc.get("label", path.stem)))
    except Exception as exc:
        raise MeshParseError(f"{path.name}: {exc}") from exc


def write_mesh_csv(mesh: Mesh, path) -> None:
    path = Path(path)
    lines = [f"# label: {mesh.label}", f"# closed: {str(mesh.closed).lower()}", "x,y"]
    x, y = mesh.points.T.tolist()
    lines += ["%.17g,%.17g" % r for r in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")


def write_mesh_json(mesh: Mesh, path) -> None:
    doc = {
        "points": [[float(x), float(y)] for x, y in mesh.points],
        "closed": mesh.closed,
        "label": mesh.label,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


SIGNATURE_HEADER = "index,kappa,kappa_s,scheme,m1,m2"


def signature_text(sig: Signature) -> str:
    """The header and one CSV row per signature point, each float at 17 significant digits, each line ended.

    All rows are formatted by one bytes ``%`` over the whole text, which is
    faster than a str ``%``. ``b"%.17g" % v``, ``"%.17g" % v`` and
    ``format(v, ".17g")`` give the same text for every double.
    """
    row = f"%d,%.17g,%.17g,{sig.scheme.label},{sig.spec.m1},{sig.spec.m2}\n".encode()
    values = chain.from_iterable(zip(sig.indices.tolist(), sig.kappas.tolist(), sig.kappa_s.tolist()))
    return ((f"{SIGNATURE_HEADER}\n".encode() + row * len(sig)) % tuple(values)).decode()


def write_signature_csv(sig: Signature, path, provenance: dict | None = None) -> None:
    """Dump a signature at full precision with provenance comment lines."""
    comments = "".join(f"# {key}: {value}\n" for key, value in (*(provenance or {}).items(), *sig.meta.items()))
    Path(path).write_text(comments + signature_text(sig))


def read_signature_csv(path) -> Signature:
    """Load a signature CSV; every row must name the scheme and stencil of the first row."""
    path = Path(path)
    rows = []
    tail = first_line = kind = None  # the first row's "scheme,m1,m2" fields, its line, (Scheme, spec)
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line == SIGNATURE_HEADER:
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise MeshParseError(f"{path.name}, line {lineno}: expected 6 fields")
        try:
            rows.append((int(fields[0]), float(fields[1]), float(fields[2])))
            if fields[3:] != tail:
                row_kind = (Scheme.from_id(int(fields[3].removeprefix("eq"))),
                            NeighborhoodSpec(int(fields[4]), int(fields[5])))
        except ValueError as exc:
            raise MeshParseError(f"{path.name}, line {lineno}: {exc}") from exc
        if kind is None:
            tail, first_line, kind = fields[3:], lineno, row_kind
        elif fields[3:] != tail and row_kind != kind:
            raise MeshParseError(f"{path.name}, line {lineno}: scheme and stencil {','.join(fields[3:])} "
                                 f"differ from {','.join(tail)} on line {first_line}")
    if kind is None:
        raise MeshParseError(f"{path.name}: no signature rows")
    return Signature(*zip(*rows), *kind)


def signature_svg(sig: Signature, width: int = 640, height: int = 480) -> str:
    """Deterministic standalone SVG plot of (kappa, kappa_s)."""
    margin = 56.0
    xs = sig.kappas if len(sig) else np.array([0.0])
    ys = sig.kappa_s if len(sig) else np.array([0.0])

    def bounds(v):
        lo, hi = float(v.min()), float(v.max())
        pad = 0.05 * (hi - lo) if hi > lo else max(abs(hi), 1.0) * 0.05
        return lo - pad, hi + pad

    x0, x1 = bounds(xs)
    y0, y1 = bounds(ys)

    def px(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
    ]
    for tick in np.linspace(x0, x1, 5):
        x = px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{height - margin}" x2="{x:.2f}" '
                     f'y2="{height - margin + 6}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{height - margin + 20}" font-size="11" '
                     f'text-anchor="middle">{tick:.4g}</text>')
    for tick in np.linspace(y0, y1, 5):
        y = py(tick)
        parts.append(f'<line x1="{margin - 6}" y1="{y:.2f}" x2="{margin}" y2="{y:.2f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{margin - 9}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{tick:.4g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 14}" font-size="12" '
                 f'text-anchor="middle">kappa</text>')
    parts.append(f'<text x="16" y="{height / 2:.0f}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 16 {height / 2:.0f})">kappa_s</text>')
    if len(sig) > 1:
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="steelblue"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="crimson"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_signature_svg(sig: Signature, path, width: int = 640, height: int = 480) -> None:
    Path(path).write_text(signature_svg(sig, width, height))
