"""Wavefront OBJ emission for reconstructed coordinate grids."""

from __future__ import annotations

import numpy as np


def export_obj(coords: np.ndarray, path, chart_id: str = "chart") -> None:
    """Write a coordinate grid as an OBJ mesh.

    Surfaces (grid shape (N1, N2, n)) become a triangle sheet: vertices in
    row-major order, each quad split into two triangles.  Curves (shape
    (N, n)) become a polyline of `l` elements.  Ambient dimension 3 is
    written directly; dimension 4 is orthographically projected onto the
    first three axes (noted in the header).  Anything else is rejected.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[-1]
    if n not in (3, 4) and not (coords.ndim == 2 and n == 2):
        raise ValueError(f"OBJ export supports ambient dimension 2 (curves), 3 or 4, got {n}")
    grid_shape = coords.shape[:-1]
    if len(grid_shape) not in (1, 2):
        raise ValueError("OBJ export needs a curve or surface grid")

    parts = [f"# {chart_id}: grid {'x'.join(str(s) for s in grid_shape)}\n"]
    if n == 4:
        parts.append("# ambient dimension 4: orthographic projection onto the first three axes\n")
    verts = coords.reshape(-1, n)[:, :3]
    if verts.shape[1] == 2:
        verts = np.column_stack([verts, np.zeros(len(verts))])
    parts.append("v %.17g %.17g %.17g\n" * len(verts) % tuple(verts.ravel().tolist()))

    if len(grid_shape) == 1:
        parts.append("l " + " ".join(map(str, range(1, grid_shape[0] + 1))) + "\n")
    else:
        # quad (i, j) has corners a = i n2 + j + 1, b = a + 1, c = a + n2, d = c + 1
        # and is split into the triangles (a, b, d) and (a, d, c)
        n1, n2 = grid_shape
        a = (np.arange(n1 - 1)[:, None] * n2 + np.arange(n2 - 1) + 1).ravel()
        faces = np.stack([a, a + 1, a + n2 + 1, a, a + n2 + 1, a + n2], axis=-1)
        parts.append("f %d %d %d\nf %d %d %d\n" * len(a) % tuple(faces.ravel().tolist()))
    with open(path, "w") as fh:
        fh.write("".join(parts))
