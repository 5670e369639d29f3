"""Wavefront OBJ emission for reconstructed coordinate grids."""

from __future__ import annotations

import functools

import numpy as np


def export_obj(coords: np.ndarray, path, chart_id: str = "chart") -> None:
    """Write a coordinate grid as an OBJ mesh.

    Surfaces (grid shape (N1, N2, n)) become a triangle sheet: vertices in
    row-major order, each quad split into two triangles.  Curves (shape
    (N, n)) become a polyline of `l` elements.  Ambient dimension 3 is
    written directly; dimension 4 is orthographically projected onto the
    first three axes (noted in the header).  Anything else is rejected, and
    so is a grid holding a non-finite coordinate (nan, +-inf), before the
    file is opened.

    Each coordinate is written exactly as Python's ``'%.17g'`` writes it:
    17 significant digits, so the text reads back to the same float.  The
    text is built on whole arrays (`_vertex_lines`), and lines end in
    ``\\n`` on every platform.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[-1]
    if n not in (3, 4) and not (coords.ndim == 2 and n == 2):
        raise ValueError(f"OBJ export supports ambient dimension 2 (curves), 3 or 4, got {n}")
    grid_shape = coords.shape[:-1]
    if len(grid_shape) not in (1, 2):
        raise ValueError("OBJ export needs a curve or surface grid")
    finite = np.isfinite(coords)
    if not finite.all():
        bad = np.argwhere(~finite)
        raise ValueError(f"OBJ export needs finite coordinates, got {len(bad)} non-finite "
                         f"{np.unique(coords[~finite]).tolist()}, the first at grid point "
                         f"{tuple(bad[0, :-1].tolist())}")

    header = f"# {chart_id}: grid {'x'.join(str(s) for s in grid_shape)}\n"
    if n == 4:
        header += "# ambient dimension 4: orthographic projection onto the first three axes\n"
    verts = coords.reshape(-1, n)[:, :3]
    if verts.shape[1] == 2:
        verts = np.column_stack([verts, np.zeros(len(verts))])
    if len(grid_shape) == 1:
        elements = ("l " + " ".join(map(str, range(1, grid_shape[0] + 1))) + "\n").encode()
    else:
        elements = _face_block(*grid_shape)
    text = b"".join([header.encode(), _vertex_lines(verts), elements])
    with open(path, "wb") as fh:
        fh.write(text)


@functools.lru_cache(maxsize=4)
def _face_block(n1: int, n2: int) -> bytes:
    """The face lines of an n1 x n2 surface grid, formatted once per grid shape:
    a later export of the same shape in this process (the second file of a
    reconstruct command, every op after the first in a long-running process)
    reuses the bytes.

    Quad (i, j) has corners a = i n2 + j + 1, b = a + 1, c = a + n2, d = c + 1
    and is split into the triangles (a, b, d) and (a, d, c).
    """
    a = (np.arange(n1 - 1)[:, None] * n2 + np.arange(n2 - 1) + 1).ravel()
    faces = np.stack([a, a + 1, a + n2 + 1, a, a + n2 + 1, a + n2], axis=-1)
    return ("f %d %d %d\nf %d %d %d\n" * len(a) % tuple(faces.ravel().tolist())).encode()


# ---------------------------------------------------------------------------
# '%.17g' on whole arrays
#
# '%.17g' rounds x half-even to 17 significant digits N * 10**(E - 16) and
# writes it in fixed notation when -4 <= E <= 16, trailing fractional zeros
# and a bare point stripped; otherwise in exponent notation.  Rounding never
# carries into the next power of ten: a double below 10**k lies at least half
# an ulp (> 5e-17 relative) under it, while the carry would need 5e-18.  So
# the fixed range is exactly 1e-4 <= |x| < 1e17 (fl(1e-4) is above 10**-4
# and its predecessor below), and there E = floor(log10|x|).

_SPLITTER = 2.0 ** 27 + 1.0  # Veltkamp's split into two 26-bit halves


def _veltkamp(b):
    """b and its halves hi + lo = b, hi with at most 26 significant bits."""
    hi = _SPLITTER * b - (_SPLITTER * b - b)
    return b, hi, b - hi


# 10**p for p = 0..20 (exact: every 10**p up to 10**22 is a double) and its halves
_POW10 = np.array([_veltkamp(float(10 ** p)) for p in range(21)]).T

# Character slots of one coordinate, top to bottom: the 'v' that opens a
# line, the space before each coordinate, the sign, the "0." and up to three
# zeros that lead a number below 1, the 17 digits with a point slot after
# each but the last, and the newline after the third coordinate.  A digit
# slot holds its ASCII digit, every other slot a flag that _TEMPLATE turns
# into its character; 0 is dropped.
_TEMPLATE = np.frombuffer(b"v -0.000" + b"\1." * 16 + b"\1\n", np.uint8)[:, None]
_DIGITS, _POINTS = slice(8, 41, 2), slice(9, 40, 2)


def _vertex_lines(verts: np.ndarray) -> bytes:
    """The ``v x y z`` lines of an (N, 3) array, byte for byte
    ``"v %.17g %.17g %.17g\\n" * N % tuple(verts.ravel())``.

    The text is laid out on entry-major byte planes, one row per character
    slot (see `_TEMPLATE`) and one column per coordinate; reading the planes
    column by column and dropping the 0 bytes gives the lines.  Coordinates
    in exponent notation (below 1e-4 or from 1e17 in magnitude) are rare in
    a mesh: their columns hold a ``%s``, which Python's own '%.17g' fills.
    """
    x = verts.ravel()
    digits, e, spill = _significands(x)
    planes = np.empty((len(_TEMPLATE), x.size), np.uint8)
    dig = planes[_DIGITS]
    top = digits // 10 ** 8  # (np.divmod and % are slower than // here)
    dig[0] = d0 = top // 10 ** 8
    halves = np.stack([top - d0 * 10 ** 8, digits - top * 10 ** 8]).astype(np.uint32)
    for k in range(8, 0, -1):  # digits k and 8 + k
        q = halves // 10
        dig[k::8][:2] = halves - q * 10
        halves = q
    rank = np.arange(17, dtype=np.int8)[:, None]
    last = (rank * (dig != 0)).max(axis=0)  # the last nonzero digit, 0 for x = 0
    dig += ord("0")
    dig *= rank <= np.maximum(e, last)  # the integer digits and the fraction up to `last`
    planes[_POINTS] = rank[:16] == np.where(last > e, e, -1)
    column = np.arange(x.size) % 3
    planes[0] = column == 0
    planes[1] = True
    planes[2] = np.signbit(x)
    planes[3:5] = e < 0  # "0."
    planes[5:8] = rank[:3] >= e + 4  # "0.0", "0.00", "0.000" for E = -2, -3, -4
    planes[-1] = column == 2
    planes *= _TEMPLATE
    spilled = np.flatnonzero(spill)
    planes[2:-1, spilled] = 0
    planes[2:4, spilled] = np.frombuffer(b"%s", np.uint8)[:, None]
    # slots no coordinate uses (point slots above the largest E, say) are
    # dropped before the column-major read
    text = planes[planes.any(axis=1)].tobytes(order="F").translate(None, b"\0")
    if len(spilled):
        text %= tuple(("%.17g " * len(spilled) % tuple(x[spilled].tolist())).encode().split())
    return text


def _significands(x: np.ndarray):
    """17-digit significands N, decimal exponents E (int8) and the exponent-
    notation mask of the coordinates x, with x ~= N * 10**(E - 16) rounded
    half-even as '%.17g' rounds.  N and E are 0 at zeros and exponent-notation
    entries.

    In the fixed range, E comes from log10 and is corrected where it misses
    by one next to a power of ten; |x| * 10**(16 - E) = hi + lo exactly
    (Dekker's two-product), hi is an even integer (it is at least 1e16 > 2**53)
    and |lo| <= 8, so N = hi + rint(lo) rounds the exact product half-even.
    """
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    spill = ~fixed & (a != 0)
    a[~fixed] = 1.0  # keeps log10 and the split finite
    e = np.log10(a)
    np.floor(e, out=e)
    e = np.clip(e, -4, 16, out=e).astype(np.int8)
    hi, lo = _exact_scaled(a, e)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if low.any() or high.any():
        e += high
        e -= low
        hi, lo = _exact_scaled(a, e)
    digits = hi.astype(np.int64)
    digits += np.rint(lo, out=lo).astype(np.int64)
    digits *= fixed  # E is 0 there already: log10(1)
    return digits, e, spill


def _exact_scaled(a: np.ndarray, e: np.ndarray):
    """hi + lo = a * 10**(16 - e) exactly, hi = fl(a * 10**(16 - e)): Dekker's
    two-product, exact for 1e-4 <= a < 1e17 and -4 <= e <= 16 (no underflow
    or overflow)."""
    b, b_hi, b_lo = _POW10[:, 16 - e]
    _, a_hi, a_lo = _veltkamp(a)
    hi = a * b
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
