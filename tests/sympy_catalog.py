"""The chart catalog as sympy expressions: the oracle for the jet charts.

SYMPY_CATALOG maps each catalog name to a builder with the same keyword
parameters and defaults as geometry.CATALOG; each builder returns an
ImmersionChart.from_sympy chart with the same rectangle and grid.
"""

import math

import sympy as sp

from subdirac.geometry import ImmersionChart

S1, S2 = sp.symbols("s1 s2")
T = sp.Symbol("t")


def plane(**p):
    return ImmersionChart.from_sympy(
        "plane", [S1, S2, 0], [S1, S2], [(0.0, 1.0), (0.0, 1.0)], params=p)


def graph(a=0.8, **p):
    f = a * (S1**2 - S2**2) / 2
    return ImmersionChart.from_sympy(
        "graph", [S1, S2, f], [S1, S2], [(-0.75, 0.75), (-0.75, 0.75)], params={"a": a, **p})


def sphere(r=1.0, **p):
    e = [r * sp.sin(S1) * sp.cos(S2), r * sp.sin(S1) * sp.sin(S2), r * sp.cos(S1)]
    return ImmersionChart.from_sympy(
        "sphere", e, [S1, S2], [(0.45, math.pi - 0.45), (0.3, 5.9)], params={"r": r, **p})


def catenoid(c=1.0, **p):
    e = [c * sp.cosh(S2 / c) * sp.cos(S1), c * sp.cosh(S2 / c) * sp.sin(S1), S2]
    return ImmersionChart.from_sympy(
        "catenoid", e, [S1, S2], [(0.3, 5.9), (-0.75, 0.75)], params={"c": c, **p})


def helicoid(c=0.8, **p):
    e = [S2 * sp.cos(S1), S2 * sp.sin(S1), c * S1]
    return ImmersionChart.from_sympy(
        "helicoid", e, [S1, S2], [(-1.2, 1.2), (-1.0, 1.0)], params={"c": c, **p})


def enneper(**p):
    e = [S1 - S1**3 / 3 + S1 * S2**2,
         -S2 + S2**3 / 3 - S2 * S1**2,
         S1**2 - S2**2]
    return ImmersionChart.from_sympy(
        "enneper", e, [S1, S2], [(-0.7, 0.7), (-0.7, 0.7)], params=p)


def torus(R=2.0, r=0.7, **p):
    e = [(R + r * sp.cos(S2)) * sp.cos(S1),
         (R + r * sp.cos(S2)) * sp.sin(S1),
         r * sp.sin(S2)]
    return ImmersionChart.from_sympy(
        "torus", e, [S1, S2], [(0.25, 6.0), (0.25, 6.0)], params={"R": R, "r": r, **p})


def clifford_torus_r4(r=1.0, **p):
    c = r / sp.sqrt(2)
    e = [c * sp.cos(S1), c * sp.sin(S1), c * sp.cos(S2), c * sp.sin(S2)]
    return ImmersionChart.from_sympy(
        "clifford-torus-r4", e, [S1, S2], [(0.25, 6.0), (0.25, 6.0)], params={"r": r, **p})


def helix_curve(a=1.0, b=0.5, **p):
    e = [a * sp.cos(T), a * sp.sin(T), b * T]
    return ImmersionChart.from_sympy(
        "helix-curve", e, [T], [(0.0, 12.0)], grid_shape=(257,), params={"a": a, "b": b, **p})


def circle_curve(r=1.0, **p):
    e = [r * sp.cos(T), r * sp.sin(T)]
    return ImmersionChart.from_sympy(
        "circle-curve", e, [T], [(0.15, 6.1)], grid_shape=(257,), params={"r": r, **p})


SYMPY_CATALOG = {
    "plane": plane,
    "graph": graph,
    "sphere": sphere,
    "catenoid": catenoid,
    "helicoid": helicoid,
    "enneper": enneper,
    "torus": torus,
    "clifford-torus-r4": clifford_torus_r4,
    "helix-curve": helix_curve,
    "circle-curve": circle_curve,
}
