"""Deterministic figure data: small associahedron face lattices and a
worked cactus composition, as JSON-ready objects plus minimal SVG."""

import math
from fractions import Fraction

from .trees import caterpillar, star, tree_to_obj
from .bracketings import (enumerate_bracketings, maximal_bracketings,
                          bracketing_to_obj)
from .cacti import Cactus, cact1_compose, cactus_to_obj


def _lattice(tree, name):
    """Vertices are the maximal bracketings, edges the bracketings with
    one bracket fewer (nv - 3, read off the enumeration's graded order);
    an edge joins the two maximal bracketings refining it, and is named
    by its one bracket when it has one, else by its list of brackets."""
    verts = sorted(bracketing_to_obj(b) for b in maximal_bracketings(tree))
    rank = tree.vertex_count - 3
    edges = []
    for b in enumerate_bracketings(tree):
        if len(b.brackets) < rank:
            continue
        if len(b.brackets) > rank:
            break
        bo = bracketing_to_obj(b)
        ends = [i for i, v in enumerate(verts) if all(x in v for x in bo)]
        edges.append({"bracket": bo[0] if rank == 1 else bo,
                      "endpoints": ends})
    edges.sort(key=lambda e: e["bracket"])
    return {"figure": name, "tree": tree_to_obj(tree),
            "vertices": verts, "edges": edges}


def pentagon_data():
    return _lattice(caterpillar(4), "pentagon")


def hexagon_data():
    return _lattice(star(3), "hexagon")


def cact_composition_data():
    "A worked 2-lobe into 3-lobe composition at the first lobe."
    x = Cactus(2, [(0, Fraction(1, 2), 1), (Fraction(1, 2), 1, 2)])
    y = Cactus(3, [(0, Fraction(1, 3), 1),
                   (Fraction(1, 3), Fraction(2, 3), 2),
                   (Fraction(2, 3), 1, 3)])
    z = cact1_compose(x, 1, y)
    return {"figure": "cact-composition", "slot": 1,
            "x": cactus_to_obj(x), "y": cactus_to_obj(y),
            "result": cactus_to_obj(z)}


# ---------------------------------------------------------------------------
# SVG rendering.

def _pt(cx, cy, r, k, n):
    ang = 2 * math.pi * k / n - math.pi / 2
    return cx + r * math.cos(ang), cy + r * math.sin(ang)


def _cycle_slots(n, edges):
    """Each vertex's slot on the circle: its place on the polygon's one
    cycle of edges, walked from vertex 0 to its smaller neighbour."""
    nbrs = [set() for _ in range(n)]
    for e in edges:
        i, j = e["endpoints"]
        nbrs[i].add(j)
        nbrs[j].add(i)
    cycle = [0]
    while len(cycle) < n:
        cycle.append(min(nbrs[cycle[-1]] - set(cycle[-2:])))
    return [cycle.index(v) for v in range(n)]


def _polygon_svg(data):
    n = len(data["vertices"])
    slot = _cycle_slots(n, data["edges"])
    cx = cy = 150.0
    r = 110.0
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="300" height="300">']
    for e in data["edges"]:
        i, j = e["endpoints"]
        x1, y1 = _pt(cx, cy, r, slot[i], n)
        x2, y2 = _pt(cx, cy, r, slot[j], n)
        parts.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                     'stroke="black"/>' % (x1, y1, x2, y2))
    for k, v in enumerate(data["vertices"]):
        x, y = _pt(cx, cy, r, slot[k], n)
        parts.append('<circle cx="%.2f" cy="%.2f" r="4" fill="black"/>' % (x, y))
        label = ";".join("".join(str(u) for u in b) for b in v)
        parts.append('<text x="%.2f" y="%.2f" font-size="10" '
                     'text-anchor="middle">%s</text>' % (x, y - 8, label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _bar_svg_rows(obj, y0, parts):
    scale = 260.0
    for a, b, lab in obj["arcs"]:
        xa = float(Fraction(a)) * scale + 20
        xb = float(Fraction(b)) * scale + 20
        hue = (int(lab) * 67) % 360
        parts.append('<rect x="%.2f" y="%d" width="%.2f" height="18" '
                     'fill="hsl(%d,60%%,70%%)" stroke="black"/>'
                     % (xa, y0, xb - xa, hue))
        parts.append('<text x="%.2f" y="%d" font-size="10" '
                     'text-anchor="middle">%s</text>'
                     % ((xa + xb) / 2, y0 + 13, lab))


def _cact_svg(data):
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="300" height="160">']
    for title, key, y0 in [("x", "x", 20), ("y", "y", 70),
                           ("x o_1 y", "result", 120)]:
        parts.append('<text x="4" y="%d" font-size="10">%s</text>'
                     % (y0 + 13, title))
        _bar_svg_rows(data[key], y0, parts)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


FIGURES = {
    "pentagon": pentagon_data,
    "hexagon": hexagon_data,
    "cact-composition": cact_composition_data,
}


def figure_data(name):
    if name not in FIGURES:
        raise KeyError("unknown figure %r (try: %s)"
                       % (name, ", ".join(sorted(FIGURES))))
    return FIGURES[name]()


def figure_svg(data):
    if data["figure"] == "cact-composition":
        return _cact_svg(data)
    return _polygon_svg(data)
