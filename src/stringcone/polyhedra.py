"""Exact rational polyhedral cones.

Double description over exact integers gives minimal V- and H-
representations; sections, face tests, Hilbert bases, and saturation checks
ride on top.  One routine, ``_dd_pair``, computes every hull and section
box; it decides adjacency from the zero sets of the rays, with no
elimination.  The triangulation reads its faces off the same kind of zero
sets, the rays each facet vanishes on.  Lineality is encoded as opposite
ray pairs and equations as opposite facet pairs, which makes dualization a
plain swap.  The redundancy test of ``_dd_pair`` and the reduction test of
``hilbert_basis`` pack a vector's values on a list of normals into one int,
a lane per normal (``linalg.slack_lanes``): one multiply-add per coordinate
computes all of them, and one addition and mask tests their signs.  Each
caller sizes the lanes from a bound on every value it packs or subtracts.
``saturation_check`` compares each section with the string image of its
weight, read from the lambda-keyed images of ``strings.weighted_points``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .errors import PolyhedralError, UnboundedSectionError
from .linalg import hnf_rows, primitive, rank_int, slack_lanes, snf_with_uinv, vec_dot
from .strings import dominant_weights


@dataclass(frozen=True)
class RationalCone:
    """Cone with canonical sorted primitive integer rays and facet normals."""

    ambient_dim: int
    rays: tuple
    facets: tuple
    pointed: bool


def _neg(v):
    return tuple(-c for c in v)


def _canonical_constraints(vectors):
    out = {primitive(v) for v in vectors if any(v)}
    return sorted(out)


def _dd_pair(constraints, dim):
    """Lineality basis and extreme rays of an intersection of halfspaces.

    Incremental insertion; rays stay primitive.  Each ray carries a bitmask
    of the inserted constraints it is tight on, and adjacency is decided on
    these zero sets alone (Fukuda-Prodon, "Double description method
    revisited", 1996): two rays are adjacent when their common zero set has
    at least dim - lineality - 2 members and no third ray is tight on all
    of it.  Constraints already satisfied by the current cone are redundant
    for the final cone and are skipped.  The test packs the values of a
    constraint c on the current rays into one int (``slack_lanes``),
    rebuilt after each insertion that changes the rays; every lane c . r
    obeys |c . r| <= |r|_1 * |c|_inf, which bounds the lane width.
    """
    constraints = _canonical_constraints(constraints)
    reach = max((max(map(abs, c)) for c in constraints), default=0)
    lineality = [tuple(1 if j == k else 0 for j in range(dim)) for k in range(dim)]
    rays: dict = {}  # ray -> bitmask of the inserted constraints tight on it
    columns = None  # packing of the current rays, None once they change
    bit = 1
    for c in constraints:
        lvals = [vec_dot(c, l) for l in lineality]
        if any(lvals):
            k = next(i for i, v in enumerate(lvals) if v)
            l0, p0 = lineality[k], lvals[k]
            if p0 < 0:
                l0, p0 = _neg(l0), -p0
            new_lin = []
            for pos, (l, pl) in enumerate(zip(lineality, lvals)):
                if pos == k:
                    continue
                new_lin.append(primitive(tuple(a * p0 - b * pl for a, b in zip(l, l0))))
            lineality = new_lin
            # every inserted constraint vanishes on l0, so projecting along
            # l0 keeps a ray's zero set and makes it tight on c
            projected = {}
            for r, m in rays.items():
                pr = vec_dot(c, r)
                cand = primitive(tuple(a * p0 - b * pr for a, b in zip(r, l0)))
                if any(cand):
                    projected[cand] = m | bit
            projected[l0] = bit - 1
            rays = projected
            columns = None
            bit <<= 1
            continue
        if columns is None:
            columns, sign = slack_lanes(rays, reach)
        if (sum(map(mul, c, columns)) + sign) & sign == sign:
            continue
        vals = [(r, m, vec_dot(c, r)) for r, m in rays.items()]
        need = dim - len(lineality) - 2
        plus = [(r, m, v) for r, m, v in vals if v > 0]
        minus = [(r, m, v) for r, m, v in vals if v < 0]
        nxt = {r: (m | bit if v == 0 else m) for r, m, v in vals if v >= 0}
        # distinct extreme rays have distinct zero sets, so a mask equal to
        # mp or mm is that ray itself
        for rp, mp, vp in plus:
            for rm, mm, vm in minus:
                common = mp & mm
                if common.bit_count() < need or any(
                        mk & common == common and mk != mp and mk != mm
                        for mk in rays.values()):
                    continue
                ray = primitive(tuple(-vm * a + vp * b for a, b in zip(rp, rm)))
                nxt[ray] = common | bit
        rays = nxt
        columns = None
        bit <<= 1
    return tuple(hnf_rows(lineality)), tuple(sorted(rays))


def _generators(lineality, rays):
    vecs = set(rays)
    for l in lineality:
        vecs.add(tuple(l))
        vecs.add(_neg(l))
    return tuple(sorted(vecs))


def conic_hull(points) -> RationalCone:
    """Cone generated by integer points, with minimal representations.

    The dual cone is computed first (the points act as constraints); its
    generators are the facets, and a second pass recovers the extreme rays.
    """
    pts = [tuple(map(int, p)) for p in points]
    if not pts:
        raise PolyhedralError("cannot take the conic hull of an empty set")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise PolyhedralError("points have inconsistent dimension")
    dual_lin, dual_rays = _dd_pair(pts, dim)
    facets = _generators(dual_lin, dual_rays)
    lin, rays = _dd_pair(facets, dim)
    return RationalCone(
        ambient_dim=dim,
        rays=_generators(lin, rays),
        facets=facets,
        pointed=not lin,
    )


def dualize(cone: RationalCone) -> RationalCone:
    """Swap the two descriptions; an involution up to canonical sorting."""
    return RationalCone(
        ambient_dim=cone.ambient_dim,
        rays=cone.facets,
        facets=cone.rays,
        pointed=rank_int(cone.rays) == cone.ambient_dim if cone.rays else cone.ambient_dim == 0,
    )


def contains(cone: RationalCone, point) -> bool:
    return all(vec_dot(u, point) >= 0 for u in cone.facets)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def section_lattice_points(cone: RationalCone, lam):
    """Integer points of the cone section with the leading block fixed to lam.

    The section polytope is homogenized and its vertices bound an exact box;
    an empty section yields no points, and unbounded sections are rejected
    with a certifying recession ray.  The scan fixes the free coordinates
    from the last to the first.  A facet whose first nonzero free
    coefficient sits at k bounds x_k once the coordinates after k are fixed,
    so each facet is enforced exactly once and every emitted point satisfies
    all of them.  String cones suit this order: their lambda-inequalities
    bound each coordinate by the ones after it in the word (Littelmann,
    "Cones, crystals, and patterns", Prop. 1.5).
    """
    lam = tuple(lam)
    n = len(lam)
    nfree = cone.ambient_dim - n
    if nfree <= 0:
        raise PolyhedralError("section leaves no free coordinates")
    rows = []
    for u in cone.facets:
        rows.append((vec_dot(u[:n], lam), u[n:]))
    homog = [(1,) + (0,) * nfree]
    homog += [(const,) + tuple(coeffs) for const, coeffs in rows]
    lin, rays = _dd_pair(homog, nfree + 1)
    if not any(v[0] > 0 for v in rays):
        return ()  # the homogenized cone lies in x_0 = 0: the section is empty
    for v in lin + rays:
        if v[0] == 0:
            raise UnboundedSectionError(
                f"section at lambda={lam} is unbounded", ray=v[1:]
            )
    lo = [min(_ceil_div(v[k], v[0]) for v in rays) for k in range(1, nfree + 1)]
    hi = [max(v[k] // v[0] for v in rays) for k in range(1, nfree + 1)]
    # buckets[k]: (constant, c_k, ((j, c_j) for the nonzero c_j with j > k))
    buckets = [[] for _ in range(nfree)]
    for const, coeffs in rows:
        k = next((j for j, c in enumerate(coeffs) if c), None)
        if k is None:
            if const < 0:
                return ()
            continue
        tail = tuple((j, c) for j, c in enumerate(coeffs) if c and j > k)
        buckets[k].append((const, coeffs[k], tail))
    found = []
    point = [0] * nfree

    def scan(k):
        lo_k, hi_k = lo[k], hi[k]
        for const, c, tail in buckets[k]:
            rest = const + sum(cj * point[j] for j, cj in tail)
            if c > 0:
                lo_k = max(lo_k, _ceil_div(-rest, c))
            else:
                hi_k = min(hi_k, rest // -c)
        if k == 0:
            after = tuple(point[1:])
            found.extend((v,) + after for v in range(lo_k, hi_k + 1))
            return
        for v in range(lo_k, hi_k + 1):
            point[k] = v
            scan(k - 1)

    scan(nfree - 1)
    return tuple(sorted(found))


def is_face(cone: RationalCone, points):
    """Decide whether the points span a face; return a supporting normal.

    The candidate face is the intersection of all facets vanishing on every
    point, the smallest face holding them.  A pointed face is the hull of
    its extreme rays, and an extreme ray is a nonnegative sum of points of
    the face only when those points lie on it, so the points span the face
    exactly when every primitive extreme ray of the face is the primitive
    of one of the points.  The sum of the vanishing facets is a valid inequality
    vanishing precisely on the face (the zero vector for the whole cone).
    """
    if not cone.pointed:
        raise PolyhedralError("face test requires a pointed cone")
    pts = [tuple(p) for p in points]
    if not pts:
        raise PolyhedralError("empty point set")
    for p in pts:
        if not contains(cone, p):
            raise PolyhedralError(f"point {p} lies outside the cone")
    active = [u for u in cone.facets if all(vec_dot(u, p) == 0 for p in pts)]
    face_rays = {
        r for r in cone.rays if all(vec_dot(u, r) == 0 for u in active)
    }
    if not face_rays <= {primitive(p) for p in pts}:
        return False, None
    if active:
        normal = primitive(tuple(sum(col) for col in zip(*active)))
    else:
        normal = (0,) * cone.ambient_dim
    return True, normal


def _triangulate(cone: RationalCone):
    """Pulling triangulation of a pointed cone into simplicial ray subsets.

    Works on the face lattice alone (Bruns-Koch, "Computing the integral
    closure of an affine semigroup", 2001).  Each face is the bitmask of the
    sorted rays it contains, and each facet normal gives the mask of the
    rays it vanishes on.  The facets of a face F are the maximal proper
    ``F & m``; equation pairs contain every ray and drop out.  A face is a
    simplex when its ray count equals its dimension, which starts at the
    rank of the rays and falls by one per level.  The apex of a face is its
    lowest ray, and the cells are the apex joined to the triangulations of
    the facets missing it.
    """
    rays = sorted(cone.rays)
    facet_masks = set()
    for u in cone.facets:
        mask = 0
        for i, r in enumerate(rays):
            if not vec_dot(u, r):
                mask |= 1 << i
        facet_masks.add(mask)
    memo = {}

    def rec(face, dim):
        cells = memo.get(face)
        if cells is not None:
            return cells
        if face.bit_count() == dim:
            cells = (face,)
        else:
            apex = face & -face
            subs = {face & m for m in facet_masks} - {face}
            cells = tuple(
                cell | apex
                for facet in subs
                if not facet & apex
                and not any(facet & other == facet != other for other in subs)
                for cell in rec(facet, dim - 1)
            )
        memo[face] = cells
        return cells

    full = (1 << len(rays)) - 1
    return tuple(
        tuple(r for i, r in enumerate(rays) if cell >> i & 1)
        for cell in rec(full, rank_int(rays))
    )


def _parallelepiped_points(matrix):
    """Nonzero lattice points of the half-open parallelepiped of a simplex.

    ``matrix`` is the dim x k matrix M whose columns are the simplex rays,
    of rank k; dim may exceed k.  With U * M * V = D in Smith form, the
    points M * lam with lam in [0, 1)^k are integral exactly for
    lam = frac(V * (y_i / d_i)) with y in prod [0, d_i).  Scaling by the
    last invariant factor d_k keeps every step in integers.
    """
    diag, v = snf_with_uinv(matrix)
    top = diag[-1]
    points = []
    for residue in itertools.product(*(range(d) for d in diag)):
        if not any(residue):
            continue
        scaled = [y * (top // d) for y, d in zip(residue, diag)]
        lam = [vec_dot(row, scaled) % top for row in v]
        points.append(tuple(vec_dot(row, lam) // top for row in matrix))
    return tuple(points)


def hilbert_basis(cone: RationalCone, grading):
    """Minimal generating set of the cone's lattice-point semigroup.

    Requires a pointed cone and a grading strictly positive on the rays.
    The cone may be lower-dimensional; the lattice is always Z^dim.
    Candidates are the rays plus the lattice points of each simplicial
    parallelepiped of a pulling triangulation (Bruns-Koch, "Computing the
    integral closure of an affine semigroup", 2001); a candidate survives
    when subtracting a lower-degree survivor leaves the cone.  Each
    candidate's facet slack (its values on the facet normals) is packed
    once into one int (``slack_lanes``), and h - g lies in the cone
    exactly when the packed difference has no negative lane.  A candidate
    is a ray or lies in a half-open parallelepiped of rays, so |h|_inf <=
    sum over the rays r of |r|_inf, and every lane of a slack or of a
    slack difference is at most max |u|_1 over the facets u times that.
    """
    if not cone.pointed:
        raise PolyhedralError("Hilbert basis requires a pointed cone")
    grading = tuple(grading)
    if len(grading) != cone.ambient_dim:
        raise PolyhedralError("grading has wrong dimension")
    if not cone.rays:
        return ()
    for r in cone.rays:
        if vec_dot(grading, r) <= 0:
            raise PolyhedralError(f"grading is not positive on ray {r}")
    candidates = set(cone.rays)
    for simplex in _triangulate(cone):
        candidates.update(_parallelepiped_points(list(zip(*simplex))))
    graded = sorted(candidates, key=lambda c: (vec_dot(grading, c), c))
    reach = sum(max(map(abs, r)) for r in cone.rays)
    columns, sign = slack_lanes(cone.facets, reach)
    basis = []  # (degree, packed facet slack, point) of each survivor
    for h in graded:
        gh = vec_dot(grading, h)
        sh = sum(map(mul, h, columns))
        biased = sh + sign  # (biased - sg) & sign is the sign test of sh - sg
        reducible = False
        for gg, sg, _ in basis:
            if gg >= gh:
                break
            if (biased - sg) & sign == sign:
                reducible = True
                break
        if not reducible:
            basis.append((gh, sh, h))
    return tuple(sorted(h for _, _, h in basis))


@dataclass(frozen=True)
class SectionCount:
    lam: tuple
    cone_count: int
    data_count: int


@dataclass(frozen=True)
class SaturationReport:
    """Per-weight comparison of cone sections against enumerated strings.

    The two point lists hold ``(lam, psi)`` pairs.
    """

    level_bound: int
    sections: tuple
    cone_points_missing_from_data: tuple
    data_points_outside_cone: tuple

    @property
    def clean(self) -> bool:
        return not self.cone_points_missing_from_data and not self.data_points_outside_cone


def saturation_check(cone: RationalCone, images, level_bound: int) -> SaturationReport:
    """Compare integral cone sections with the lambda-keyed string images.

    A section and a string image are both sorted tuples of distinct points,
    so equal tuples settle a weight; sets are built only where they differ.
    """
    if not images:
        raise PolyhedralError("no enumerated points supplied")
    n = len(next(iter(images)))
    sections = []
    missing = []
    outside = []
    for lam in dominant_weights(n, level_bound):
        sec = section_lattice_points(cone, lam)
        data = images.get(lam, ())
        if sec != data:
            sec, data = set(sec), set(data)
            missing.extend((lam, p) for p in sorted(sec - data))
            outside.extend((lam, p) for p in sorted(data - sec))
        sections.append(SectionCount(lam=lam, cone_count=len(sec), data_count=len(data)))
    return SaturationReport(
        level_bound=level_bound,
        sections=tuple(sections),
        cone_points_missing_from_data=tuple(missing),
        data_points_outside_cone=tuple(outside),
    )


def format_h_rep(cone: RationalCone) -> str:
    """Canonical H-representation text: dim header, facet rows, ray rows."""
    lines = [f"dim {cone.ambient_dim}", f"facets {len(cone.facets)}"]
    lines += [" ".join(str(c) for c in u) for u in cone.facets]
    lines.append(f"rays {len(cone.rays)}")
    lines += [" ".join(str(c) for c in r) for r in cone.rays]
    return "\n".join(lines) + "\n"


def parse_h_rep(text: str) -> RationalCone:
    """Parse the H-representation text format back into a cone."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        if lines[0].split()[0] != "dim":
            raise ValueError
        dim = int(lines[0].split()[1])
        nfac = int(lines[1].split()[1])
        facets = tuple(
            tuple(int(c) for c in lines[2 + i].split()) for i in range(nfac)
        )
        ray_header = lines[2 + nfac].split()
        if ray_header[0] != "rays":
            raise ValueError
        nray = int(ray_header[1])
        rays = tuple(
            tuple(int(c) for c in lines[3 + nfac + i].split()) for i in range(nray)
        )
    except (IndexError, ValueError) as exc:
        raise PolyhedralError("malformed H-representation text") from exc
    for v in facets + rays:
        if len(v) != dim:
            raise PolyhedralError("vector dimension mismatch in H-representation")
    pointed = rank_int(facets) == dim if facets else dim == 0
    return RationalCone(ambient_dim=dim, rays=rays, facets=facets, pointed=pointed)
