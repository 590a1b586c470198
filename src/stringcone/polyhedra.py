"""Exact rational polyhedral cones.

Double description over exact integers gives minimal V- and H-
representations; sections, face tests, Hilbert bases, and saturation checks
ride on top.  One double-description loop, ``_DoubleDescription.insert``,
computes every hull; it decides adjacency from the zero sets of the
rays, with no elimination.  Its state resumes, so a cone can take its
constraints in batches: ``degeneration.level_hull`` grows the dual of a
hull one shell of points at a time, and ``conic_hull`` and ``_dd_pair``
insert everything at once.  A pointed hull's rays are read off the same
zero sets: an inserted point spans a ray when no other inserted point is
tight on every dual ray it is tight on.  Only a hull with lineality
takes a second pass.  The triangulation reads its faces off the same
kind of zero sets, the rays each facet vanishes on.  Lineality is
encoded as opposite ray pairs and equations as opposite facet pairs,
which makes dualization a plain swap.
The redundancy test of the double description and the reduction test of
``hilbert_basis`` pack a vector's values on a list of normals into one int,
a lane per normal (``linalg.slack_lanes``): one multiply-add per coordinate
computes all of them, and one addition and mask tests their signs.  Each
caller sizes the lanes from a bound on every value it packs or subtracts.
One kernel, ``_section_runs``, scans every section under a list of
constraints, with no box: it files each row once under the first free
coordinate it bounds and fixes the free coordinates from the last to
x_1, one level at a time for all prefixes at once, with C-level maps
over arithmetic progressions in place of a Python loop per prefix.  Each
tail x_1 ... x_{m-1} gets one run ``lo ... hi`` of x_0 instead of a point
per x_0, and one int key, mixed radix over its coordinates, whose order
is lexicographic tail order; the key grows by one coordinate per level
like the tail does.  Every free coordinate needs a constraint bounding
it from each side once the later ones are fixed; a string cone's facets
with Littelmann's rows give that.  ``count_section_points`` sums the run
lengths and never reads a tail or a key; the certificate compares these
counts with the image sizes, because its data lie in its cone and each
image is injective.  ``section_runs`` orders the nonempty runs by key
and files their ranks in that order under each x_0 they cover, walking
x_0 from the top down, which lists a section in lexicographic order with
no point sort and no tail tuple: ``polytope`` prints its points from
per-integer text pieces, and ``section_lattice_points`` maps the ranks
to tail tuples and flattens the segments into points.
``saturation_check``, a test oracle, compares each section with the
sorted string image of its weight, read from the lambda-keyed images of
``strings.weighted_points``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import namedtuple
from itertools import chain, compress, repeat, tee
from operator import add, floordiv, le, mul

from .errors import PolyhedralError
from .linalg import det_int, hnf_rows, primitive, rank_int, slack_lanes, snf_with_uinv, vec_dot
from .strings import dominant_weights


class RationalCone(namedtuple("RationalCone", "ambient_dim rays facets pointed")):
    """Cone with canonical sorted primitive integer rays and facet normals."""

    __slots__ = ()


def _neg(v):
    return tuple(-c for c in v)


def _canonical_constraints(vectors):
    out = {primitive(v) for v in vectors if any(v)}
    return sorted(out)


class _DoubleDescription:
    """Lineality basis and extreme rays of an intersection of halfspaces, grown in batches.

    Incremental insertion; rays stay primitive.  Each ray carries a bitmask
    of the inserted constraints it is tight on, and adjacency is decided on
    these zero sets alone (Fukuda-Prodon, "Double description method
    revisited", 1996): two rays are adjacent when their common zero set has
    at least dim - lineality - 2 members and no third ray is tight on all
    of it.  Constraints already satisfied by the current cone are redundant
    for the final cone and are skipped.  The test packs the values of a
    constraint c on the current rays into one int (``slack_lanes``),
    rebuilt after each insertion that changes the rays; every lane c . r
    obeys |c . r| <= |r|_1 * |c|_inf, which bounds the lane width.  The
    state resumes: ``insert`` takes a batch at any time, the bits go on
    from the last batch, and the reach grows to the batch's largest
    entry, so a later batch of larger entries gets wider lanes.  The
    constraint of each bit is kept, so ``hull`` can read the extreme rays
    of the cone they generate off the zero sets.
    """

    __slots__ = ("dim", "lineality", "rays", "bit", "reach", "inserted")

    def __init__(self, dim):
        self.dim = dim
        self.lineality = [tuple(1 if j == k else 0 for j in range(dim)) for k in range(dim)]
        self.rays: dict = {}  # ray -> bitmask of the inserted constraints tight on it
        self.bit = 1
        self.reach = 0
        self.inserted = []  # the constraint of each bit, lowest bit first

    def insert(self, constraints):
        """Intersect the cone with the halfspaces c . x >= 0 of a batch, in canonical order."""
        constraints = _canonical_constraints(constraints)
        self.reach = reach = max([self.reach] + [max(map(abs, c)) for c in constraints])
        dim, lineality, rays, bit = self.dim, self.lineality, self.rays, self.bit
        inserted = self.inserted
        columns = None  # packing of the current rays, None once they change
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
                inserted.append(c)
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
            inserted.append(c)
            bit <<= 1
        self.lineality, self.rays, self.bit = lineality, rays, bit

    def result(self):
        """The lineality in Hermite form and the sorted rays: canonical for the cone."""
        return tuple(hnf_rows(self.lineality)), tuple(sorted(self.rays))

    def generators(self):
        """The rays and both signs of each lineality vector, sorted."""
        return _generators(*self.result())

    def hull(self) -> RationalCone:
        """Conic hull of the inserted constraints; its facets are this cone's generators.

        A skipped constraint is a conic combination of earlier inserted
        ones, so the hull's rays are among the inserted constraints.  One
        tight on every ray of this cone, the hull's dual, lies in the hull's
        lineality; without one the hull is pointed, and an inserted
        constraint spans an extreme ray exactly when it is the only one
        tight on every ray that is tight on it: the rays tight on it then
        cut out a face holding no other generator.  A hull with lineality
        takes a second, one-shot pass over its facets.
        """
        facets = self.generators()
        full = self.bit - 1
        common = full
        for mask in self.rays.values():
            common &= mask
        if common:
            lin, rays = _dd_pair(facets, self.dim)
            return RationalCone(self.dim, _generators(lin, rays), facets, pointed=not lin)
        face = {}  # bit -> the inserted bits tight on every ray tight on it
        for mask in self.rays.values():
            rest = mask
            while rest:
                low = rest & -rest
                face[low] = face.get(low, full) & mask
                rest ^= low
        rays = tuple(sorted(c for k, c in enumerate(self.inserted)
                            if face.get(1 << k, full) == 1 << k))
        return RationalCone(self.dim, rays, facets, pointed=True)


def _dd_pair(constraints, dim):
    """Lineality basis and extreme rays of an intersection of halfspaces, in one batch."""
    cone = _DoubleDescription(dim)
    cone.insert(constraints)
    return cone.result()


def _generators(lineality, rays):
    vecs = set(rays)
    for l in lineality:
        vecs.add(tuple(l))
        vecs.add(_neg(l))
    return tuple(sorted(vecs))


def conic_hull(points) -> RationalCone:
    """Cone generated by integer points, with minimal representations.

    The dual cone is computed first (the points act as constraints); its
    generators are the facets.  The extreme rays are read off its zero
    sets when the hull is pointed, and recovered by a second pass over the
    facets when it has lineality.
    """
    pts = [tuple(map(int, p)) for p in points]
    if not pts:
        raise PolyhedralError("cannot take the conic hull of an empty set")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise PolyhedralError("points have inconsistent dimension")
    dual = _DoubleDescription(dim)
    dual.insert(pts)
    return dual.hull()


def contains(cone: RationalCone, point) -> bool:
    return all(vec_dot(u, point) >= 0 for u in cone.facets)


def _section_runs(constraints, lam):
    """Tail columns, keys and x_0 bounds ``(columns, keys, los, his)`` of the section at lam.

    The one scan behind ``section_runs`` and ``count_section_points``.
    Each constraint u gives a row const + coeffs . x >= 0, with const the
    dot of its first len(lam) entries with lam and coeffs the rest, over
    the free coordinates x_0 ... x_{m-1}.  Each row is read once and
    filed under its first nonzero free coordinate k, which it bounds from
    below when c_k > 0 and from above when c_k < 0.
    Either bound is a floor, floor((d + t . x) / |c_k|): a row bounding
    from above keeps its constant and coefficients, and a row bounding from
    below negates them and adds |c_k| - 1 to the constant, which turns its
    ceiling into a floor.  The later coefficients t are kept sparse.  A row
    with no later coefficient is a constant bound, each side keeping its
    tightest, and a row with no free coefficient holds or fails outright;
    one that fails leaves no runs.  The scan fixes x_{m-1} ... x_1 from the
    last to the first, one level at a time for every prefix at once, so
    each row is enforced exactly once.  A prefix x_{k+1} ... x_{m-1} leaves
    a range of x_k; a row filed under k - 1 has one base value per prefix,
    and over the range of x_k its values are an arithmetic progression, so
    ``map`` over the progressions bounds x_{k-1} for every prefix and x_k
    with no Python frame per prefix.  Exact integers throughout.  Each tail
    x_1 ... x_{m-1} comes with the bounds lo and hi on x_0, one run of
    x_0 = lo ... hi that is never listed and is empty when lo > hi.  The
    tails come in colexicographic order, as the columns x_1, ..., x_{m-1}
    (none when m = 1), each an iterator read at most once and computed
    only when it is read.  Each tail also gets a key, sum x_k * w_k with
    w_{m-1} = 1 and w_{k-1} = w_k times max - min + 1 of x_k over the
    nonempty ranges of its level, so the later coordinates never reach
    the next weight and integer order is lexicographic tail order.  A
    prefix's key plus w_k * x_k over the range of x_k is a progression,
    taken with ``range`` like the rows' values; the keys are an iterator
    too, and ``los`` and ``his`` are lists.  Every free coordinate needs a
    row bounding it from below and one bounding it from above.
    """
    n = len(lam)
    rows = [(vec_dot(u[:n], lam), u[n:]) for u in constraints]
    nfree = len(rows[0][1]) if rows else 0
    if nfree <= 0:
        raise PolyhedralError("section leaves no free coordinates")
    # per side (0 below, 1 above) and coordinate k: (d, |c_k|, t_{k+1},
    # ((j, t_j), ...) for the nonzero t_j with j > k + 1) per row with a
    # later coefficient, and the tightest constant bound
    filed = ([[] for _ in range(nfree)], [[] for _ in range(nfree)])
    consts = ([[] for _ in range(nfree)], [[] for _ in range(nfree)])
    for const, coeffs in rows:
        k = next((j for j, c in enumerate(coeffs) if c), None)
        if k is None:
            if const < 0:
                return [], [], [], []
            continue
        c = coeffs[k]
        if c > 0:
            side, const, later = 0, c - 1 - const, [-t for t in coeffs[k + 1:]]
        else:
            side, c, later = 1, -c, coeffs[k + 1:]
        if any(later):
            rest = tuple((j, t) for j, t in enumerate(later[1:], k + 2) if t)
            filed[side][k].append((const, c, later[0], rest))
        else:
            consts[side][k] = [(max, min)[side]([const // c] + consts[side][k])]
    for k in range(nfree):
        if not (filed[0][k] or consts[0][k]) or not (filed[1][k] or consts[1][k]):
            raise PolyhedralError(f"the constraints leave free coordinate {k} unbounded")
    lo, hi = consts[0][-1][0], consts[1][-1][0]  # x_{m-1} has constant bounds only
    if nfree == 1:
        return [], [0], [lo], [hi]
    # per prefix fixed so far: its coordinates, a column per coordinate,
    # its key, and the range lo ... hi of the next coordinate
    fixed = [None] * nfree
    keys, weight = [0], 1
    los, his = [lo], [hi]
    for k in range(nfree - 1, 0, -1):
        ranges = list(map(range, los, map(add, his, repeat(1))))
        counts = list(map(len, ranges))
        bounds = []  # on x_{k-1}, per prefix and x_k
        for side, pick in (0, max), (1, min):
            columns = []
            for const, c, a, rest in filed[side][k - 1]:
                base = repeat(const)
                for j, t in rest:
                    base = map(add, base, map(mul, fixed[j], repeat(t)))
                if a:
                    starts = list(map(add, base, map(mul, los, repeat(a))))
                    stops = map(add, starts, map(mul, counts, repeat(a)))
                    values = chain.from_iterable(map(range, starts, stops, repeat(a)))
                else:
                    values = chain.from_iterable(map(repeat, base, counts))
                columns.append(values if c == 1 else map(floordiv, values, repeat(c)))
            if consts[side][k - 1]:
                columns.append(repeat(consts[side][k - 1][0], sum(counts)))
            bounds.append(list(columns[0] if len(columns) == 1 else map(pick, *columns)))
        fixed[k + 1:] = [chain.from_iterable(map(repeat, column, counts))
                         for column in fixed[k + 1:]]
        fixed[k] = chain.from_iterable(ranges)
        # the key of a prefix plus weight * x_k, a progression over each
        # range; lazy at every level, so a count never computes it
        starts, ends = tee(map(add, keys, map(mul, los, repeat(weight))))
        stops = map(add, ends, map(mul, counts, repeat(weight)))
        keys = chain.from_iterable(map(range, starts, stops, repeat(weight)))
        if k > 1:  # the next level reads the columns; the caller reads them once
            fixed[k:] = map(list, fixed[k:])
            # x_k's radix: max - min + 1 over the nonempty ranges, if any
            weight *= (max(compress(his, counts), default=0)
                       - min(compress(los, counts), default=0) + 1)
        los, his = bounds
    return fixed[1:], keys, los, his


def section_runs(constraints, lam):
    """The runs of a section and their filing by x_0, as ``(columns, order, segments)``.

    ``columns`` holds the tail coordinates x_1, ..., x_{m-1} of every run
    of ``_section_runs`` as lists, in scan order (no list when m = 1, where
    the one run has the empty tail).  ``order`` lists the scan numbers of
    the nonempty runs, lo <= hi, sorted by the scan's int keys, whose order
    is lexicographic tail order, so no tail tuple is built or compared; a
    run's rank is its place in ``order``.  Each segment ``(x0, stop,
    live)`` says that the runs ranked ``live``, an ascending list, are
    those covering every x_0 = x0 ... stop - 1; the segments run through
    x_0 in ascending order and no ``live`` is empty, so the points
    ``(x_0,) + tail`` come out in lexicographic order with no point sort.
    The live runs change only where a run starts or just past its end, and
    the filing walks these edges from the top down: the runs ending at an
    edge join the live ones in one sort of their ranks, and the live
    runs are cut only where a run starts, which a string cone's section,
    all of whose runs start at x_0 = 0, never needs.  An empty section has
    no segments.
    """
    columns, keys, los, his = _section_runs(constraints, lam)
    columns = list(map(list, columns))
    # one int object per number, shared by the run numbers and the ranks;
    # the keys are kept only for the sort
    numbers = list(range(len(los)))
    order = sorted(compress(numbers, map(le, los, his)), key=list(keys).__getitem__)
    if not order:
        return columns, order, []
    los = list(map(los.__getitem__, order))
    his = list(map(his.__getitem__, order))
    by_end = sorted(numbers[:len(order)], key=his.__getitem__)  # stable: ranks ascend per end
    ends = list(map(his.__getitem__, by_end))
    firsts = set(los)
    edges = sorted(firsts.union(map(add, his, repeat(1))))
    segments = []
    live = []  # the ranks of the runs covering x0 ... stop - 1
    top = len(by_end)  # the runs by_end[top:] have joined
    for x0, stop in zip(edges[-2::-1], edges[:0:-1]):
        if stop in firsts:  # the runs starting at stop do not reach x0
            live = list(compress(live, map(le, map(los.__getitem__, live), repeat(x0))))
        begin = bisect_left(ends, stop - 1, 0, top)
        if begin < top:
            live = live + by_end[begin:top]  # a new list: a segment may hold the old one
            live.sort()
            top = begin
        if live:
            segments.append((x0, stop, live))
    segments.reverse()
    return columns, order, segments


def section_lattice_points(constraints, lam):
    """Integer x with u . (lam + x) >= 0 for every constraint u, as a sorted tuple.

    The points ``(x_0,) + tail`` of ``section_runs``' segments, each x_0
    of a segment with the tails of its live runs, which is lexicographic
    order with no point sort.  No box is computed: every free coordinate
    needs a constraint bounding it from below and one bounding it from
    above, once the later coordinates are fixed.  A string cone's facets
    with Littelmann's rows (``degeneration.section_constraints``) give
    both.  An empty section yields no points.
    """
    columns, order, segments = section_runs(constraints, lam)
    tails = list(zip(*columns)) if columns else [()]
    tails = list(map(tails.__getitem__, order))
    return tuple((x0,) + tails[rank] for start, stop, live in segments
                 for x0 in range(start, stop) for rank in live)


def count_section_points(constraints, lam) -> int:
    """Number of integer x with u . (lam + x) >= 0 for every constraint u.

    The runs of ``_section_runs``, counted, not listed.  So every free
    coordinate needs a row bounding it from below and one bounding it from
    above.  A string cone's rows give both: x_k >= 0 and Littelmann's
    phi-bound on x_k by lambda and the coordinates after k ("Cones,
    crystals, and patterns", Prop. 1.5).
    """
    *_, los, his = _section_runs(constraints, lam)
    return sum(map(len, map(range, los, map(add, his, repeat(1)))))


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
    last invariant factor d_k keeps every step in integers.  A square
    cell with |det M| = 1 is unimodular: its parallelepiped holds 0 alone,
    so one fraction-free determinant settles it with no Smith form.
    """
    if len(matrix) == len(matrix[0]) and abs(det_int(matrix)) == 1:
        return ()
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


def _reach(cone: RationalCone) -> int:
    """A bound on |h|_inf for a Hilbert basis element h: the sum of |r|_inf over the rays r.

    A basis element is a ray or lies in a half-open parallelepiped of rays.
    """
    return sum(max(map(abs, r)) for r in cone.rays)


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
    exactly when the packed difference has no negative lane.  Every
    candidate h has |h|_inf <= ``_reach(cone)``, the certificate's lane
    reach too, so every lane of a slack or of a slack difference is at
    most max |u|_1 over the facets u times that.
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
    columns, sign = slack_lanes(cone.facets, _reach(cone))
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


class SectionCount(namedtuple("SectionCount", "lam cone_count data_count")):
    """Lattice points of one cone section against the strings of its weight."""

    __slots__ = ()


class SaturationReport(namedtuple("SaturationReport", "level_bound sections"
                                  " cone_points_missing_from_data data_points_outside_cone")):
    """Per-weight comparison of cone sections against enumerated strings.

    ``sections`` holds one ``SectionCount`` per weight; the two point lists
    hold ``(lam, psi)`` pairs.
    """

    __slots__ = ()

    @property
    def clean(self) -> bool:
        return not self.cone_points_missing_from_data and not self.data_points_outside_cone


def saturation_check(constraints, images, level_bound: int) -> SaturationReport:
    """Compare integral sections of ``constraints`` with the lambda-keyed string images.

    The constraints bound each section as ``section_runs`` asks.  A
    section is a sorted tuple of distinct points, and each image is sorted
    into one (``StringColumns`` hold their strings in node order), so
    equal tuples settle a weight; sets are built only where they differ.
    """
    if not images:
        raise PolyhedralError("no enumerated points supplied")
    n = len(next(iter(images)))
    sections = []
    missing = []
    outside = []
    for lam in dominant_weights(n, level_bound):
        sec = section_lattice_points(constraints, lam)
        data = tuple(sorted(images.get(lam, ())))
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
