"""Independent reference implementations used only to cross-check results.

Everything here is deliberately written the slow, obvious way (dict-based
scans, double loops, characteristic polynomials) and shares no code with the
package internals it verifies.
"""

from __future__ import annotations

import math

import numpy as np


def brute_force_covariance(matrix: np.ndarray) -> np.ndarray:
    """Sample covariance by explicit double loop over column pairs."""
    rows, cols = matrix.shape
    means = [sum(matrix[:, j]) / rows for j in range(cols)]
    out = np.empty((cols, cols))
    for i in range(cols):
        for j in range(cols):
            acc = 0.0
            for t in range(rows):
                acc += (matrix[t, i] - means[i]) * (matrix[t, j] - means[j])
            out[i, j] = acc / (rows - 1)
    return out


def closed_form_ivp(variances) -> np.ndarray:
    """Inverse-variance weights straight from the definition."""
    inverse = [1.0 / v for v in variances]
    total = sum(inverse)
    return np.array([x / total for x in inverse])


def brute_force_ward(dist: np.ndarray) -> list[tuple[int, int, float, int]]:
    """Naive agglomerative Ward clustering over a dict of pair distances.

    Recomputes the full active-pair scan each step and applies the
    Lance-Williams update with plain Python floats. Ties break on the
    smallest (left, right) id pair. Returns (left, right, height, size) rows.
    """
    n = dist.shape[0]
    pair_distance: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            pair_distance[(i, j)] = float(dist[i, j])
    size = {i: 1 for i in range(n)}
    active = set(range(n))
    rows = []
    next_id = n
    while len(active) > 1:
        best_pair = None
        best_height = math.inf
        for a in sorted(active):
            for b in sorted(active):
                if a >= b:
                    continue
                h = pair_distance[(a, b)]
                if h < best_height or (h == best_height and (a, b) < best_pair):
                    best_height = h
                    best_pair = (a, b)
        a, b = best_pair
        merged = size[a] + size[b]
        rows.append((a, b, best_height, merged))
        for k in sorted(active):
            if k in (a, b):
                continue
            d_ak = pair_distance[(min(a, k), max(a, k))]
            d_bk = pair_distance[(min(b, k), max(b, k))]
            numerator = (
                (size[a] + size[k]) * d_ak**2
                + (size[b] + size[k]) * d_bk**2
                - size[k] * best_height**2
            )
            updated = math.sqrt(max(numerator, 0.0) / (size[a] + size[b] + size[k]))
            pair_distance[(min(next_id, k), max(next_id, k))] = updated
        active.discard(a)
        active.discard(b)
        active.add(next_id)
        size[next_id] = merged
        next_id += 1
    return rows


def charpoly_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues as the roots of the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier trace recursion, roots from
    the companion matrix; neither path touches the symmetric eigensolver.
    """
    n = matrix.shape[0]
    coefficients = [1.0]
    auxiliary = np.zeros_like(matrix)
    c = 1.0
    for k in range(1, n + 1):
        auxiliary = matrix @ auxiliary + c * np.eye(n)
        c = -np.trace(matrix @ auxiliary) / k
        coefficients.append(c)
    roots = np.roots(coefficients)
    return np.sort(roots.real)[::-1]


def ward_centroid_heights(points: np.ndarray, merges) -> list[float]:
    """Ward merge heights recomputed from the embedded points directly.

    For clusters A and B with centroids cA and cB the merge height is
    sqrt(2 |A| |B| / (|A| + |B|)) * ||cA - cB||.
    """
    n = len(points)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    heights = []
    for step, (left, right, _, _) in enumerate(merges):
        group_a, group_b = members[left], members[right]
        centroid_a = points[group_a].mean(axis=0)
        centroid_b = points[group_b].mean(axis=0)
        factor = 2.0 * len(group_a) * len(group_b) / (len(group_a) + len(group_b))
        heights.append(math.sqrt(factor) * float(np.linalg.norm(centroid_a - centroid_b)))
        members[n + step] = group_a + group_b
    return heights


def first_malformed_row(n: int, rows) -> tuple[int, str] | None:
    """The first row a linkage matrix over ``n`` leaves breaks, and its first
    broken rule in ``LinkageTree``'s order, found one row and one Python
    comparison at a time; None for a valid matrix."""
    sizes = {leaf: 1 for leaf in range(n)}
    consumed: set[float] = set()
    previous = 0.0
    for k, (left, right, height, size) in enumerate(rows):
        children = (left, right)
        rules = [
            ("dangling child id", any(child not in sizes for child in children)),
            ("child id consumed twice", left == right or any(child in consumed for child in children)),
            ("children not ordered left < right", not left < right),
            ("height is not finite", not math.isfinite(height)),
            ("height below previous maximum", height < previous - 1e-9 * max(1.0, previous)),
            ("size != sum of children sizes", size != sizes.get(left, 0) + sizes.get(right, 0)),
        ]
        broken = [rule for rule, fails in rules if fails]
        if broken:
            return k, broken[0]
        consumed.update(children)
        sizes[n + k] = size
        previous = max(previous, height)
    return None
