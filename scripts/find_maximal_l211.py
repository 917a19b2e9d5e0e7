"""Locate a maximal L2(11) subgroup of the embedded M12 action.

M12 on 144 points has two conjugacy classes of subgroups of order 660:
the point stabilizers (orbit lengths 1, 11, 11, 55, 66) and the maximal
class with orbit lengths 12 and 132.  This script finds a member of the
maximal class by a deterministic breadth-first scan: take the first
order-11 element reachable from the generators, then pair it with scanned
elements until the closure has order 660 and the right orbit signature.

Its generators are kept as the ``L2(11)max`` maximal of
symdesign/data/m12_catalog.json, which also serves the dataset id
m12-144/maximal-l211; rerunning this script prints them again, one cycle
string per line after the degree and name lines.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symdesign.catalog import load
from symdesign.group import PermGroup, group_file_text


def bfs_elements(group, limit):
    """First `limit` distinct elements, in word order over the generators."""
    ident = group.identity()
    seen = {ident.images}
    queue = [ident]
    qi = 0
    while qi < len(queue) and len(queue) < limit:
        w = queue[qi]
        qi += 1
        for g in group.generators:
            nxt = w * g
            if nxt.images not in seen:
                seen.add(nxt.images)
                queue.append(nxt)
    return queue


def main():
    G = load("m12-144/G")
    elements = bfs_elements(G, 6000)

    eleven = None
    for w in elements:
        n = w.order()
        if n % 11 == 0:
            eleven = w ** (n // 11)
            break
    if eleven is None:
        raise SystemExit("no element of order 11 in scan range")

    for w in elements:
        S = PermGroup([eleven, w])
        if S.order() != 660:
            continue
        lengths = sorted(len(o) for o in S.orbits())
        if lengths == [12, 132]:
            print(group_file_text(S, name="maximal L2(11) in M12 on 144 points"), end="")
            return
    raise SystemExit("no maximal L2(11) found in scan range")


if __name__ == "__main__":
    main()
