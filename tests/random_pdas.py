"""Random Comp-PDAs for property tests: a random star pattern, filled greedily.

Not a test module; the test modules import it from the ``tests`` directory.
"""

from hypothesis import strategies as st

from pdamr import STAR, Pda, parse_pda, render_pda


def greedy_comp_pda(star_masks, k: int) -> Pda:
    """The Comp-PDA on ``k`` columns whose row i has a star in column j when
    bit j of ``star_masks[i]`` is set (every mask must be nonzero).

    Row-major, every other cell joins the first symbol whose cells all have
    stars at both cross positions with it, which also keeps a symbol out of
    a row or column it is already in; a cell no symbol takes opens a new one.
    Parsing the rendered array validates it and makes its labels canonical.
    """
    groups: list[list[tuple[int, int]]] = []  # cells of symbol s at s - 1
    grid = []
    for i, mask in enumerate(star_masks):
        row = []
        for j in range(k):
            if mask >> j & 1:
                row.append(STAR)
                continue
            for label, cells in enumerate(groups, 1):
                if all(mask >> j2 & 1 and star_masks[i2] >> j & 1 for i2, j2 in cells):
                    break
            else:
                groups.append([])
                label = len(groups)
            groups[label - 1].append((i, j))
            row.append(label)
        grid.append(tuple(row))
    return parse_pda(render_pda(Pda(tuple(grid))))


@st.composite
def comp_pdas(draw, max_k: int = 5, max_f: int = 8) -> Pda:
    """A greedy Comp-PDA on a random star pattern: K in 2..max_k, F in 1..max_f."""
    k = draw(st.integers(2, max_k))
    masks = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=max_f))
    return greedy_comp_pda(masks, k)


@st.composite
def balanced_comp_pdas(draw) -> Pda:
    """A greedy Comp-PDA whose columns all hold the same number of stars: K in
    3..8, and every cyclic shift of 1-3 random base star masks as a row."""
    k = draw(st.integers(3, 8))
    full = (1 << k) - 1
    bases = draw(st.lists(st.integers(1, full), min_size=1, max_size=3))
    return greedy_comp_pda([(m << s | m >> (k - s)) & full for m in bases for s in range(k)], k)
