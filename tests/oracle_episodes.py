"""Independent episode checker used as a test oracle.

Applies the episode rules directly, symbol by symbol, with a structure
deliberately different from the production detector: eligibility is decided
by scanning backward from each zero, and gap merging by looking ahead past
DocAbsent runs. Results are (start, end, fix) triples with end/fix None for
an ongoing episode.
"""

from __future__ import annotations

DOT = "."
DASH = "-"

FIX_BY_SYMBOL = {DOT: "doc_delete", DASH: "doc_update"}


def _is_positive(symbol) -> bool:
    return isinstance(symbol, int) and not isinstance(symbol, bool) and symbol > 0


def _eligible(symbols, i: int) -> bool:
    return any(_is_positive(s) for s in symbols[:i])


def episodes_oracle(symbols) -> list[tuple]:
    n = len(symbols)
    out: list[tuple] = []
    i = 0
    while i < n:
        if symbols[i] != 0 or not _eligible(symbols, i):
            i += 1
            continue
        start = i
        k = i
        end = None
        fix = None
        while True:
            k += 1
            while k < n and symbols[k] == 0:
                k += 1
            if k >= n:
                break
            if symbols[k] == DOT:
                m = k
                while m < n and symbols[m] == DOT:
                    m += 1
                if m < n and symbols[m] == 0:
                    k = m
                    continue
                end, fix = k, FIX_BY_SYMBOL[DOT]
                break
            if symbols[k] == DASH:
                end, fix = k, FIX_BY_SYMBOL[DASH]
                break
            end, fix = k, "source_change"
            break
        out.append((start, end, fix))
        if end is None:
            break
        i = end
    return out
