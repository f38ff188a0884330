"""Deterministic toy corpus for tests and small training runs.

The generator enumerates a fixed core x decoration x linker x tail grid in
a stable order, thins it with a fixed stride, and pipes the candidates
through the standard curation pipeline, so the result is a reproducible
set of small drug-like molecules with no RNG and no external data.  Every
molecule tokenizes to well under 46 tokens and therefore fits a length-48
layout.
"""

from __future__ import annotations

from functools import lru_cache

from .curate import curate_stream
from .fragment import check_interval

# Two-slot ring templates: {a} takes a small decoration, {b} the linker+tail.
CORES = (
    "c1cc({a})ccc1{b}", "c1cc({a})ncc1{b}", "c1nc({a})cnc1{b}", "c1cc({a})cnc1{b}",
    "c1oc({a})cc1{b}", "c1sc({a})cc1{b}", "c1[nH]c({a})cc1{b}",
    "C1CC({a})CCC1{b}", "C1CC({a})NCC1{b}", "C1CC({a})OCC1{b}",
    "C1CN({a})CCN1{b}", "C1CC({a})CC1{b}", "C1CC({a})OC1{b}", "C1CC({a})NC1{b}",
    "c1ccc2cc({a})ccc2c1{b}", "c1ccc2[nH]c({a})cc2c1{b}", "c1ccc2oc({a})cc2c1{b}",
    "c1ccc2sc({a})cc2c1{b}", "c1ncc2cc({a})ccc2n1{b}",
    "C1Cc2cc({a})ccc2C1{b}", "C1CCc2cc({a})ccc2C1{b}",
    "c1cc2OCOc2cc1{b}", "C1COc2cc({b})ccc2O1",
    "C1CC2CC({a})C1CC2{b}", "C1CC({a})C1{b}",
)
A_GROUPS = ("", "C", "F", "Cl", "O", "N", "OC", "CC")
LINKERS = ("", "C", "CC", "O", "OC", "N", "NC", "C(=O)", "C(=O)N", "NC(=O)",
           "C(=O)O", "CN", "S", "CC(=O)")
TAILS = ("C", "CC", "CCC", "CCCC", "CCCCC", "CCCCCC", "C(C)C", "CC(C)C",
         "CO", "CCO", "CCCO", "CC(C)O", "CN", "CCN", "CCCN", "CC(C)N",
         "COC", "CCOC", "CCOCC", "CCOCCO", "CCOCCC", "CNC", "CCNC", "CCNCC",
         "CCN(C)C", "CC(=O)C", "CC(=O)N", "CC(=O)NC", "CCC(=O)NC",
         "CC(N)C", "CC(O)C", "CCl", "CF", "COCC", "CNCC", "CCC(C)O",
         "CCOC(=O)C", "CCNC(=O)C", "CCCOC", "CCCNC")


@lru_cache(maxsize=None)
def toy_candidates(stride: int = 3) -> tuple:
    """The thinned combination grid, fixed order, duplicates removed."""
    seen, out, i = set(), [], 0
    for core in CORES:
        for a in (A_GROUPS if "{a}" in core else ("",)):
            for linker in LINKERS:
                for tail in TAILS:
                    i += 1
                    if i % stride:
                        continue
                    smiles = core.format(a=a, b=linker + tail).replace("()", "")
                    if smiles not in seen:
                        seen.add(smiles)
                        out.append(smiles)
    return tuple(out)


@lru_cache(maxsize=None)
def _curated(stride: int) -> tuple:
    accepted, _ = curate_stream(toy_candidates(stride))
    return tuple(m.smiles for m in accepted)


# toy_corpus's sizes: the grid has 601 curation survivors (a test pins the count),
# so a size is checked without curating the grid first.
TOY_INTERVAL = "[1, 601]"


def toy_corpus(n: int = 500) -> list[str]:
    """First ``n`` curation survivors of the candidate grid."""
    check_interval("toy corpus size", n, TOY_INTERVAL)
    return list(_curated(3)[:n])
