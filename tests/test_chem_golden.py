"""Golden hash of the chemistry core's results over the whole toy grid.

The digest was computed before the graph layer was rewritten (adjacency
lists, bridge pass, cycle search on the ring subgraph) and must never
change: every ring (in order), bond order and ring flag, descriptor and
fingerprint bit of the 31,186 grid candidates, plus the curation report and
its survivors, are exactly what the bond-scan implementation produced.
"""

import dataclasses
import hashlib

from blockmol.chem import descriptors, fingerprint, try_parse
from blockmol.curate import curate_stream
from blockmol.data import toy_candidates

GOLDEN = "e08bfc2170c80db50c4d18ddd370f0a0a37abde8610d90e1b442e702e6bc4254"


def grid_digest() -> str:
    # toy_candidates is memoized; __wrapped__ keeps this test independent of
    # what other tests have already cached.
    grid = toy_candidates.__wrapped__(3)
    h = hashlib.sha256()

    def put(*items):
        h.update(repr(items).encode())
        h.update(b"\n")

    put(len(grid))
    for smiles in grid:
        mol, err = try_parse(smiles)
        if err is not None:
            put(smiles, type(err).__name__, err.position)
            continue
        put(smiles, mol.rings)
        put([(b.a, b.b, b.order, b.in_ring) for b in mol.bonds])
        d = descriptors(mol)
        # frozenset repr order follows the string hash seed; sort it.  The
        # trailing False stands for the deleted radical flag, a last field
        # that no input could set, so the digest still pins every other value.
        put([sorted(getattr(d, f.name)) if f.name == "element_set"
             else getattr(d, f.name) for f in dataclasses.fields(d)] + [False])
        put(fingerprint(mol).bits)
    accepted, report = curate_stream(grid)
    put(report.to_json())
    put([dataclasses.astuple(m) for m in accepted])
    return h.hexdigest()


def test_grid_digest_is_unchanged():
    assert grid_digest() == GOLDEN
