"""Ring perception and fingerprints against references, and parser robustness.

The ring reference below is the original graph code: neighbors found by
scanning the whole bond list, and a shortest-cycle Dijkstra from every bond,
bridges included.  ``blockmol.chem`` now builds adjacency lists once and
searches each ring system once per shape; both must give the same rings in
the same order on every input.
The fingerprint reference grows every directed walk and keeps the smaller
direction of each; ``blockmol.chem`` enumerates each undirected path once.
"""

import heapq
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmol import chem
from blockmol.chem import ChemError, RingBondError, fnv1a64, try_parse

# --- reference: bond-scan graph code --------------------------------------


def ref_neighbors(mol, i):
    for b in mol.bonds:
        if b.a == i:
            yield b.b, b
        elif b.b == i:
            yield b.a, b


def ref_shortest_cycle(mol, bond_index):
    closure = mol.bonds[bond_index]
    start, goal = closure.a, closure.b
    unreached = (1 << 30, 0)
    best = {start: (0, 0)}
    prev = {start: -1}
    heap = [(0, 0, start)]
    while heap:
        d, na, u = heapq.heappop(heap)
        if (d, na) > best.get(u, unreached):
            continue
        if u == goal:
            break
        for v, b in ref_neighbors(mol, u):
            if b is closure:
                continue
            cost = (d + 1, na + (0 if mol.atoms[v].aromatic else 1))
            if cost < best.get(v, unreached):
                best[v] = cost
                prev[v] = u
                heapq.heappush(heap, (cost[0], cost[1], v))
    if goal not in prev:
        return None
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return path


def ref_perceive_rings(mol):
    n_atoms = len(mol.atoms)
    if not n_atoms:
        return []
    seen = set()
    components = 0
    for i in range(n_atoms):
        if i in seen:
            continue
        components += 1
        stack = [i]
        seen.add(i)
        while stack:
            u = stack.pop()
            for v, _ in ref_neighbors(mol, u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    rank = len(mol.bonds) - n_atoms + components
    if rank <= 0:
        return []

    edge_index = {frozenset((b.a, b.b)): i for i, b in enumerate(mol.bonds)}
    candidates = []
    dedupe = set()
    for i in range(len(mol.bonds)):
        cycle = ref_shortest_cycle(mol, i)
        if cycle is None:
            continue
        key = frozenset(cycle)
        if key in dedupe:
            continue
        dedupe.add(key)
        mask = 0
        for k in range(len(cycle)):
            mask |= 1 << edge_index[frozenset((cycle[k], cycle[(k + 1) % len(cycle)]))]
        non_aromatic = sum(1 for a in cycle if not mol.atoms[a].aromatic)
        candidates.append((len(cycle), non_aromatic, tuple(sorted(cycle)), mask, cycle))
    candidates.sort(key=lambda c: c[:3])

    basis = {}
    rings = []
    for _, _, _, mask, cycle in candidates:
        v = mask
        while v:
            hb = v.bit_length() - 1
            if hb not in basis:
                basis[hb] = v
                rings.append(cycle)
                break
            v ^= basis[hb]
        if len(rings) == rank:
            break
    return rings


# --- reference: fingerprint over directed walks ----------------------------

MAX_PATH_BONDS = 3


def ref_fingerprint(mol, width):
    """Bits of every simple path of 0..3 bonds, grown one bond at a time from
    each atom and canonicalized to its lexicographically smaller direction."""
    labels = [chem._atom_label(a) for a in mol.atoms]
    steps = [[(j, chem._BOND_LABEL[b.order]) for j, b in nbrs] for nbrs in mol.adjacency]
    paths = set()
    # (labels so far, last atom, atoms visited), extended one bond per round.
    frontier = [((labels[i],), i, (i,)) for i in range(len(labels))]
    for depth in range(MAX_PATH_BONDS + 1):
        grown = []
        for path, end, visited in frontier:
            paths.add(min(path, path[::-1]))
            if depth == MAX_PATH_BONDS:
                continue
            for nxt, bond_label in steps[end]:
                if nxt not in visited:
                    grown.append((path + (bond_label, labels[nxt]), nxt, visited + (nxt,)))
        frontier = grown
    bits = 0
    for path in paths:
        bits |= 1 << (fnv1a64("|".join(path).encode()) % width)
    return bits


# --- SMILES-like strings -------------------------------------------------

# Atoms are listed more than once so that drawn strings are mostly atoms.
ATOMS = ("C", "C", "C", "C", "c", "c", "N", "n", "O", "o", "S", "s", "Cl",
         "F", "P", "[nH]", "[NH3+]", "[O-]", "[Si]")
RING_LABELS = ("1", "2", "3", "%10")
BONDS = ("-", "=", "#", ":", "/", "\\")
# Whole ring systems (fused, bridged, peri-fused), on labels the loose atoms
# never use, so that a fair share of drawn molecules has several rings.
RING_SYSTEMS = ("c7ccccc7", "c7ccncc7", "c7cc[nH]c7", "c7ccc8ccccc8c7",
                "c7ccc8[nH]ccc8c7", "C7CC8CCC7C8", "C7CCCCC7", "C78CC7C8",
                "c7cc8ccc9cccc%99ccc(c7)c8c9%99")

# Any sequence of the alphabet: mostly malformed.
smiles_soup = st.lists(st.sampled_from(ATOMS + RING_LABELS + BONDS + ("(", ")", ".")),
                       max_size=40).map("".join)


@st.composite
def _chain(draw, depth=0):
    out = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 9))
        bond = draw(st.sampled_from(BONDS + ("",) * 6)) if out else ""
        if kind < 6:
            labels = draw(st.lists(st.sampled_from(RING_LABELS), max_size=2, unique=True))
            out.append(bond + draw(st.sampled_from(ATOMS)) + "".join(labels))
        elif kind < 8:
            out.append(bond + draw(st.sampled_from(RING_SYSTEMS)))
        elif kind == 8 and out and depth < 2:
            out.append("(" + draw(_chain(depth + 1)) + ")")
        elif kind == 9 and out and depth == 0:
            out.append(".")
    return "".join(out)


@st.composite
def smiles_like(draw):
    """Chains of atoms, ring systems, branches and components; most ring
    labels left open are closed on one more atom, so about a fifth parse,
    half of those with rings, and many more reach ring perception."""
    text = draw(_chain())
    still_open = set()
    for tok in chem.tokenize(text):
        if tok.kind is chem.TokenKind.RING:
            still_open ^= {tok.text}
    tail = [label for label in RING_LABELS if label in still_open and draw(st.booleans())]
    if tail:
        text += draw(st.sampled_from(("C", "c", "N"))) + "".join(tail)
    return text


def outcome(text):
    """What try_parse gives, in comparable form."""
    mol, err = try_parse(text)
    if err is not None:
        return type(err).__name__, err.position
    return mol.rings, [(b.a, b.b, b.order, b.in_ring) for b in mol.bonds]


@settings(max_examples=1000, deadline=None)
@given(smiles_like())
@example("C1CC2CCC1C2")  # norbornane: rings share three atoms
@example("C12C3C4C1C5C2C3C45")  # cubane: more short cycles than the rank
@example("c1ccc2[nH]ccc2c1CCc1ccc2c(c1)OCO2")  # fused systems joined by a bridge
@example("C1CC1.C1CC1C1CCCC1")  # several components, a bridge between rings
@example("C12(CC1)CC2")  # spiro: two cycles through one atom, one ring system
def test_rings_match_bond_scan_reference(text):
    mol, err = try_parse(text)
    if err is None:
        assert mol.rings == ref_perceive_rings(mol)
    # Parsing with the reference perception must give the same molecule or
    # the same error: an aromaticity or valence verdict follows the rings.
    with mock.patch.object(chem, "_perceive_rings", ref_perceive_rings):
        expected = outcome(text)
    assert outcome(text) == expected


@settings(max_examples=1000, deadline=None)
@given(smiles_like())
@example("C1CC2CCC1C2")
@example("C12C3C4C1C5C2C3C45")
@example("c1ccc2[nH]ccc2c1CCc1ccc2c(c1)OCO2")
@example("C1CC1.C1CC1C1CCCC1")
@example("C12(CC1)CC2")
@example("[NH3+]CC(=O)[O-]")  # charged labels
@example("C1CN1")  # a 3-bond walk around a triangle returns to its start
def test_fingerprint_matches_directed_walk_reference(text):
    mol, err = try_parse(text)
    if err is None:
        for width in (256, 2048):
            assert chem.fingerprint(mol, width).bits == ref_fingerprint(mol, width)


# Each scaffold also written so that its fusion bond is the first atom's ring
# closure; there aromaticity, not atom order, decides which ring that bond
# finds first, and so the orientation of a ring (tetralin against decalin).
SCAFFOLDS = (
    "c1ccc2ccccc2c1", "c12ccccc1cccc2",  # naphthalene
    "c1ccc2[nH]ccc2c1", "c12ccccc1[nH]cc2",  # indole
    "c1ccc2CCCCc2c1", "c12CCCCc1cccc2",  # tetralin
    "C1CCC2CCCCC2C1", "C12CCCCC1CCCC2",  # decalin
    "C1CC2CCC1C2", "C12CCC(C1)CC2",  # norbornane
    "c12CCCCc1[nH]cc2", "C12CCCCC1NCC2",  # the indole shape, other flags
)
DECORATIONS = ("{}", "CC(=O)N{}", "OC{}C(F)(F)F", "c1ccncc1C{}")


def test_ring_system_memo_is_exact_across_atom_indices():
    """A fused or bridged system perceives the same whether its shape is new
    to the memo or was seen first at other atom indices, or with other
    aromatic flags on the same bonds."""
    texts = [deco.format(scaffold) for scaffold in SCAFFOLDS for deco in DECORATIONS]

    def rings(text):
        mol, err = try_parse(text)
        assert err is None, (text, err)
        assert mol.rings == ref_perceive_rings(mol), text
        return mol.rings

    for text in texts:
        chem._system_cycles.cache_clear()
        cold = rings(text)
        chem._system_cycles.cache_clear()
        for other in texts:
            if other != text:
                rings(other)
        hits = chem._system_cycles.cache_info().hits
        assert rings(text) == cold, text
        assert chem._system_cycles.cache_info().hits > hits, text


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(), smiles_soup, smiles_like()))
@example("C²")  # str.isdigit accepts superscript two; int() does not
@example("C%²³")
@example("C٣CC٣")  # Arabic-Indic digit three
def test_try_parse_raises_only_chem_errors(text):
    mol, err = try_parse(text)
    assert (mol is None) != (err is None)
    assert err is None or isinstance(err, ChemError)


@settings(max_examples=600, deadline=None)
@given(st.one_of(smiles_like(), smiles_soup))
@example("CC(CC1)1")  # a ring closing on an atom before the one that opened it
@example("CC(CCC1)1C")
@example("CC(C1)1")  # the same, onto an atom already bonded to the opener
def test_parsed_graph_is_simple_and_ring_flags_follow_the_rings(text):
    mol, err = try_parse(text)
    if err is not None:
        return
    pairs = [frozenset((b.a, b.b)) for b in mol.bonds]
    assert all(len(p) == 2 for p in pairs) and len(set(pairs)) == len(pairs)
    ring_pairs = {frozenset((c[k], c[k - 1])) for c in mol.rings for k in range(len(c))}
    assert [b.in_ring for b in mol.bonds] == [p in ring_pairs for p in pairs]


def test_duplicate_bond_keeps_error_type_and_position():
    mol, err = try_parse("C12CC12")
    assert mol is None
    assert type(err) is RingBondError
    assert err.position == 6


@settings(max_examples=600, deadline=None)
@given(st.one_of(smiles_like(), smiles_soup))
def test_tokenize_detokenize_round_trips(text):
    assert chem.detokenize(chem.tokenize(text)) == text


# --- resumable scan ---------------------------------------------------------


def parsed(run):
    """What ``run()`` gives, a molecule or a ChemError, in comparable form."""
    try:
        mol = run()
    except ChemError as err:
        return type(err).__name__, err.position
    return (mol.smiles, mol.rings, [(b.a, b.b, b.order, b.in_ring) for b in mol.bonds],
            [(a.element, a.aromatic, a.charge, a.explicit_h, a.pos) for a in mol.atoms])


@settings(max_examples=300, deadline=None)
@given(st.one_of(smiles_like(), smiles_soup))
@example("c1ccc2[nH]ccc2c1CCc1ccc2c(c1)OCO2")  # fused systems joined by a bridge
@example("c1ccccc1-c1ccccc1")  # biphenyl: an aromatic pair outside any ring
@example("C(C)(C)(C)(C)C")  # valence exceeded, found after the rings
@example("c1cccc1C")  # aromatic atom outside a closed aromatic 5- or 6-ring
@example("C1CC(C=")  # trailing bond before an unclosed branch and ring
@example("C[BOS]C1")  # control token inside the body
@example("")
def test_scan_resumed_at_any_split_matches_one_pass(text):
    toks = chem.tokenize(text)
    whole = parsed(lambda: chem.parse_validate(toks))
    for k in range(len(toks) + 1):
        resumed = parsed(lambda: chem.finish(chem.scan(toks[k:], chem.scan(toks[:k])), toks))
        assert resumed == whole, k


@settings(max_examples=300, deadline=None)
@given(st.one_of(smiles_like(), smiles_soup))
@example("C[BOS]C1")
@example("C12CC12")  # duplicate bond
@example("C)CC(")
@example("CC(=)C")
def test_an_error_a_prefix_shows_is_the_whole_molecules_error(text):
    # A decoder that checks each block boundary may reject a row as soon as
    # its prefix fails: the finished molecule would fail the same way.
    toks = chem.tokenize(text)
    for k in range(len(toks) + 1):
        try:
            chem.scan(toks[:k])
        except ChemError as err:
            assert parsed(lambda: chem.parse_validate(toks)) == (type(err).__name__,
                                                                 err.position), k
