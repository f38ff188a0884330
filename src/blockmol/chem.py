"""SMILES tokenization, structural validation, descriptors, and fingerprints.

The validator is a deliberately small proxy for a full cheminformatics stack:
it enforces grammar (rings, branches, bonds), a fixed valence table, and a
ring-membership rule for aromatic atoms.  It does not kekulize and does not
aim for parity with heavyweight toolkits.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

# --- errors -----------------------------------------------------------------


class ChemError(ValueError):
    """Base class for tokenizer and validator failures.

    ``position`` is a character offset into the original SMILES string,
    or -1 when no position applies.
    """

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class UnknownCharacter(ChemError):
    pass


class UnclosedRing(ChemError):
    pass


class UnbalancedBranch(ChemError):
    pass


class DanglingBond(ChemError):
    pass


class RingBondError(ChemError):
    """Self-closures, duplicate ring bonds, or conflicting ring bond orders."""


class ValenceExceeded(ChemError):
    pass


class AromaticityError(ChemError):
    """Lowercase atom outside a closed all-aromatic ring of size 5 or 6."""


class EmptyMolecule(ChemError):
    pass


class UnknownToken(ChemError):
    pass


class WidthMismatch(ValueError):
    pass


# --- tokens -----------------------------------------------------------------


class TokenKind(Enum):
    ATOM = "atom"
    BOND = "bond"
    RING = "ring"
    BRANCH_OPEN = "branch_open"
    BRANCH_CLOSE = "branch_close"
    DOT = "dot"
    CONTROL = "control"


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str
    pos: int = -1


PAD, BOS, EOS, MASK = "[PAD]", "[BOS]", "[EOS]", "[MASK]"
CONTROL_TOKENS = (PAD, BOS, EOS, MASK)

AROMATIC_LETTER = frozenset("bcnops")

ATOMIC_WEIGHTS = {
    "H": 1.008, "B": 10.81, "C": 12.011, "N": 14.007, "O": 15.999,
    "F": 18.998, "Na": 22.990, "Mg": 24.305, "Al": 26.982, "Si": 28.085,
    "P": 30.974, "S": 32.06, "Cl": 35.45, "K": 39.098, "Ca": 40.078,
    "Fe": 55.845, "Cu": 63.546, "Zn": 65.38, "As": 74.922, "Se": 78.971,
    "Br": 79.904, "Sn": 118.71, "I": 126.904,
}
ELEMENTS = frozenset(ATOMIC_WEIGHTS)
HALOGENS = frozenset(("F", "Cl", "Br", "I"))

# Hard ceiling used by the validity check.  Aromatic bonds are counted with
# their sigma order (1) here; lone-pair donors such as pyrrole NH would
# otherwise be rejected.
VALENCE_MAX = {
    "H": 1, "B": 3, "C": 4, "N": 3, "O": 2, "F": 1, "Si": 4, "P": 5,
    "S": 6, "Cl": 1, "As": 5, "Se": 6, "Br": 1, "Sn": 4, "I": 1,
}
_VALENCE_DEFAULT = 6

# Valence sets used only for implicit-hydrogen assignment on bare
# organic-subset atoms; bracket atoms never receive implicit hydrogens.
IMPLICIT_VALENCES = {
    "B": (3,), "C": (4,), "N": (3, 5), "O": (2,), "P": (3, 5),
    "S": (2, 4, 6), "F": (1,), "Cl": (1,), "Br": (1,), "I": (1,),
}

_BRACKET_RE = re.compile(
    r"""\[
        (?P<isotope>\d+)?
        (?P<symbol>[A-Z][a-z]?|[a-z]{1,2})
        (?:@{1,2})?
        (?P<hcount>H\d*)?
        (?P<charge>[+-]\d+|\++|-+)?
        (?::\d+)?
        \]$""",
    re.X | re.A,
)


def max_valence(element: str, charge: int) -> int:
    if element == "N" and charge == 1:
        return 5
    return VALENCE_MAX.get(element, _VALENCE_DEFAULT)


def _parse_bracket(text: str, pos: int):
    """Split a bracket-atom token into (element, aromatic, h, charge)."""
    m = _BRACKET_RE.match(text)
    if m is None:
        raise UnknownCharacter(f"malformed bracket atom {text!r}", pos)
    symbol = m.group("symbol")
    aromatic = symbol[0].islower()
    element = symbol.capitalize() if aromatic else symbol
    if element not in ELEMENTS:
        raise UnknownCharacter(f"unknown element {symbol!r} in {text!r}", pos)
    if aromatic and symbol not in ("b", "c", "n", "o", "p", "s", "se", "as"):
        raise UnknownCharacter(f"{symbol!r} cannot be aromatic", pos)
    hcount = 0
    if m.group("hcount"):
        digits = m.group("hcount")[1:]
        hcount = int(digits) if digits else 1
    charge = 0
    raw = m.group("charge")
    if raw:
        if raw[0] == "+":
            charge = int(raw[1:]) if raw[1:].isdigit() else len(raw)
        else:
            charge = -(int(raw[1:]) if raw[1:].isdigit() else len(raw))
    return element, aromatic, hcount, charge


# One alternative per TokenKind, named by its value and tried in order: control
# tokens before a bracket atom, Cl and Br before one letter; ASCII digits only.
_LEXICON = re.compile(
    "(?P<control>" + "|".join(map(re.escape, CONTROL_TOKENS)) + r""")
    | (?P<atom>\[[^\]]*\] | Cl | Br | [BCNOPSFIbcnops])
    | (?P<bond>[-=#:/\\])
    | (?P<ring>[0-9] | %[0-9]{2})
    | (?P<branch_open>\() | (?P<branch_close>\)) | (?P<dot>\.)""",
    re.X | re.A,
)

# A token's kind follows from its text, and tokens are immutable, so one
# Token serves every molecule with the same text at the same offset.  The
# distinct (text, offset) pairs are few (317 over the whole toy grid); the
# bound only caps memory on odd input.
_TOKEN_MEMO_SIZE = 1 << 14
_TOKENS: dict[tuple[str, int], Token] = {}


def tokenize(text: str) -> list[Token]:
    """Scan a SMILES string into tokens.

    Concatenating ``token.text`` over the result reproduces the input
    exactly.  Raises UnknownCharacter at the first unscannable offset.
    """
    out: list[Token] = []
    memo, match = _TOKENS, _LEXICON.match
    i, n = 0, len(text)
    while i < n:
        m = match(text, i)
        if m is None:
            ch = text[i]
            if ch == "[":
                raise UnknownCharacter("unterminated bracket atom", i)
            if ch == "%":
                raise UnknownCharacter("'%' needs two digits", i)
            raise UnknownCharacter(f"unknown character {ch!r}", i)
        key = (m.group(), i)
        tok = memo.get(key)
        if tok is None:
            kind = TokenKind(m.lastgroup)
            if kind is TokenKind.ATOM and key[0][0] == "[":
                _parse_bracket(key[0], i)  # validates, raises UnknownCharacter
            tok = Token(kind, key[0], i)
            if len(memo) < _TOKEN_MEMO_SIZE:
                memo[key] = tok
        out.append(tok)
        i = m.end()
    return out


def detokenize(tokens: list[Token]) -> str:
    return "".join(t.text for t in tokens)


# --- parsed molecules --------------------------------------------------------


@dataclass(slots=True)
class Atom:
    element: str
    aromatic: bool = False
    charge: int = 0
    explicit_h: int = 0
    bracket: bool = False
    pos: int = -1


@dataclass(slots=True)
class Bond:
    a: int
    b: int
    order: float  # 1, 1.5, 2, or 3
    in_ring: bool = False


@dataclass
class ParsedMol:
    atoms: list[Atom]
    bonds: list[Bond]
    rings: list[list[int]] = field(default_factory=list)
    smiles: str = ""
    # Per-atom (neighbor, bond) lists in bond order, built once from bonds.
    adjacency: list[list[tuple[int, Bond]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        self.adjacency = [[] for _ in self.atoms]
        for b in self.bonds:
            self.adjacency[b.a].append((b.b, b))
            self.adjacency[b.b].append((b.a, b))


_BOND_ORDER = {"-": 1.0, "=": 2.0, "#": 3.0, ":": 1.5, "/": 1.0, "\\": 1.0}


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _ring_systems(mol: ParsedMol) -> list[tuple[list[int], list[int]]]:
    """(atoms ascending, ring-bond indices ascending) of every ring system.

    A ring system is a 2-edge-connected component with more than one atom;
    its bonds are the ring bonds, and the bonds between systems are the
    bridges.  One iterative Tarjan pass: a tree bond u-v is a bridge when
    nothing in v's DFS subtree reaches back to u or above, and then the atoms
    of that subtree not yet assigned form v's component.  Assumes a simple
    graph, which scan guarantees (no self-closures, no duplicate bonds).
    """
    adjacency = mol.adjacency
    n = len(adjacency)
    order = [0] * n  # DFS discovery number, 0 while unvisited
    low = [0] * n
    component = [0] * n  # discovery number of the component's first atom
    at = [0] * n  # index of each atom in ``unassigned``
    unassigned: list[int] = []
    members: dict[int, list[int]] = {}
    counter = 0
    for root in range(n):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        at[root] = len(unassigned)
        unassigned.append(root)
        stack = [(root, None, iter(adjacency[root]))]
        while stack:
            u, via, edges = stack[-1]
            for v, b in edges:
                if b is via:
                    continue
                if order[v]:
                    if order[v] < low[u]:
                        low[u] = order[v]
                else:
                    counter += 1
                    order[v] = low[v] = counter
                    at[v] = len(unassigned)
                    unassigned.append(v)
                    stack.append((v, b, iter(adjacency[v])))
                    break
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[u] < low[parent]:
                        low[parent] = low[u]
                if low[u] == order[u]:
                    group = unassigned[at[u]:]
                    del unassigned[at[u]:]
                    label = order[u]
                    for a in group:
                        component[a] = label
                    if len(group) > 1:
                        members[label] = sorted(group)
    ring_bonds: dict[int, list[int]] = {}
    for i, b in enumerate(mol.bonds):
        label = component[b.a]
        if label == component[b.b]:
            ring_bonds.setdefault(label, []).append(i)
    return [(members[label], bonds) for label, bonds in ring_bonds.items()]


# Distinct ring-system shapes are few (11 over the whole toy grid); the
# bound only caps memory on odd input.
_SYSTEM_MEMO_SIZE = 1 << 12


@lru_cache(maxsize=_SYSTEM_MEMO_SIZE)
def _system_cycles(edges: tuple[tuple[int, int], ...],
                   aromatic: tuple[bool, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Shortest cycle through each ring bond of one ring system,
    deduplicated by atom set in bond order, as (atom ranks, bond positions).

    ``edges`` are the system's ring bonds in bond order as pairs of atom
    ranks, and ``aromatic`` the flag of each ranked atom.  That is all the
    search reads: bond order fixes the adjacency order, the rank order is the
    atom-index order of the heap tie-break, and the flags fix the cost.  So
    one search serves every system of the same shape.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in aromatic]
    for p, (a, b) in enumerate(edges):
        adjacency[a].append((b, p))
        adjacency[b].append((a, p))
    found, seen = [], set()
    for p, (a, b) in enumerate(edges):
        cycle, used = _shortest_cycle(adjacency, aromatic, a, b, p)
        key = frozenset(cycle)
        if key not in seen:
            seen.add(key)
            found.append((tuple(cycle), tuple(used)))
    return tuple(found)


def _shortest_cycle(adjacency, aromatic, start: int, goal: int,
                    closure: int) -> tuple[list[int], list[int]]:
    """Shortest cycle through ring bond ``closure`` (start-goal), as its
    atoms from ``goal`` back to ``start`` and the bonds it crosses.

    Dijkstra over (edge count, non-aromatic atom count): among equally short
    alternative paths, the one staying on aromatic atoms wins, so a fused
    aromatic ring is not shadowed by its saturated neighbor.  The pair is
    packed into one integer, edges * (atoms + 1) + non-aromatic, which orders
    exactly like the tuple because the second part never exceeds the atoms.
    A ring bond lies on a cycle, so the goal is always reached.
    """
    scale = len(aromatic) + 1
    unreached = 1 << 62
    best = {start: 0}
    prev = {}  # atom -> (atom before it, bond between them)
    heap = [(0, start)]
    while heap:
        cost, u = heapq.heappop(heap)
        if cost > best.get(u, unreached):
            continue
        if u == goal:
            break
        for v, p in adjacency[u]:
            if p == closure:
                continue
            step = cost + scale + (0 if aromatic[v] else 1)
            if step < best.get(v, unreached):
                best[v] = step
                prev[v] = (u, p)
                heapq.heappush(heap, (step, v))
    path, used = [goal], []
    while path[-1] != start:
        u, p = prev[path[-1]]
        path.append(u)
        used.append(p)
    used.append(closure)
    return path, used


def _perceive_rings(mol: ParsedMol) -> list[list[int]]:
    """Minimum-basis ring set: shortest cycle through every ring bond,
    greedily selected under GF(2) edge-space independence up to the
    cyclomatic number.

    Per-closure-digit cycles alone misassign fused systems written in the
    interleaved style (both digits of an indole would claim the pyrrole
    ring); a small cycle basis recovers one ring per independent cycle.

    A cycle never leaves its ring system, so each is searched once per shape.
    """
    atoms, bonds = mol.atoms, mol.bonds
    rank = 0
    candidates = []
    for members, ring_bonds in _ring_systems(mol):
        rank += len(ring_bonds) - len(members) + 1
        local = {a: r for r, a in enumerate(members)}
        shape = tuple((local[bonds[i].a], local[bonds[i].b]) for i in ring_bonds)
        flags = tuple(atoms[a].aromatic for a in members)
        for ranks, used in _system_cycles(shape, flags):
            cycle = [members[r] for r in ranks]
            mask = 0
            for p in used:
                mask |= 1 << ring_bonds[p]
            non_aromatic = sum(1 for a in cycle if not atoms[a].aromatic)
            candidates.append((len(cycle), non_aromatic, tuple(sorted(cycle)), mask, cycle))
    if not candidates:
        return []
    candidates.sort(key=lambda c: c[:3])

    basis: dict[int, int] = {}  # high bit -> reduced mask
    rings: list[list[int]] = []
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


class Scan:
    """What the token loop knows after a prefix of a molecule's tokens, which
    a later ``scan`` call continues.  A Scan whose ``scan`` call raised is
    spent: it may hold part of the failing token's work."""

    __slots__ = ("atoms", "bonds", "bonded", "valence", "ring_open", "branches",
                 "prev", "pending")

    def __init__(self):
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.bonded: set[tuple[int, int]] = set()  # bonded pairs, in _edge order
        # Bond orders per atom, aromatic at sigma order 1; an int until bonded.
        self.valence: list[float] = []
        self.ring_open: dict[int, tuple] = {}  # digit -> (atom, order or None, pos)
        self.branches: list[list] = []  # [prev, pos, atoms seen while on top]
        self.prev: int | None = None
        self.pending: tuple[float, int] | None = None  # (order, pos)


def scan(tokens: list[Token], state: Scan | None = None) -> Scan:
    """Run the grammar over ``tokens``, continuing ``state`` in place when
    given; raises the first error a token shows, at its position.  Errors
    that only the end of input shows are left to ``finish``."""
    state = Scan() if state is None else state
    atoms, bonds, bonded, valence = state.atoms, state.bonds, state.bonded, state.valence
    ring_open, branches, prev, pending = state.ring_open, state.branches, state.prev, state.pending
    ATOM, BOND, RING = TokenKind.ATOM, TokenKind.BOND, TokenKind.RING

    for tok in tokens:
        kind = tok.kind
        if kind is ATOM:
            text = tok.text
            if text[0] == "[":
                element, aromatic, hcount, charge = _parse_bracket(text, tok.pos)
                atoms.append(Atom(element, aromatic, charge, hcount, True, tok.pos))
            else:
                aromatic = text in AROMATIC_LETTER
                atoms.append(Atom(text.upper() if aromatic else text, aromatic, pos=tok.pos))
            idx = len(atoms) - 1
            if prev is None:
                valence.append(0)
            else:
                # A chain bond reaches the newest atom: never a duplicate, and
                # already in _edge order.
                bonded.add((prev, idx))
                if pending:
                    order = pending[0]
                    bonds.append(Bond(prev, idx, order))
                    sigma = 1.0 if order == 1.5 else order
                else:  # aromatic (1.5) or single: sigma order 1 either way
                    bonds.append(Bond(prev, idx, 1.5 if aromatic and atoms[prev].aromatic
                                      else 1.0))
                    sigma = 1.0
                valence[prev] += sigma
                valence.append(sigma)
            pending = None
            prev = idx
            if branches:
                branches[-1][2] += 1
        elif kind is BOND:
            if pending is not None:
                raise DanglingBond("two bond symbols in a row", pending[1])
            if prev is None:
                raise DanglingBond("bond with no preceding atom", tok.pos)
            pending = (_BOND_ORDER[tok.text], tok.pos)
        elif kind is RING:
            if prev is None:
                raise DanglingBond("ring bond with no preceding atom", tok.pos)
            digit = int(tok.text.lstrip("%"))
            if digit in ring_open:
                open_idx, open_order, _ = ring_open.pop(digit)
                order = pending[0] if pending else open_order
                if pending and open_order is not None and pending[0] != open_order:
                    raise RingBondError(f"conflicting orders for ring {digit}", tok.pos)
                if open_idx == prev:
                    raise RingBondError("ring closure to the same atom", tok.pos)
                edge = _edge(open_idx, prev)
                if edge in bonded:
                    raise RingBondError("duplicate bond between atoms", tok.pos)
                bonded.add(edge)
                if order is None:
                    order = 1.5 if atoms[open_idx].aromatic and atoms[prev].aromatic else 1.0
                bonds.append(Bond(open_idx, prev, order))
                sigma = 1.0 if order == 1.5 else order
                valence[open_idx] += sigma
                valence[prev] += sigma
            else:
                ring_open[digit] = (prev, pending[0] if pending else None, tok.pos)
            pending = None
        elif kind is TokenKind.BRANCH_OPEN:
            if prev is None:
                raise UnbalancedBranch("branch with no preceding atom", tok.pos)
            if pending is not None:
                raise DanglingBond("bond symbol before '('", pending[1])
            branches.append([prev, tok.pos, 0])
        elif kind is TokenKind.BRANCH_CLOSE:
            if not branches:
                raise UnbalancedBranch("')' without matching '('", tok.pos)
            if pending is not None:
                raise DanglingBond("bond symbol before ')'", pending[1])
            restore, bpos, seen = branches.pop()
            if seen == 0:
                raise UnbalancedBranch("empty branch", tok.pos)
            prev = restore
        elif kind is TokenKind.DOT:
            if pending is not None:
                raise DanglingBond("bond symbol before '.'", pending[1])
            prev = None
        else:
            raise UnknownToken(f"control token {tok.text} inside molecule body", tok.pos)

    state.prev, state.pending = prev, pending
    return state


def finish(state: Scan, tokens: list[Token]) -> ParsedMol:
    """The molecule ``state`` scanned from all of ``tokens``, or the first
    violated rule; end-of-input grammar errors (unclosed rings or branches, a
    trailing bond) are reported at the earliest offending token.  The
    molecule takes the state's atoms and bonds: finish a state once."""
    leftovers: list[tuple[int, ChemError]] = []
    if state.pending is not None:
        pos = state.pending[1]
        leftovers.append((pos, DanglingBond("trailing bond symbol", pos)))
    if state.branches:
        bpos = min(p for _, p, _ in state.branches)
        leftovers.append((bpos, UnbalancedBranch("unclosed branch", bpos)))
    for digit, (_, _, rpos) in state.ring_open.items():
        leftovers.append((rpos, UnclosedRing(f"ring {digit} never closed", rpos)))
    if leftovers:
        leftovers.sort(key=lambda item: item[0])
        raise leftovers[0][1]
    atoms, bonds = state.atoms, state.bonds
    if not atoms:
        raise EmptyMolecule("no atoms")

    mol = ParsedMol(atoms, bonds, smiles=detokenize(tokens))
    mol.rings = _perceive_rings(mol)
    ring_edges = {_edge(cycle[k], cycle[k - 1])
                  for cycle in mol.rings for k in range(len(cycle))}
    for b in bonds:
        b.in_ring = _edge(b.a, b.b) in ring_edges
        # An aromatic-aromatic bond outside any ring is a plain single bond
        # (biphenyl linkage); its valence already counts it at 1.
        if b.order == 1.5 and not b.in_ring:
            b.order = 1.0

    aromatic_ring_members = set()
    for cycle in mol.rings:
        if len(cycle) in (5, 6) and all(atoms[k].aromatic for k in cycle):
            aromatic_ring_members.update(cycle)
    for i, atom in enumerate(atoms):
        if atom.aromatic and i not in aromatic_ring_members:
            raise AromaticityError(
                "aromatic atom outside a closed aromatic 5- or 6-ring", atom.pos)

    for atom, sigma in zip(atoms, state.valence):
        total = sigma + atom.explicit_h
        if total > max_valence(atom.element, atom.charge):
            raise ValenceExceeded(f"{atom.element} with bond order {total}", atom.pos)

    return mol


def parse_validate(tokens: list[Token]) -> ParsedMol:
    """Build a ParsedMol or raise the first violated rule with its position."""
    return finish(scan(tokens), tokens)


def validate_smiles(text: str) -> ParsedMol:
    return parse_validate(tokenize(text))


def try_parse(text: str):
    """(mol, None) on success, (None, error) on any tokenizer/validator failure."""
    try:
        return validate_smiles(text), None
    except ChemError as err:  # its traceback would hold the parse frames in cycles
        return None, err.with_traceback(None)


# --- descriptors -------------------------------------------------------------


@dataclass(frozen=True)
class DescriptorSet:
    heavy_atoms: int
    ring_count: int
    max_ring_size: int
    bridgehead_count: int
    approx_mw: float
    rotatable_proxy: int
    hbd_proxy: int
    hba_proxy: int
    tpsa_proxy: float
    logp_proxy: float
    element_set: frozenset
    charge_total: int


def implicit_h(atom: Atom, order_sum: float) -> int:
    """Implicit hydrogens on ``atom``, whose bond orders sum to ``order_sum``.

    Bare organic-subset atoms fill up to the smallest standard valence that
    covers their bond-order sum (aromatic bonds at 1.5, summed then rounded
    up).  Bracket atoms carry their hydrogens explicitly.
    """
    if atom.bracket or atom.element not in IMPLICIT_VALENCES:
        return 0
    used = -(-int(order_sum * 2) // 2)  # ceil of the 1.5-sum
    for valence in IMPLICIT_VALENCES[atom.element]:
        if valence >= used:
            return valence - used
    return 0


def _bridgeheads(mol: ParsedMol) -> int:
    """Atoms shared by two rings that overlap in 3+ atoms and that carry
    3+ ring bonds.  Fused (2-atom overlap) and spiro systems contribute none."""
    ring_degree = [0] * len(mol.atoms)
    for b in mol.bonds:
        if b.in_ring:
            ring_degree[b.a] += 1
            ring_degree[b.b] += 1
    found = set()
    cycles = [set(c) for c in mol.rings]
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            shared = cycles[i] & cycles[j]
            if len(shared) >= 3:
                found.update(k for k in shared if ring_degree[k] >= 3)
    return len(found)


def descriptors(mol: ParsedMol) -> DescriptorSet:
    # One walk over the bonds, then one over the atoms.
    atoms = mol.atoms
    order_sum = [0] * len(atoms)
    heavy_degree = [0] * len(atoms)
    for b in mol.bonds:
        order_sum[b.a] += b.order
        order_sum[b.b] += b.order
        if atoms[b.a].element != "H" and atoms[b.b].element != "H":
            heavy_degree[b.a] += 1
            heavy_degree[b.b] += 1
    weights = []  # heavy-atom weights, summed in atom order
    hydrogens = hbd = n_count = o_count = c_count = halogen_count = charge = 0
    elements = set()
    for a, used in zip(atoms, order_sum):
        element = a.element
        elements.add(element)
        charge += a.charge
        h_count = a.explicit_h + implicit_h(a, used)
        hydrogens += h_count
        if element == "H":
            hydrogens += 1
            continue
        weights.append(ATOMIC_WEIGHTS[element])
        if element == "C":
            c_count += 1
        elif element in ("N", "O"):
            n_count += element == "N"
            o_count += element == "O"
            hbd += h_count > 0
        elif element in HALOGENS:
            halogen_count += 1
    mw = sum(weights) + 1.008 * hydrogens

    rotatable = sum(
        1 for b in mol.bonds
        if b.order == 1.0 and not b.in_ring
        and atoms[b.a].element != "H" and atoms[b.b].element != "H"
        and heavy_degree[b.a] >= 2 and heavy_degree[b.b] >= 2)

    return DescriptorSet(
        heavy_atoms=len(weights),
        ring_count=len(mol.rings),
        max_ring_size=max((len(c) for c in mol.rings), default=0),
        bridgehead_count=_bridgeheads(mol),
        approx_mw=mw,
        rotatable_proxy=rotatable,
        hbd_proxy=hbd,
        hba_proxy=n_count + o_count,
        tpsa_proxy=20.2 * n_count + 17.1 * o_count,
        logp_proxy=0.5 * c_count - 1.0 * (n_count + o_count) + 0.8 * halogen_count,
        element_set=frozenset(elements),
        charge_total=charge,
    )


# --- fingerprints ------------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FP_SEED = 0x5EEDBA5E  # fixed so fingerprints are stable across runs/processes

DEFAULT_FP_WIDTH = 2048
MIN_FP_WIDTH = 256


def fnv1a64(data: bytes, seed: int = _FP_SEED) -> int:
    h = (_FNV_OFFSET ^ seed) & 0xFFFFFFFFFFFFFFFF
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(frozen=True, slots=True)
class Fingerprint:
    bits: int
    width: int

    def __post_init__(self):
        if self.bits < 0:  # its bit count would be the magnitude's
            raise ValueError(f"fingerprint bits must be >= 0, got {self.bits}")


def _atom_label(atom: Atom) -> str:
    label = atom.element.lower() if atom.aromatic else atom.element
    if atom.charge:
        label += f"{atom.charge:+d}"
    return label


_BOND_LABEL = {1.0: "-", 1.5: ":", 2.0: "=", 3.0: "#"}

# Distinct paths seen by the fingerprint are few (424 over the whole toy
# grid, as enumerated), so each is hashed once per width; the bound only
# caps memory on odd input.
_PATH_MEMO_SIZE = 1 << 14
_PATH_BITS: dict[int, dict[tuple[str, ...], int]] = {}  # width -> path -> bit


def _path_bit(memo: dict, path: tuple[str, ...], width: int) -> int:
    """The bit of ``path``: seeded FNV-1a of its lexicographically smaller
    direction, joined by "|", modulo ``width``."""
    bit = 1 << (fnv1a64("|".join(min(path, path[::-1])).encode()) % width)
    if len(memo) < _PATH_MEMO_SIZE:
        memo[path] = bit
    return bit


def fingerprint(mol: ParsedMol, width: int = DEFAULT_FP_WIDTH) -> Fingerprint:
    """Hashed linear paths of 0..3 bonds.

    Each simple path is labeled atom/bond/atom/..., canonicalized to the
    lexicographically smaller direction, and hashed with seeded FNV-1a.
    Every undirected path is enumerated once: each atom, each bond, each pair
    of neighbors around a center atom, and each pair of distinct neighbors
    around a center bond.
    """
    if width < MIN_FP_WIDTH or width & (width - 1):
        raise ValueError(f"width must be a power of two >= {MIN_FP_WIDTH}")
    memo = _PATH_BITS.setdefault(width, {})
    labels = [_atom_label(a) for a in mol.atoms]
    # Per atom, (neighbor, "label|bond" tail, "bond|label" head) in bond order.
    steps = [[(j, (labels[j], _BOND_LABEL[b.order]), (_BOND_LABEL[b.order], labels[j]))
              for j, b in nbrs] for nbrs in mol.adjacency]

    get = memo.get  # a bit is never 0, so ``or`` falls through only on a miss
    bits = 0
    for label in labels:
        path = (label,)
        bits |= get(path) or _path_bit(memo, path, width)
    for j, around in enumerate(steps):
        center = (labels[j],)
        for p in range(len(around)):
            tail = around[p][1] + center
            for q in range(p + 1, len(around)):
                path = tail + around[q][2]
                bits |= get(path) or _path_bit(memo, path, width)
    for b in mol.bonds:
        j, k = b.a, b.b
        middle = (labels[j], _BOND_LABEL[b.order], labels[k])
        bits |= get(middle) or _path_bit(memo, middle, width)
        for i, tail, _ in steps[j]:
            if i == k:
                continue
            left = tail + middle
            for l, _, head in steps[k]:
                if l != j and l != i:
                    path = left + head
                    bits |= get(path) or _path_bit(memo, path, width)
    return Fingerprint(bits, width)


def tanimoto(a: Fingerprint, b: Fingerprint) -> float:
    """|a AND b| / |a OR b|; defined as 1.0 when both fingerprints are empty."""
    if a.width != b.width:
        raise WidthMismatch(f"fingerprint widths differ: {a.width} != {b.width}")
    union = (a.bits | b.bits).bit_count()
    if union == 0:
        return 1.0
    return (a.bits & b.bits).bit_count() / union


# --- vocabulary ---------------------------------------------------------------


@dataclass(frozen=True)
class Vocab:
    """Token-surface vocabulary with the four control tokens pinned first."""

    tokens: tuple

    PAD_ID = 0
    BOS_ID = 1
    EOS_ID = 2
    MASK_ID = 3

    def __post_init__(self):
        if tuple(self.tokens[:4]) != (PAD, BOS, EOS, MASK):
            raise ValueError("vocabulary must start with PAD, BOS, EOS, MASK")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    @classmethod
    def build(cls, token_lists) -> "Vocab":
        body = sorted({t.text if isinstance(t, Token) else t
                       for tokens in token_lists for t in tokens})
        return cls(tuple(CONTROL_TOKENS) + tuple(b for b in body if b not in CONTROL_TOKENS))

    def __len__(self) -> int:
        return len(self.tokens)

    def id(self, text: str) -> int:
        try:
            return self._index[text]
        except KeyError:
            raise UnknownToken(f"token {text!r} not in vocabulary") from None

    def encode(self, tokens) -> list[int]:
        return [self.id(t.text if isinstance(t, Token) else t) for t in tokens]

    def content_hash(self) -> str:
        return f"{fnv1a64(chr(0).join(self.tokens).encode()):016x}"
