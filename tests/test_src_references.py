"""Every function, method and class in src/blockmol is named by src code.

An ast scan: a definition that no src code references is dead weight,
unless it is an entry point (``cmd_*``, ``main``, a dunder) or an
exemption below, each with its reason.  The scan matches names, so a
helper that loses its last caller fails here until it is deleted or
exempted; a name that src reads off numpy or the standard library (such
as ``np.zeros``) counts as no reference.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blockmol"

# module.qualified name -> why it stays in src with no src reference
EXEMPT = {
    "diffusion.nucleus_truncate": "perfbench/spans.py TRACED wraps it by name",
    "decode.Decoder.generate": "perfbench/spans.py TRACED wraps it by name",
    "metrics.hit_metrics": "perfbench/spans.py TRACED wraps it by name",
    "decode.first_hitting_step": "criterion 4's subject, and TRACED wraps it by name",
    "diffusion.nelbo_loss": "criterion 3's subject, the one-example form of loss_gradient",
    "search.uct_score": "criterion 7's subject",
    "search.UnvisitedChild": "what uct_score raises, so criterion 7's subject too",
    "diffusion.PredictorParams.zeros": "criterion 6 builds its predictor with it",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(node, prefix, external, definitions, references):
    """Add the (qualified name, name) of each definition under ``node`` to
    ``definitions``, and to ``references`` the names it loads and the
    attributes it reads off anything but an ``external`` module.  An
    exemption's body is left out: what only an exemption uses is unused too."""
    for child in ast.iter_child_nodes(node):
        qualified = prefix
        if isinstance(child, _DEFINITIONS):
            qualified = f"{prefix}.{child.name}"
            definitions.add((qualified, child.name))
            if qualified in EXEMPT:
                continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            references.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load) and not (
                isinstance(child.value, ast.Name) and child.value.id in external):
            references.add(child.attr)
        _scan(child, qualified, external, definitions, references)


def test_every_src_definition_has_a_src_reference_or_a_reason():
    definitions, references = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # Modules bound by "import", which blockmol's own never are.
        external = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        _scan(tree, path.stem, external, definitions, references)
    unreferenced = {
        qualified for qualified, name in definitions
        if name not in references and name != "main" and not name.startswith("cmd_")
        and not (name.startswith("__") and name.endswith("__"))}
    # An exemption that src references again is stale: drop it.
    assert unreferenced == set(EXEMPT)
