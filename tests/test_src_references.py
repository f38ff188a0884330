"""Every function, method and class in src/blockmol is named by src code.

An ast scan: a definition that no src code references is dead weight,
unless it is an entry point (``cmd_*``, ``main``, a dunder) or an
exemption below, each with its reason.  The scan matches names, so a
helper that loses its last caller fails here until it is deleted or
exempted; a name that src reads off numpy or the standard library (such
as ``np.zeros``) counts as no reference.  An exemption kept because the
benchmark's tracer wraps it is checked against ``TRACED`` in
perfbench/spans.py, read with ast.  A second scan keeps JSON type checks in
one function.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "blockmol"
SPANS = ROOT / "perfbench" / "spans.py"

TRACED_REASON = "perfbench/spans.py TRACED wraps it by name"
# module.qualified name -> why it stays in src with no src reference
EXEMPT = {
    "diffusion.nucleus_truncate": TRACED_REASON,
    "decode.Decoder.generate": TRACED_REASON,
    "metrics.hit_metrics": TRACED_REASON,
    "decode.first_hitting_step": f"{TRACED_REASON}; criterion 4's subject",
    "diffusion.PredictorParams.zeros":
        "criterion 6 and four other tests build uniform predictors with it",
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


def _traced() -> set:
    """The "module.name" of every function perfbench/spans.py's TRACED wraps."""
    for node in ast.parse(SPANS.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["TRACED"]:
            return {f"{module}.{name}"
                    for module, names in ast.literal_eval(node.value).items() for name in names}
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_each_tracer_reason_names_a_traced_function():
    # A stale reason fails, and so does an exemption that could cite the tracer but does not.
    traced = _traced()
    assert {name for name, why in EXEMPT.items() if TRACED_REASON in why} == \
        {name for name in EXEMPT if name in traced} != set()


def _bool_checks(node, qualified):
    """The qualified name of the definition around each ``isinstance(x, bool)``,
    or ``isinstance(x, (..., bool))``, under ``node``."""
    for child in ast.iter_child_nodes(node):
        name = f"{qualified}.{child.name}" if isinstance(child, _DEFINITIONS) else qualified
        if (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance"
                and len(child.args) == 2 and any(
                    getattr(n, "id", None) == "bool" for n in ast.walk(child.args[1]))):
            yield name
        yield from _bool_checks(child, name)


def test_only_check_record_judges_json_types():
    # A JSON true is a Python int, so a JSON type check tests for bool; such a
    # test outside fragment.check_record is a second type checker.
    found = {name for path in sorted(SRC.glob("*.py"))
             for name in _bool_checks(ast.parse(path.read_text()), path.stem)}
    assert found == {"fragment.check_record"}
