"""Every function, method and class in src/blockmol is named by src code.

An ast scan: a definition that no src code references is dead weight,
unless it is an entry point (``cmd_*``, ``main``, a dunder) or an
exemption below, each with its reason.  The scan matches names, so a
helper that loses its last caller fails here until it is deleted or
exempted; a name that src reads off numpy or the standard library (such
as ``np.zeros``) counts as no reference.  An exemption kept because the
benchmark's tracer wraps it is checked against ``TRACED`` in
perfbench/spans.py, read with ast.  Two more scans keep JSON type checks in
one function and JSON file parsing in another.
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


def _sites(node, qualified, hit):
    """The qualified name of the definition around each node under ``node``
    for which ``hit`` holds (the module's name outside any definition)."""
    for child in ast.iter_child_nodes(node):
        name = f"{qualified}.{child.name}" if isinstance(child, _DEFINITIONS) else qualified
        if hit(child):
            yield name
        yield from _sites(child, name, hit)


def _found(hit) -> set:
    """``_sites`` of ``hit`` over every src module."""
    return {name for path in sorted(SRC.glob("*.py"))
            for name in _sites(ast.parse(path.read_text()), path.stem, hit)}


def _is_bool_check(node) -> bool:
    """``isinstance(x, bool)`` or ``isinstance(x, (..., bool))``."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1])))


def test_only_check_record_judges_json_types():
    # A JSON true is a Python int, so a JSON type check tests for bool; such a
    # test outside fragment.check_record is a second type checker.
    assert _found(_is_bool_check) == {"fragment.check_record"}


def test_only_load_record_parses_a_json_file():
    # Each file that is not JSON, and each JSON file of the wrong shape, is named
    # by one reader: a second json.load would report a parse error without its file.
    assert _found(lambda node: isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "load"
                  and getattr(node.func.value, "id", None) == "json") == {"fragment.load_record"}


def _is_blas(node) -> bool:
    """An ``@``, a ``matmul``, ``dot`` or ``tensordot`` call, or an ``einsum``
    call without ``optimize=False``, which may plan its sum as a BLAS call."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return True
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "attr", getattr(node.func, "id", None))
    if name == "einsum":
        return not any(kw.arg == "optimize" and getattr(kw.value, "value", None) is False
                       for kw in node.keywords)
    return name in ("matmul", "dot", "tensordot")


def test_decoding_calls_no_blas():
    # A BLAS call rounds a row by how many rows share it, and a decoded row's
    # logits must not depend on the rows beside it.  So neither decode.py nor
    # any diffusion function it reaches, through others or not, calls one.
    decode, diffusion = (ast.parse((SRC / name).read_text())
                         for name in ("decode.py", "diffusion.py"))
    defined = {node.name: node for node in diffusion.body if isinstance(node, _DEFINITIONS)}
    todo = [node.attr for node in ast.walk(decode) if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "diffusion"]
    reached = set()
    while todo:
        name = todo.pop()
        if name in defined and name not in reached:
            reached.add(name)
            todo.extend(node.id for node in ast.walk(defined[name]) if isinstance(node, ast.Name))
    assert {"predict", "nucleus_cut", "_softmax", "logit_table", "visible_table"} <= reached
    hits = set(_sites(diffusion, "diffusion", _is_blas))
    # The scan sees training's matmul and @, which decoding never reaches.
    assert {"diffusion._pooled", "diffusion.loss_gradient"} <= hits
    on_the_path = {site for site in hits  # a module-level site runs on import
                   if "." not in site or site.split(".")[1] in reached}
    assert on_the_path | set(_sites(decode, "decode", _is_blas)) == set()
