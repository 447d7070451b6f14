"""Every public function, class and method of the package is named by other
package code, or is on a written list with the reason it stays."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "edforecast"

# public names that no package code reaches yet, with the reason each stays
ALLOWED = {
    "build_encoder_decoder": "the certified encoder-decoder, to be built by a CLI command",
    "encoder_batch": "evaluation up to the bottleneck, for that encoder-decoder",
    "decoder_batch": "evaluation from the bottleneck, for that encoder-decoder",
    "functional_delta": "the dependence kind a measured Delta sequence will be given as",
    "prediction_error_mc": "the Monte Carlo prediction error of the simulation claim",
    "estimate_fdm": "the functional dependence estimate the acceptance suite checks",
    "entropy_bound": "the bracketing-entropy bound an acceptance criterion names",
}


def _walk():
    """Each public definition's name with the (file, first line, last line)
    spans it is defined over, and every (file, line, identifier) a name, an
    attribute or an import of the package uses."""
    defs, uses = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for node in (n for scope in scopes for n in scope.body):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.setdefault(node.name, []).append((path.name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                uses.append((path.name, node.lineno, node.name))
    return defs, uses


def test_every_public_name_is_reached_by_other_package_code():
    defs, uses = _walk()
    # a use inside the name's own definition (recursion, a docstring
    # example) does not count
    reached = {name for name, spans in defs.items()
               if any(ident == name and not any(f == file and a <= line <= b
                                                for f, a, b in spans)
                      for file, line, ident in uses)}
    unreached = sorted(set(defs) - reached - set(ALLOWED))
    assert unreached == [], "public but only tests reach it: delete it or move it to tests/"
    # the list holds only names that exist and that nothing reaches yet
    assert sorted(set(ALLOWED) - (set(defs) - reached)) == []
