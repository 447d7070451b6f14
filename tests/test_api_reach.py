"""Every public function, class and method of the package is named by other
package code, or is on a written list with the reason it stays; and only the
command line names ConfigError."""

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
    "v_tilde": "the paper's variance proxy V at one z; lambda_dep runs the same walker "
               "privately, and its fixed-point tests check against this one",
}


# defaulted parameters of reached public functions that no package call
# passes, keyed by (function, parameter), with the reason each stays
ALLOWED_PARAMS = {
    ("main", "argv"): "a caller that runs the CLI in-process passes its own argument list",
}


def _modules():
    """Each package module's file name, its syntax tree and its public
    definitions: functions, classes and their methods."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        public = [n for scope in scopes for n in scope.body
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not n.name.startswith("_")]
        yield path.name, tree, public


def _walk():
    """Each public definition's name with the (file, first line, last line)
    spans it is defined over, and every (file, line, identifier) a name, an
    attribute or an import of the package uses."""
    defs, uses = {}, []
    for name, tree, public in _modules():
        for node in public:
            defs.setdefault(node.name, []).append((name, node.lineno, node.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((name, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                uses.append((name, node.lineno, node.name))
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


_NOT_LITERAL = object()


def _literal(node):
    """The value of a literal expression, or _NOT_LITERAL."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return _NOT_LITERAL


def _defaulted(fn):
    """The defaulted parameters of a function definition, each with the
    number of positional arguments a call needs to reach it (None for a
    keyword-only one) and its default's literal value; a method's call
    leaves out self or cls."""
    a = fn.args
    positional = a.posonlyargs + a.args
    skip = int(bool(positional) and positional[0].arg in ("self", "cls"))
    first = len(positional) - len(a.defaults)
    out = [(p.arg, i + 1 - skip, _literal(a.defaults[i - first]))
           for i, p in enumerate(positional) if i >= first]
    return out + [(p.arg, None, _literal(d)) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]


def test_every_defaulted_parameter_is_passed_by_package_code():
    # a call passes a parameter by keyword or by position, unless it passes a
    # literal equal to the default (f(x, 0.0) for lam=0.0), and a call with *
    # or ** passes every one; a function used as a value (a table entry, a
    # build= argument) may be called with any of them, so all count as passed
    defs, calls, values = {}, [], set()
    for _, tree, public in _modules():
        for node in public:
            if not isinstance(node, ast.ClassDef):
                defs.setdefault(node.name, []).extend(_defaulted(node))
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls.append((name, node.args, {k.arg: k.value for k in node.keywords},
                              starred))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                    and id(node) not in called):
                values.add(getattr(node, "id", getattr(node, "attr", None)))

    def passed(args, keywords, param, position, default):
        if param in keywords:
            value = keywords[param]
        elif position is not None and len(args) >= position:
            value = args[position - 1]
        else:
            return False
        given = _literal(value)
        return given is _NOT_LITERAL or default is _NOT_LITERAL or given != default

    unpassed = sorted({
        (name, param) for name, params in defs.items()
        if name not in ALLOWED and name not in values
        for param, position, default in params
        if not any(fn == name and (starred or passed(args, keywords, param, position, default))
                   for fn, args, keywords, starred in calls)})
    assert sorted(set(unpassed) - set(ALLOWED_PARAMS)) == [], \
        "a setting only tests use: make it a constant or pass it from package code"
    # the list holds only parameters that exist and that no call passes
    assert sorted(set(ALLOWED_PARAMS) - set(unpassed)) == []


def test_only_the_cli_names_config_error():
    # the library raises ValueError for a bad argument, and the CLI alone turns
    # one into the exit-2 ConfigError where input enters, so a library bug exits 1
    _, uses = _walk()
    assert sorted({file for file, _, ident in uses if ident == "ConfigError"}) == ["cli.py"]
