"""Static checks on the package source: no unused imports, no unnamed definitions."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crosshom"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
WORD = re.compile(r"\w+")
ATTRIBUTE = re.compile(r"\.(\w+)")


def _corpus() -> dict[Path, str]:
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    paths.append(ROOT / "README.md")
    return {p: p.read_text() for p in sorted(paths)}


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, including those in quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _code_names(tree: ast.Module) -> set[str]:
    """Names used in code: those `_used_names` reads, attribute names and
    imported names.  Docstrings, other strings and comments do not count."""
    used = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name for alias in node.names)
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert unused == []


def _definitions(tree: ast.Module):
    """(node, is_method) for the module-level functions and classes, and for
    the methods and properties of those classes apart from dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item, True


def _named_outside(words: Counter, lines: list[str], node, pattern=WORD) -> bool:
    """Whether node's name occurs in `words` beyond its own definition, both
    counted as the matches of `pattern`."""
    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    own = pattern.findall("\n".join(lines[first - 1 : node.end_lineno]))
    return words[node.name] > own.count(node.name)


def test_every_definition_is_named_outside_itself():
    # a method counts as used only where it is reached as an attribute
    # (`.name`), not where its bare word occurs
    corpus = _corpus()
    words = Counter(w for text in corpus.values() for w in WORD.findall(text))
    attributes = Counter(w for text in corpus.values() for w in ATTRIBUTE.findall(text))
    unnamed = []
    for path in MODULES:
        source = corpus[path]
        lines = source.splitlines()
        for node, is_method in _definitions(ast.parse(source)):
            named = (
                _named_outside(attributes, lines, node, ATTRIBUTE)
                if is_method
                else _named_outside(words, lines, node)
            )
            if not named:
                unnamed.append(f"{path.name}:{node.name}")
    assert unnamed == []


def test_every_private_definition_is_named_in_the_package():
    # code that only tests read goes: each private module-level function,
    # class or method (module hooks such as __getattr__ and dunder methods
    # aside) is named somewhere in the package outside its own definition
    corpus = {p: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    words = Counter(w for text in corpus.values() for w in WORD.findall(text))
    unnamed = []
    for path, source in corpus.items():
        lines = source.splitlines()
        for node, _ in _definitions(ast.parse(source)):
            if (
                node.name.startswith("_")
                and not node.name.endswith("__")
                and not _named_outside(words, lines, node)
            ):
                unnamed.append(f"{path.name}:{node.name}")
    assert unnamed == []


# Paper API that only the tests and the benchmark call today.
PAPER_API = {
    "adjoint_weak_rep",
    "check_deformation_equivalence",
    "check_first_order_op",
    "check_gln_rep",
    "crossed_hom_residual",
    # the dense d_k: the criterion-14 oracle ranks it
    "differential_matrix",
    "extend_to_action_rep",
    # the paper's bracket of two elements; the package reads its basis form,
    # `structure_terms`, directly
    "FinLieAlgebra.bracket",
    "hamiltonian_bracket_coefficient",
    "iota_graph_is_homomorphism",
    "natural_rep",
    "scaling_derivation",
    "setup_to_dict",
    # dim H^k per degree: the gw-cohomology bench workload checks it
    "CohomologyReport.dims_H",
}


def _code_statements(nodes) -> list:
    return [(node, _code_names(ast.Module([node], []))) for node in nodes]


def test_every_public_definition_is_used_exported_or_paper_api():
    # code that only tests use goes unless it is paper API: each public
    # module-level function or class is used in package code outside its own
    # definition (a mention in a docstring or comment does not count),
    # exported in `crosshom.__all__`, or listed in PAPER_API; each public
    # method or property is used in package code outside its own definition
    # (its class's other members count) or listed in PAPER_API as
    # Class.method, whether or not its class is exported
    import crosshom

    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    statements = _code_statements(node for tree in trees.values() for node in tree.body)
    exported = set(crosshom.__all__)

    def used(name, own):
        return any(name in names for other, names in statements if other is not own)

    test_only = []
    for path, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in exported
                and not used(node.name, node)
            ):
                test_only.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                members = _code_statements(node.body)
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")
                        and not used(item.name, node)
                        and not any(item.name in names for other, names in members if other is not item)
                    ):
                        test_only.append(f"{path.name}:{node.name}.{item.name}")
    assert sorted(n for n in test_only if n.split(":")[1] not in PAPER_API) == []
    # the allowlist names only definitions that need it
    assert sorted(n.split(":")[1] for n in test_only) == sorted(PAPER_API)


def _has_double_loop(function: ast.FunctionDef) -> bool:
    return any(
        isinstance(inner, ast.For)
        for outer in ast.walk(function)
        if isinstance(outer, ast.For)
        for stmt in outer.body
        for inner in ast.walk(stmt)
    )


def test_every_sparse_element_is_a_tensor_element():
    # one element layout: each sparse element class of `witt` (a value class
    # with a `terms` field, below TensorElem, which declares that field)
    # subclasses TensorElem, which has no base of its own, and no subclass
    # anywhere in the package defines its own rendering, sum or difference,
    # or a double loop (a bracket or action of its own)
    import crosshom.witt as witt

    classes = [
        c
        for c in vars(witt).values()
        if isinstance(c, type)
        and c.__module__ == witt.__name__
        and c is not witt.TensorElem
        and "terms" in getattr(c, "_fields", ())
    ]
    assert {c.__name__ for c in classes} == {"LaurentPoly", "GlLaurent", "VTensorA", "WittElem"}
    assert all(issubclass(c, witt.TensorElem) for c in classes)
    assert witt.TensorElem.__mro__ == (witt.TensorElem, object)
    own = []
    subclasses = 0
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "TensorElem" for b in node.bases
            ):
                subclasses += 1
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                        item.name in ("__str__", "__add__", "__sub__") or _has_double_loop(item)
                    ):
                        own.append(f"{path.name}:{node.name}.{item.name}")
    assert subclasses == len(classes)
    assert own == []


# The only places outside linalg that call the Matrix(rows, cols, data)
# constructor, each with its reason.
DENSE_LAYOUT_SITES = {
    # the data is the rows as the definition file writes them
    ("formats.py", "_matrix_from_rows"),
    # each candidate is the grid's row-major digit tuple, in the documented order
    ("liealg.py", "solve_crossed_homs_grid"),
}


def _top_level_definitions(tree: ast.Module):
    """(name, node) for each module-level statement; a class's methods are
    named Class.method, and code outside any definition "<module>"."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '<body>')}", item
        else:
            yield getattr(node, "name", "<module>"), node


def _writes_dense_layout(node) -> bool:
    """A call of the Matrix constructor, or `[ZERO] * (a * b)`: a list of
    zeros as long as a product, in either operand order."""
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Name) and func.id == "Matrix") or (
            isinstance(func, ast.Attribute) and func.attr == "Matrix"
        )
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for zeros, length in ((node.left, node.right), (node.right, node.left)):
        if (
            isinstance(zeros, ast.List)
            and len(zeros.elts) == 1
            and ast.unparse(zeros.elts[0]) in ("ZERO", "Fraction(0)")
            and isinstance(length, ast.BinOp)
            and isinstance(length.op, ast.Mult)
        ):
            return True
    return False


def test_only_linalg_writes_the_dense_layout():
    # a matrix given by its nonzeros is written by linalg's one writer
    # (`_entry_matrix`), so no other module fills a zero list for a matrix
    # or calls the Matrix constructor, apart from DENSE_LAYOUT_SITES
    sites = set()
    for path in MODULES:
        if path.name == "linalg.py":
            continue
        for name, node in _top_level_definitions(ast.parse(path.read_text())):
            if any(_writes_dense_layout(n) for n in ast.walk(node)):
                sites.add((path.name, name))
    assert sites == DENSE_LAYOUT_SITES


def _is_shape_pair(node) -> bool:
    """A tuple (x.rows, x.cols)."""
    return (
        isinstance(node, ast.Tuple)
        and [getattr(e, "attr", None) for e in node.elts] == ["rows", "cols"]
    )


def _raises_on_a_shape_pair(node) -> bool:
    return (
        isinstance(node, ast.If)
        and any(_is_shape_pair(n) for n in ast.walk(node.test))
        and any(isinstance(n, ast.Raise) for n in node.body)
    )


def _joins_findings(node) -> bool:
    """'; '.join(str(f) for f in ...)."""
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) == "'; '.join"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.GeneratorExp)
        and ast.unparse(node.args[0].elt).startswith("str(")
    )


def test_one_shape_check_and_one_precondition_raise():
    # linalg's require_shape and require_square_family check every matrix
    # shape, and errors.require_no_findings raises every failed precondition
    # with its findings joined by '; '
    shape_checks, finding_joins = set(), set()
    for path in MODULES:
        for name, node in _top_level_definitions(ast.parse(path.read_text())):
            if path.name != "linalg.py" and any(_raises_on_a_shape_pair(n) for n in ast.walk(node)):
                shape_checks.add((path.name, name))
            if any(_joins_findings(n) for n in ast.walk(node)):
                finding_joins.add((path.name, name))
    assert shape_checks == set()
    assert finding_joins == {("errors.py", "require_no_findings")}


def _called_name(node) -> str | None:
    """The name a call calls, `f` for both f(...) and x.f(...)."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def _builds_finding_from_accumulator(node) -> bool:
    """A Finding(...) call with a `_dense(...)` or `_column_matrix(...)` call
    in one of its arguments."""
    if _called_name(node) != "Finding":
        return False
    arguments = [*node.args, *(k.value for k in node.keywords)]
    return any(
        _called_name(n) in ("_dense", "_column_matrix") for a in arguments for n in ast.walk(a)
    )


def test_only_the_report_builder_turns_an_accumulator_into_a_finding():
    # a sparse residual becomes a finding's dense vector or column matrix in
    # one place, `report._nonzero_findings`; every checker hands it (site,
    # residual) pairs instead of building such a finding itself
    sites = []
    for path in MODULES:
        if path.name != "report.py":
            for name, node in _top_level_definitions(ast.parse(path.read_text())):
                calls = [n for n in ast.walk(node) if _builds_finding_from_accumulator(n)]
                sites += [(path.name, name, call.lineno) for call in calls]
    assert sites == []


# The only places in the package that read an algebra's dense `.structure`,
# each with its reason.
STRUCTURE_READERS = {
    # the shared base validates the keys and turns the vectors into the
    # nonzero view every other reader goes through
    ("liealg.py", "_StructureAlgebra.__init__"),
    ("liealg.py", "_StructureAlgebra.structure_terms"),
    # the file writer prints the stored pairs as the file gives them
    ("formats.py", "algebra_to_dict"),
}


def test_only_the_shared_base_turns_structure_into_the_nonzero_view():
    # FinLieAlgebra and FinCommAlgebra keep one layout: outside liealg's base,
    # whose `structure_terms` is the one nonzero view of either kind, only
    # the file writer reads `.structure`
    sites = set()
    for path in MODULES:
        for name, node in _top_level_definitions(ast.parse(path.read_text())):
            if any(isinstance(n, ast.Attribute) and n.attr == "structure" for n in ast.walk(node)):
                sites.add((path.name, name))
    assert sites == STRUCTURE_READERS


def test_no_module_imports_dataclasses():
    # the value classes are plain classes on `linalg._Value`: `dataclasses`
    # imports `inspect`, and each decorated class execs its methods at start-up
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                [a.name for a in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            )
            if any(n and n.split(".")[0] == "dataclasses" for n in names):
                importers.append(path.name)
    assert importers == []


# The only attribute assignments in the package outside an `__init__`,
# each with its reason.
ATTRIBUTE_WRITES = {
    # a CLI report's status and error are set as the command runs
    ("cli.py", "main", "status"),
    ("cli.py", "main", "error"),
    ("report.py", "Report.add_findings", "status"),
    # the hash of a Poly is computed on first use
    ("poly.py", "Poly.__hash__", "_hash"),
}


def _assigned_attributes(node):
    """(owner, name) for each attribute node assigns: targets of =, augmented
    and annotated assignments (unpacked), and setattr or __setattr__ calls."""
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("setattr", "__setattr__"):
        # never exempt, not even in an __init__
        yield "setattr", ast.unparse(node.args[-2]) if len(node.args) >= 2 else "?"
    while targets:
        t = targets.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            targets.extend(t.elts)
        elif isinstance(t, ast.Starred):
            targets.append(t.value)
        elif isinstance(t, ast.Attribute):
            yield ast.unparse(t.value), t.attr


def test_values_are_assigned_only_in_init():
    # the value classes are immutable by rule rather than by a setter guard:
    # an __init__ assigns its own object's fields, and apart from that the
    # package assigns no attribute beyond ATTRIBUTE_WRITES
    writes = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _top_level_definitions(ast.parse(path.read_text())):
            in_init = name.split(".")[-1] == "__init__"
            for n in ast.walk(node):
                writes |= {
                    (path.name, name, attr)
                    for owner, attr in _assigned_attributes(n)
                    if not (in_init and owner == "self")
                }
    assert writes == ATTRIBUTE_WRITES
