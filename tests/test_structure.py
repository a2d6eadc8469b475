"""The source keeps one OR gather and one incidence representation: the
column index is built only where the OR gather reads it (and where a COMA
plan and the harness ask for it ahead of the trials), and no module reads
the ``rows`` tuples that a ``TestMatrix`` still offers callers. The check
reads the source with ``ast`` and the standard library alone."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sparsegt").glob("*.py"))

# the functions, as module.qualified name, that may call .column_index()
_COLUMN_INDEX_CALLERS = {
    "core._or_gather",
    "decoders.ComaPlan.__init__",
    "sim._run_trial_range",
}


def _attributes(source: str, module: str):
    """(module.qualified name of the enclosing function or class, or the
    module alone at top level; the ``ast.Attribute`` node; whether it is
    called) of every attribute in ``source``."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Attribute):
            found.append((".".join([module] + scope), node, id(node) in called))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def _column_index_callers(source: str, module: str) -> set[str]:
    return {where for where, node, call in _attributes(source, module)
            if call and node.attr == "column_index"}


def test_the_column_index_is_built_only_by_the_gather_and_its_two_warmers():
    assert len(SOURCES) >= 6
    callers = set().union(*(_column_index_callers(p.read_text(), p.stem) for p in SOURCES))
    assert callers == _COLUMN_INDEX_CALLERS


def test_no_module_reads_rows():
    found = [
        f"{path.name}:{node.lineno} in {where}"
        for path in SOURCES
        for where, node, _ in _attributes(path.read_text(), path.stem)
        if node.attr == "rows" and isinstance(node.ctx, ast.Load)
    ]
    assert not found, "reads TestMatrix.rows: " + "; ".join(found)


def test_the_checks_see_what_they_exist_for():
    """A call in a function and a read of ``rows`` in a method are found;
    an attribute named but not called is no call, and a keyword ``rows=``
    no read."""
    source = (
        "def validate(matrix):\n"
        "    col_indptr, tests = matrix.column_index()\n"
        "class Plan:\n"
        "    def build(self, matrix):\n"
        "        return len(matrix.rows), matrix.column_index\n"
        "def make(rows):\n"
        "    return TestMatrix(rows=rows, num_items=3)\n"
    )
    assert _column_index_callers(source, "core") == {"core.validate"}
    reads = [(where, node.attr) for where, node, _ in _attributes(source, "core")]
    assert ("core.Plan.build", "rows") in reads
    assert ("core.make", "rows") not in reads
