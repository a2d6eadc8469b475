"""The source keeps one OR gather and one incidence representation: the
column index is built only where the OR gather reads it (and where a COMA
plan and the harness ask for it ahead of the trials), and no module reads
the ``rows`` tuples that a ``TestMatrix`` still offers callers. The CLI
picks a family or theorem by one table lookup, with no chain of
comparisons. Only the header table ``core._HEADER_FIELDS`` spells the
design-file header keys; the parser, the writer and the ``TestMatrix``
constructor read them from it. Only the parameter table
``core._PARAMETERS`` and its reader write a parameter's range. Only the
copy helper ``core._blocks`` builds a view whose entries alias one another.
Only ``core._adopt_csr`` takes a column provider and stores it on a
matrix, only the two cached properties that build the column index and the
column weights read it, and no source writes those caches itself. Only
``core._adopt_csr`` stores CSR arrays without the scans of
``TestMatrix._init``, for arrays its caller built and checked. Only
``core._out_of_memory`` catches a ``MemoryError``, and no handler catches
``Exception`` or everything. Only
``core._adopt_base`` stores a repeated design's base matrix on it, and only
the readers named in ``_BASE_USES`` read it. The check reads the source
with ``ast`` and the standard library alone."""

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


# the CLI functions that look a family or theorem up in its table
_DISPATCHERS = ("_construct", "_cmd_bounds")


def _dispatch_compares(source: str) -> list[str]:
    """"function: operand" for each comparison operand in the top-level
    functions named in ``_DISPATCHERS`` (each function's name first) that
    holds a ``TAG_*`` name or a constant other than None and "noisy"."""
    found = []
    for function in ast.parse(source).body:
        if isinstance(function, ast.FunctionDef) and function.name in _DISPATCHERS:
            found.append(function.name)
            for compare in ast.walk(function):
                if not isinstance(compare, ast.Compare):
                    continue
                for operand in [compare.left, *compare.comparators]:
                    if any((isinstance(leaf, ast.Name) and leaf.id.startswith("TAG_"))
                           or (isinstance(leaf, ast.Constant)
                               and leaf.value not in (None, "noisy"))
                           for leaf in ast.walk(operand)):
                        found.append(f"{function.name}: {ast.unparse(operand)}")
    return found


# the functions that read the header keys from core._HEADER_FIELDS
_HEADER_READERS = ("parse", "_serialized_parts", "TestMatrix._init")
_HEADER_KEYS = ("gamma", "rho", "tag", "k", "base", "blocks")


def _header_key_constants(source: str) -> list[str]:
    """"function: constant" for each string constant in the functions
    named in ``_HEADER_READERS`` (each function's name first, in source
    order) that is a header key, alone or with its "=" (as in an
    f-string)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
            if isinstance(node, ast.FunctionDef) and ".".join(scope) in _HEADER_READERS:
                found.append(".".join(scope))
                found.extend(f"{'.'.join(scope)}: {leaf.value!r}" for leaf in ast.walk(node)
                             if isinstance(leaf, ast.Constant)
                             and leaf.value in _HEADER_KEYS + tuple(k + "=" for k in _HEADER_KEYS))
                return
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


# the reader of the parameter table, which words every range refusal
_RANGE_READERS = ("core._parameter",)
_RANGE_WORDS = ("must lie in", "must be >", "must be finite")


def _range_checks(source: str, module: str) -> list[str]:
    """"scope: text" for each string constant (an f-string's parts
    included) that words a range refusal, and each comparison with the
    constant 0.5, outside ``_RANGE_READERS``; the scope is the module and
    the qualified name of the enclosing function or class."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        where = ".".join([module] + scope)
        if where in _RANGE_READERS:
            return
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(words in node.value for words in _RANGE_WORDS)):
            found.append(f"{where}: {node.value!r}")
        if isinstance(node, ast.Compare) and any(
                isinstance(operand, ast.Constant) and operand.value == 0.5
                for operand in [node.left, *node.comparators]):
            found.append(f"{where}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


# the one function that may build a view whose entries alias one another
_ALIASING_VIEWS = ("core._blocks",)


def _aliasing_views(source: str, module: str) -> list[str]:
    """The scope (module and qualified name) of each name ``as_strided``,
    each call of the ``ndarray`` constructor and each call of
    ``sliding_window_view`` with ``writeable=`` other than False, in source
    order: the ways to build a writeable view whose entries overlap."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and "as_strided" in (
                getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)):
            found.append(".".join([module] + scope))
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            writeable = [kw.value for kw in node.keywords if kw.arg == "writeable"]
            if callee == "ndarray" or (callee == "sliding_window_view" and writeable and not (
                    isinstance(writeable[0], ast.Constant) and writeable[0].value is False)):
                found.append(".".join([module] + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


# the one function that takes a column provider, and stores it on a matrix,
# and the two that read it
_PROVIDER_TAKERS = ("core._adopt_csr",)
_PROVIDER_USES = {("core.TestMatrix._column_index", "read"),
                  ("core.TestMatrix._column_weights", "read"),
                  ("core._adopt_csr", "write")}
_PROVIDER = "_columns"
_CACHES = ("_column_index", "_column_weights")


def _scoped_nodes(source: str, module: str):
    """(module.qualified name of the enclosing function or class, node,
    parent node) of every node in ``source``."""
    found = []

    def visit(node, scope, parent):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        found.append((".".join([module] + scope), node, parent))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, node)

    visit(ast.parse(source), [], None)
    return found


# the one function that stores a repeated design's base on it, and the
# ones that read it: the two counts, the derived copies, pickling and the
# majority plan, which evaluates the base
_BASE = "_base"
_BASE_USES = {("core._adopt_base", "write"),
              ("core.TestMatrix.num_tests", "read"),
              ("core.TestMatrix.ones_count", "read"),
              ("core.TestMatrix._copies", "read"),
              ("core.TestMatrix.__reduce__", "read"),
              ("decoders.MajorityPlan.__init__", "read")}


# the functions that store a matrix's CSR arrays: the constructors' checks
# (``TestMatrix._init``, which scans the offsets and the indices), the
# copies a repeated design derives from its base, and ``_adopt_csr``, the
# one that stores arrays its caller built and checked without the scans
_CSR = ("indptr", "indices")
_CSR_WRITERS = {("core.TestMatrix._init", "write"),
                ("core.TestMatrix._copies", "write"),
                ("core._adopt_csr", "write")}


def _provider_takers(source: str, module: str) -> list[str]:
    """The functions with a parameter named ``columns``, the provider's."""
    return [where for where, node, _ in _scoped_nodes(source, module)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "columns" in [a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)]]


def _named_uses(source: str, module: str, names) -> list[tuple[str, str]]:
    """(scope, "read" or "write") of each use of an instance attribute in
    ``names``: the attribute itself, a string constant naming it (a write
    where it is the key of an item assignment) or a keyword of that name
    (a write, as to ``__dict__.update``)."""
    found = []
    for where, node, parent in _scoped_nodes(source, module):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((where, "read" if isinstance(node.ctx, ast.Load) else "write"))
        elif isinstance(node, ast.Constant) and node.value in names:
            stored = (isinstance(parent, ast.Subscript) and parent.slice is node
                      and isinstance(parent.ctx, ast.Store))
            found.append((where, "write" if stored else "read"))
        elif isinstance(node, ast.keyword) and node.arg in names:
            found.append((where, "write"))
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


def test_the_cli_dispatches_families_and_theorems_by_table():
    source = (ROOT / "src" / "sparsegt" / "cli.py").read_text()
    assert _dispatch_compares(source) == list(_DISPATCHERS)


def test_only_the_header_table_spells_the_header_keys():
    source = (ROOT / "src" / "sparsegt" / "core.py").read_text()
    assert sorted(_header_key_constants(source)) == sorted(_HEADER_READERS)


def test_only_the_parameter_table_writes_a_range():
    found = [check for path in SOURCES for check in _range_checks(path.read_text(), path.stem)]
    assert not found, "a range written outside core._PARAMETERS: " + "; ".join(found)


def test_only_the_copy_helper_builds_an_aliasing_view():
    found = [view for path in SOURCES for view in _aliasing_views(path.read_text(), path.stem)]
    assert found == list(_ALIASING_VIEWS)


def test_only_adopt_csr_takes_a_column_provider():
    takers = [where for path in SOURCES for where in _provider_takers(path.read_text(), path.stem)]
    assert takers == list(_PROVIDER_TAKERS)


def test_only_the_two_caches_read_the_provider():
    uses = [use for path in SOURCES
            for use in _named_uses(path.read_text(), path.stem, (_PROVIDER,))]
    assert set(uses) == _PROVIDER_USES


def test_only_adopt_base_stores_the_base_and_named_readers_read_it():
    uses = [use for path in SOURCES
            for use in _named_uses(path.read_text(), path.stem, (_BASE,))]
    assert set(uses) == _BASE_USES


def test_only_adopt_csr_stores_csr_arrays_without_the_scans():
    uses = [use for path in SOURCES for use in _named_uses(path.read_text(), path.stem, _CSR)]
    assert {use for use in uses if use[1] == "write"} == _CSR_WRITERS
    source = (ROOT / "src" / "sparsegt" / "core.py").read_text()
    init = next(ast.get_source_segment(source, node) for where, node, _ in _scoped_nodes(source, "core")
                if where == "core.TestMatrix._init" and isinstance(node, ast.FunctionDef))
    assert "np.diff(indptr) < 0" in init and "indices.min()" in init


def test_only_the_out_of_memory_helper_catches_memory_errors():
    """``core._out_of_memory`` turns a ``MemoryError`` into a named
    ``ResourceCapError``; no other handler catches one, and none catches
    ``Exception``, ``BaseException`` or everything."""
    found = [(where, ast.dump(node.type) if node.type else None) for path in SOURCES
             for where, node, _ in _scoped_nodes(path.read_text(), path.stem)
             if isinstance(node, ast.ExceptHandler) and (
                 node.type is None or any(isinstance(name, ast.Name) and name.id in (
                     "MemoryError", "Exception", "BaseException") for name in ast.walk(node.type)))]
    assert found == [("core._out_of_memory", ast.dump(ast.Name("MemoryError", ast.Load())))]


def test_no_source_writes_the_column_caches():
    uses = [use for path in SOURCES for use in _named_uses(path.read_text(), path.stem, _CACHES)]
    assert not [use for use in uses if use[1] == "write"], uses


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
    if_chains = (
        "def _construct(args):\n"
        "    if args.seed < 0 or args.family == TAG_HYPERGRID:\n"
        "        return None\n"
        "def _cmd_bounds(args, echo):\n"
        "    if args.theorem == 'noisy' or int(args.theorem) == 4 or args.theorem in ('2', '3'):\n"
        "        return 1\n"
    )
    assert _dispatch_compares(if_chains) == [
        "_construct", "_construct: 0", "_construct: TAG_HYPERGRID", "_cmd_bounds",
        "_cmd_bounds: 4", "_cmd_bounds: ('2', '3')"]
    key_chains = (
        "def parse(text):\n"
        "    if key == 'gamma':\n"
        "        return {'n': 1}\n"
        "def _serialized_parts(matrix):\n"
        "    yield f'rho={matrix.row_limit}'\n"
        "class TestMatrix:\n"
        "    def _init(self, repeat_k):\n"
        "        if repeat_k < 1:\n"
        "            raise ValueError('k')\n"
        "    def parse(self):\n"
        "        return 'tag'\n"
        "_HEADER_FIELDS = (('gamma', 'col_limit', None),)\n"
    )
    assert _header_key_constants(key_chains) == [
        "parse", "parse: 'gamma'", "_serialized_parts", "_serialized_parts: 'rho='",
        "TestMatrix._init", "TestMatrix._init: 'k'"]
    ranges = (
        "def apply_noise(outcomes, sigma, rng):\n"
        "    if not 0.0 <= sigma < 0.5 or 1 < 0.25:\n"
        "        raise InvalidParameterError('sigma must lie in [0, 1/2)')\n"
        "class DesignParams:\n"
        "    def __post_init__(self):\n"
        "        if self.zeta <= 0:\n"
        "            raise InvalidParameterError(f'{self.zeta} must be > 0')\n"
        "_LIMIT = 'cap must be finite'\n"
        "def _parameter(name, value):\n"
        "    if value >= 0.5:\n"
        "        raise InvalidParameterError(f'{name} must lie in (0, 1/2)')\n"
        "    return 'n must be an integer'\n"
    )
    assert _range_checks(ranges, "core") == [
        "core.apply_noise: 0.0 <= sigma < 0.5",
        "core.apply_noise: 'sigma must lie in [0, 1/2)'",
        "core.DesignParams.__post_init__: ' must be > 0'",
        "core: 'cap must be finite'"]
    aliasing = (
        "from numpy.lib.stride_tricks import as_strided, sliding_window_view\n"
        "def copy(out, k):\n"
        "    return np.lib.stride_tricks.sliding_window_view(out, k, writeable=True)\n"
        "def read(x, flag):\n"
        "    return (sliding_window_view(x, 3), sliding_window_view(x, 3, writeable=False),\n"
        "            isinstance(x, np.ndarray))\n"
        "class Plan:\n"
        "    def view(self, x, flag):\n"
        "        return (as_strided(x, (2,), (4,)), np.ndarray((2,), np.int32, x),\n"
        "                sliding_window_view(x, 2, writeable=flag))\n"
    )
    assert _aliasing_views(aliasing, "core") == [
        "core", "core.copy", "core.Plan.view", "core.Plan.view", "core.Plan.view"]
    providers = (
        "def _adopt_csr(indptr, indices, num_items, columns=None, **fields):\n"
        "    matrix.__dict__['_columns'] = columns\n"
        "def build(n, *, columns):\n"
        "    columns = _ordered_columns(n)\n"
        "    return matrix._columns\n"
        "def hint(matrix, tests, weights):\n"
        "    matrix.__dict__['_column_index'] = tests\n"
        "    vars(matrix).update(_column_weights=weights)\n"
        "class TestMatrix:\n"
        "    _columns = None\n"
        "    def column_index(self):\n"
        "        return self._column_index, getattr(self, '_columns')\n"
    )
    assert _provider_takers(providers, "core") == ["core._adopt_csr", "core.build"]
    assert _named_uses(providers, "core", (_PROVIDER,)) == [
        ("core._adopt_csr", "write"), ("core.build", "read"),
        ("core.TestMatrix.column_index", "read")]
    assert _named_uses(providers, "core", _CACHES) == [
        ("core.hint", "write"), ("core.hint", "write"), ("core.TestMatrix.column_index", "read")]
