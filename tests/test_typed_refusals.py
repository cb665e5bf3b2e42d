"""Every refusal fable makes is typed.

Each ``raise`` in the package names a class from :mod:`fable.errors`, or
calls a helper whose return annotation names one, so the CLI turns every
bad input into a JSON record that names its type. The only exceptions
are the LAPACK wrapper's internal preconditions, which its one caller,
``truncated_svd``, always meets.
"""

import ast
from pathlib import Path

import fable
import fable.errors

SRC = Path(fable.__file__).parent
TYPED = {
    name
    for name, obj in vars(fable.errors).items()
    if isinstance(obj, type) and issubclass(obj, fable.errors.FableError)
}
# (module, function, exception): unreachable from any public call
INTERNAL = {
    ("_lapack.py", "top_vectors", "ValueError"),
    ("_lapack.py", "tridiagonalize", "ValueError"),
}


def untyped_raises(path: Path) -> list[tuple[str, str, str, int]]:
    """(module, function, raised name, line) for each raise in ``path``
    that names no FableError."""
    tree = ast.parse(path.read_text(), filename=str(path))
    # module-level helpers that build an error for the caller to raise
    builders = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.returns is not None
        and ast.unparse(node.returns) in TYPED
    }
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.function = "<module>"

        def visit_FunctionDef(self, node):
            outer, self.function = self.function, node.name
            self.generic_visit(node)
            self.function = outer

        def visit_Raise(self, node):
            if node.exc is None:  # a bare re-raise
                return
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(target).rsplit(".", 1)[-1]
            if name not in TYPED and name not in builders:
                found.append((path.name, self.function, name, node.lineno))

    Visitor().visit(tree)
    return found


def test_every_raise_names_a_fable_error():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in untyped_raises(path)]
    untyped = [hit for hit in found if hit[:3] not in INTERNAL]
    assert not untyped, f"untyped raises (module, function, name, line): {untyped}"
    # the allow-list names only sites that still exist
    assert {hit[:3] for hit in found} == INTERNAL


def test_the_walk_sees_an_untyped_raise(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from .errors import ParseError\n"
        "def cell() -> ParseError:\n    return ParseError('x')\n"
        "def f():\n    raise ValueError('plain')\n"
        "def g():\n    raise cell()\n"
        "def h():\n    try:\n        pass\n    except OSError:\n        raise\n"
    )
    assert untyped_raises(path) == [("probe.py", "f", "ValueError", 5)]
