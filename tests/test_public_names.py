"""Every public top-level function or class of the library, and every public
method or property of a public class, is used by other library code, or is
kept on purpose for the reason stated here, so no public name survives only
as a copy of what the commands already do or as an accessor that only tests
reach."""

import ast
from pathlib import Path

import bsde_lab

SRC = Path(bsde_lab.__file__).resolve().parent

# The public definitions that no other library code references, with the
# reason each is kept.  A method or property is named Class.name.
KEPT = {
    "check_lemma1": "the energy inequality of Lemma 1 (acceptance criterion 9)",
    "check_apriori_bounds": "the paper's two a-priori moment bounds",
    "h1pp_to_h1": "the paper's particular cases: an H1'' modulus gives an H1 one",
    "iterate_distance_arrays": "the benchmark's traced runs wrap it by name, "
                               "and it is the tests' distance between two "
                               "solutions",
    "lp_norm_arrays": "the benchmark's traced runs wrap it by name",
    "oracle_paths": "the tests' reference for the closed-form solutions",
    "DiscreteSolution.z": "the whole z array, which the benchmark's finiteness "
                          "gate and the tests read; the library walks "
                          "z_along",
}


def _unreferenced() -> set:
    """Public top-level functions and classes of the modules (the package's
    __init__, which only re-exports, aside) that no module names, and public
    methods and properties of public classes whose name no module reads as
    an attribute.  A read of a name that is also a field of a class in the
    method's module proves nothing, since it may be the field's: a property
    that lists one field of a class's records is not used where a record's
    field of that name is read."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unused = defined - named
    for tree in trees:
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)
                   and not node.name.startswith("_")]
        fields = {item.target.id for cls in classes for item in cls.body
                  if isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)}
        unused |= {f"{cls.name}.{item.name}" for cls in classes
                   for item in cls.body if isinstance(item, ast.FunctionDef)
                   and not item.name.startswith("_")
                   and (item.name not in read or item.name in fields)}
    return unused


def test_every_unreferenced_public_definition_is_kept_on_purpose():
    assert _unreferenced() == set(KEPT)
