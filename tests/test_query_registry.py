"""The query registry behind ``__ray_entry__.queries()``: frozen names
and order, oracle coverage, inputs that exist in the fixture tables,
resolvable library calls and an import that loads no pipeline module.
No Ray needed."""

import ast
import importlib
import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
import __ray_entry__ as em  # noqa: E402

SF_DIR = "/root/testdata/sf0.001"
NAMES = os.path.join(REPO, "tests", "data", "query_names.txt")


@pytest.fixture(scope="module")
def schemas():
    return {f[:-len(".parquet")]: set(pq.read_schema(
        os.path.join(SF_DIR, f)).names)
        for f in os.listdir(SF_DIR) if f.endswith(".parquet")}


def _check_input(schemas, table, cols=None, where=None):
    assert table in schemas, table
    missing = set((cols or "").split()) - schemas[table]
    assert not missing, (table, missing)


def test_names_frozen_in_order():
    # the driver gates only the first 50 names, so order is contract
    with open(NAMES) as f:
        assert list(em.queries()) == f.read().split()


def test_every_oracle_has_a_query():
    assert set(em.oracle_sql()) <= set(em.queries())


def test_entries_are_well_formed():
    assert len({q.name for q in em.REGISTRY}) == len(em.REGISTRY)
    for q in em.REGISTRY:
        assert q.doc and "\n" not in q.doc, q.name
        if isinstance(q.call, str):
            mod, _, attr = q.call.rpartition(".")
            fn = getattr(importlib.import_module(
                f"bqf_ray.pipelines.{mod}"), attr)
            assert callable(fn), q.name
            assert q.inputs, q.name
        else:
            assert callable(q.call), q.name


def test_entry_inputs_exist(schemas):
    for q in em.REGISTRY:
        for inp in q.inputs:
            _check_input(schemas, *inp)


def test_literal_reads_exist(schemas):
    """Every ``_read(sf_dir, "table", "cols")`` written out in the
    driver functions names real columns too."""
    src = open(os.path.join(REPO, "__ray_entry__.py")).read()
    n = 0
    for node in ast.walk(ast.parse(src)):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", "")
                == "_read" and len(node.args) >= 2
                and all(isinstance(a, ast.Constant)
                        for a in node.args[1:])):
            _check_input(schemas, *[a.value for a in node.args[1:]])
            n += 1
    assert n > 50


def test_import_loads_no_pipeline_module():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import __ray_entry__; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('bqf_ray.pipelines')))")
    out = subprocess.run([sys.executable, "-c", code, REPO],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
