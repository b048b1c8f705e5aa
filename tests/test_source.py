"""Checks on the package source itself."""

import argparse
import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fuelgap
from fuelgap import cli, data, halton, msl, sure
from fuelgap.msl import LoglikKernel, _line_search, fit_rp_sure, simulated_loglik
from fuelgap.sure import ErrorCovariance, fgls_fit, ols_system_fit, residual_covariance

SOURCES = sorted(Path(fuelgap.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
REPO = Path(__file__).resolve().parents[1]
# exported reference implementations that only tests call, to compare against
TEST_ORACLES = {"loglik_fixed", "quadrature_loglik"}


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports, `from __future__` excepted."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []


def callers(module: str | None, names: set[str]) -> set[tuple[str, str]]:
    """(file stem, innermost enclosing function) of each call `module.<name>(...)`;
    with module None, of each call `<name>(...)` or `<anything>.<name>(...)`."""
    found = set()

    def called(func) -> bool:
        if module is None:
            return getattr(func, "id", getattr(func, "attr", None)) in names
        return (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id == module and func.attr in names)

    def visit(node, path, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and called(node.func):
            found.add((path.stem, function))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
    return found


@pytest.mark.parametrize("module,names,home", [
    ("json", {"load", "loads"}, ("modelspec", "read_json")),
    ("csv", {"writer", "DictWriter"}, ("data", "write_csv")),
    ("csv", {"reader", "DictReader"}, ("data", "parse_raw")),
    ("np", {"save"}, ("data", "write_table_image")),
    ("np", {"load"}, ("data", "read_table_image")),
    ("hashlib", {"sha256"}, ("data", "file_sha256")),
], ids=["json-read", "csv-write", "csv-read", "image-write", "image-read", "sha256"])
def test_one_home_per_file_format(module, names, home):
    assert callers(module, names) == {home}


def test_one_home_for_the_fit_result():
    # every estimator's result is built by the one layout builder, so a new
    # estimator or result field cannot grow a second parameter layout
    assert callers(None, {"SureFit", "CoefficientEstimate"}) == {("sure", "layout_fit")}


def parameter_offsets(tree: ast.Module, stem: str) -> set[tuple[str, str, str]]:
    """(file stem, function, source) of each parameter offset computed outside
    sure.ParameterLayout: a `<x>.shape[1] + ...` sum, a `-3` subscript, or
    a name k1 or k2."""
    found = set()

    def is_width(node) -> bool:
        return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "shape" and getattr(node.slice, "value", None) == 1)

    def visit(node, function):
        if isinstance(node, ast.ClassDef) and node.name == "ParameterLayout":
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                and (is_width(node.left) or is_width(node.right))
                or isinstance(node, ast.Subscript) and any(
                    isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub)
                    and getattr(n.operand, "value", None) == 3 for n in ast.walk(node.slice))
                or isinstance(node, ast.Name) and node.id in ("k1", "k2")):
            found.add((stem, function, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_one_parameter_layout():
    # the layout [coef1 | coef2 | sigma_d ... | error covariance] has one
    # home: ParameterLayout builds it from the design, with the one order of
    # the random terms, and no other function computes an offset in it, so
    # a new block of parameters is added in one place
    assert not hasattr(msl, "_Transform")
    assert callers(None, {"ParameterLayout"}) == \
        {("sure", "layout"), ("sure", "fgls_fit"), ("sure", "ols_system_fit")}
    assert callers(None, {"effects_from_design"}) == {("sure", "__init__")}
    assert msl.effects_from_design is sure.effects_from_design
    assert set().union(*(parameter_offsets(ast.parse(path.read_text(encoding="utf-8")),
                                           path.stem) for path in MODULES)) == set()


def test_parameter_offsets_are_found():
    # the check above, on code that computes offsets as the kernel once did
    tree = ast.parse("def size(x, d):\n    return x[0].shape[1] + x[1].shape[1] + d + 3\n"
                     "def last(out):\n    out[:, -3] = 0.0\n"
                     "def split(beta, k1):\n    return beta[:k1]\n"
                     "class ParameterLayout:\n    def f(self, x, k1):\n"
                     "        return x.shape[1] + k1\n")
    assert {(function, source) for _, function, source in parameter_offsets(tree, "m")} == \
        {("size", "x[0].shape[1] + x[1].shape[1]"), ("last", "out[:, -3]"), ("split", "k1")}


def test_one_table_of_fit_setting_bounds():
    # the bound of each rp-sure setting is stated once; the library checks
    # it where the setting is taken, and the fit command reads the same
    # table to exit 2 before it reads the data
    assert callers(None, {"check_lower_bound"}) == \
        {("halton", "__post_init__"), ("msl", "__init__"), ("msl", "fit_rp_sure")}
    assert "LOWER_BOUNDS" in inspect.getsource(cli._rp_sure_options)
    for module in (cli, msl, halton):
        assert re.findall(r"\b(?:draws_per_obs|burn|threads|max_iterations) <",
                          inspect.getsource(module)) == []


def test_one_rank_check_per_design():
    # the estimators' one identification rule (sure._equation_ols, through
    # _qr_solve) and the FGLS solve check rank; the encoder does not check it again
    assert callers(None, {"full_rank_qr"}) == \
        {("sure", "_qr_solve"), ("msl", "_check_spreads_identified")}


def test_one_ols_per_equation():
    # every equation is fitted by OLS in one place, through the design, so
    # no entry point takes a matrix and its names apart from the design
    assert callers(None, {"_qr_solve"}) == {("sure", "_equation_ols"), ("sure", "_gls")}
    for name in ("ols_fit", "OlsFit"):
        assert not hasattr(sure, name)
    assert not hasattr(fuelgap, "ols_fit")
    split = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                params = {a.arg for a in node.args.args + node.args.kwonlyargs}
                if params & {"x", "x1", "x2"} and params & {"names", "names1", "names2"}:
                    split.add((path.stem, node.name))
    assert split == {("sure", "full_rank_qr"), ("sure", "_qr_solve")}


def test_one_gls_solve():
    # the stacked, whitened GLS solve has one home, which FGLS and the
    # exact-ML start of the rp-sure fit share, and every least-squares
    # solve goes through _qr_solve and its rank rule
    assert callers(None, {"_gls"}) == {("sure", "fgls_fit"), ("msl", "profile")}
    assert callers(None, {"lstsq"}) == set()


def test_one_encoder_for_every_design():
    # a parsed table and a simulated dataset are encoded by one loop, so a
    # new term kind is encoded once and the two cannot drift apart
    assert callers(None, {"encode_columns"}) == {("data", "encode_design"),
                                                 ("synthetic", "simulate_dataset")}


def test_one_home_for_the_row_rule():
    # a garage row is judged only on whole columns of its batch, so a second,
    # field-by-field checker cannot come back beside the batch check
    assert callers(None, {"ParseError"}) == {("data", "parse_raw"), ("data", "add"),
                                             ("data", "_parse_batch")}
    for name in ("_check_row", "_positive_float", "_required_int", "_check_width"):
        assert not hasattr(data, name)


def test_one_factorization_of_the_error_covariance():
    # ErrorCovariance factors its matrix once, when built, and every user of
    # the factor reads its `low`; the other two factor parameter covariances
    assert callers(None, {"cholesky"}) == {("sure", "__post_init__"),
                                           ("msl", "_natural_covariance"),
                                           ("criteria", "score_criteria")}
    assert "cholesky(" in inspect.getsource(ErrorCovariance.__post_init__)
    assert not hasattr(ErrorCovariance, "cholesky_lower")


def test_every_export_has_a_caller():
    # a public name that nothing in the package, the demos or the benchmark
    # uses is generality no spec reaches, unless tests compare against it
    tree = ast.parse(Path(fuelgap.__file__).read_text(encoding="utf-8"))
    exported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    used = set()
    for path in [*MODULES, *(REPO / "demos").glob("*.py"), *(REPO / "bench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert TEST_ORACLES <= exported
    assert exported - used - TEST_ORACLES == set()


@pytest.mark.parametrize("entry", [ols_system_fit, fgls_fit, fit_rp_sure, LoglikKernel],
                         ids=lambda entry: entry.__name__)
def test_every_estimator_takes_the_design(entry):
    # the encoded design is the one description of the model's columns, so
    # no entry point may take the matrices or their names on their own; the
    # step-one covariance is the ML one, with no divisor to choose
    params = list(inspect.signature(entry).parameters)
    assert params[0] == "design"
    assert {"x1", "x2", "names1", "names2", "eq_names", "cov_denominator"} \
        & set(params) == set()


def test_one_residual_covariance():
    # one estimate of the error covariance, every cross-product over N, and
    # the thread count is the kernel's alone
    assert list(inspect.signature(residual_covariance).parameters) == ["res1", "res2"]
    assert "threads" not in inspect.signature(simulated_loglik).parameters


def test_one_evaluation_path_for_the_fit():
    # the kernel has two entry points, each one pass: loglik returns value
    # and score, hessian the Hessian; the line search takes one callable
    # that returns both value and score, so no trial point's value and score
    # can come from separate passes, and no value-only pass is left to time;
    # the fit's steps are Newton steps, with no second optimizer beside them
    assert not hasattr(LoglikKernel, "loglik_and_score")
    assert list(inspect.signature(LoglikKernel.loglik).parameters) == ["self", "params"]
    assert list(inspect.signature(LoglikKernel.hessian).parameters) == ["self", "params"]
    assert callers(None, {"_evaluate"}) == {("msl", "loglik"), ("msl", "hessian")}
    assert list(inspect.signature(_line_search).parameters) == \
        ["evaluate", "t", "f", "g", "direction"]
    assert not hasattr(msl, "_BfgsMinimizer")


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.13 s to import, which every command would
    # pay at start-up; the fit's optimizer is its own numpy code
    done = subprocess.run(
        [sys.executable, "-c", "import sys, fuelgap.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(fuelgap.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])))
    assert done.stdout == "[]\n"


def test_one_route_per_result():
    # the draw store is the one generator of draws (radical_inverse is the
    # scalar oracle), and whitened_logpdf the one bivariate-normal density
    assert not hasattr(halton, "halton_block")
    assert not hasattr(sure, "bivariate_normal_logpdf")
    assert not hasattr(fuelgap, "halton_block")


def test_one_pool_per_kernel():
    # the kernel builds its pool once, and a pass hands each thread one run
    # of blocks with its own buffer, so there is no per-thread workspace
    assert callers(None, {"ThreadPoolExecutor"}) == {("msl", "__init__")}
    assert "threading" not in imported_names(ast.parse(inspect.getsource(msl)))
    for method in (LoglikKernel._block, LoglikKernel._block_hessian):
        assert "workspace" not in inspect.signature(method).parameters


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_json_and_csv_are_imported_only_by_their_own_names(path):
    # so `json.load(...)` and `csv.writer(...)` are the only ways to call them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    renamed = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module in ("json", "csv")
               or isinstance(node, ast.Import)
               and any(a.name in ("json", "csv") and a.asname for a in node.names)]
    assert renamed == []


def handler_reads(handler) -> set[str]:
    """The `args` attributes that a handler, or a cli function it calls by
    name, reads; reading RP_SURE_OPTIONS counts as reading each of its dests."""
    tree = ast.parse(inspect.getsource(handler))
    trees = [tree] + [ast.parse(inspect.getsource(getattr(cli, node.func.id)))
                      for node in ast.walk(tree) if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and inspect.isfunction(getattr(cli, node.func.id, None))
                      and getattr(cli, node.func.id).__module__ == cli.__name__]
    read = set()
    for node in (n for t in trees for n in ast.walk(t)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Name) and node.id == "RP_SURE_OPTIONS":
            read |= set(cli.RP_SURE_OPTIONS)
    return read


def subcommand_parsers():
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", list(subcommand_parsers()))
def test_no_flag_is_parsed_and_then_ignored(command):
    # every dest of a subcommand is read by its handler, so a flag that
    # shapes nothing cannot come back
    parser = subcommand_parsers()[command]
    dests = {a.dest for a in parser._actions if a.dest != "help"}
    assert dests - handler_reads(parser.get_default("handler")) == set()


def test_rp_sure_options_are_read_only_through_their_table():
    # so each passes the check that refuses a given option the fit does not use
    tree = ast.parse(inspect.getsource(cli))
    assert {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "args"} & set(cli.RP_SURE_OPTIONS) == set()
