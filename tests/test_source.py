import ast
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cyclogcd"


def test_no_assert_in_src():
    # `python -O` strips assert statements, so no certificate may rest on one
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_compiles_past_two_mb():
    # with no bytecode cache every start compiles every module `cli` imports, and the
    # largest compile() sets the resident high-water mark of a short run
    peaks = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        tracemalloc.start()
        try:
            compile(text, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert "cli.py" in peaks and {name: peak for name, peak in peaks.items() if peak >= 2 << 20} == {}


def _annotation_names(tree):
    # the names read by string annotations such as ratio: "Fraction"
    notes = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    texts = [n.value for n in notes if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return {n.id for text in texts for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name)}


def test_every_import_in_src_is_used():
    # a module imports only what it reads, so the package root re-exports
    # nothing and a helper's last caller takes its import with it
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def _names_read(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_src_holds_only_code_a_command_runs():
    # a top-level function or class is reached by name from cli.py, from a module's
    # import-time statements, from a name the bench tracer patches or from the body of
    # one so reached; an import alone reaches nothing, and code that only the tests
    # call lives under tests/
    defs, reached = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "cli.py":
            reached |= _names_read(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, node))
            else:
                reached |= _names_read(node)
    spans = ast.parse((ROOT / "benchmark" / "spans.py").read_text())
    reached |= {call.args[1].value for call in ast.walk(spans)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "patch"}
    grown = True
    while grown:
        size = len(reached)
        for _, node in defs:
            if node.name in reached:
                reached |= _names_read(node)
        grown = len(reached) > size
    assert sorted(f"{module}:{node.name}" for module, node in defs if node.name not in reached) == []


def test_cli_suite_passes_under_python_o():
    # -O strips asserts from the package; pytest still rewrites those of the
    # test modules, so every golden, every exit-code check and the field
    # certificates (a y that is not primitive, a minimal polynomial outside its subfield),
    # the lemma scan's u^N = 1 check, the wheel of admissible classes and the
    # champion certificates (the report's invariants, the histogram cross-checks)
    # keep failing loudly
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_cli.py",
         "tests/test_ffield.py", "tests/test_residues.py", "tests/test_density.py", "tests/test_champion.py"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def _loaded_by_cli(names, argv=None):
    # the modules among `names` that a fresh `import cyclogcd.cli` loads, then a run of `argv`
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    status = f"cyclogcd.cli.main({argv!r})" if argv else "0"
    code = f"import sys, cyclogcd.cli; status = {status}; print(sorted({set(names)!r} & set(sys.modules))); sys.exit(status)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_cli_import_leaves_the_process_pool_out():
    # --jobs 1 never starts a pool, so starting the CLI does not import one
    assert _loaded_by_cli(["concurrent.futures"]) == "[]"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # the records are NamedTuples: dataclasses would import inspect, ast, dis
    # and tokenize and exec each record's methods at every start
    assert _loaded_by_cli(["dataclasses", "inspect"]) == "[]"


def test_cli_import_leaves_fractions_decimal_and_csv_out():
    # only --format csv reads csv; a whole density run keeps its exact ratio as an
    # integer pair, since fractions would import decimal, whose C extension raises
    # the resident high-water mark of the run
    assert _loaded_by_cli(["fractions", "decimal", "csv"]) == "[]"
    argv = ["density", "--N", "6", "--d", "5", "--a", "2", "--b", "3", "--x", "10000", "--out", os.devnull]
    assert _loaded_by_cli(["fractions", "decimal"], argv) == "[]"


def test_records_keep_value_semantics():
    from cyclogcd.champion import ChampionParams, run_champion
    from cyclogcd.errors import HypothesisError
    from cyclogcd.ffield import fq_context
    from cyclogcd.fqpoly import FqPolynomial

    # a polynomial equals another exactly when the field and the coefficients do
    f2, f4 = fq_context(2, 1), fq_context(2, 2)
    f = FqPolynomial.of(f2, [1, 1, 0])
    assert f == FqPolynomial(f2, (1, 1)) and hash(f) == hash(FqPolynomial(f2, (1, 1)))
    assert f != FqPolynomial(f4, (1, 1)) and f != FqPolynomial(f2, (1, 0, 1))
    assert len({f, FqPolynomial(f2, (1, 1)), FqPolynomial(f4, (1, 1))}) == 2
    with pytest.raises(AttributeError):
        f.coeffs = (1,)
    # the hypotheses are checked at construction and by a copy; a pickled
    # copy, as a worker receives it, comes back equal
    params = ChampionParams(2, 3, 2, 300)
    assert params == ChampionParams(a=2, b=3, N=2, x=300, delta=0.9, M=None)
    assert pickle.loads(pickle.dumps(params)) == params
    with pytest.raises(HypothesisError, match="l-th power in Q"):
        ChampionParams(a=4, b=3, N=2, x=100)
    with pytest.raises(ValueError, match="delta must lie strictly between 0 and 1"):
        params._replace(delta=1.5)
    with pytest.raises(ValueError, match="at least 8"):
        ChampionParams(2, 3, 2, 7)
    # a report's dict holds its fields in order, then the representation count
    report = run_champion(params).to_dict()
    assert list(report) == [
        "n", "representations", "distinct_primes", "log_gcd_lower_bound", "pigeonhole_floor",
        "pair_count", "kernel", "kernel_omega", "curve_value", "curve_ratio", "verified",
        "representation_count",
    ]
    assert report["verified"] is True and report["representation_count"] == len(report["representations"])


def test_trace_points_are_the_globals_the_runs_call(monkeypatch, capsys):
    # the benchmark times these layers by wrapping the module globals the runs
    # look up (benchmark/spans.py), and reads ff_scan's positional (constr, N,
    # a, b) and the result fields below; a run that stops calling one of
    # them, or a renamed one, would read 0 there
    from cyclogcd import cli, ffield, residues

    calls = {}

    def recording(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.setdefault(name, []).append((args, kwargs, result))
            return result

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((ffield, "poly_pow"), (ffield, "poly_gcd"), (ffield, "eval_poly_fq"),
                         (residues, "primes_in_range"), (cli, "fq_context"), (cli, "ff_construction"),
                         (cli, "ff_scan"), (cli, "ff_direct_verify")):
        recording(module, name)
    assert cli.main(["ff-verify", "--q", "2", "--k", "1", "--n0", "1", "--m", "3",
                     "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "2"]) == 0
    assert cli.main(["verify-lemma", "--N", "3", "--a", "2", "--b", "5", "--p-max", "1000"]) == 0
    capsys.readouterr()
    assert set(calls) == {"eval_poly_fq", "poly_gcd", "poly_pow", "primes_in_range", "fq_context",
                          "ff_construction", "ff_scan", "ff_direct_verify"}
    for args, kwargs, result in calls["ff_scan"]:
        assert kwargs == {} and len(args) == 4
        assert args[0].big.q ** args[1] == 4 ** args[1]
        assert isinstance(result.count, int) and isinstance(result.total_irreducible, int)
    assert [result.deg_gcd for _, _, result in calls["ff_direct_verify"]] == [2, 6]


def test_ff_verify_success_path_stays_over_the_base_field(monkeypatch, capsys):
    # a certificate that passes forms and divides its product over F_q: it
    # lifts nothing to F_Q and computes no minimal polynomial over F_Q; only
    # the failure path that names a culprit does
    from cyclogcd import cli, ffield

    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ffield.FFConstruction, "lift", spy("lift", ffield.FFConstruction.lift))
    monkeypatch.setattr(ffield.FFScanResult, "qualifying",
                        property(spy("qualifying", ffield.FFScanResult.qualifying.func)))
    for name in ("poly_pow", "eval_poly_fq", "poly_gcd"):
        monkeypatch.setattr(ffield, name, spy(name, getattr(ffield, name)))
    assert cli.main(["ff-verify", "--q", "2", "--k", "1", "--n0", "1", "--m", "3",
                     "--a-poly", "0,1", "--b-poly", "1,1", "--deg-max", "4"]) == 0
    capsys.readouterr()
    assert set(calls) == {"poly_pow", "eval_poly_fq", "poly_gcd"}
    base = ffield.fq_context(2, 1)
    scan = ffield.ff_scan(ffield.ff_construction(base, 1, 1, 3), 2,
                          ffield.FqPolynomial(base, (0, 1)), ffield.FqPolynomial(base, (1, 1)))
    with pytest.raises(ffield.VerificationError, match="product of the qualifying pi"):
        ffield.ff_direct_verify(scan._replace(roots=scan.roots + scan.roots[:1]))
    assert {"lift", "qualifying"} <= set(calls)


def test_trace_mode_installs_for_every_bench_label():
    # benchmark/spans.py looks up each name it wraps with getattr, so a name
    # renamed or removed here breaks `benchmark/run.py --trace 1` at install
    path = [str(ROOT / "src"), str(ROOT / "benchmark")]
    labels = ["champion", "champion.mixed", "density", "verify-lemma", "ffield.ext", "ffield.prime"]
    code = f"import sys; sys.path[:0] = {path!r}; import spans\nfor label in {labels!r}: spans.install(label)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("label,argv,names", [
    ("density", ["density", "--N", "6", "--a", "2", "--b", "3", "--x", "10000"],
     ["arith.sieve", "density.count", "density.predict"]),
    ("ffield.ext", ["ff-verify", "--q", "2", "--k", "1", "--n0", "1", "--m", "3", "--a-poly", "0,1",
                    "--b-poly", "1,1", "--deg-max", "2"],
     ["cyclotomic.eval", "ffield.construct", "ffield.ext.scan", "ffield.gcd", "ffield.power", "ffield.verify"]),
    ("verify-lemma", ["verify-lemma", "--N", "3", "--a", "2", "--b", "5", "--p-max", "10000", "--m-max", "20"],
     ["arith.sieve", "residues.lemma"]),
    ("champion", ["champion", "--a", "2", "--b", "3", "--N", "2", "--x", "2000"],
     ["arith.sieve", "champion.setup", "champion.verify"]),
    ("champion.mixed", ["champion", "--a", "2", "--b", "3", "--M", "1", "--N", "2", "--x", "2000",
                        "--delta", "0.5"],
     ["arith.sieve", "champion.setup", "champion.verify"]),
    ("ffield.prime", ["ff-verify", "--q", "7", "--k", "1", "--n0", "1", "--m", "3", "--a-poly", "2,1",
                      "--b-poly", "1,1", "--deg-max", "2"],
     ["cyclotomic.eval", "ffield.construct", "ffield.gcd", "ffield.power", "ffield.prime.scan",
      "ffield.verify"]),
])
def test_bench_tracer_records_the_spans_of_a_run(label, argv, names):
    # as a `benchmark/run.py --trace 1` worker does: install the tracer, then run
    # the command; a wrapped name the run stops calling would record no span
    path = [str(ROOT / "src"), str(ROOT / "benchmark")]
    argv = argv + ["--out", os.devnull]
    code = (f"import sys; sys.path[:0] = {path!r}; import cyclogcd.cli, spans\n"
            f"tracer = spans.install({label!r}); status = cyclogcd.cli.main({argv!r})\n"
            f"print(sorted({{span[0] for span in tracer.spans}})); sys.exit(status)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == repr(names)
