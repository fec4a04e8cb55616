"""The file-reading CLI commands end in an exit status, never a traceback.

Arbitrary bytes and JSON documents built near the two file formats go
through cli.main for verify, fingerprint and nilradical; every run must
return 0, 1, 2 or 3 with no exception escaping main.  The documents are
mostly well formed, with one field at a time replaced by any JSON value,
so that the runs reach the builder and the certificate as well as the
parser.  Valid specs whose n is replaced by a huge integer, with X's rows
kept, must be refused with exit status 2.  The examples are derandomized,
so the suite is reproducible and its cost fixed.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from heisenleib.cli import main
from heisenleib.scalars import Scalar

COMMANDS = ("verify", "fingerprint", "nilradical")

FUZZ = settings(
    derandomize=True,
    max_examples=50,
    deadline=2000,
    suppress_health_check=[HealthCheck.too_slow],
)

# scalar strings near the text format that are not in it, or are out of bounds
NEAR_SCALARS = st.one_of(
    st.sampled_from([
        "1/0", "2/-3", "1*sqrt(4)", "1*sqrt(1)", "0*sqrt(0)", "1*sqrt(10000019)",
        "1+1*sqrt(2)+1*sqrt(3)", "1e5", "0.5", "", " 1", "sqrt(-1)", "9" * 1001,
    ]),
    st.text(alphabet="0123456789+-*/sqrt()", max_size=12),
)
FIELDS = st.sampled_from([None, None, -1, 2, 5])
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
HUGE = st.sampled_from([10**7, 10**30, 10**2999])
JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 20), HUGE,
        st.floats(allow_nan=True), NEAR_SCALARS,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=12,
)


@st.composite
def scalar_texts(draw, d):
    """A scalar string over Q, or over Q(sqrt d) when d is given."""
    a = draw(SMALL)
    b = draw(SMALL) if d is not None and draw(st.booleans()) else 0
    return str(Scalar(a, b, d) if b else Scalar(a))


@st.composite
def garbled(draw, doc):
    """The document, or with one key dropped or its value replaced by any JSON."""
    choice = draw(st.sampled_from(["keep", "keep", "keep", "drop", "replace"]))
    if choice != "keep":
        key = draw(st.sampled_from(sorted(doc)))
        if choice == "drop":
            del doc[key]
        else:
            doc[key] = draw(JSON)
    return doc


@st.composite
def algebra_docs(draw):
    dim = draw(st.integers(1, 5))
    d = draw(FIELDS)
    index = st.one_of(st.integers(0, dim - 1), st.integers(0, dim - 1), st.integers(-1, dim))
    constants = draw(st.lists(st.fixed_dictionaries({
        "i": index, "j": index, "k": index,
        "c": st.one_of(scalar_texts(d), scalar_texts(d), scalar_texts(d), NEAR_SCALARS),
    }), max_size=8))
    return draw(garbled({
        "dim": dim,
        "basis": [f"e{i}" for i in range(dim)],
        "field": "Q" if d is None else {"sqrt": d},
        "constants": constants,
    }))


@st.composite
def sp_matrix(draw, n):
    """((A, B), (C, -A^T)) with B and C symmetric: an element of sp(2n)."""
    a = [[draw(SMALL) for _ in range(n)] for _ in range(n)]
    b = [[None] * n for _ in range(n)]
    c = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            b[i][j] = b[j][i] = draw(SMALL)
            c[i][j] = c[j][i] = draw(SMALL)
    return [a[i] + b[i] for i in range(n)] + [c[i] + [-a[j][i] for j in range(n)] for i in range(n)]


@st.composite
def spec_docs(draw, garble=True):
    n, f = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    unit = Scalar(1, draw(SMALL), -1) if draw(st.booleans()) else Scalar(1)
    x1 = draw(sp_matrix(n))
    xs = [x1] + [
        # X2 a multiple of X1 commutes with it; an independent draw mostly does not
        [[v * mu for v in row] for row in x1] if draw(st.booleans()) else draw(sp_matrix(n))
        for mu in draw(st.lists(SMALL, min_size=f - 1, max_size=f - 1))
    ]
    xs = [[[str(unit * v) for v in row] for row in x] for x in xs]
    if draw(st.booleans()):  # the row-major form
        xs = [[v for row in x for v in row] for x in xs]
    a1 = draw(st.sampled_from(["0", "1", "1/2"]))
    zeros = lambda k: ["0"] * k  # noqa: E731
    doc = {
        "n": n,
        "f": f,
        "a": [a1] + zeros(f - 1),
        "X": xs,
        "rho": [zeros(2 * n) if draw(st.booleans()) else
                draw(st.lists(scalar_texts(None), min_size=2 * n, max_size=2 * n))
                for _ in range(f)],
        "r": [[draw(scalar_texts(None)) if draw(st.booleans()) else "0" for _ in range(f)]
              for _ in range(f)],
    }
    return draw(garbled(doc)) if garble else doc


@st.composite
def oversized_n_specs(draw):
    """A valid spec with n replaced by a huge integer and X's rows kept."""
    doc = draw(spec_docs(garble=False))
    doc["n"] = draw(HUGE)
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exits_cleanly(directory, command, payload: bytes) -> int:
    path = directory / "input.json"
    path.write_bytes(payload)
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([command, str(path)])
    assert status in (0, 1, 2, 3)
    return status


@FUZZ
@given(payload=st.binary(max_size=64), command=st.sampled_from(COMMANDS))
def test_arbitrary_bytes_exit_cleanly(fuzz_dir, payload, command):
    _exits_cleanly(fuzz_dir, command, payload)


@FUZZ
@given(job=st.one_of(
    st.tuples(st.sampled_from(["verify", "fingerprint"]), algebra_docs()),
    st.tuples(st.just("nilradical"), spec_docs()),
    st.tuples(st.sampled_from(COMMANDS), st.one_of(JSON, algebra_docs(), spec_docs())),
))
def test_documents_near_the_formats_exit_cleanly(fuzz_dir, job):
    command, doc = job
    _exits_cleanly(fuzz_dir, command, json.dumps(doc).encode())


@FUZZ
@given(doc=oversized_n_specs())
def test_specs_with_oversized_n_exit_2(fuzz_dir, doc):
    assert _exits_cleanly(fuzz_dir, "nilradical", json.dumps(doc).encode()) == 2


@pytest.mark.parametrize("n,x", [
    (10**30, [["1"]]),  # nested rows: 2n rows was an OverflowError
    (10**7, [["1"]]),  # nested rows: 2n rows was a 2*10^7-entry list
    (10**2999, ["1"]),  # row-major: 4n^2 as text passed the 4,300-digit limit
], ids=["nested-1e30", "nested-1e7", "flat-3000-digits"])
def test_oversized_n_exits_2(fuzz_dir, capsys, n, x):
    path = fuzz_dir / "oversized.json"
    path.write_text(json.dumps({"n": n, "f": 1, "a": ["0"], "X": [x], "rho": [["0", "0"]],
                                "r": [["0"]]}))
    status = main(["nilradical", str(path)])
    captured = capsys.readouterr()
    assert status == 2 and "X[0]: " in captured.out + captured.err
    assert "Traceback" not in captured.out + captured.err
