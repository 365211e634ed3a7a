import contextlib
import csv
import gc
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import attachnet.ingest as ingest_module
import reference_ingest
from attachnet.errors import EmptyCohortError, ParseError, ValidationError
from attachnet.ingest import (
    GENDERS,
    CohortFilter,
    demographic_summary,
    filter_cohort,
    map_region,
    parse_responses,
    serialize_responses,
    standard_filter,
)
from conftest import make_table

HEADER36 = ",".join([f"Q{i}" for i in range(1, 37)] + ["age", "gender", "country"])
ROW36 = ",".join(["3"] * 36 + ["25", "2", "FR"])


def test_parse_minimal_csv():
    table = parse_responses(f"{HEADER36}\n{ROW36}\n".encode())
    assert table.n == 1
    assert len(table.items) == 36
    assert table.items[0] == "Q01" and table.items[-1] == "Q36"
    assert table.demographics.age[0] == 25
    assert table.demographics.gender[0] == "female"
    assert table.demographics.region[0] == "Europe"


def test_tab_delimited_gives_identical_table():
    comma = parse_responses(f"{HEADER36}\n{ROW36}\n".encode())
    tabbed = parse_responses((f"{HEADER36}\n{ROW36}\n".replace(",", "\t")).encode())
    assert comma == tabbed


def test_header_without_items_is_fatal():
    with pytest.raises(ParseError) as err:
        parse_responses(b"age,gender\n25,1\n")
    assert err.value.line == 1


def test_ragged_rows_dropped_and_counted():
    text = f"{HEADER36}\n{ROW36}\n1,2,3\n{ROW36}\n"
    table = parse_responses(text.encode())
    assert table.n == 2
    assert table.dropped_rows == 1
    assert "line 3" in table.row_errors[0]


def test_unparseable_cells_become_missing():
    table = parse_responses(f"Q1,Q2\n3,oops\n".encode())
    assert table.rows[0, 0] == 3.0
    assert np.isnan(table.rows[0, 1])


def test_absent_demographics_are_unknown():
    table = parse_responses(b"Q1,Q2\n3,4\n")
    assert table.demographics.age[0] == -1
    assert table.demographics.gender[0] == "unknown"
    assert table.demographics.region[0] == "Unknown"


def test_unpadded_and_padded_item_names_canonicalize():
    a = parse_responses(b"Q1,Q02\n1,2\n")
    assert a.items == ("Q01", "Q02")


def test_duplicate_item_headers_are_fatal():
    with pytest.raises(ParseError) as err:
        parse_responses(b"Q1,Q2,Q01\n1,2,3\n")
    assert err.value.line == 1
    assert "'Q1' and 'Q01'" in str(err.value)


@pytest.mark.parametrize("text,outcome", [
    ("Q1,Q2\n1,2\n", contextlib.nullcontext()),
    ("age\n30\n", pytest.raises(ParseError)),
], ids=["parsed", "parse-error"])
def test_file_opened_from_path_is_closed(tmp_path, monkeypatch, text, outcome):
    path = tmp_path / "survey.csv"
    path.write_text(text)
    opened = []

    def spy_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(ingest_module, "open", spy_open, raising=False)
    with outcome:
        parse_responses(path, codebook={})
    assert [fh.closed for fh in opened] == [True]


def test_caller_streams_stay_open():
    binary = io.BytesIO(b"Q1,Q2\n1,2\n")
    text = io.StringIO("Q1,Q2\n1,2\n")
    parse_responses(binary)
    parse_responses(text)
    gc.collect()  # a dropped TextIOWrapper closes the stream it wraps
    assert not binary.closed and not text.closed


@pytest.mark.parametrize("raw,line,message", [
    (b"Q1,Q2,country\n1,2,US\n3,4," + b"x" * 200_000 + b"\n", 3, "field larger than field limit"),
    (b'Q1,Q2,country\n1,2,"US"\n3,4,' + b"x" * 200_000 + b"\n", 3, "field larger than field limit"),
    ("Q1\tQ2\n1\t2\n3\t".encode() + "é".encode() * 140_000, 3, "field larger than field limit"),
    (b"Q1,Q2\n1,2\n3,4\r5\n6,7\n", 3, "new-line character seen in unquoted field"),
    (b"Q1\rQ3,Q2\n1,2\n", 1, "new-line character seen in unquoted field"),
])
def test_lines_the_csv_module_refuses_are_parse_errors(raw, line, message):
    with pytest.raises(ParseError) as err:
        parse_responses(raw)
    assert err.value.line == line
    assert message in str(err.value)


@pytest.mark.parametrize("body,line", [
    ("1,male\n2,female\n3,females\n", 4),
    ('1,"male"\n2,female\n3,females\n', 4),
    ("1,éééééé\n2,ééééééé\n", 3),
], ids=["blocks", "csv-reader", "characters-not-bytes"])
def test_a_lowered_field_size_limit_is_honoured(body, line):
    default = csv.field_size_limit(6)
    try:
        with pytest.raises(ParseError) as err:
            parse_responses(f"Q1,gender\n{body}".encode())
    finally:
        csv.field_size_limit(default)
    assert err.value.line == line
    assert "field larger than field limit (6)" in str(err.value)


class _NoSeek:
    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


class _UnseekableBytes(_NoSeek, io.BytesIO):
    pass


class _UnseekableText(_NoSeek, io.StringIO):
    pass


def test_streams_that_cannot_seek_back_parse_identically():
    raw = b'Q1,Q2,country\n1,2,US\n3,x\n4,5,"FR"\n'
    expected = parse_responses(raw)
    assert parse_responses(_UnseekableBytes(raw)) == expected
    assert parse_responses(_UnseekableText(raw.decode())) == expected
    with io.TextIOWrapper(io.BytesIO(b"preamble\n" + raw), encoding="utf-8") as iterated:
        next(iterated)  # a text stream refuses tell() once iterated
        assert parse_responses(iterated) == expected


def test_a_nul_cell_parses_as_the_reference_does():
    assert_parses_as_reference(b"Q1,Q2\n1,2\x00\n")  # a ParseError before Python 3.11, else NaN


def test_a_lone_surrogate_in_a_caller_text_stream_parses_as_the_reference_does():
    text = "Q1,country\n1,\ud800fr\n"
    assert parse_responses(io.StringIO(text)) == reference_ingest.parse_responses(io.StringIO(text))


@pytest.mark.parametrize("age", ["inf", "-inf", "1e400", "40000", "-32769", "nan"])
def test_unrepresentable_ages_are_unknown(age):
    table = parse_responses(f"Q1,age\n3,{age}\n4,32767.9\n5,-32768\n".encode())
    assert table.demographics.age.tolist() == [-1, 32767, -32768]


def test_map_region_known_codes():
    assert map_region("US") == "NorthAmerica"
    assert map_region("br") == "SouthAmerica"
    assert map_region("GB") == "Europe"
    assert map_region("JP") == "Asia"
    assert map_region("AU") == "Oceania"
    assert map_region("NG") == "Africa"


def test_map_region_is_total():
    assert map_region("") == "Unknown"
    assert map_region("ZZ") == "Unknown"
    assert map_region(None if False else "  us ") == "NorthAmerica"


def test_filter_rejects_inverted_age_range():
    with pytest.raises(ValidationError):
        CohortFilter(age_range=(99, 98))


def test_filter_age_and_gender():
    table = make_table(
        [[3, 3], [4, 4], [5, 5], [2, 2], [1, 1]],
        age=[17, 30, 70, 18, 60],
        gender=["female", "male", "female", "male", "male"],
    )
    kept = filter_cohort(table, CohortFilter(age_range=(18, 60)))
    assert sorted(kept.demographics.age.tolist()) == [18, 30, 60]  # inclusive bounds
    kept = filter_cohort(table, CohortFilter(genders=frozenset({"female"})))
    assert kept.n == 2


def test_filter_require_complete_drops_sentinels_and_missing():
    table = make_table([[3, 0], [np.nan, 4], [2, 2], [6, 3]])
    kept = filter_cohort(table, CohortFilter(require_complete=True))
    assert kept.n == 1
    assert kept.rows.tolist() == [[2, 2]]


def test_empty_cohort_raises():
    table = make_table([[3, 3]], age=[25])
    with pytest.raises(EmptyCohortError):
        filter_cohort(table, CohortFilter(age_range=(40, 50)))


def test_filter_is_idempotent(rng):
    rows = rng.integers(0, 6, size=(50, 4)).astype(float)
    table = make_table(
        rows,
        age=rng.integers(10, 80, size=50),
        gender=rng.choice(["female", "male", "other"], size=50),
    )
    f = CohortFilter(age_range=(18, 60), genders=frozenset({"female", "male"}), require_complete=True)
    try:
        once = filter_cohort(table, f)
    except EmptyCohortError:
        pytest.skip("degenerate draw")
    twice = filter_cohort(once, f)
    assert once == twice


def test_round_trip_canonical_csv(rng):
    for _ in range(5):
        n = int(rng.integers(1, 20))
        rows = rng.integers(1, 6, size=(n, 5)).astype(float)
        rows[rng.random(size=rows.shape) < 0.1] = np.nan
        table = make_table(
            rows,
            age=rng.integers(-1, 80, size=n),
            gender=rng.choice(["female", "male", "other", "unknown"], size=n),
            country=rng.choice(["US", "FR", "", "JP"], size=n),
        )
        text = serialize_responses(table)
        again = parse_responses(text.encode())
        assert again == table


def test_demographic_summary_single_row():
    table = make_table([[3, 3]], age=[25], gender=["female"], country=["FR"])
    report = demographic_summary(table)
    assert report.region["Europe"] == 1
    assert report.gender["female"] == 1
    assert report.age_band["21-30"] == 1


def test_demographic_summary_sums_to_n(rng):
    n = 40
    table = make_table(
        rng.integers(1, 6, size=(n, 3)).astype(float),
        age=rng.integers(10, 90, size=n),
        gender=rng.choice(["female", "male", "other"], size=n),
        country=rng.choice(["US", "BR", "DE", "ZZ"], size=n),
    )
    report = demographic_summary(table)
    for counts in (report.region, report.gender, report.age_band):
        assert sum(counts.values()) == n


def test_demographic_summary_merged_america():
    table = make_table([[1, 1], [2, 2], [3, 3]], country=["US", "BR", "DE"])
    merged = demographic_summary(table).merged_america()
    assert merged["America"] == 2
    assert merged["Europe"] == 1


def test_codebook_remaps_gender_and_country(tmp_path):
    from attachnet.ingest import read_codebook

    cfg = tmp_path / "codes.cfg"
    cfg.write_text("gender.9 = female\ncountry.UK1 = GB\n")
    book = read_codebook(cfg)
    table = parse_responses(b"Q1,gender,country\n3,9,UK1\n", codebook=book)
    assert table.demographics.gender[0] == "female"
    assert table.demographics.country[0] == "GB"
    assert table.demographics.region[0] == "Europe"


def test_codebook_gender_labels_match_in_any_case(tmp_path):
    from attachnet.ingest import read_codebook

    cfg = tmp_path / "codes.cfg"
    cfg.write_text("gender.1 = MALE\ngender.2 = Female\n")
    book = read_codebook(cfg)
    assert book["gender"] == {"1": "male", "2": "female"}
    table = parse_responses(b"Q1,gender\n3,2\n4,1\n", codebook={"gender": {"2": "Female"}})
    assert table.demographics.gender == ("female", "unknown")


def test_codebook_rejects_an_unknown_gender_label(tmp_path):
    from attachnet.ingest import read_codebook

    cfg = tmp_path / "codes.cfg"
    cfg.write_text("gender.1 = male\ngender.2 = féminin\n", encoding="utf-8")
    allowed = "female, male, other, unknown"
    with pytest.raises(ParseError, match=f"line 2: .*'féminin' is not one of {allowed}"):
        read_codebook(cfg)
    with pytest.raises(ValidationError, match="'féminin' is not one of"):
        parse_responses(b"Q1,gender\n3,2\n", codebook={"gender": {"2": "féminin"}})


def test_standard_filter_matches_reference_recipe():
    f = standard_filter()
    assert f.age_range == (18, 60)
    assert f.genders == frozenset({"female", "male"})
    assert f.require_complete


# -- oracle properties: the columnar ingest against the per-cell reference ------

SPECIAL_VALUES = (
    np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308,
    1e300, -1e300, 1e16, 0.1, 123456789.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0,
)
NAN_PAYLOAD = np.array([0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64).view(np.float64)
FREE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8
)
TRICKY_TEXT = st.one_of(
    FREE_TEXT,
    st.sampled_from(["", "a,b", 'say "hi"', "x\ny", "line\r\nbreak", "Côte d'Ivoire", "東京", " us "]),
)


@st.composite
def response_tables(draw):
    n = draw(st.integers(0, 25))
    m = draw(st.integers(1, 6))
    value = st.one_of(
        st.sampled_from(SPECIAL_VALUES + tuple(NAN_PAYLOAD)),
        st.integers(0, 9).map(float),
        st.floats(allow_nan=True, allow_infinity=True),
    )
    rows = np.array(draw(st.lists(value, min_size=n * m, max_size=n * m)), dtype=np.float64)
    return make_table(
        rows.reshape(n, m),
        age=draw(st.lists(st.integers(-32768, 32767) | st.just(-1), min_size=n, max_size=n)),
        gender=draw(st.lists(TRICKY_TEXT, min_size=n, max_size=n)),
        country=draw(st.lists(TRICKY_TEXT, min_size=n, max_size=n)),
    )


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(table=response_tables(), block=st.sampled_from([1, 2, 3, 7, None]))
def test_serialize_matches_reference(table, block):
    block = block or ingest_module._SERIALIZE_BLOCK
    with mock.patch.object(ingest_module, "_SERIALIZE_BLOCK", block):
        assert serialize_responses(table) == reference_ingest.serialize_responses(table)


def test_serialize_responses_accepts_a_path(tmp_path):
    table = make_table([[1.0, 5.0], [np.nan, 3.0]], age=[30, -1], gender=["1", "2"], country=["US", "GB"])
    path = tmp_path / "c.csv"
    text = serialize_responses(table, path)
    assert path.read_text(encoding="utf-8") == text
    assert text == reference_ingest.serialize_responses(table)


ITEM_CELL = st.one_of(
    st.sampled_from(["1", "2", "3", "4", "5", "", " 3 ", "\t4", "3.5", "-0", "0", "6", "nan",
                     "NaN", "inf", "-inf", "1e3", "1e400", "0x3", "abc", "  ", "+2", "1_0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    FREE_TEXT,
)
AGE_CELL = st.one_of(
    st.integers(-32768, 32767).map(str),
    st.sampled_from(["", "abc", "25.5", " 30 ", "nan", "-0.9", "1e2", "32767.9"]),
)
GENDER_CELL = st.one_of(
    st.sampled_from(["0", "1", "2", "3", " 2 ", "female", "MALE", "Other", "x", ""]), FREE_TEXT
)
COUNTRY_CELL = st.one_of(st.sampled_from(["US", "gb", " fr ", "ZZ", "", "BR"]), TRICKY_TEXT)


@st.composite
def raw_exports(draw, plain=False):
    """A raw export written by ``csv.writer``; with ``plain``, one with no
    quote, carriage return or NUL, whose cells never hold the delimiter and
    whose last line may lack its line end."""
    numbers = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True))
    names = [draw(st.sampled_from(["Q{}", "Q{:02d}", "q{}", " Q{} "])).format(k) for k in numbers]
    kinds = ["item"] * len(names)
    for extra in ("age", "gender", "country", "notes"):
        if draw(st.booleans()):
            names.append(draw(st.sampled_from([extra, extra.upper()])))
            kinds.append(extra)
    order = draw(st.permutations(range(len(names))))
    names = [names[i] for i in order]
    kinds = [kinds[i] for i in order]
    cell = {"item": ITEM_CELL, "age": AGE_CELL, "gender": GENDER_CELL,
            "country": COUNTRY_CELL, "notes": TRICKY_TEXT}
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["row"] * 6 + ["short", "long", "blank"]))
        if shape == "blank":
            lines.append([])
            continue
        row = [draw(cell[kind]) for kind in kinds]
        if shape == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]  # no cells at all: a blank line
        elif shape == "long":
            row.append(draw(ITEM_CELL))
        lines.append(row)
    delimiter = draw(st.sampled_from([",", "\t"]))
    if plain:
        cut = str.maketrans("", "", '"\r\n\x00' + delimiter)
        text = "".join(delimiter.join(cell.translate(cut) for cell in row) + "\n" for row in [names] + lines)
        return (text[:-1] if draw(st.booleans()) else text).encode("utf-8")
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(names)
    writer.writerows(lines)
    return out.getvalue().encode("utf-8")


def assert_parses_as_reference(raw, source=None):
    try:
        expected = reference_ingest.parse_responses(raw)
    except csv.Error as exc:  # e.g. a bare "\r" the writer left unquoted: both must refuse it
        with pytest.raises(ParseError, match=re.escape(str(exc))):
            parse_responses(raw if source is None else source)
        return
    table = parse_responses(raw if source is None else source)
    assert table == expected
    assert table.rows.dtype == np.float64
    assert np.array_equal(table.rows.view(np.uint64), expected.rows.view(np.uint64))
    assert table.demographics.age.dtype == np.int16
    assert table.demographics.region == expected.demographics.region
    assert (table.dropped_rows, table.row_errors) == (expected.dropped_rows, expected.row_errors)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(raw=st.one_of(raw_exports(), raw_exports(plain=True)), block=st.sampled_from([1, 2, 3, 7, None]))
def test_parse_matches_reference(raw, block):
    block = block or ingest_module._PARSE_BLOCK  # characters read, then completed to a whole line
    with mock.patch.object(ingest_module, "_PARSE_BLOCK", block):
        assert_parses_as_reference(raw)


@pytest.mark.parametrize("source", ["bytes", "byte-stream", "path"])
def test_a_quote_in_a_late_block_hands_the_body_to_the_csv_reader(tmp_path, source):
    rows = [f"{i % 5 + 1},{i % 7},{20 + i},{i % 4},GB" for i in range(20)]
    rows += ['3,4,30,1,"Côte d\'Ivoire, CI"', "5,,41,2,JP", "1,2,3", "2,3,50,2,US"]
    raw = ("Q1,Q2,age,gender,country\n" + "\n".join(rows) + "\n").encode()
    path = tmp_path / "survey.csv"
    path.write_bytes(raw)
    blocks = []
    read_block = ingest_module._Rows._read_block

    def spy(rows, block, *args):
        blocks.append(block)
        return read_block(rows, block, *args)

    with mock.patch.object(ingest_module, "_PARSE_BLOCK", 7), \
            mock.patch.object(ingest_module._Rows, "_read_block", spy):
        assert_parses_as_reference(raw, {"bytes": raw, "byte-stream": io.BytesIO(raw), "path": path}[source])
    assert blocks == [row + "\n" for row in rows[:20]]  # each of the first 20 lines, one block each


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(table=response_tables())
def test_demographic_summary_matches_reference(table):
    table = make_table(
        table.rows,
        age=table.demographics.age,
        gender=[g if g in GENDERS else "unknown" for g in table.demographics.gender],
        country=table.demographics.country,
    )
    got, expected = demographic_summary(table), reference_ingest.demographic_summary(table)
    assert got == expected
    for dim in ("region", "gender", "age_band"):
        assert list(getattr(got, dim)) == list(getattr(expected, dim))


@pytest.mark.parametrize("source,name", [
    pytest.param(b"Q1,country\n3,Fr\xe9\n", "input", id="bytes"),
    pytest.param(io.BytesIO(b"Q1,country\n3,Fr\xe9\n"), "input", id="byte-stream"),
])
def test_non_utf8_input_is_a_parse_error(source, name):
    with pytest.raises(ParseError) as err:
        parse_responses(source)
    assert str(err.value) == f"{name}: not UTF-8 text (byte 0xe9: invalid continuation byte)"

