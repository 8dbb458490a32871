import csv
import io
import json
import math
import sys
from contextlib import nullcontext
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coincast import market_data
from coincast.errors import DomainError, SchemaError, ShapeError, SizingError, ValidationError
from coincast.market_data import (
    PRICE_FIELDS,
    MinMaxScaler,
    align_on_dates,
    array_from_json,
    array_json,
    json_text,
    make_windows,
    parse_csv,
    rebase_to_100,
    series_to_features,
    train_window_count,
    windows_to_csv,
    write_csv,
)
from conftest import random_walk_rows, rows_to_csv_text, rows_to_series, stored, unstored

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gen import ohlcv_csv  # noqa: E402

GOOD_CSV = """SNo,Name,Symbol,Date,High,Low,Open,Close,Volume,Marketcap
1,Bitcoin,BTC,2017-01-02 23:59:59,1041.0,990.0,1000.0,1020.0,500000,16000000000
2,Bitcoin,BTC,2017-01-01,1010.0,980.0,995.0,1000.0,400000,15800000000
3,Bitcoin,BTC,2017-01-03,1100.0,1015.0,1020.0,1090.0,650000,17100000000
"""


def _csv(*rows) -> str:
    return GOOD_CSV.splitlines()[0] + "\n" + "".join(row + "\n" for row in rows)


class TestParseCsv:
    def test_rows_sorted_by_date(self):
        series = parse_csv(GOOD_CSV)
        assert series.symbol == "BTC"
        assert series.name == "Bitcoin"
        assert series.dates() == [date(2017, 1, 1), date(2017, 1, 2), date(2017, 1, 3)]
        npt.assert_array_equal(series.column("close"), [1000.0, 1020.0, 1090.0])

    def test_accepts_bytes_and_datetime_stamps(self):
        series = parse_csv(GOOD_CSV.encode("utf-8"))
        assert len(series) == 3

    def test_utf8_bom_is_skipped(self):
        raw = GOOD_CSV.encode("utf-8")
        bom = "\ufeff" + GOOD_CSV
        for source in (b"\xef\xbb\xbf" + raw, io.BytesIO(b"\xef\xbb\xbf" + raw), bom, io.StringIO(bom)):
            series = parse_csv(source)
            plain = parse_csv(raw)
            assert (series.symbol, series.name, series.days) == (plain.symbol, plain.name, plain.days)
            npt.assert_array_equal(series.values, plain.values)

    def test_non_utf8_bytes_are_a_validation_error(self):
        raw = GOOD_CSV.encode("utf-8").replace(b"Bitcoin", b"Bitc\xffin", 1)
        for source in (raw, io.BytesIO(raw)):
            with pytest.raises(ValidationError, match="UTF-8"):
                parse_csv(source)

    def test_accepts_crlf_line_endings(self):
        series = parse_csv(GOOD_CSV.replace("\n", "\r\n"))
        assert len(series) == 3

    def test_header_case_insensitive_and_extra_columns_ignored(self):
        text = (
            "sno,name,symbol,date,high,low,open,close,volume,marketcap,notes\n"
            "1,Coin,ABC,2020-05-05,2.0,1.0,1.5,1.8,10,100,hello\n"
        )
        series = parse_csv(text)
        assert series.column("close")[0] == 1.8

    def test_missing_column_is_schema_error(self):
        text = "SNo,Name,Symbol,Date,High,Low,Open,Close,Volume\n1,x,X,2020-01-01,2,1,1,2,5\n"
        with pytest.raises(SchemaError, match="marketcap"):
            parse_csv(text)

    def test_empty_file(self):
        with pytest.raises(SchemaError, match="header"):
            parse_csv("")

    def test_header_only(self):
        with pytest.raises(ValidationError, match="no data rows"):
            parse_csv("SNo,Name,Symbol,Date,High,Low,Open,Close,Volume,Marketcap\n")

    def test_duplicate_date_names_both_lines(self):
        text = GOOD_CSV + "4,Bitcoin,BTC,2017-01-02,1.0,1.0,1.0,1.0,1,1\n"
        with pytest.raises(ValidationError, match="lines 2 and 5"):
            parse_csv(text)

    def test_unparsable_number_names_line_and_column(self):
        text = GOOD_CSV.replace("650000", "n/a")
        with pytest.raises(ValidationError, match="line 4.*volume"):
            parse_csv(text)

    def test_unparsable_date(self):
        text = GOOD_CSV.replace("2017-01-03", "Jan 3, 2017")
        with pytest.raises(ValidationError, match="line 4"):
            parse_csv(text)

    def test_nan_value_rejected(self):
        text = GOOD_CSV.replace("650000", "nan")
        with pytest.raises(ValidationError, match="non-finite"):
            parse_csv(text)

    def test_negative_price_rejected(self):
        text = GOOD_CSV.replace("990.0", "-990.0")
        with pytest.raises(ValidationError, match="negative"):
            parse_csv(text)

    def test_ohlc_ordering_violation(self):
        # close above high on line 3
        text = GOOD_CSV.replace("1020.0,500000", "2000.0,500000")
        with pytest.raises(ValidationError, match="line 2.*OHLC"):
            parse_csv(text)

    def test_field_past_the_csv_limit_names_its_line(self):
        long_name = _csv("1,B,BTC,2017-01-01,2,1,1.5,1.5,1,1", f"2,{'N' * 200_000},BTC,2017-01-02,2,1,1.5,1.5,1,1")
        # a stray quote opens a field that runs to the end of the file
        stray_quote = _csv(
            "1,B,BTC,2017-01-01,2,1,1.5,1.5,1,1",
            '2,"B,BTC,2017-01-02,2,1,1.5,1.5,1,1',
            *(f"{i},B,BTC,{date.fromordinal(736330 + i)},2,1,1.5,1.5,1,1" for i in range(3, 5000)),
        )
        for text, line in ((long_name, 3), (stray_quote, 3)):
            with pytest.raises(ValidationError) as info:
                parse_csv(text)
            assert str(info.value) == f"line {line}: field larger than field limit (131072)"

    def test_round_trip_through_writer(self):
        rows = random_walk_rows(T=40, seed=5)
        series = parse_csv(rows_to_csv_text(rows, symbol="ETH", name="Ethereum"))
        assert series.symbol == "ETH"
        npt.assert_array_equal(series.column("close"), [r["close"] for r in rows])

    def test_shuffled_rows_give_the_same_series(self):
        text = rows_to_csv_text(random_walk_rows(T=60, seed=6))
        header, *lines = text.splitlines(keepends=True)
        np.random.default_rng(3).shuffle(lines)
        ordered, shuffled = parse_csv(text), parse_csv(header + "".join(lines))
        assert shuffled.dates() == ordered.dates()
        for field in PRICE_FIELDS:
            npt.assert_array_equal(shuffled.column(field), ordered.column(field))

    def test_symbol_and_name_from_first_row_with_a_symbol(self):
        text = _csv(
            "1,Nameless,,2017-01-02,2,1,1.5,1.5,1,1",
            "2,Second,SEC,2017-01-01,2,1,1.5,1.5,1,1",
            "3,Third,THR,2017-01-03,2,1,1.5,1.5,1,1",
        )
        series = parse_csv(text)
        assert (series.symbol, series.name) == ("SEC", "Second")
        # with no symbol anywhere, the name is the last row's
        blank = parse_csv(text.replace(",SEC,", ",,").replace(",THR,", ",,"))
        assert (blank.symbol, blank.name) == ("", "Third")

    # The first offending line is reported; within a line the checks run in
    # the order: field count, date, duplicate, each field's parse then its
    # finiteness (PRICE_FIELDS order), negatives, OHLC order.
    @pytest.mark.parametrize(
        "rows, message",
        [
            pytest.param(
                ["1,B,BTC,2017-01-02,1041.0,990.0,1000.0,2000.0,500000,1",
                 "2,B,BTC,2017-01-01,1010.0,980.0,995.0,1000.0,n/a,1"],
                "line 2: OHLC ordering violated (open=1000.0, high=1041.0, low=990.0, close=2000.0)",
                id="earlier-ohlc-beats-later-bad-volume",
            ),
            pytest.param(
                ["1,B,BTC,2017-01-02,2,1,1.5,1.5,1,-1",
                 "2,B,BTC,2017-01-01,2,1,1.5"],
                "line 2: negative marketcap -1.0",
                id="earlier-negative-beats-later-short-row",
            ),
            pytest.param(
                ["1,B,BTC,2017-01-02,2,1,1.5,1.5,1,1",
                 "2,B,BTC,2017-01-03,2,1,1.5,x,1,1",
                 "3,B,BTC,2017-01-02,2,1,1.5,1.5,1,1"],
                "line 3: cannot parse close value 'x' as a number",
                id="bad-number-beats-later-duplicate",
            ),
            pytest.param(
                ["1,B,BTC,2017-01-02,x,1,inf,1.5,1,1"],
                "line 2: non-finite open value 'inf'",
                id="non-finite-open-beats-unparsable-high",
            ),
            pytest.param(
                ["1,B,BTC,2017-01-02,inf,1,x,1.5,1,1"],
                "line 2: cannot parse open value 'x' as a number",
                id="unparsable-open-beats-non-finite-high",
            ),
            pytest.param(
                ["1,B,BTC,2017-01-02,2,1,nan,-5,1,1"],
                "line 2: non-finite open value 'nan'",
                id="non-finite-open-beats-negative-close",
            ),
            pytest.param(
                ["1,B,BTC,2017-01-01,2,1,1.5,1.5,1,1",
                 "2,B,BTC,2017-01-01,2,1,1.5,1.5,n/a,1"],
                "duplicate date 2017-01-01 (lines 2 and 3)",
                id="duplicate-beats-unparsable-number",
            ),
            pytest.param(
                ["1,B,BTC,2017-01-01,2,1,1.5",
                 "2,B,BTC,Jan 2,2,1,1.5,1.5,1,1"],
                "line 2: expected 10 fields, got 7",
                id="short-row-before-bad-date",
            ),
            pytest.param(
                ["1,B,BTC,Jan 2,2,1"],
                "line 2: expected 10 fields, got 6",
                id="field-count-beats-date-on-one-line",
            ),
            pytest.param(
                ["1,B,BTC,Jan 2,2,1,x,1.5,1,1"],
                "line 2: cannot parse date 'Jan 2'",
                id="date-beats-number-on-one-line",
            ),
            pytest.param(
                ["1,B,BTC,2017-01-02,2,-1,1.5,1.5,-1,1"],
                "line 2: negative low price -1.0",
                id="negative-price-beats-negative-volume",
            ),
            pytest.param(
                ["1,B,BTC,2017-01-02,2,1,1.5,1.5,-1,-1"],
                "line 2: negative volume -1.0",
                id="negative-volume-beats-negative-marketcap",
            ),
            pytest.param(
                ["1,B,BTC,2017-01-02,2,0,-1,1.5,1,1"],
                "line 2: negative open price -1.0",
                id="negative-beats-ohlc-order",
            ),
            pytest.param(
                ["", "1,B,BTC,2017-01-02,2,1,1.5,1.5,1,1", " , ,", "2,B,BTC,2017-01-02,2,1,1.5,1.5,1,1"],
                "duplicate date 2017-01-02 (lines 3 and 5)",
                id="blank-lines-count-toward-line-numbers",
            ),
        ],
    )
    def test_first_offending_line_and_check_order(self, rows, message):
        with pytest.raises(ValidationError) as info:
            parse_csv(_csv(*rows))
        assert str(info.value) == message


def _outcome(text: str, split: bool = True):
    """What parse_csv makes of ``text``: the series' symbol, name, days and value
    bits, or the error's type and message. ``split=False`` makes every file take
    the csv tokenisation."""
    csv_only = mock.patch.object(market_data, "_split_cells", return_value=None)
    with nullcontext() if split else csv_only:
        try:
            series = parse_csv(text)
        except (SchemaError, ValidationError) as exc:
            return type(exc).__name__, str(exc)
    return series.symbol, series.name, series.days, series.values.dtype, series.values.tobytes()


def _takes_split_path(text: str) -> bool:
    results = []
    real = market_data._split_cells

    def spy(*args):
        results.append(real(*args))
        return results[-1]

    with mock.patch.object(market_data, "_split_cells", spy):
        parse_csv(text)
    return results[0] is not None


# Field texts that each tokenisation must read the same way, chosen to hit the
# places where str.split, csv and float() could part. Each pair is (texts a valid
# file may hold, texts that only a faulty file may hold).
_NAMES = (("Coin", '"Coin, Inc"', '"Say ""hi"""', '"two\nlines"', '"two\r\nlines"', " spaced ", 'a"b', '"a"b', "a\x00b", ""), ())
_STAMPS = (("{}", "{} 23:59:59", " {} ", "{}T12:00"), ("{}" + " " * 30, "{}" + " " * 25 + "junk", "{}\x00", "{}x"))
# in a valid file these replace Volume or Marketcap only, so OHLC order holds
_NUMBERS = (("1_000", "+1e3", " 1.5 ", '"2.5"', "\xa01.5", "1e3\t"), ("nan", "1e500", "-1", "x", "", '"1,5"', "1\x1c", "0x10"))
_LAYOUTS = (("row", "row", "row", "empty", "blank-fields"), ("spaces", "commas"))
_ENDS = (("\n", "\r\n"), ("\r",))


@st.composite
def csv_texts(draw):
    valid = draw(st.booleans())

    def pick(choices):
        good, bad = choices
        return draw(st.sampled_from(good if valid else good + bad))

    header = ["SNo", "Name", "Symbol", "Date", "High", "Low", "Open", "Close", "Volume", "Marketcap"]
    header = [draw(st.sampled_from((h, h.lower(), h.upper()))) for h in header]
    extra = draw(st.sampled_from(((), ("Notes",), ("close",), ("Close", "Date"))))
    end = pick(_ENDS)
    n = draw(st.integers(1, 7))
    # a valid file's dates are distinct and shuffled; a faulty one's may repeat
    offsets = draw(st.permutations(range(n)) if valid else st.lists(st.integers(0, 9), min_size=n, max_size=n))
    lines = [",".join(header + list(extra))]
    for sno, offset in enumerate(offsets, start=1):
        layout = pick(_LAYOUTS)
        if layout != "row":
            blank_fields = " ," * (len(header) + len(extra) - 1)
            lines.append({"empty": "", "spaces": "   ", "commas": ",,,", "blank-fields": blank_fields}[layout])
            continue
        price = draw(st.floats(0.001, 1e6))
        fields = [
            str(sno),
            pick(_NAMES),
            draw(st.sampled_from(("BTC", "", " ", '"E,T"'))),
            pick(_STAMPS).format(date(2017, 1, 1 + offset).isoformat()),
            *map(repr, (price * 1.02, price * 0.98, price, price * 1.01, price * 10.0, price * 1e6)),
            *(f"x{i}" for i in range(len(extra))),
        ]
        if draw(st.booleans()):
            fields[draw(st.integers(8, 9) if valid else st.integers(4, 9))] = pick(_NUMBERS)
        if not valid:
            fields = fields[: draw(st.sampled_from((len(fields), 7)))] + draw(st.sampled_from(([], ["more"])))
        lines.append(",".join(fields))
    bom = draw(st.sampled_from(("", "﻿")))
    return bom + end.join(lines) + draw(st.sampled_from((end, "")))


class TestParsePaths:
    """The str.split and csv tokenisations give the same series, or the same
    error. The tests' "C reader" is the str.split tokenisation."""

    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    def test_both_paths_agree(self, text):
        assert _outcome(text) == _outcome(text, split=False)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(GOOD_CSV, id="datetime-stamps"),
            pytest.param(GOOD_CSV.replace("\n", "\r\n"), id="crlf"),
            pytest.param("﻿" + GOOD_CSV, id="bom"),
            pytest.param(GOOD_CSV.replace("Marketcap\n", "Marketcap,Close\n").replace("000\n", "000,7\n"), id="duplicate-header"),
            pytest.param(GOOD_CSV + "\n\n", id="empty-lines"),
            pytest.param(GOOD_CSV.replace("1041.0", "+1041e0").replace("990.0", " 990.0 "), id="signs-exponents-spaces"),
            pytest.param(GOOD_CSV.replace("500000", "500_000"), id="underscore-number"),
            pytest.param(GOOD_CSV.replace("2017-01-03", "2017-01-03" + " " * 40), id="date-past-field-width"),
        ],
    )
    def test_clean_files_take_the_c_reader(self, text):
        assert _takes_split_path(text)
        assert _outcome(text) == _outcome(text, split=False)
        assert len(parse_csv(text)) == 3

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(GOOD_CSV + "   \n", id="whitespace-only-row"),
            pytest.param(GOOD_CSV.replace("\n", "\r"), id="bare-cr"),
            pytest.param(GOOD_CSV.replace("BTC,2017", "BTC,2017", 1).replace("16000000000", "16000000000,extra"), id="longer-row"),
            pytest.param(GOOD_CSV.replace("Bitcoin", '"Bitcoin, ""the"" coin\nof coins"'), id="quoted-comma-quote-newline"),
            pytest.param(GOOD_CSV.replace("Bitcoin", '"' + "B" * 50_000 + '"'), id="quoted-name-in-a-long-file"),
            pytest.param(GOOD_CSV.replace("\n2,", "\n\n2,"), id="interior-blank-line"),
            pytest.param(GOOD_CSV + " ,\t," + " ," * 7 + "\n", id="trailing-row-of-blank-fields"),
            pytest.param(GOOD_CSV.replace("Bitcoin", "Bit\x00coin"), id="nul-in-name"),
        ],
    )
    def test_files_the_c_reader_refuses_parse_by_rows(self, text):
        assert not _takes_split_path(text)
        assert _outcome(text) == _outcome(text, split=False)
        assert len(parse_csv(text)) == 3

    def test_date_past_the_field_width_is_never_cut_short(self):
        # the field starts with a date, but the whole field is not one
        text = GOOD_CSV.replace("2017-01-03", "2017-01-03" + " " * 25 + "junk")
        with pytest.raises(ValidationError, match="line 4: cannot parse date"):
            parse_csv(text)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_generated_bench_file_takes_the_c_reader(self, seed):
        for index in range(8):
            for days in (400, 2000):
                assert _takes_split_path(ohlcv_csv(seed, index, days).decode("ascii"))


def _csv_writer_text(header, columns) -> str:
    """The text csv.writer writes for the table, cell by cell as write_csv documents."""

    def cells(column):
        if not isinstance(column, np.ndarray):
            return column
        if column.dtype.kind != "f":
            return column.tolist()
        return ["" if not math.isfinite(x) else repr(x) for x in column.tolist()]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*map(cells, columns)))
    return buf.getvalue()


class TestWriteCsvBytes:
    """write_csv writes exactly what csv.writer writes."""

    @pytest.mark.parametrize(
        "header, columns",
        [
            pytest.param(["a,b", 'q"q', "r\rr", "n\nn", " s "], [["x,y", "", "z"], ['a"', "b", ""], ["\r", "c", "d"], ["\n", "e", "f"], [" x", "y ", " "]], id="cells-that-quote"),
            pytest.param(["a b", "c"], [[" x", "y "], ["z", ""]], id="spaces"),
            pytest.param(["only"], [["", "x", ""]], id="one-column-empty-cell"),
            pytest.param(["only"], [np.array([np.nan, 1.0])], id="one-column-blank-float"),
            pytest.param(["x", "y"], [np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300]), np.array([1.0 / 3.0, 2.0, 3.0, 4.0, 5.0])], id="non-finite"),
            pytest.param(["i", "r", "l", "b"], [np.arange(-2, 2), range(4), [7, 8, 9, 10], np.array([True, False, True, False])], id="integers"),
            pytest.param(["a", "f32"], [["1", "2"], np.array([0.1, 3.0], dtype=np.float32)], id="float32"),
            pytest.param(["s", "n"], [np.array(["a", "b,c"]), [None, 1.5]], id="string-array-and-none"),
            pytest.param(["s", "x"], [["a"] * 300 + ["b,c"] + ["d"] * 300, np.arange(601.0)], id="quote-in-a-later-block"),
            pytest.param(["date"], [], id="zero-columns"),
            pytest.param([], [], id="no-header"),
        ],
    )
    def test_same_bytes_as_csv_writer(self, tmp_path, header, columns):
        write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == _csv_writer_text(header, columns).encode("utf-8")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_bytes_as_csv_writer_on_drawn_tables(self, data):
        n = data.draw(st.integers(0, 5))
        texts = st.lists(st.text(alphabet=' ab,"\r\n\t', max_size=4), min_size=n, max_size=n)
        floats = st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n).map(np.array)
        ints = st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)
        columns = data.draw(st.lists(st.one_of(texts, floats, ints), max_size=4))
        header = data.draw(st.lists(st.text(alphabet='ab,"\n ', max_size=3), min_size=len(columns), max_size=len(columns)))
        buf = io.StringIO()
        with mock.patch.object(market_data, "open", create=True) as fake_open:
            fake_open.return_value.__enter__.return_value = buf
            write_csv("t.csv", header, columns)
        assert buf.getvalue() == _csv_writer_text(header, columns)


class TestRebase:
    def test_first_value_exactly_100(self):
        series = parse_csv(GOOD_CSV)
        rebased = rebase_to_100(series)
        assert rebased[0] == 100.0
        npt.assert_allclose(rebased[2], 109.0, rtol=1e-12)

    def test_proportions_preserved(self, walk_series):
        rebased = rebase_to_100(walk_series)
        closes = walk_series.column("close")
        npt.assert_allclose(rebased / 100.0, closes / closes[0], rtol=1e-12)

    def test_zero_first_price(self):
        rows = random_walk_rows(T=5)
        rows[0]["close"] = 0.0
        rows[0]["low"] = 0.0
        rows[0]["open"] = 0.0
        with pytest.raises(DomainError):
            rebase_to_100(rows_to_series(rows))


class TestAlign:
    def test_intersection(self):
        a = rows_to_series(random_walk_rows(T=10), symbol="A")
        b = rows_to_series(random_walk_rows(T=8)[3:], symbol="B")
        dates, (aa, bb) = align_on_dates([a, b])
        assert len(dates) == 5
        assert aa.dates() == bb.dates() == dates
        closes = {r["date"]: r["close"] for r in random_walk_rows(T=10)}
        npt.assert_array_equal(aa.column("close"), [closes[d] for d in dates])
        closes_b = {r["date"]: r["close"] for r in random_walk_rows(T=8)[3:]}
        npt.assert_array_equal(bb.column("close"), [closes_b[d] for d in dates])

    def test_empty_intersection(self):
        from datetime import date as d

        a = rows_to_series(random_walk_rows(T=4, start=d(2017, 1, 1)))
        b = rows_to_series(random_walk_rows(T=4, start=d(2019, 1, 1)))
        with pytest.raises(SizingError):
            align_on_dates([a, b])


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self):
        rows = np.array([[1.0, 10.0], [3.0, 30.0], [2.0, 50.0]])
        scaler = MinMaxScaler.fit(rows)
        out = scaler.apply(rows)
        npt.assert_array_equal(out.min(axis=0), [0.0, 0.0])
        npt.assert_array_equal(out.max(axis=0), [1.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        rows = rng.uniform(-5.0, 5.0, size=(30, 4))
        scaler = MinMaxScaler.fit(rows)
        scaled = scaler.apply(rows)
        back = np.column_stack([scaler.invert_column(c, scaled[:, c]) for c in range(4)])
        npt.assert_allclose(back, rows, rtol=1e-12, atol=1e-12)

    def test_constant_feature_maps_to_half_and_inverts(self):
        rows = np.array([[2.0, 7.0], [4.0, 7.0], [6.0, 7.0]])
        scaler = MinMaxScaler.fit(rows)
        scaled = scaler.apply(rows)
        npt.assert_array_equal(scaled[:, 1], [0.5, 0.5, 0.5])
        npt.assert_array_equal(scaler.invert_column(1, scaled[:, 1]), [7.0, 7.0, 7.0])

    def test_column_helpers_match_full_transform(self):
        rows = np.array([[1.0, 10.0], [3.0, 30.0], [2.0, 50.0]])
        scaler = MinMaxScaler.fit(rows)
        back = scaler.invert_column(0, scaler.apply(rows)[:, 0])
        npt.assert_allclose(back, rows[:, 0], rtol=1e-12)

    def test_width_mismatch(self):
        scaler = MinMaxScaler.fit(np.ones((3, 2)) * [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(ShapeError):
            scaler.apply(np.ones((2, 3)))

    def test_needs_two_rows(self):
        with pytest.raises(SizingError):
            MinMaxScaler.fit(np.ones((1, 2)))

    def test_is_frozen(self):
        scaler = MinMaxScaler.fit(np.array([[1.0, 10.0], [3.0, 30.0]]))
        with pytest.raises(AttributeError):
            scaler.mins = np.zeros(2)

    def test_serialization_round_trip(self):
        rows = np.array([[1.0, 10.0], [3.0, 30.0]])
        scaler = MinMaxScaler.fit(rows)
        assert sorted(scaler.to_dict()) == ["maxs", "mins"]
        clone = MinMaxScaler.from_dict(scaler.to_dict())
        npt.assert_array_equal(clone.apply(rows), scaler.apply(rows))

    def test_model_text_is_that_of_explicit_conversions(self):
        rng = np.random.default_rng(53)
        rows = rng.normal(size=(20, 5)) * [1e-3, 1.0, 1e3, 1e9, 1e-300]
        rows[:, 1] = -0.0  # a constant column, written as -0.0
        scaler = MinMaxScaler.fit(rows)
        explicit = {"mins": stored(scaler.mins, "<f8"), "maxs": stored(scaler.maxs, "<f8")}
        assert json_text(scaler.to_dict()) == json_text(explicit)
        clone = MinMaxScaler.from_dict(scaler.to_dict())
        assert clone.mins.tobytes() == scaler.mins.tobytes() and clone.maxs.tobytes() == scaler.maxs.tobytes()


DTYPES = ("<f4", "<f8", "<i8")


def cut(value) -> str:
    """How an error message shows a value: its repr, past 40 characters cut
    short with its length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def codec_faults(dtype: str):
    """(what is wrong, array object, message) for every rule of array_from_json,
    read as a ``dtype`` array of one dimension named ``w``."""
    good = stored([1, 2, 3], dtype)
    other = next(d for d in DTYPES if d != dtype)
    size = np.dtype(dtype).itemsize
    yield "a list", [1.0, 2.0], "w must be an object of data, dtype and shape, got [1.0, 2.0]"
    yield "null", None, "w must be an object of data, dtype and shape, got None"
    for what, value in (("no shape", {"data": good["data"], "dtype": dtype}), ("an extra key", {**good, "order": "C"})):
        yield what, value, f"w must be an object of data, dtype and shape, got {cut(value)}"
    yield "another dtype", {**good, "dtype": other}, f"w dtype must be {dtype!r}, got {other!r}"
    yield "big-endian", {**good, "dtype": ">" + dtype[1:]}, f"w dtype must be {dtype!r}, got '>{dtype[1:]}'"
    yield "a boolean dtype", {**good, "dtype": "|b1"}, f"w dtype must be {dtype!r}, got '|b1'"
    yield "a numpy type name", {**good, "dtype": np.dtype(dtype).name}, f"w dtype must be {dtype!r}, got {np.dtype(dtype).name!r}"
    yield "a dtype that is not text", {**good, "dtype": 8}, f"w dtype must be {dtype!r}, got 8"
    yield "a huge dtype", {**good, "dtype": "x" * 100_000}, f"w dtype must be {dtype!r}, got '{'x' * 39}... (100002 characters)"
    shape_rule = "w shape must be a list of 1 non-negative integers, got"
    yield "a shape that is not a list", {**good, "shape": 3}, f"{shape_rule} 3"
    yield "two dimensions", {**good, "shape": [3, 1]}, f"{shape_rule} [3, 1]"
    yield "no dimension", {**good, "shape": []}, f"{shape_rule} []"
    yield "a boolean length", {**good, "shape": [True]}, f"{shape_rule} [True]"
    yield "a float length", {**good, "shape": [3.0]}, f"{shape_rule} [3.0]"
    yield "a negative length", {**good, "shape": [-3]}, f"{shape_rule} [-3]"
    yield "a string length", {**good, "shape": ["3"]}, f"{shape_rule} ['3']"
    base64_rule = "w data must be base64 text, got"
    yield "data that is not text", {**good, "data": 5}, f"{base64_rule} 5"
    yield "data of numbers", {**good, "data": [1, 2, 3]}, f"{base64_rule} [1, 2, 3]"
    yield "data that is not ASCII", {**good, "data": "\u00e9" * 4}, f"{base64_rule} '\u00e9\u00e9\u00e9\u00e9'"
    yield "data cut short", {**good, "data": good["data"][:-1]}, f"{base64_rule} {good['data'][:-1]!r}"
    yield "a character outside base64", {**good, "data": "!" + good["data"][1:]}, f"{base64_rule} {'!' + good['data'][1:]!r}"
    yield "a line end", {**good, "data": good["data"] + "\n"}, f"{base64_rule} {good['data'] + chr(10)!r}"
    yield "text after the padding", {**good, "data": "AA==AAAA"}, f"{base64_rule} 'AA==AAAA'"
    yield "padding alone", {**good, "data": "===="}, f"{base64_rule} '===='"
    yield "bits past the last byte", {**good, "data": "AB=="}, f"{base64_rule} 'AB=='"
    length_rule = f"w holds {3 * size} bytes; its shape"
    yield "a short buffer", {**good, "shape": [4]}, f"{length_rule} [4] needs {4 * size}"
    yield "a long buffer", {**good, "shape": [2]}, f"{length_rule} [2] needs {2 * size}"
    yield "an empty shape of full data", {**good, "shape": [0]}, f"{length_rule} [0] needs 0"
    yield "a shape past memory", {**good, "shape": [2**64]}, f"{length_rule} [18446744073709551616] needs {2**64 * size}"
    yield "a shape past any integer", {**good, "shape": [10**400]}, f"{length_rule} {cut([10**400])} needs {cut(10**400 * size)}"
    yield "100,000 characters", {**good, "data": "AAAA" * 25_000}, f"w holds 75000 bytes; its shape [3] needs {3 * size}"
    if dtype != "<i8":
        for bad in (np.nan, np.inf, -np.inf):
            yield f"{bad} bits", stored([1.0, bad, 3.0], dtype), "w has non-finite values"


class TestArrayJson:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_arrays_round_trip_bit_for_bit(self, dtype):
        rng = np.random.default_rng(54)
        values = rng.normal(size=(3, 4)) * 1e30 if dtype != "<i8" else rng.integers(-2**63, 2**63 - 1, size=(3, 4))
        if dtype != "<i8":
            values[0, :3] = (-0.0, 5e-324, np.finfo(np.float32).tiny / 2)  # signed zero, subnormals
        array = values.astype(dtype)
        value = json.loads(json.dumps(array_json(array, dtype)))
        assert value == stored(array, dtype)
        loaded = array_from_json(value, "w", dtype, 2)
        assert loaded.dtype == np.dtype(dtype) and loaded.dtype.isnative and loaded.flags.writeable
        assert loaded.shape == (3, 4) and loaded.tobytes() == array.tobytes()
        assert unstored(value).tobytes() == array.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [[0], [0, 3], [3, 0]], ids=str)
    def test_empty_arrays_load(self, dtype, shape):
        value = array_json(np.zeros(shape), dtype)
        assert value == {"data": "", "dtype": dtype, "shape": shape}
        assert array_from_json(value, "w", dtype, len(shape)).shape == tuple(shape)

    def test_the_writer_stores_the_dtype_it_is_given(self):
        value = array_json([[1, 2], [3, 4]], "<f4")
        assert value == {"data": "AACAPwAAAEAAAEBAAACAQA==", "dtype": "<f4", "shape": [2, 2]}

    @pytest.mark.parametrize(
        "dtype, value, message",
        [pytest.param(d, value, message, id=f"{what}-{d}") for d in DTYPES for what, value, message in codec_faults(d)],
    )
    def test_every_rule_has_its_message(self, dtype, value, message):
        with pytest.raises(SchemaError) as info:
            array_from_json(value, "w", dtype, 1)
        text = str(info.value)
        assert len(text) < 200, text[:400]
        assert text == message


class TestWindows:
    def test_counts_and_contents(self):
        mat = np.arange(20.0).reshape(10, 2)  # T=10, d=2
        ds = make_windows(mat, target_col=1, n_steps_in=3, n_steps_out=2)
        assert ds.n_samples == 6  # 10 - 3 - 2 + 1
        npt.assert_array_equal(ds.X[0], mat[0:3])
        npt.assert_array_equal(ds.Y[0], mat[3:5, 1])
        npt.assert_array_equal(ds.X[5], mat[5:8])
        npt.assert_array_equal(ds.Y[5], mat[8:10, 1])

    def test_consecutive_windows_overlap(self):
        mat = np.random.default_rng(4).normal(size=(40, 3))
        ds = make_windows(mat, 0, 7, 1)
        for i in range(ds.n_samples - 1):
            npt.assert_array_equal(ds.X[i + 1][:-1], ds.X[i][1:])

    def test_too_short_series(self):
        with pytest.raises(SizingError, match="at least 5"):
            make_windows(np.ones((4, 1)), 0, 3, 2)

    def test_bad_target_column(self):
        with pytest.raises(ShapeError):
            make_windows(np.ones((10, 2)), 2, 3, 1)

    def test_bad_window_sizes(self):
        with pytest.raises(SizingError):
            make_windows(np.ones((10, 2)), 0, 0, 1)

    def test_train_window_count(self):
        assert train_window_count(10, 0.8) == 8
        with pytest.raises(DomainError, match=r"must be in \(0, 1\), got 0.0"):
            train_window_count(10, 0.0)
        with pytest.raises(SizingError, match=r"leaves an empty split for 3 window\(s\)"):
            train_window_count(3, 0.1)

    def test_windows_csv_dump(self, tmp_path):
        values = np.arange(12.0).reshape(6, 2) / 3.0
        values[0, 0] = np.nan
        ds = make_windows(values, 1, 2, 1, feature_names=("a", "b"))
        windows_to_csv(ds, tmp_path / "w.csv")
        assert (tmp_path / "w.csv").read_text(encoding="utf-8") == (
            "sample,x0_a,x0_b,x1_a,x1_b,y0\n"
            "0,,0.3333333333333333,0.6666666666666666,1.0,1.6666666666666667\n"
            "1,0.6666666666666666,1.0,1.3333333333333333,1.6666666666666667,2.3333333333333335\n"
            "2,1.3333333333333333,1.6666666666666667,2.0,2.3333333333333335,3.0\n"
            "3,2.0,2.3333333333333335,2.6666666666666665,3.0,3.6666666666666665\n"
        )


class TestSeriesToFeatures:
    def test_column_order_follows_request(self, walk_series):
        mat = series_to_features(walk_series, ("close", "open"))
        npt.assert_array_equal(mat[:, 0], walk_series.column("close"))
        npt.assert_array_equal(mat[:, 1], walk_series.column("open"))

    def test_unknown_field(self, walk_series):
        with pytest.raises(SchemaError):
            series_to_features(walk_series, ("close", "vwap"))
