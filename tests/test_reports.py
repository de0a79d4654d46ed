from spinref import cooling, reports


def test_empty_records_header_only():
    csv = reports.records_to_csv([])
    assert csv == reports.ROUND_CSV_HEADER + "\n"


def test_records_csv_shape():
    rec = cooling.RoundRecord(
        phase=1, round=0, n_in=8, n_out=2, ones_in=4, ones_out=1,
        bias_emp=0.0, bias_pred=0.5, steps=62,
    )
    csv = reports.records_to_csv([rec, rec, rec])
    lines = csv.splitlines()
    assert len(lines) == 4
    assert lines[1] == "1,0,8,2,4,1,0,0.5,62"


def test_json_canonical():
    a = reports.to_json({"b": 1, "a": [1.5, 2]})
    b = reports.to_json({"a": [1.5, 2], "b": 1})
    assert a == b == '{"a":[1.5,2],"b":1}\n'


def test_orbit_csv():
    out = reports.orbit_to_csv("epsilon", [0.1, 0.2])
    assert out.splitlines() == ["i,epsilon", "0,0.1", "1,0.2"]
