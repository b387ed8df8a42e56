"""tools/same_csv.py reports how far a differing CSV moved."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_csv.py"
spec = importlib.util.spec_from_file_location("same_csv", TOOL)
same_csv = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_csv)


def test_column_moves_name_each_numeric_column_and_the_row_counts(tmp_path):
    here, ref = tmp_path / "here.csv", tmp_path / "ref.csv"
    here.write_text("algo,t,cum_regret\nmalm,1,0.5\nmalm,2,-1.25\n")
    ref.write_text("algo,t,cum_regret\nmalm,1,0.5\nmalm,2,-1.0\nmalm,3,2.0\n")
    assert same_csv.column_moves(str(here), str(ref)) == [
        "rows: 2 here, 3 in REF", "t: largest change 0, final rows 0",
        "cum_regret: largest change 0.25, final rows 0.25"]


def test_column_moves_show_the_cells_final_rows_next_to_the_largest(tmp_path):
    # a partial sum moves by 2 mid-run, but each cell's final value, the one
    # the benchmark checks, by at most 0.5
    here, ref = tmp_path / "here.csv", tmp_path / "ref.csv"
    here.write_text("algo,t,cum_regret\nmalm,1,3.0\nmalm,2,1.5\n"
                    "ny,1,0.0\nny,2,7.0\n")
    ref.write_text("algo,t,cum_regret\nmalm,1,1.0\nmalm,2,1.0\n"
                   "ny,1,0.0\nny,2,7.25\n")
    assert same_csv.column_moves(str(here), str(ref)) == [
        "t: largest change 0, final rows 0",
        "cum_regret: largest change 2, final rows 0.5"]
