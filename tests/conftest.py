import pytest

from gridcount import GridQuery, ScanRow, build_totient_table, f_direct, main_term_f


@pytest.fixture(scope="session")
def table100():
    return build_totient_table(100)


@pytest.fixture(scope="session")
def table10k():
    return build_totient_table(10**4)


@pytest.fixture(scope="session")
def direct_scan_rows():
    """Scan rows whose exact counts come from the O(n^2) definition sum."""

    def rows_for(q, ns):
        rows = []
        for n in ns:
            exact = f_direct(GridQuery(n, q))
            main = main_term_f(n, q)
            res = exact - main
            rows.append(ScanRow(n, q, exact, main, res, abs(res) / float(n) ** 4.0))
        return rows

    return rows_for
