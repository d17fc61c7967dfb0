#include "table.hh"

#include "util/check.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "logging.hh"

namespace leca {

Table::Table(std::vector<std::string> headers)
    : _headers(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    LECA_CHECK(cells.size() == _headers.size(),
                "row width ", cells.size(), " != header width ",
                _headers.size());
    _rows.push_back(std::move(cells));
}

std::string
Table::num(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string
Table::pct(double value, int precision)
{
    return num(value, precision) + "%";
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        widths[c] = _headers[c].size();
    for (const auto &row : _rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << row[c];
        }
        os << "\n";
    };

    emit_row(_headers);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    os << std::string(total, '-') << "\n";
    for (const auto &row : _rows)
        emit_row(row);
}

void
printBanner(std::ostream &os, const std::string &title)
{
    os << "\n=== " << title << " ===\n";
}

} // namespace leca
