/**
 * @file
 * Plain-text table emission used by the benchmark harnesses to
 * print the rows/series of each reproduced paper table and figure.
 */

#ifndef LECA_UTIL_TABLE_HH
#define LECA_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace leca {

/**
 * Accumulates rows of strings and renders them as an aligned text
 * table. Cell helpers format doubles with a fixed precision.
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Format a double with @p precision fraction digits. */
    static std::string num(double value, int precision = 2);

    /** Format a double as a percentage string, e.g. "12.34%". */
    static std::string pct(double value, int precision = 2);

    /** Render with aligned columns and a header rule. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> _headers;
    std::vector<std::vector<std::string>> _rows;
};

/** Print a section banner used between bench sub-experiments. */
void printBanner(std::ostream &os, const std::string &title);

} // namespace leca

#endif // LECA_UTIL_TABLE_HH
