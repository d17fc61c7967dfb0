/**
 * @file
 * Sample statistics and the metric report of the LeCA benchmark.
 *
 * Every metric carries its unit, which direction is better and how
 * many samples it summarises. The binary prints the report as a table
 * for people and, as its last line, one `RESULT {...}` JSON object
 * that perfbench/run.py turns into the benchmark's result line.
 */

#ifndef LECA_PERFBENCH_REPORT_HH
#define LECA_PERFBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two instants. */
double millis(Clock::time_point from, Clock::time_point to);

/** Nanoseconds between two instants. */
std::int64_t nanos(Clock::time_point from, Clock::time_point to);

/** A set of measured values with exact order statistics. */
class Samples
{
  public:
    void add(double value) { _values.push_back(value); }
    void reserve(std::size_t n) { _values.reserve(n); }
    std::size_t count() const { return _values.size(); }
    bool empty() const { return _values.empty(); }

    /** Linear-interpolated quantile, @p q in [0, 1] (0 when empty). */
    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    double mean() const;
    double sum() const;
    double max() const;

    /**
     * The highest of p99, p95, p90, p75 and p50 that has at least ten
     * samples beyond it (p50 when none has), so a reported tail is
     * never one or two outliers.
     */
    double tailLevel() const;

  private:
    std::vector<double> _values;
};

/** Percentile label of a quantile level, e.g. 0.99 -> "p99". */
std::string percentileName(double level);

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string better; //!< "lower" | "higher"
    std::size_t samples = 0;
    std::string note;
};

/** Named section of free-form key/value detail (rate points, sums). */
struct DetailRow
{
    std::string section;
    std::vector<std::pair<std::string, double>> values;
};

/** Everything one benchmark run reports. */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             const std::string &better, std::size_t samples,
             const std::string &note = "");

    /** Free-form detail for the self-test and the reader. */
    void detail(DetailRow row) { _details.push_back(std::move(row)); }

    /** Context lines printed above the table (configuration, host). */
    void info(const std::string &key, const std::string &value);

    /** Record @p count failed operations or output-check mismatches. */
    void fail(const std::string &what, std::uint64_t count = 1);

    void attempted(std::uint64_t n) { _attempted += n; }
    std::uint64_t attemptedCount() const { return _attempted; }
    std::uint64_t failedCount() const { return _failed; }

    /** Human-readable report followed by the RESULT JSON line. */
    void print() const;

  private:
    std::vector<Metric> _metrics;
    std::vector<DetailRow> _details;
    std::vector<std::pair<std::string, std::string>> _info;
    std::vector<std::string> _failures;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

} // namespace perfbench

#endif // LECA_PERFBENCH_REPORT_HH
